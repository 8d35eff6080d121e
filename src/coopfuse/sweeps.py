"""Ablation and robustness sweep drivers with a stable CSV schema.

Every row carries the evaluation channel settings alongside the metrics so
sweep outputs are self-describing. Sweep points share scenario seeds, so
rows within one sweep differ only in the swept quantity.
"""

from __future__ import annotations

import csv
from dataclasses import replace

from .pipeline import MetricRecord, Pipeline, PipelineConfig, evaluate
from .training import train
from .world import ChannelConfig

METRICS_COLUMNS = ("config_id", "L_ticks", "drop_p", "loc_sigma", "head_sigma",
                   "retention_k", "occupancy_iou", "mse_to_clean")

ABLATION_COMBOS = (
    ("baseline", False, False, False),
    ("+stsync", True, False, False),
    ("+wtden", False, True, False),
    ("+adpsel", False, False, True),
    ("+stsync+wtden", True, True, False),
    ("+stsync+adpsel", True, False, True),
    ("full", True, True, True),
)


def metric_row(record: MetricRecord, channel: ChannelConfig, retention: float) -> dict:
    return {
        "config_id": record.config_id,
        "L_ticks": channel.max_latency_ticks,
        "drop_p": channel.drop_p,
        "loc_sigma": channel.loc_sigma,
        "head_sigma": channel.head_sigma,
        "retention_k": retention,
        "occupancy_iou": record.occupancy_iou,
        "mse_to_clean": record.mse_to_clean,
    }


def write_metrics_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in METRICS_COLUMNS])


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def write_trace_csv(path, trace_rows: list[tuple]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("tick", "sender", "emit_tick", "arrive_tick", "dropped"))
        for row in trace_rows:
            writer.writerow(row)


def write_loss_curve_csv(path, curve: list[tuple[int, float, float, float]]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("step", "loss", "bce", "aux"))
        for step, loss, bce, aux in curve:
            writer.writerow((step, repr(loss), repr(bce), repr(aux)))


def ablation_suite(cfg: PipelineConfig) -> tuple[list[MetricRecord], list[dict]]:
    """Train and evaluate the seven stage-toggle combinations under shared seeds."""
    cfg.validate()
    records, rows = [], []
    for label, st, wt, ad in ABLATION_COMBOS:
        sub = replace(cfg, stsync=st, wtden=wt, adpsel=ad)
        result = train(sub)
        rec = evaluate(result.pipeline, config_id=label)
        records.append(rec)
        rows.append(metric_row(rec, cfg.channel, cfg.retention))
    return records, rows


def latency_sweep(cfg: PipelineConfig, l_values: list[int],
                  pipe: Pipeline | None = None
                  ) -> tuple[list[MetricRecord], list[dict]]:
    """Evaluate one trained model across maximum latencies, pose noise fixed."""
    cfg.validate()
    channels = [replace(cfg.channel, max_latency_ticks=int(l)) for l in l_values]
    if pipe is None:
        pipe = train(cfg).pipeline
    records, rows = [], []
    for l_ticks, ch in zip(l_values, channels):
        rec = evaluate(pipe, channel=ch, config_id=f"L={l_ticks}")
        records.append(rec)
        rows.append(metric_row(rec, ch, cfg.retention))
    return records, rows


DEFAULT_RETENTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def retention_sweep(cfg: PipelineConfig, k_values: list[float] = DEFAULT_RETENTIONS
                    ) -> tuple[list[MetricRecord], list[dict]]:
    """Train and evaluate one model per retention ratio, seeds shared."""
    subs = [replace(cfg, retention=float(k)).validate() for k in k_values]
    records, rows = [], []
    for k, sub in zip(k_values, subs):
        result = train(sub)
        rec = evaluate(result.pipeline, config_id=f"k={k}")
        records.append(rec)
        rows.append(metric_row(rec, cfg.channel, float(k)))
    return records, rows


def history_loss_sweep(cfg: PipelineConfig, drop_rates: list[float],
                       pipe: Pipeline | None = None
                       ) -> tuple[list[MetricRecord], list[dict]]:
    """Evaluate one trained model under increasing packet-drop rates."""
    cfg.validate()
    if any(not 0.0 <= r < 1.0 for r in drop_rates):
        raise ValueError(f"drop rates must lie in [0, 1), got {drop_rates}")
    if pipe is None:
        pipe = train(cfg).pipeline
    records, rows = [], []
    for rate in drop_rates:
        ch = replace(cfg.channel, drop_p=float(rate))
        rec = evaluate(pipe, channel=ch, config_id=f"drop={rate}")
        records.append(rec)
        rows.append(metric_row(rec, ch, cfg.retention))
    return records, rows
