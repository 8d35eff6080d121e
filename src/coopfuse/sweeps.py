"""Sweep drivers with a stable CSV schema.

``variant_sweep`` trains and evaluates one model per config variant (the
stage ablation, the retention sweep), the variants spread over
``pipeline.fork_map``; ``channel_sweep`` evaluates one model along a channel
axis (latency, packet drop), one ``evaluate`` per point. Every row carries
the evaluation channel settings alongside the metrics so sweep outputs are
self-describing. Sweep points share scenario seeds, so rows within one
sweep differ only in the swept quantity.
"""

from __future__ import annotations

import csv
from dataclasses import replace

from .pipeline import MetricRecord, Pipeline, PipelineConfig, evaluate, fork_map, stages_on
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


def metric_row(record: MetricRecord) -> dict:
    channel = record.channel
    return {
        "config_id": record.config_id,
        "L_ticks": channel.max_latency_ticks,
        "drop_p": channel.drop_p,
        "loc_sigma": channel.loc_sigma,
        "head_sigma": channel.head_sigma,
        "retention_k": record.retention,
        "occupancy_iou": record.occupancy_iou,
        "mse_to_clean": record.mse_to_clean,
    }


def _write_csv(path, header, rows) -> None:
    """A header row, then `rows`; csv writes a float as its repr, so values round-trip."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics_csv(path, rows: list[dict]) -> None:
    _write_csv(path, METRICS_COLUMNS, ([row[c] for c in METRICS_COLUMNS] for row in rows))


def write_trace_csv(path, trace_rows: list[tuple]) -> None:
    _write_csv(path, ("tick", "sender", "emit_tick", "arrive_tick", "dropped"), trace_rows)


def write_loss_curve_csv(path, curve: list[tuple[int, float, float, float]]) -> None:
    _write_csv(path, ("step", "loss", "bce", "aux"), curve)


def variant_sweep(variants: list[tuple[str, PipelineConfig]]
                  ) -> tuple[list[MetricRecord], list[dict]]:
    """Train and evaluate one model per (label, config) variant, seeds shared;
    the variants run on ``fork_map``, each training and evaluation in one worker,
    the costliest (most stages on) first. Records and rows keep the given order."""
    ranked = sorted(variants, key=lambda v: -len(stages_on(v[1])))    # stable among equals
    done = fork_map(lambda v: evaluate(train(v[1]).pipeline, config_id=v[0]), ranked)
    records = [done[ranked.index(v)] for v in variants]     # equal variants, equal records
    return records, [metric_row(rec) for rec in records]


def channel_sweep(cfg: PipelineConfig, points: list[tuple[str, ChannelConfig]],
                  pipe: Pipeline | None = None
                  ) -> tuple[list[MetricRecord], list[dict]]:
    """Evaluate one model (trained from cfg unless given) at each (label, channel)
    point; every point's evaluation is checked against the tick cap first."""
    for _, ch in points:
        cfg.check_ticks(ch)
    if pipe is None:
        pipe = train(cfg).pipeline
    records = [evaluate(pipe, channel=ch, config_id=label) for label, ch in points]
    return records, [metric_row(rec) for rec in records]


def latency_sweep(cfg: PipelineConfig, l_values: list[int], pipe: Pipeline | None = None
                  ) -> tuple[list[MetricRecord], list[dict]]:
    """``channel_sweep`` over maximum latencies, pose noise fixed."""
    return channel_sweep(cfg, [(f"L={l}", replace(cfg.channel, max_latency_ticks=int(l)))
                               for l in l_values], pipe)
