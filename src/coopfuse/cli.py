"""Command-line entry points.

    coopfuse run    --config cfg.json --out dir [--scenario s.json] [--params p.catp]
    coopfuse train  --config cfg.json --out dir
    coopfuse ablate --config cfg.json --out dir
    coopfuse sweep  --axis latency|retention|drop --config cfg.json --out dir

All subcommands accept --seed to override the config seed. Outputs land in
the --out directory: metrics.csv always; train additionally writes
loss_curve.csv and params.catp; run writes trace.csv.

Exit codes: 0 success, 2 usage error ("usage error: ...") or configuration
error (an input too large for the host's memory included, and a forked
worker killed by a signal, "worker died: ..."), 3 numerical divergence (a
nonfinite training loss or evaluation metric; no metrics.csv is written),
130 interrupted (Ctrl-C, "interrupted"). Each error is reported in one line.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .pipeline import Pipeline, PipelineConfig, config_label, evaluate, load_config
from .sweeps import (ABLATION_COMBOS, channel_sweep, latency_sweep, metric_row,
                     variant_sweep, write_loss_curve_csv, write_metrics_csv,
                     write_trace_csv)
from .training import DivergenceError, train
from .world import load_scenario


class _Parser(argparse.ArgumentParser):
    """A parser, its subcommands' included, that reports a usage error in one
    stderr line with exit 2; ``--help`` still prints its text and exits 0."""

    def error(self, message):
        self.exit(2, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coopfuse", description="multi-agent fusion desk-scale harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="pipeline config JSON")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p_run = sub.add_parser("run", help="evaluate one configuration")
    common(p_run)
    p_run.add_argument("--scenario", type=Path, default=None, help="scenario JSON")
    p_run.add_argument("--params", type=Path, default=None, help="trained params (.catp)")

    p_train = sub.add_parser("train", help="train and serialize parameters")
    common(p_train)

    p_ablate = sub.add_parser("ablate", help="run the 7-combination stage ablation")
    common(p_ablate)

    p_sweep = sub.add_parser("sweep", help="latency / retention / drop sweeps")
    common(p_sweep)
    p_sweep.add_argument("--axis", choices=("latency", "retention", "drop"),
                         required=True)
    return parser


def _load_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is None:
        return cfg
    return replace(cfg, seed=args.seed, training=replace(cfg.training, seed=args.seed))


# overflow and NaN show up as a nonfinite loss or metric, reported in one line
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        args.out.mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            scenario = load_scenario(args.scenario) if args.scenario else None
            pipe = Pipeline(cfg)
            if args.params:
                pipe.load(args.params)
            trace: list = []
            rec = evaluate(pipe, config_id=config_label(cfg), scenario=scenario,
                           trace_rows=trace)
            rows = [metric_row(rec)]
            write_trace_csv(args.out / "trace.csv", trace)
            summary = f"iou={rec.occupancy_iou:.4f} mse={rec.mse_to_clean:.6f}"
        elif args.command == "train":
            result = train(cfg)
            result.pipeline.save(args.out / "params.catp")
            write_loss_curve_csv(args.out / "loss_curve.csv", result.loss_curve)
            rec = evaluate(result.pipeline, config_id=config_label(cfg))
            rows = [metric_row(rec)]
            first, last = result.loss_curve[0][1], result.loss_curve[-1][1]
            summary = (f"trained {cfg.training.steps} steps: loss {first:.4f} -> {last:.4f}; "
                       f"iou={rec.occupancy_iou:.4f}")
        elif args.command == "ablate":
            _, rows = variant_sweep([(label, replace(cfg, stsync=st, wtden=wt, adpsel=ad))
                                     for label, st, wt, ad in ABLATION_COMBOS])
            summary = f"wrote {len(rows)} ablation rows"
        else:
            if args.axis == "latency":
                _, rows = latency_sweep(cfg, [0, 1, 2, 3, 4, 5])
            elif args.axis == "retention":
                _, rows = variant_sweep([(f"k={k}", replace(cfg, retention=k))
                                         for k in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)])
            else:
                _, rows = channel_sweep(cfg, [(f"drop={p}", replace(cfg.channel, drop_p=p))
                                              for p in (0.0, 0.2, 0.4, 0.6, 0.8)])
            summary = f"wrote {len(rows)} sweep rows"
        for row in rows:
            bad = [f"{m}={row[m]}" for m in ("occupancy_iou", "mse_to_clean")
                   if not math.isfinite(row[m])]
            if bad:
                print(f"divergence: nonfinite metrics for {row['config_id']}: "
                      f"{' '.join(bad)}", file=sys.stderr)
                return 3
        write_metrics_csv(args.out / "metrics.csv", rows)
        print(summary)
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:      # ConfigError and JSONDecodeError are ValueErrors
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:                # also one raised in a forked worker
        print(f"out of memory: {e or 'an allocation failed'}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        # a forked worker killed by a signal, say by the out-of-memory killer;
        # the pool's module is only loaded once a pool has started
        futures = sys.modules.get("concurrent.futures.process")
        if futures is None or not isinstance(e, futures.BrokenProcessPool):
            raise
        print(f"worker died: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:               # the pools' workers ignore SIGINT and are shut down
        print("interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
