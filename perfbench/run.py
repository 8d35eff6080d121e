"""coopfuse benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports coopfuse from ``src/``
there. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics from a traced run with ``--trace 1``.
See perfbench/README.md.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_ROUNDS = 5          # set-up is repeated and its median reported

# numpy's BLAS runs on one thread unless the caller says otherwise: on a
# 2-core machine shared with other work, a second BLAS thread that spins
# between the small matrix products made step times noisier.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="train-full, train-baseline or eval-latency")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coopfuse" / "__init__.py").is_file():
        print(f"perfbench: no coopfuse sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coopfuse
    if SRC not in Path(coopfuse.__file__).resolve().parents:
        print(f"perfbench: imported coopfuse from {coopfuse.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import checks
    from probe import at_reference, machine_probe
    from spans import Tracer
    from workloads import LATENCIES, WORKLOADS, set_up, timed_sweeps, timed_training
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = perf_counter() - T0
    machine_probe()   # first call pays numpy's lazy set-up
    import_probe_s = statistics.median(machine_probe() for _ in range(5))

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}"
    checkpoint, again = OUT / f"{tag}.catp", OUT / f"{tag}-again.catp"
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    round_trips, rounds = [], []
    for _ in range(SETUP_ROUNDS):
        su = set_up(workload, args.seed, checkpoint, lambda saved, loaded: round_trips.append(
            checks.checkpoint_round_trip(saved, loaded, checkpoint, again)))
        rounds.append(at_reference(su.seconds, su.probe_s))
    setup_s = at_reference(import_s, import_probe_s) + statistics.median(rounds)
    cfg, pipe = su.cfg, su.loaded

    n_units = workload.units(args.seconds)

    def timed_phase(n, on_pipe):
        # the traced run compares raw times with its own untraced reference
        if workload.kind == "train":
            return timed_training(cfg, on_pipe, n, probe=not tracer)
        return timed_sweeps(cfg, on_pipe, n, probe=not tracer)

    reference = None
    if tracer:
        # an untraced quarter run on the warmed-up pipeline, so that the
        # traced run still starts from the checkpoint
        tracer.uninstall()
        reference = timed_phase(max(1, n_units // 4),
                                su.saved if workload.kind == "train" else pipe)
        tracer.install()
        tracer.phase = "timed"
    timed = timed_phase(n_units, pipe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.phase = "check"
        tracer.uninstall()

    results = [("checkpoint_round_trip", all(ok for _, ok, _ in round_trips),
                f"{len(round_trips)} rounds: " + "; ".join(sorted({d for _, _, d in round_trips}))),
               checks.haar_round_trip(args.seed)]
    if workload.kind == "train":
        results.append(checks.loss_falls(timed.losses))
        results.append(checks.gradients_match(pipe, len(timed.losses), args.seed))
    else:
        results.append(checks.metrics_in_range(timed.records))
        if timed.records:   # the sweep's evaluate at the config's own channel
            whole = timed.records[-1][LATENCIES.index(cfg.channel.max_latency_ticks)]
            results.append(checks.evaluate_is_scenario_mean(pipe, whole))
        else:
            results.append(("evaluate_is_scenario_mean", False, "no sweep completed"))
        results.append(checks.perfect_channel_is_clean(cfg, checkpoint))
    checkpoint_bytes = checkpoint.stat().st_size
    checkpoint.unlink()
    for name, ok, detail in results:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")

    raw_ms = statistics.median(1e3 * t for t, _ in timed.ops)
    if tracer:
        ref_ms = statistics.median(1e3 * t for t, _ in reference.ops)
        metrics = tracer.layer_metrics(n_units, checkpoint_bytes)
        metrics["trace.op_ms"] = (raw_ms, "ms")
        metrics["trace.overhead_pct"] = (100.0 * (raw_ms / ref_ms - 1.0), "%")
        print("\n".join(tracer.self_time_table(n_units)))
        trace_file = OUT / f"trace-{tag}.jsonl"
        tracer.write(trace_file)
        print(f"spans written to {trace_file}")
        note = ""
    else:
        scaled = [at_reference(t, p) for t, p in timed.ops]
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms": (1e3 * statistics.median(scaled), "ms"),
            "ticks_per_s": (sum(timed.op_ticks) / sum(scaled), "ticks/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        note = f", median probe {statistics.median(1e3 * p for _, p in timed.ops):.4f} ms"
    print(f"{len(timed.ops)} timed operations, raw median {raw_ms:.3f} ms{note}; "
          + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items()))

    attempted = timed.attempted + len(results) + (reference.attempted if reference else 0)
    failed = timed.failed + sum(not ok for _, ok, _ in results) \
        + (reference.failed if reference else 0)
    print(json.dumps({
        "correct": all(ok for _, ok, _ in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
