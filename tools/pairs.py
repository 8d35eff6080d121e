"""Compare a base revision of coopfuse with the working tree.

    python3 tools/pairs.py --base <rev> --bitwise
    python3 tools/pairs.py --base <rev> --label <name> --workload <w> --seeds <a-b>
                           [--seconds s] [--aa]

``--bitwise`` exports <rev> with ``git archive`` into a temporary directory
and runs the ``coopfuse`` CLI of each side, imported from that side's
``src/`` with ``OPENBLAS_NUM_THREADS=1``, on one small config: ``train``,
``run --scenario --params`` (the side's own checkpoint and a fixed scenario
document), ``run --seed 3``, ``ablate`` and ``sweep --axis`` latency,
retention and drop; and ``train`` again on the same config with
``training.batch_scenes`` 2, the batched loss. It prints the sha256 digest
of every output file and of each command's standard output, base then
change. It then runs each side's
own ``perfbench/run.py`` traced (``--seed 1 --seconds 1 --trace 1``) on the
``train-full`` and ``train-baseline`` workloads and prints the tape records
per training step, in all and per stage. It names the first digest or count
that differs. Exit status: 0 when every digest and count is equal, 1 when
one differs, 2 when the revision cannot be exported, a command fails or a
traced run's summary does not read ``"correct": true``.

``--label`` runs alternating pairs of the benchmark, untraced: for each
seed of the inclusive range a-b, ``perfbench/run.py --workload <w> --seed
<seed> --seconds <s> --trace 0`` of the base and of the change, the base
first in even-numbered pairs (counting from 0) and the change first in the
others. <s> defaults to ``run_seconds`` of BENCHMARK.json. The base is
exported as for ``--bitwise``; the change is a copy of the working tree (its
tracked and untracked, not ignored, files) beside it, so the two sides run
from new directories whose paths have the same length. With ``--aa`` the
change is a second export of the base. Each pair's end-to-end metrics and
the run's raw and probe medians go into the workload's entry of
``BENCH_<label>.json`` at the repository root (other workloads already in
the file stay). For every metric it prints each side's median and
quartiles, the change's wins, whether the median stays within
BENCHMARK.json's bound, and the claim verdict: at least 10 pairs, the
change better in at least 9 of every 10 (ties count for neither) and a gap
between the medians larger than the base's IQR. Exit status: 0 when every
run read ``"correct": true``, 2 when one did not or a run failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONFIG = {"training": {"steps": 3}, "eval_scenarios": 2, "eval_measure_ticks": 1}
BATCHED = {**CONFIG, "training": {**CONFIG["training"], "batch_scenes": 2}}

# three agents, three objects and a channel that drops and delays packets,
# with ticks > K + L_ticks at the config's K = 4
SCENARIO = {
    "seed": 5, "ticks": 9,
    "agents": [
        {"id": "ego", "pose": {"x": 0.0, "y": 0.0, "heading": 0.3}, "fov_m": 8.0},
        {"id": "c1", "pose": {"x": 5.0, "y": -2.0, "heading": 1.2}, "fov_m": 9.0},
        {"id": "c2", "pose": {"x": -4.0, "y": 3.0, "heading": -2.0}, "fov_m": 9.0},
    ],
    "objects": [
        {"x": 2.0, "y": 1.0, "w": 2.5, "h": 2.0, "vx": 1.5, "vy": -0.5},
        {"x": -3.0, "y": -4.0, "w": 2.0, "h": 3.0, "vx": -0.8, "vy": 1.4},
        {"x": 6.0, "y": 5.0, "w": 1.8, "h": 2.2, "vx": 0.0, "vy": -2.0},
    ],
    "bounds_m": 9.0,
    "channel": {"L_ticks": 2, "drop_p": 0.2, "loc_sigma": 0.3, "head_sigma": 0.05},
}

# (output directory, CLI arguments, files the command writes); "{config}" and
# "{batched}" are the CONFIG and BATCHED files, "{train}" is the side's train
# output directory and "{scenario}" the scenario file
COMMANDS = (
    ("train", ["train", "--config", "{config}"],
     ("params.catp", "loss_curve.csv", "metrics.csv")),
    ("train-batch-2", ["train", "--config", "{batched}"],
     ("params.catp", "loss_curve.csv", "metrics.csv")),
    ("run-scenario", ["run", "--config", "{config}", "--scenario", "{scenario}",
                      "--params", "{train}/params.catp"], ("trace.csv", "metrics.csv")),
    ("run-seed-3", ["run", "--config", "{config}", "--seed", "3"],
     ("trace.csv", "metrics.csv")),
    ("ablate", ["ablate", "--config", "{config}"], ("metrics.csv",)),
    ("sweep-latency", ["sweep", "--axis", "latency", "--config", "{config}"],
     ("metrics.csv",)),
    ("sweep-retention", ["sweep", "--axis", "retention", "--config", "{config}"],
     ("metrics.csv",)),
    ("sweep-drop", ["sweep", "--axis", "drop", "--config", "{config}"], ("metrics.csv",)),
)

# the perfbench workloads run traced, and the record counts compared per workload
TRACED = ("train-full", "train-baseline")
RECORDS = ("tensor.records_per_step",
           *(f"tensor.records.{stage}"
             for stage in ("integrate", "stsync", "wtden", "adpsel", "decode", "loss")))


class Failed(Exception):
    """A revision that cannot be exported, or a command that fails (exit 2)."""


def export(rev: str, dest: Path) -> str:
    """Write the tree of `rev` into the new directory `dest`; return its commit."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                             f"{rev}^{{commit}}"], capture_output=True, text=True)
    if commit.returncode:
        raise Failed(f"no commit {rev!r} in {ROOT}")
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit.stdout.strip()],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise Failed(f"could not export {rev!r} into {dest}")
    return commit.stdout.strip()


def side_env(side: Path) -> dict[str, str]:
    """The environment every command of the checkout at `side` runs in."""
    return {**os.environ, "PYTHONPATH": str(side / "src"), "OPENBLAS_NUM_THREADS": "1"}


def digests(side: Path, work: Path) -> list[tuple[str, str]]:
    """(item, sha256) for every output of COMMANDS run by the checkout at `side`,
    writing under the new directory `work`."""
    work.mkdir(parents=True)
    env = side_env(side)
    inputs = {"config": CONFIG, "batched": BATCHED, "scenario": SCENARIO}
    paths = {key: work / f"{key}.json" for key in inputs}
    for key, doc in inputs.items():
        paths[key].write_text(json.dumps(doc))
    out = []
    for name, args, files in COMMANDS:
        args = [a.format(train=work / "train", **paths) for a in args]
        argv = [sys.executable, "-m", "coopfuse.cli", *args, "--out", str(work / name)]
        done = subprocess.run(argv, cwd=side, env=env, capture_output=True)
        if done.returncode:
            raise Failed(f"{side}: {' '.join(args)} exited {done.returncode}: "
                         f"{done.stderr.decode(errors='replace').strip()}")
        out.append((f"{name}/stdout", hashlib.sha256(done.stdout).hexdigest()))
        out += [(f"{name}/{f}", hashlib.sha256((work / name / f).read_bytes()).hexdigest())
                for f in files]
    return out


def records(side: Path) -> list[tuple[str, str]]:
    """(item, count) for every RECORDS value of a traced one-second perfbench
    run of each TRACED workload by the checkout at `side`."""
    out = []
    for workload in TRACED:
        argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", "1"]
        done = subprocess.run(argv, cwd=side, env=side_env(side), capture_output=True,
                              text=True)
        try:
            summary = json.loads(done.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            summary = {}
        if done.returncode or summary.get("correct") is not True:
            failed = [line for line in done.stdout.splitlines() if "FAILED" in line]
            raise Failed(f"{side}: traced {workload} run exited {done.returncode} and did "
                         f"not read \"correct\": true: "
                         f"{'; '.join(failed) or done.stderr.strip()[-300:]}")
        out += [(f"{workload}/{key}", f"{summary['metrics'][key]['value']:g}")
                for key in RECORDS]
    return out


def first_difference(base: list[tuple[str, str]], change: list[tuple[str, str]]
                     ) -> str | None:
    """The first item whose digest or count differs between the sides, or None."""
    for (item, a), (_, b) in zip(base, change):
        if a != b:
            return item
    return None


def bitwise(rev: str) -> int:
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        commit = export(rev, Path(tmp) / "base")
        print(f"base {rev} ({commit[:12]}) against the working tree {ROOT}", flush=True)
        base = digests(Path(tmp) / "base", Path(tmp) / "base-out") + records(Path(tmp) / "base")
        change = digests(ROOT, Path(tmp) / "change-out") + records(ROOT)
    for (item, a), (_, b) in zip(base, change):
        print(f"{'same' if a == b else 'DIFFERS':8} {a[:16]:16} {b[:16]:16}  {item}")
    differs = first_difference(base, change)
    if differs is None:
        print(f"every digest and record count equal: {len(base)} items")
        return 0
    print(f"first difference: {differs}")
    return 1


CLAIM_RULE = ">= 10 pairs, change better in >= 9/10 of pairs (ties count for neither), " \
    "median gap > parent IQR (q3 - q1)"
# the medians perfbench/run.py prints on its "timed operations" line
MEDIANS = re.compile(r"raw median ([0-9.]+) ms, median probe ([0-9.]+) ms")


def copy_tree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into
    the new directory `dest`."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], capture_output=True)
    if listed.returncode:
        raise Failed(f"cannot list the files of the working tree {ROOT}")
    for name in sorted(set(listed.stdout.decode().split("\0")) - {""}):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def bench_run(side: Path, workload: str, seed: int, seconds: float,
              metrics: list[str]) -> dict:
    """One untraced perfbench run of the checkout at `side`: its end-to-end
    `metrics`, raw and probe medians, and the correct, attempted and failed
    fields of its summary."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        summary = json.loads(lines[-1])
        values = {m: summary["metrics"][m]["value"] for m in metrics}
        raw, probe = [m for m in map(MEDIANS.search, lines) if m][-1].groups()
    except (IndexError, KeyError, ValueError):
        raise Failed(f"{side}: {workload} seed {seed} exited {done.returncode} without a "
                     f"summary: {done.stderr.strip()[-300:]}") from None
    return {**values, "raw_median_ms": float(raw), "probe_median_ms": float(probe),
            "correct": summary.get("correct") is True,
            "attempted": summary.get("attempted", 0), "failed": summary.get("failed", 0)}


def spread(xs: list[float]) -> dict[str, float]:
    """Quartiles (numpy's default, linear interpolation), median, min and max."""
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 \
        else xs * 3
    return {"q1": q1, "median": median, "q3": q3, "min": min(xs), "max": max(xs)}


def verdict(pairs: list[tuple[float, float]], better: str) -> dict:
    """The claim rule on one metric's (base, change) values, one tuple per
    pair: at least 10 pairs, the change better in at least 9 of every 10
    (ties count for neither), and its median better than the base's by more
    than the base's IQR."""
    sign = 1.0 if better == "lower" else -1.0
    base, change = spread([b for b, _ in pairs]), spread([c for _, c in pairs])
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    gap = sign * (base["median"] - change["median"])
    iqr = base["q3"] - base["q1"]
    return {"parent": base, "change": change, "wins": wins, "pairs": len(pairs), "gap": gap,
            "parent_iqr": iqr,
            "met": len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and gap > iqr}


def summarize(runs: list[dict], spec: dict[str, dict]) -> dict:
    """Per metric of `spec` (name -> its BENCHMARK.json end_to_end entry, or
    just "better" and "unit" for a median without a bound), each side's
    spread over `runs`, the change's wins and the verdicts."""
    out = {}
    for name, entry in spec.items():
        v = verdict([(r["parent"][name], r["change"][name]) for r in runs], entry["better"])
        base, change = v["parent"], v["change"]
        row = {**{k: entry[k] for k in ("better", "bound", "unit") if k in entry},
               "parent": base, "change": change,
               "median_change_pct": round(100.0 * (change["median"] / base["median"] - 1.0), 2),
               "change_wins": f"{v['wins']}/{v['pairs']}", "claim_met": v["met"]}
        if "bound" in entry:
            row["within_bound"] = -v["gap"] <= entry["bound"] * abs(base["median"])
        out[name] = row
    return out


def pair_runs(sides: dict[str, Path], workload: str, seeds: list[int], seconds: float,
              metrics: list[str]) -> list[dict]:
    """Run `sides` ("parent" and "change" checkouts) on each seed in turn, the
    parent first when the pair's index is even; one dict per pair."""
    runs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"seed": seed, "first": order[0]}
        for name in order:
            run[name] = bench_run(sides[name], workload, seed, seconds, metrics)
        print(f"pair {i + 1}/{len(seeds)} seed {seed} ({order[0]} first): "
              + "; ".join(f"{m} {run['parent'][m]:.4g} -> {run['change'][m]:.4g}"
                          for m in (*metrics, "raw_median_ms")), flush=True)
        runs.append(run)
    return runs


def bench(rev: str, label: str, workload: str, seeds: list[int], seconds: float | None,
          aa: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise Failed(f"unknown workload {workload!r}")
    seconds = spec["run_seconds"] if seconds is None else seconds
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    path = ROOT / f"BENCH_{label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        sides = {"parent": Path(tmp) / "base", "change": Path(tmp) / "work"}
        commit = export(rev, sides["parent"])
        if doc.get("base", {}).get("commit", commit) != commit:
            raise Failed(f"{path.name} holds pairs against {doc['base']['commit'][:12]}, "
                         f"not {commit[:12]}; choose another label")
        if aa:
            export(rev, sides["change"])
        else:
            copy_tree(sides["change"])
        print(f"{workload}: base {rev} ({commit[:12]}) against "
              f"{'a second export of it' if aa else 'the working tree'}, "
              f"{len(seeds)} pairs of {seconds:g} s", flush=True)
        runs = pair_runs(sides, workload, seeds, seconds, list(end_to_end))
    medians = {"raw_median_ms": {"better": "lower", "unit": "ms"},
               "probe_median_ms": {"better": "lower", "unit": "ms"}}
    entry = {"seeds": seeds, "run_order": [{"seed": r["seed"], "first": r["first"]} for r in runs],
             "pairs": len(runs),
             "all_correct": all(r[s]["correct"] for r in runs for s in ("parent", "change")),
             **{f"{key}_ops": {s: sum(r[s][key] for r in runs) for s in ("parent", "change")}
                for key in ("failed", "attempted")},
             "metrics": summarize(runs, {**end_to_end, **medians}),
             "runs": [{"seed": r["seed"], "first": r["first"],
                       **{s: {k: r[s][k] for k in (*end_to_end, *medians)}
                          for s in ("parent", "change")}} for r in runs]}
    doc.update({
        "label": label, "base": {"rev": rev, "commit": commit},
        "change": f"a second export of {rev}" if aa else "the working tree",
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} "
                   "--trace 0, one subprocess per run, cwd at the side's root",
        "pairing": "parent and change alternate which runs first; pair i runs the parent "
                   "first when i is even; both sides sit in sibling directories whose paths "
                   "have the same length",
        "claim_rule": CLAIM_RULE,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy")}})
    doc.setdefault("workloads", {})[workload] = entry
    doc["regressions"] = {w: sorted(m for m, row in e["metrics"].items()
                                    if row.get("within_bound") is False)
                          for w, e in doc["workloads"].items()}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    for name, row in entry["metrics"].items():
        p, c = row["parent"], row["change"]
        bound = {True: "; within bound", False: "; OUTSIDE BOUND"}.get(row.get("within_bound"), "")
        print(f"{name:16} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}], change "
              f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}], "
              f"{row['median_change_pct']:+.2f} %, wins {row['change_wins']}; "
              f"claim {'met' if row['claim_met'] else 'not met'}{bound}")
    print(f"wrote {path}")
    return 0 if entry["all_correct"] else 2


def seed_range(text: str) -> list[int]:
    """The seeds of an inclusive range "a-b", or of a single seed "a"."""
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"not a seed range a-b with a <= b: {text!r}")
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the revision to compare against")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--bitwise", action="store_true",
                      help="compare sha256 digests of the CLI outputs and traced "
                           "record counts")
    mode.add_argument("--label", help="run alternating benchmark pairs and write "
                                      "BENCH_<label>.json")
    ap.add_argument("--workload", help="the perfbench workload of the pairs")
    ap.add_argument("--seeds", type=seed_range, help="the inclusive seed range a-b, one pair "
                                                     "per seed")
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--aa", action="store_true", help="pair the base with a second export "
                                                      "of itself")
    args = ap.parse_args(argv)
    if args.label is None and (args.workload or args.seeds or args.seconds is not None
                               or args.aa):
        ap.error("--workload, --seeds, --seconds and --aa go with --label")
    if args.label is not None and not (args.workload and args.seeds):
        ap.error("--label needs --workload and --seeds")
    if args.label is not None and not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        ap.error(f"--label must be letters, digits, '_', '.' or '-': {args.label!r}")
    try:
        if args.bitwise:
            return bitwise(args.base)
        return bench(args.base, args.label, args.workload, args.seeds, args.seconds, args.aa)
    except Failed as e:
        print(f"pairs: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # a terminated run still stops the command it waits on and removes its
    # temporary checkouts
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
