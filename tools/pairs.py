"""Compare a base revision of coopfuse with the working tree.

    python3 tools/pairs.py --base <rev> --bitwise

``--bitwise`` exports <rev> with ``git archive`` into a temporary directory
and runs the ``coopfuse`` CLI of each side, imported from that side's
``src/`` with ``OPENBLAS_NUM_THREADS=1``, on one small config: ``train``,
``run --scenario --params`` (the side's own checkpoint and a fixed scenario
document), ``run --seed 3``, ``ablate`` and ``sweep --axis`` latency,
retention and drop. It prints the sha256 digest of every output file and of
each command's standard output, base then change. It then runs each side's
own ``perfbench/run.py`` traced (``--seed 1 --seconds 1 --trace 1``) on the
``train-full`` and ``train-baseline`` workloads and prints the tape records
per training step, in all and per stage. It names the first digest or count
that differs. Exit status: 0 when every digest and count is equal, 1 when
one differs, 2 when the revision cannot be exported, a command fails or a
traced run's summary does not read ``"correct": true``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONFIG = {"training": {"steps": 3}, "eval_scenarios": 2, "eval_measure_ticks": 1}

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

# (output directory, CLI arguments after the config, files the command writes);
# "{train}" is the side's train output directory, "{scenario}" the scenario file
COMMANDS = (
    ("train", ["train"], ("params.catp", "loss_curve.csv", "metrics.csv")),
    ("run-scenario", ["run", "--scenario", "{scenario}", "--params", "{train}/params.catp"],
     ("trace.csv", "metrics.csv")),
    ("run-seed-3", ["run", "--seed", "3"], ("trace.csv", "metrics.csv")),
    ("ablate", ["ablate"], ("metrics.csv",)),
    ("sweep-latency", ["sweep", "--axis", "latency"], ("metrics.csv",)),
    ("sweep-retention", ["sweep", "--axis", "retention"], ("metrics.csv",)),
    ("sweep-drop", ["sweep", "--axis", "drop"], ("metrics.csv",)),
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
    config, scenario = work / "config.json", work / "scenario.json"
    config.write_text(json.dumps(CONFIG))
    scenario.write_text(json.dumps(SCENARIO))
    out = []
    for name, args, files in COMMANDS:
        args = [a.format(train=work / "train", scenario=scenario) for a in args]
        argv = [sys.executable, "-m", "coopfuse.cli", *args, "--config", str(config),
                "--out", str(work / name)]
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the revision to compare against")
    ap.add_argument("--bitwise", action="store_true", required=True,
                    help="compare sha256 digests of the CLI outputs and traced "
                         "record counts")
    args = ap.parse_args(argv)
    try:
        return bitwise(args.base)
    except Failed as e:
        print(f"pairs: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
