"""tools/pairs.py: the bitwise comparison of two checkouts' CLI outputs and
traced record counts, and the alternating benchmark pairs and their verdict."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_first_difference_names_the_first_differing_item():
    base = [("train/params.catp", "aa"), ("train/metrics.csv", "bb"),
            ("ablate/metrics.csv", "cc")]
    change = [("train/params.catp", "aa"), ("train/metrics.csv", "b0"),
              ("ablate/metrics.csv", "c0")]
    assert pairs.first_difference(base, change) == "train/metrics.csv"
    assert pairs.first_difference(base, base) is None


def test_unknown_revision_exits_2(capsys):
    if shutil.which("git") is None:
        pytest.skip("needs git")
    assert pairs.main(["--base", "no-such-revision", "--bitwise"]) == 2
    assert capsys.readouterr().err.startswith("pairs: no commit 'no-such-revision'")


def test_traced_run_not_correct_fails(tmp_path):
    """A side whose traced perfbench run does not read "correct": true is a
    failure (exit 2), not a count to compare."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        'import json\nprint(json.dumps({"correct": False, "metrics": {}}))\n')
    with pytest.raises(pairs.Failed, match='traced train-full run exited 0'):
        pairs.records(tmp_path)


def test_verdict_from_made_up_pairs():
    """The claim needs at least 10 pairs, 9 in 10 of them won (a tie wins
    for neither side) and a median gap larger than the base's IQR."""
    base = [60.0, 60.1, 59.9, 60.2, 60.0, 60.1, 59.8, 60.0, 60.3, 60.1]
    change = [56.9, 56.8, 57.0, 56.9, 60.0, 56.7, 56.9, 57.1, 56.8, 56.9]
    v = pairs.verdict(list(zip(base, change)), "lower")
    assert (v["wins"], v["pairs"]) == (9, 10)              # the tie at 60.0 is not a win
    assert v["parent"]["median"] == 60.05 and v["change"]["median"] == 56.9
    assert v["parent_iqr"] == pytest.approx(0.1) and v["gap"] == pytest.approx(3.15)
    assert v["met"]
    # eight wins of ten
    assert not pairs.verdict(list(zip(base, change[:8] + [61.0, 61.0])), "lower")["met"]
    # nine pairs, all won
    assert not pairs.verdict(list(zip(base[:9], change[:9])), "lower")["met"]
    # ten wins by less than the base's IQR
    assert not pairs.verdict([(b, b - 0.01) for b in base], "lower")["met"]
    # a higher-is-better metric reads the other way round
    up = pairs.verdict(list(zip(change, base)), "higher")
    assert (up["wins"], up["met"]) == (9, True)
    assert not pairs.verdict(list(zip(base, change)), "higher")["met"]


def test_pair_runs_alternate_and_summarize(tmp_path):
    """Each side's run.py sees every seed once, the parent first in even
    pairs; the summary holds each side's spread, wins and bound verdict."""
    log = tmp_path / "order.log"
    sides = {}
    for name, rss in (("parent", 60.0), ("change", 57.0)):
        side = sides[name] = tmp_path / name
        (side / "perfbench").mkdir(parents=True)
        (side / "perfbench" / "run.py").write_text(
            "import json, sys\n"
            f"seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
            f"open({str(log)!r}, 'a').write({name!r} + ' %d\\n' % seed)\n"
            "print('4 timed operations, raw median 50.0 ms, median probe 2.0 ms; ...')\n"
            "print(json.dumps({'correct': True, 'attempted': 4, 'failed': 0, 'metrics': {\n"
            f"    'op_ms': {{'value': 50.0 + seed % 3, 'unit': 'ms'}},\n"
            f"    'peak_rss_mb': {{'value': {rss} + seed / 100, 'unit': 'MB'}}}}}}))\n")
    runs = pairs.pair_runs(sides, "train-full", [1, 2, 3], 0.5, ["op_ms", "peak_rss_mb"])
    assert log.read_text().split("\n") == ["parent 1", "change 1", "change 2", "parent 2",
                                           "parent 3", "change 3", ""]
    assert [r["first"] for r in runs] == ["parent", "change", "parent"]
    spec = {"op_ms": {"better": "lower", "bound": 0.2, "unit": "ms"},
            "peak_rss_mb": {"better": "lower", "bound": 0.05, "unit": "MB"}}
    rows = pairs.summarize(runs, spec)
    assert rows["peak_rss_mb"]["change_wins"] == "3/3"
    assert rows["peak_rss_mb"]["change"]["median"] == 57.02
    assert rows["op_ms"]["change_wins"] == "0/3" and rows["op_ms"]["within_bound"]
    assert not rows["peak_rss_mb"]["claim_met"]           # three pairs are too few


@pytest.mark.slow
def test_head_against_head_is_bitwise(tmp_path):
    """Two exports of HEAD, run from paths of different lengths, give every
    output of every command the same sha256, and their traced runs the same
    record counts: 148 per train-full step and 9 per train-baseline step."""
    if shutil.which("git") is None or subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
            capture_output=True).returncode:
        pytest.skip("needs a git checkout with a HEAD commit")
    sides = [tmp_path / "a", tmp_path / "a-longer-path"]
    found = []
    for side in sides:
        pairs.export("HEAD", side / "tree")
        found.append(pairs.digests(side / "tree", side / "out") + pairs.records(side / "tree"))
    base, change = found
    assert [item for item, _ in base] == [
        f"{name}/{f}" for name, _, files in pairs.COMMANDS for f in ("stdout", *files)] + [
        f"{w}/{key}" for w in pairs.TRACED for key in pairs.RECORDS]
    counts = dict(base)
    assert counts["train-full/tensor.records_per_step"] == "148"
    assert counts["train-baseline/tensor.records_per_step"] == "9"
    assert pairs.first_difference(base, change) is None
    assert base == change
