"""tools/pairs.py: the bitwise comparison of two checkouts' CLI outputs and
traced record counts."""

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
