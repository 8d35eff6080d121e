"""tools/pairs.py: the bitwise comparison of two checkouts' CLI outputs."""

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


@pytest.mark.slow
def test_head_against_head_is_bitwise(tmp_path):
    """Two exports of HEAD, run from paths of different lengths, give every
    output of every command the same sha256."""
    if shutil.which("git") is None or subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
            capture_output=True).returncode:
        pytest.skip("needs a git checkout with a HEAD commit")
    sides = [tmp_path / "a", tmp_path / "a-longer-path"]
    found = []
    for side in sides:
        pairs.export("HEAD", side / "tree")
        found.append(pairs.digests(side / "tree", side / "out"))
    base, change = found
    assert [item for item, _ in base] == [
        f"{name}/{f}" for name, _, files in pairs.COMMANDS for f in ("stdout", *files)]
    assert pairs.first_difference(base, change) is None
    assert base == change
