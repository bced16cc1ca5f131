"""The A/B runner's report, from canned perfbench result lines, and its
harness copy."""

import importlib.util
import json
from pathlib import Path

import pytest


def _ab_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
    spec = importlib.util.spec_from_file_location("ab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(wall, rss, failed=0):
    metrics = {
        "setup_s": {"value": 0.5, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return json.dumps({"correct": not failed, "attempted": 100, "failed": failed,
                       "metrics": metrics})


def test_summary_gives_medians_ratio_and_pairs_won():
    pairs = [
        (_line(0.110, 21.4), _line(0.090, 21.5)),
        (_line(0.112, 21.4), _line(0.095, 21.3)),
        (_line(0.108, 21.4), _line(0.120, 21.4, failed=2)),
    ]
    lines = _ab_tool().summarize(pairs)
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert lines[0].split() == ["metric", "parent", "change", "ratio", "lower", "parent_iqr"]
    # Medians 0.110 and 0.095; the change is lower in two pairs of three.
    # The parent's quartiles over 0.108, 0.110, 0.112 are 0.108 and 0.112.
    assert rows["wall_s"] == ["0.11", "0.095", "0.864", "2/3", "0.004"]
    assert rows["peak_rss_mb"] == ["21.4", "21.4", "1.000", "1/3", "0"]
    # Equal readings win no pair.
    assert rows["setup_s"] == ["0.5", "0.5", "1.000", "0/3", "0"]
    assert lines[-2:] == ["parent failed 0/300", "change failed 2/300"]


def test_summary_of_a_zero_parent_median_has_no_ratio():
    lines = _ab_tool().summarize([(_line(0.0, 1.0), _line(0.1, 1.0))])
    assert lines[2].split() == ["wall_s", "0", "0.1", "-", "0/1", "0"]


def test_a_move_within_the_parents_spread_is_marked_level():
    pairs = [
        (_line(0.100, 21.40), _line(0.101, 21.0)),
        (_line(0.104, 21.42), _line(0.103, 21.1)),
        (_line(0.108, 21.44), _line(0.106, 21.2)),
        (_line(0.112, 21.46), _line(0.109, 21.3)),
    ]
    rows = {line.split()[0]: line.split()[1:] for line in _ab_tool().summarize(pairs)[1:-2]}
    # Medians 0.106 and 0.1045 against quartiles 0.101 and 0.111: level.
    assert rows["wall_s"] == ["0.106", "0.1045", "0.986", "3/4", "0.01", "level"]
    # Medians 21.43 and 21.15 against quartiles 21.405 and 21.455: a move.
    assert rows["peak_rss_mb"] == ["21.43", "21.15", "0.987", "4/4", "0.05"]
    # No spread and no move is not marked either.
    assert rows["setup_s"] == ["0.5", "0.5", "1.000", "0/4", "0"]


def test_harness_difference_is_read_from_git_diff(monkeypatch):
    # git is replaced by a fake, so no process starts.
    ab = _ab_tool()
    calls, codes = [], [1, 0, 128]

    def fake_run(cmd):
        calls.append(cmd)
        return ab.subprocess.CompletedProcess(cmd, codes.pop(0))

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    assert ab.harness_differs("p", "c") is True
    assert ab.harness_differs("p", "c") is False
    # Any other exit code is git's error, such as an unknown revision.
    with pytest.raises(ab.subprocess.CalledProcessError):
        ab.harness_differs("p", "c")
    assert calls == [["git", "diff", "--quiet", "p", "c", "--", "perfbench"]] * 3


def test_the_changes_harness_replaces_the_parents(tmp_path):
    ab = _ab_tool()
    parent, change = tmp_path / "a", tmp_path / "b"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("old")
    (parent / "perfbench" / "gone.py").write_text("old")
    (parent / "src").mkdir()
    (parent / "src" / "code.py").write_text("parent")
    (change / "perfbench" / "tests").mkdir(parents=True)
    (change / "perfbench" / "run.py").write_text("new")
    (change / "perfbench" / "tests" / "test_new.py").write_text("new")
    ab.use_harness(str(change), str(parent))
    files = {str(f.relative_to(parent)): f.read_text() for f in parent.rglob("*") if f.is_file()}
    assert files == {"perfbench/run.py": "new", "perfbench/tests/test_new.py": "new",
                     "src/code.py": "parent"}
    # The change's tree is left as it was.
    assert (change / "perfbench" / "run.py").read_text() == "new"
