"""The A/B runner's report, from canned perfbench result lines."""

import importlib.util
import json
from pathlib import Path


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
