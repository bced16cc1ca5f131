"""Tests of the benchmark itself: input determinism, the percentile rule,
metric names, the host-speed correction, and that each output check
rejects a corrupted result.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import dataclasses
import json
import os
import re
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from homoglab import Graph, graph_from_graph6  # noqa: E402
from homoglab.errors import BudgetExhausted  # noqa: E402
from homoglab.presentations import Requirement, WitnessResult  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_deterministic_per_seed(workload):
    assert inputs.make_inputs(workload, 11) == inputs.make_inputs(workload, 11)
    assert inputs.make_inputs(workload, 11) != inputs.make_inputs(workload, 12)


@pytest.mark.parametrize("n", [1, 5, 40, 62, 63, 64])
def test_graph6_encoder_matches_decoder(n):
    edges = inputs.random_edges(inputs.rng_for("t", 0, n), n, 0.3)
    g = graph_from_graph6(inputs.graph6(n, edges))
    assert g == Graph(n, edges)


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    assert run.percentile(samples, 0.9) == 90
    assert run.percentile(samples, 0.5) == 50
    with pytest.raises(ValueError):
        run.percentile(samples[:99], 0.9)
    assert run.percentile(list(range(20)), 0.5) == 9
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 0.5)


def test_metric_and_workload_names():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for name in names + list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name) and len(name) <= 64


def test_item_that_raises_is_recorded():
    rec = spans.Recorder()
    assert rec.item("x", "boom", lambda: 1 // 0) is None
    assert "ZeroDivisionError" in rec.errors["boom"]
    assert len(rec.latencies) == 1


def test_tracer_spans_nest_under_items():
    rec = spans.Tracer()
    rec.begin()
    rec.item("bulk", "k", rec.call, "graphs.star_number", lambda: 3)
    rec.end()
    item, call = sorted(rec.spans)
    assert call[1] == item[0] and call[2] == item[2]  # parent and trace id
    assert rec.layer_totals()["graphs.star_number.bulk.calls"] == 1


def _marks(durations, gap):
    """Probe (start, end) stamps: probes of these durations, ``gap`` apart."""
    marks, t = [], 0.0
    for d in durations:
        marks.append((t, t + d))
        t += d + gap
    return marks


def test_segment_scales_follow_the_local_probes():
    n = speed.NOMINAL_S
    # Three probes at nominal speed, then four at half speed: the segments
    # deep in each stretch get that stretch's factor, and one disturbed
    # probe inside a stretch moves nothing.
    scales = speed.segment_scales(_marks([n, n, n, 2 * n, 2 * n, 9 * n, 2 * n, 2 * n], 0.05))
    assert len(scales) == 7
    assert scales[0] == pytest.approx(1.0)
    assert scales[4:] == pytest.approx([0.5, 0.5, 0.5])


def test_recorder_corrects_items_and_wall_by_their_segment():
    n = speed.NOMINAL_S
    rec = spans.Recorder()
    rec.marks = _marks([2 * n] * 3, 0.1)
    rec.latencies, rec.segments = [0.04, 0.06, 0.1], [0, 0, 1]
    timed = rec.corrected()
    assert timed["wall_raw_s"] == pytest.approx(0.2)
    assert timed["wall_s"] == pytest.approx(0.1)
    assert timed["latencies_s"] == pytest.approx([0.02, 0.03, 0.05])


def test_probes_run_between_items_only():
    rec = spans.Recorder()
    rec.begin()
    slow = lambda: time.sleep(speed.PROBE_EVERY_S)  # noqa: E731
    for k in range(3):
        rec.item("x", f"k{k}", rec.call, "graphs.star_number", slow)
    rec.end()
    # One probe before each item after the first, plus begin and end.
    assert len(rec.marks) == 4 and rec.segments == [0, 1, 2]
    assert all(a[1] <= b[0] for a, b in zip(rec.marks, rec.marks[1:]))


@pytest.fixture(scope="module")
def census():
    rec = spans.Recorder()
    out = workloads.run("hh-census", workloads.prepare("hh-census", 5, rec), rec)
    assert not rec.errors
    return out


def test_census_checks_pass_then_catch_flips(census):
    expected = checks.load_expected()
    assert checks.check_census(census, expected) == {}

    flipped = copy.copy(census)
    flipped["bulk"] = list(census["bulk"])
    idx = next(i for i, (_, it) in enumerate(census["bulk"]) if it["order"] == 6 and it["hh_direct"].verdict)
    key, item = flipped["bulk"][idx]
    flipped["bulk"][idx] = (key, dict(item, hh_direct=dataclasses.replace(item["hh_direct"], verdict=False)))
    assert "disagree" in checks.check_census(flipped, expected)[key]

    # Both deciders flipped to yes on a no-instance: only the recorded
    # positive counts can notice.
    idx = next(i for i, (_, it) in enumerate(census["bulk"]) if it["order"] == 5 and not it["hh_direct"].verdict)
    key, item = census["bulk"][idx]
    yes = {k: dataclasses.replace(item[k], verdict=True, counterexample=None) for k in ("hh_direct", "hh_conditions")}
    flipped["bulk"] = list(census["bulk"])
    flipped["bulk"][idx] = (key, dict(item, **yes))
    assert "positives:5:hh" in checks.check_census(flipped, expected)


def test_census_checks_catch_bad_counterexample(census):
    idx, (key, item) = next(
        (i, ki) for i, ki in enumerate(census["bulk"])
        if ki[1]["order"] == 6 and not ki[1]["hh_direct"].verdict
    )
    ce = dict(item["hh_direct"].counterexample)
    domain = [u for u, _ in ce["map"]]
    ce["map"] = [[u, u] for u in domain]  # identity: the image has a cone
    bad = copy.copy(census)
    bad["bulk"] = list(census["bulk"])
    bad["bulk"][idx] = (key, dict(item, hh_direct=dataclasses.replace(item["hh_direct"], counterexample=ce)))
    assert key in checks.check_census(bad, checks.load_expected())


def _graph_items(workload, count):
    data = inputs.graph_inputs(workload, 2)[:count]
    rec = spans.Recorder()
    out = workloads.run(workload, data, rec)
    assert not rec.errors
    return out


@pytest.mark.parametrize("workload", ["sparse-directories", "dense-lemmas"])
def test_graph_checks_catch_non_dominating_directory(workload):
    out = _graph_items(workload, 6)
    assert checks.check_graph_items(out, sample_seed=1) == {}
    key, spec, item = out["items"][0]
    # Drop a vertex from the directory and claim alpha shrank with it: the
    # set is still independent and consistent, but the dropped vertex has
    # no neighbour in it.
    short = item["directories"][0][:-1]
    fake = dict(item, alpha=len(short), alpha_witness=short, directories=[short])
    bad = dict(out, items=[(key, spec, fake)] + out["items"][1:])
    assert "does not dominate" in checks.check_graph_items(bad, sample_seed=None)[key]
    wrong_alpha = dict(out, items=[(key, spec, dict(item, alpha=item["alpha"] + 1))] + out["items"][1:])
    assert key in checks.check_graph_items(wrong_alpha, sample_seed=None)


def test_countable_check_catches_witness_adjacent_to_b():
    rs3 = BudgetExhausted(Requirement((0, 1, 2), ()), "refuted")
    expected = checks.load_expected()
    # rado_bit: i < j are adjacent when bit i of j is set.
    good = ("ok", (0,), (1,), WitnessResult("found", vertex=5))
    bad = ("bad", (0,), (2,), WitnessResult("found", vertex=5))
    out = {"witnesses": [good, bad], "truncations": [], "spanning": [], "rs3": rs3, "classify": []}
    assert set(checks.check_countable(out, expected)) == {"bad"}
    out["rs3"] = None
    assert "spanning:rs:3" in checks.check_countable(out, expected)
