"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s or in failure output).  All quantities here are exact integers;
every comparison is equality or a strict inequality with zero tolerance.
"""

import time
from itertools import combinations, permutations

import pytest

from homoglab.errors import BudgetExhausted
from homoglab.graphs import analyze, cone_set
from homoglab.presentations import (
    extension_witness,
    make_presentation,
    parse_spec,
    classify_mb,
    spanning_rado,
)
from homoglab.verify import (
    cross_validate_hh,
    rs_truncation,
    verify_alpha_bound_family,
    verify_directory_lemmas,
    verify_directory_lemmas_random,
)

from conftest import graph_from_bits


def _line(num: int, ok: bool, text: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


@pytest.fixture(scope="module")
def cross_validation():
    start = time.perf_counter()
    report = cross_validate_hh(7)
    report.extra["wallclock"] = time.perf_counter() - start
    return report


def _brute_force_class_count(n: int) -> int:
    pairs = list(combinations(range(n), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    perms = list(permutations(range(n)))
    seen = set()
    for bits in range(1 << len(pairs)):
        g = graph_from_bits(n, bits)
        best = None
        for pi in perms:
            val = 0
            for u, v in g.edges():
                a, b = pi[u], pi[v]
                val |= 1 << idx[(min(a, b), max(a, b))]
            if best is None or val < best:
                best = val
        seen.add(best)
    return len(seen)


def _burnside_class_count(n: int) -> int:
    total = 0
    count = 0
    for pi in permutations(range(n)):
        count += 1
        seen = set()
        cycles = 0
        for p in combinations(range(n), 2):
            if p in seen:
                continue
            cycles += 1
            cur = p
            while True:
                cur = (min(pi[cur[0]], pi[cur[1]]), max(pi[cur[0]], pi[cur[1]]))
                if cur == p:
                    break
                seen.add(cur)
        total += 2**cycles
    return total // count


def test_criterion_1_decider_agreement(cross_validation):
    report = cross_validation
    disagreements = [
        f for f in report.failures if f["clause"] == "decider-disagreement"
    ]
    counts = report.extra["classes_per_order"]
    counts_ok = True
    for n in range(1, 6):
        counts_ok &= counts[n] == _brute_force_class_count(n)
    for n in range(1, 8):
        counts_ok &= counts[n] == _burnside_class_count(n)
    ok = not disagreements and counts_ok
    _line(
        1,
        ok,
        f"HH deciders agree on all {sum(counts.values())} classes of orders 1..7 "
        f"(counts {counts}, {report.extra['wallclock']:.1f}s)",
    )
    assert not disagreements
    assert counts_ok


def test_criterion_2_rs3_reproduction():
    ok = True
    for parts in (2, 3):
        g = rs_truncation(3, parts)
        report = analyze(g)
        ok &= report.independence_number == 3
        ok &= report.star_number == 2
        ok &= report.directories == ((0, 1, 2),)
        ok &= cone_set(g, [0, 1, 2]) == []
    _line(2, ok, "rs(3) truncations: alpha=3, sigma=2, unique directory, no block cone")
    assert ok


def test_criterion_3_alpha_bound():
    report = verify_alpha_bound_family(range(3, 7), part_sizes=(2, 3))
    rows = report.extra["rows"]
    ok = report.passed
    detail = ", ".join(
        f"n={r['n']}: alpha={r['alpha']} < {r['bound']}" for r in rows if r["part_size"] == 2
    )
    _line(3, ok, f"alpha bound holds with equality to bound-1 only at n=3 ({detail})")
    assert ok


def test_criterion_4_directory_lemmas():
    fixture_reports = [
        verify_directory_lemmas(rs_truncation(3, parts), [0, 1, 2])
        for parts in (2, 3)
    ]
    campaign = verify_directory_lemmas_random(count=1000, seed=20250809, max_order=40)
    ok = all(r.passed for r in fixture_reports) and campaign.passed
    _line(
        4,
        ok,
        f"directory lemmas: zero failures on rs(3) fixtures and "
        f"{campaign.instances} seeded random graphs (seed {campaign.extra['seed']})",
    )
    assert ok


def test_criterion_5_rado_probes():
    rado = make_presentation("rado_bit")
    budget = 1 << 16
    checked = 0
    all_found = True
    for size in range(0, 5):
        for support in combinations(range(10), size):
            for abits in range(1 << size):
                a = tuple(v for i, v in enumerate(support) if abits >> i & 1)
                b = tuple(v for i, v in enumerate(support) if not abits >> i & 1)
                checked += 1
                if extension_witness(rado, a, b, budget).status != "found":
                    all_found = False
    rs = make_presentation("rs", 3)
    block_probe = extension_witness(rs, [0, 1, 2], [], budget)
    proven = block_probe.status == "proven_absent"
    ok = all_found and proven
    _line(
        5,
        ok,
        f"all {checked} (A,B) requirements over the first 10 vertices witnessed "
        f"within 2^16; rs(3) block cone proven absent by certificate",
    )
    assert all_found
    assert proven


def test_criterion_6_spanning_construction():
    ok = True
    placed_counts = {}
    for family in ("union_cliques_complement", "rado_bit"):
        p = make_presentation(family)
        construction = spanning_rado(p, 12, 1 << 16)
        placed_counts[family] = len(construction.placed)
        ok &= len(construction.placed) >= 12
        ok &= construction.verify(p) == []
    rs = make_presentation("rs", 3)
    named = None
    try:
        spanning_rado(rs, 80, 1 << 14)
        ok = False
    except BudgetExhausted as exc:
        named = exc.requirement
        ok &= set(named.cone_over) >= {0, 1, 2}
    _line(
        6,
        ok,
        f"spanning selections placed {placed_counts} vertices, replay-verified; "
        f"rs(3) failed at requirement {named}",
    )
    assert ok


def test_criterion_7_classification():
    expected = {
        "k_omega": "k_omega",
        "null": "null",
        "i_omega_k_omega": "i_omega_of_k_omega",
        "complement_of:i_omega_k_omega": "k_omega_of_i_omega",
        "rado_bit": "rado",
        "two_way_path": "not_mb_evidence",
    }
    got = {spec: classify_mb(parse_spec(spec), 512).verdict for spec in expected}
    ok = got == expected
    _line(7, ok, f"bimorphism-class probes at budget 512: {got}")
    assert got == expected


def test_criterion_8_neighborhood_closure(cross_validation):
    report = cross_validation
    closure_failures = [
        f for f in report.failures if f["clause"] == "neighborhood-closure"
    ]
    ok = not closure_failures
    _line(
        8,
        ok,
        f"vertex neighbourhoods of all {report.extra['hh_positive_count']} "
        f"HH-positive graphs are HH-positive, zero exceptions",
    )
    assert not closure_failures


def test_cross_validation_counts(cross_validation):
    # 1,252 classes of orders 1..7, plus 104 closure sets (at most two
    # vertices with a common neighbour) over the 16 HH-positive classes: an
    # enumeration that drops the cone filter or a set size moves the total.
    report = cross_validation
    assert sum(report.extra["classes_per_order"].values()) == 1252
    assert report.extra["hh_positive_count"] == 16
    assert report.instances == 1252 + 104
