"""Ages, kk/okk partitions, the surjective-homomorphism order, and the two
HH deciders with their agreement on small graphs."""

import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from homoglab.errors import OrderTooLarge
from homoglab.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    lex_product,
    path_graph,
)
from homoglab import homogeneity
from homoglab.homogeneity import (
    _conditions_failure,
    age,
    decide_hh_conditions,
    decide_xy,
    kk_okk,
    preceq,
)
from homoglab.morphisms import (
    MorphismConstraints,
    PartialMap,
    _local_maps,
    canonical_code,
    enumerate_graphs,
    extends_in,
    validate_total_map,
)
from homoglab.verify import random_graph

from conftest import (
    brute_age_partition,
    brute_extendable,
    brute_local_morphisms,
    census_tail,
    clique_union,
    graph_from_bits,
    petersen,
)


@st.composite
def graphs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bits)


class TestAge:
    def test_k3(self):
        classes = age(complete_graph(3), 3)
        assert [cls.representative.n for cls in classes] == [1, 2, 3]
        assert {cls.code for cls in classes} == {
            canonical_code(complete_graph(k)) for k in (1, 2, 3)
        }

    def test_i3_up_to_pairs(self):
        classes = age(empty_graph(3), 2)
        assert {cls.code for cls in classes} == {
            canonical_code(empty_graph(1)),
            canonical_code(empty_graph(2)),
        }

    def test_c5_triples(self):
        classes = age(cycle_graph(5), 3)
        expected = {
            canonical_code(complete_graph(1)),
            canonical_code(complete_graph(2)),
            canonical_code(empty_graph(2)),
            canonical_code(path_graph(3)),
            canonical_code(disjoint_union(complete_graph(2), empty_graph(1))),
        }
        assert {cls.code for cls in classes} == expected

    def test_embeddings_realize_class(self):
        for cls in age(cycle_graph(5), 3):
            for emb in cls.embeddings:
                sub, _ = induced_subgraph(cycle_graph(5), emb)
                assert canonical_code(sub) == cls.code

    def test_prefix_built_subsets_match_brute_oracle(self):
        # Each subset is built from a subset one smaller plus a larger
        # vertex, carrying over its induced masks and cone.  The classes,
        # their embeddings in combinations order, the representatives and
        # the conflict witnesses must be those of a scan of every subset.
        rng = random.Random(4127)
        conflicts = 0
        for n in (7, 8, 9, 10):
            for p in (0.25, 0.5, 0.75):
                g = random_graph(rng, n, p)
                part, brute = kk_okk(g, n), brute_age_partition(g)
                assert part.classes == brute.classes, g.masks
                assert (part.kk, part.okk) == (brute.kk, brute.okk), g.masks
                assert part.conflicts == brute.conflicts, g.masks
                conflicts += len(part.conflicts)
        assert conflicts > 0

    def test_embedding_cap(self):
        # There is no embedding cap: every embedding is listed.
        classes = age(complete_graph(5), 2)
        assert [len(cls.embeddings) for cls in classes] == [5, 10]
        assert classes == list(kk_okk(complete_graph(5), 2).classes)

    def test_negative_embedding_cap_rejected(self):
        # Slicing with -1 used to drop the last embedding silently; the
        # keyword is gone, so every cap is refused and nothing is dropped.
        for cap in (-1, 0, 3):
            with pytest.raises(TypeError):
                age(complete_graph(3), 2, embedding_cap=cap)
        assert [len(c.embeddings) for c in age(complete_graph(3), 2)] == [3, 3]

    def test_size_cap(self):
        with pytest.raises(OrderTooLarge):
            age(complete_graph(4), 5)

    def test_negative_size_rejected(self):
        # A negative k used to give an empty age, and with it a false HH
        # verdict for P5 from the conditions decider.
        g = path_graph(5)
        for call in (lambda: age(g, -1), lambda: kk_okk(g, -1)):
            with pytest.raises(ValueError, match="k must be at least 0"):
                call()


class TestKkOkk:
    def test_rs3_i3_in_okk_only(self, rs3_m2):
        part = kk_okk(rs3_m2, 3)
        i3 = canonical_code(empty_graph(3))
        assert i3 in part.okk and i3 not in part.kk

    def test_rs3_k3_in_kk_only(self, rs3_m2):
        part = kk_okk(rs3_m2, 3)
        k3 = canonical_code(complete_graph(3))
        assert k3 in part.kk and k3 not in part.okk

    def test_p7_nonedge_conflict(self):
        part = kk_okk(path_graph(7), 2)
        i2 = canonical_code(empty_graph(2))
        assert i2 in part.kk and i2 in part.okk
        conflict = next(c for c in part.conflicts if c.code == i2)
        g = path_graph(7)
        # the recorded witnesses replay
        u, v = conflict.coned_embedding
        assert g.has_edge(conflict.cone_vertex, u)
        assert g.has_edge(conflict.cone_vertex, v)
        x, y = conflict.coneless_embedding
        assert not any(g.has_edge(w, x) and g.has_edge(w, y) for w in range(g.n))

    @given(graphs())
    @settings(max_examples=40)
    def test_kk_union_okk_covers_age(self, g):
        part = kk_okk(g, g.n)
        codes = {cls.code for cls in part.classes}
        assert part.kk | part.okk == codes

    def test_each_labelled_subgraph_is_coded_once_per_scan(self, monkeypatch):
        # The scan keeps the code of each induced masks tuple, so it asks
        # _code once per labelled subgraph: 189 times for the 637 subsets
        # of Petersen of size <= 5.  A second scan asks the same again,
        # since nothing is kept between calls.
        asked = []
        code = homogeneity._code

        def recording(adj):
            asked.append(adj)
            return code(adj)

        monkeypatch.setattr(homogeneity, "_code", recording)
        g = petersen()
        first = kk_okk(g, 5)
        keys = list(asked)
        assert len(keys) == len(set(keys))
        assert len(keys) == 189
        asked.clear()
        assert kk_okk(g, 5) == first
        assert asked == keys


class TestPreceq:
    def test_path_folds_onto_edge(self):
        assert preceq(path_graph(3), complete_graph(2))

    def test_identity(self):
        assert preceq(complete_graph(3), complete_graph(3))

    def test_edge_cannot_map_to_nonedge(self):
        assert not preceq(complete_graph(2), empty_graph(2))

    @given(graphs(), graphs())
    @settings(max_examples=40)
    def test_implies_order_inequality(self, a, b):
        if preceq(a, b):
            assert a.n >= b.n


class TestDecideXY:
    def test_cliques_are_hh(self):
        for n in (1, 2, 3, 5):
            assert decide_xy(complete_graph(n), "H", "H").verdict

    def test_p5_counterexample_replays(self):
        report = decide_xy(path_graph(5), "H", "H")
        assert not report.verdict
        f = PartialMap(tuple((u, v) for u, v in report.counterexample["map"]))
        assert extends_in(path_graph(5), f, "H") is None
        # the map exhibited in the operation contract is also unextendable
        assert extends_in(path_graph(5), PartialMap([(0, 0), (2, 4)]), "H") is None

    def test_k3_plus_k2_not_hh(self):
        g = disjoint_union(complete_graph(3), complete_graph(2))
        report = decide_xy(g, "H", "H")
        assert not report.verdict
        f = PartialMap(tuple((u, v) for u, v in report.counterexample["map"]))
        assert extends_in(g, f, "H") is None

    def test_two_disjoint_edges_hh(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert decide_xy(g, "H", "H").verdict

    def test_empty_graphs_hh(self):
        assert decide_xy(empty_graph(4), "H", "H").verdict

    def test_hm_only_on_cliques(self):
        assert decide_xy(complete_graph(4), "H", "M").verdict
        assert not decide_xy(path_graph(3), "H", "M").verdict

    def test_mm_on_empty_graph(self):
        assert decide_xy(empty_graph(4), "M", "M").verdict

    def test_b_note_present(self):
        report = decide_xy(complete_graph(3), "M", "B")
        assert report.verdict
        assert "automorphism" in (report.note or "")

    def test_ia_ultrahomogeneous_cases(self):
        assert decide_xy(cycle_graph(5), "I", "A").verdict
        assert decide_xy(complete_graph(4), "I", "A").verdict
        assert not decide_xy(path_graph(4), "I", "A").verdict

    def test_bad_kinds(self):
        with pytest.raises(ValueError):
            decide_xy(complete_graph(2), "E", "H")
        with pytest.raises(ValueError):
            decide_xy(complete_graph(2), "H", "X")
        # A kind is one letter, not any substring of the kind list.
        for x, y in [("", "H"), ("HM", "H"), ("H", ""), ("H", "EBA")]:
            with pytest.raises(ValueError, match="kind must be one of"):
                decide_xy(cycle_graph(5), x, y)

    def test_order_cap(self):
        # One cap of 10 for every cell, with no override: above it the
        # (H, H) route would build a cone table of 2^n sets.
        for x, y in (("H", "H"), ("M", "H"), ("I", "A")):
            with pytest.raises(OrderTooLarge, match="capped at order 10"):
                decide_xy(empty_graph(11), x, y)
        with pytest.raises(TypeError):
            decide_xy(empty_graph(11), "H", "H", max_order=11)


# Recorded from the deciders before the local-morphism rule moved into
# morphisms.py; see TestRecordedDigest.
_RECORDED_DECIDER_DIGEST = "3844c4a3ea1550db27965798e1dc090a1538e2d4fc58fb8027f0dff3f1b0b0b1"


def _decider_record(g, cells) -> str:
    """Both HH deciders, the age partition and the given decide_xy cells
    of g, as one canonical JSON string."""
    part = kk_okk(g, g.n)
    partition = {
        "classes": [
            [cls.code.hex(), list(cls.representative.masks), [list(e) for e in cls.embeddings]]
            for cls in part.classes
        ],
        "kk": sorted(code.hex() for code in part.kk),
        "okk": sorted(code.hex() for code in part.okk),
        "conflicts": [
            [c.code.hex(), list(c.coned_embedding), c.cone_vertex, list(c.coneless_embedding)]
            for c in part.conflicts
        ],
    }
    record = {
        "masks": list(g.masks),
        "conditions": decide_hh_conditions(g).to_dict(),
        "partition": partition,
        "cells": [decide_xy(g, x, y).to_dict() for x, y in cells],
    }
    return json.dumps(record, sort_keys=True)


class TestRecordedDigest:
    def test_decider_reports_match_the_recorded_digest(self):
        # One SHA-256 over every decider report and age partition: all 18
        # decide_xy cells up to order 5 and (H, H) at order 6, on each
        # class and on a seeded relabelling of it, then the benchmark's
        # symmetric tail of order 8-10.  Any change to a verdict, a
        # counterexample, a note or an age class shows here.
        every_cell = [(x, y) for x in "HMI" for y in "HMEBAI"]
        rng = random.Random(1511)
        digest = hashlib.sha256()
        for n in range(1, 7):
            cells = every_cell if n <= 5 else [("H", "H")]
            for rep in enumerate_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for g in (rep, rep.relabel(perm)):
                    digest.update(_decider_record(g, cells).encode())
        for g in census_tail():
            digest.update(_decider_record(g, [("H", "H")]).encode())
        assert digest.hexdigest() == _RECORDED_DECIDER_DIGEST


def _unskipped_hh_walk(g) -> dict:
    """The (H, H) report as a dict, from a walk over every coned domain in
    (size, domain) order from size 0 up, with no domain skipped."""
    report = {"verdict": True, "x_kind": "H", "y_kind": "H", "method": "direct",
              "counterexample": None, "note": None}
    for size in range(g.n + 1):
        for domain in combinations(range(g.n), size):
            cones = _cones(g, domain)
            if not cones:
                continue
            for images, _ in _local_maps(g.masks, g.masks, "H", domain, (), 0):
                if not _cones(g, images):
                    report["verdict"] = False
                    report["counterexample"] = {
                        "map": [[u, t] for u, t in zip(domain, images)],
                        "unextendable_vertex": cones[0],
                        "reason": "image of the domain has no cone",
                    }
                    return report
    return report


class TestHHDomainSkip:
    """decide_xy(g, "H", "H") skips every domain smaller than the smallest
    coneless vertex set; the skipped domains hold no failure."""

    def test_matches_unskipped_walk_up_to_order_6(self):
        rng = random.Random(6151)
        for n in range(1, 7):
            for rep in enumerate_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                g = rep.relabel(perm)
                assert decide_xy(g, "H", "H").to_dict() == _unskipped_hh_walk(g), g.masks

    def test_order_10_catalogue(self):
        # Unions of equal cliques are HH: a coned set lies inside one clique
        # short of its whole, and a homomorphism maps a clique onto a clique
        # of the same size.  K5[I2] is not: a homomorphism spreads a coned
        # K_{2,2,2,2} over all five parts.  Nor is Petersen: a coned
        # non-edge maps onto an edge, and Petersen has no triangle.  Nor is
        # C5[K2]: with x, x' in one block and y two blocks on, the coned
        # {x, x', y} maps to x, a vertex of the next block and one of the
        # block opposite these two, which have no common neighbour.
        expected = {
            "K9": (complete_graph(9), True),
            "K10": (complete_graph(10), True),
            "I10": (empty_graph(10), True),
            "2K5": (clique_union((5, 5)), True),
            "5K2": (clique_union((2,) * 5), True),
            "K5[I2]": (lex_product(complete_graph(5), empty_graph(2)), False),
            "C5[K2]": (lex_product(cycle_graph(5), complete_graph(2)), False),
            "Petersen": (petersen(), False),
        }
        for name, (g, verdict) in expected.items():
            assert decide_xy(g, "H", "H").verdict == verdict, name
            assert decide_hh_conditions(g).verdict == verdict, name


class TestDecideConditions:
    def test_cliques(self):
        for n in (1, 3, 4):
            assert decide_hh_conditions(complete_graph(n)).verdict

    def test_p7_fails_on_conflict(self):
        report = decide_hh_conditions(path_graph(7))
        assert not report.verdict
        assert report.counterexample["condition"] == 1
        assert report.counterexample["code"] == canonical_code(empty_graph(2))

    def test_c5_fails_on_upward_closure(self):
        # C_5 has no conflicts but a nonedge (coned) folds onto an edge
        # (cone-free), breaking upward closure.
        report = decide_hh_conditions(cycle_graph(5))
        assert not report.verdict
        assert report.counterexample["condition"] == 2
        assert report.counterexample["upper_code"] == canonical_code(empty_graph(2))
        assert report.counterexample["lower_code"] == canonical_code(complete_graph(2))

    def test_whole_age_always_read(self):
        # P5 is not HH, yet its age up to one vertex passes both conditions.
        # The conditions route stops reading the age early only on a
        # condition-1 failure or past the maximum degree, beyond which no
        # class is coned, so a truncated age is never taken as a pass, and
        # it says no.
        g = path_graph(5)
        assert not decide_xy(g, "H", "H").verdict
        assert not decide_hh_conditions(g).verdict
        assert decide_hh_conditions(complete_graph(4)).note is None
        with pytest.raises(TypeError):
            decide_hh_conditions(g, k=1)

    def test_early_stop_matches_whole_age(self):
        # The age is read up to the maximum degree, one subset size at a
        # time, and the scan stops after the first size with a condition-1
        # conflict; the report must be the one the whole age gives.  Sparse
        # graphs of order 7-10 have a maximum degree well below their
        # order, and their complements one close to it.
        rng = random.Random(2718)
        sample = []
        for n in range(1, 7):
            for rep in enumerate_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                sample.append(rep.relabel(perm))
        for n in range(7, 11):
            for _ in range(4):
                g = random_graph(rng, n, 0.2)
                sample += [g, complement(g)]
        for g in sample + census_tail():
            whole = {code: entry for level in homogeneity._age_levels(g, g.n)
                     for code, entry in level.items()}
            expected = _conditions_failure(whole)
            assert decide_hh_conditions(g).counterexample == expected, g.masks

    def test_early_stop_reads_only_the_orders_it_needs(self, monkeypatch):
        # Petersen has a conflict among its triples and P7 among its
        # pairs.  The other graphs have no conflict (K3xK3 fails condition
        # 2), so their age is read up to their maximum degree: no larger
        # class is coned.  I8 has none, so no code is asked at all.
        asked = []
        code = homogeneity._code

        def recording(adj):
            asked.append(len(adj))
            return code(adj)

        rook = Graph(9, [(u, v) for u, v in combinations(range(9), 2)
                         if u // 3 == v // 3 or u % 3 == v % 3])
        monkeypatch.setattr(homogeneity, "_code", recording)
        for g, largest in (
            (petersen(), 3),
            (path_graph(7), 2),
            (complete_graph(4), 3),
            (rook, 4),
            (clique_union((3, 3, 3)), 2),
            (clique_union((2, 2, 2, 2)), 1),
        ):
            asked.clear()
            decide_hh_conditions(g)
            assert max(asked) == largest, g.masks
        asked.clear()
        assert decide_hh_conditions(empty_graph(8)).verdict
        assert asked == []

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_agreement_with_direct(self, g):
        assert decide_xy(g, "H", "H").verdict == decide_hh_conditions(g).verdict

    def test_order_cap(self):
        # The age computation caps the decider; there is no override.
        with pytest.raises(OrderTooLarge, match="capped at size 10"):
            decide_hh_conditions(empty_graph(11))

    def test_surjections_validate_up_to_order_6(self):
        # Every condition-2 witness is a surjective homomorphism between
        # the two class representatives it names.
        seen = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                ce = decide_hh_conditions(g).counterexample
                if ce is None or ce["condition"] != 2:
                    continue
                reps = {cls.code: cls.representative for cls in kk_okk(g, n).classes}
                assert validate_total_map(
                    reps[ce["upper_code"]],
                    reps[ce["lower_code"]],
                    ce["surjection"],
                    MorphismConstraints(surjective=True),
                )
                seen += 1
        assert seen > 0

    def test_rs3_truncation_verdict_recorded(self, rs3_m2):
        # Computed, not presumed: the m=2 truncation fails HH because one
        # clique part runs out of cones for a diamond-shaped image.
        direct = decide_xy(rs3_m2, "H", "H")
        conditions = decide_hh_conditions(rs3_m2)
        assert direct.verdict == conditions.verdict == False  # noqa: E712


def _cones(g, vs) -> list[int]:
    return [w for w in range(g.n) if all(g.has_edge(w, v) for v in vs)]


def _stuck(g, f, local_i) -> list[int]:
    """Vertices outside the domain of f that no image adds to f as a local
    isomorphism."""
    domain = {u for u, _ in f}
    return [
        a
        for a in range(g.n)
        if a not in domain
        and not any(tuple(sorted(f + ((a, t),))) in local_i for t in range(g.n))
    ]


def _least_route_failure(g, x, y, local, extendable):
    """The counterexample an enumerating route of decide_xy must report, as
    (map, unextendable vertex): its least failing local map in (domain
    size, domain, images) order.  None for the closed-form cells, and
    (None, None) when nothing fails."""
    if (x, y) == ("H", "H"):
        failing = [
            f
            for f in local["H"]
            if _cones(g, [u for u, _ in f]) and not _cones(g, {t for _, t in f})
        ]
    elif y == "H":
        failing = local[x] - extendable["H"]
    elif x == "I":
        failing = [f for f in local["I"] if _stuck(g, f, local["I"])]
    else:
        return None
    if not failing:
        return None, None
    least = min(failing, key=lambda f: (len(f), [u for u, _ in f], [t for _, t in f]))
    vertex = None
    if (x, y) == ("H", "H"):
        vertex = _cones(g, [u for u, _ in least])[0]
    elif y != "H":
        vertex = _stuck(g, least, local["I"])[0]
    return [list(p) for p in least], vertex


class TestCatalogCrossChecks:
    """Verdicts against classical catalogs of finite homogeneous graphs."""

    def test_ultrahomogeneous_catalog_up_to_order_6(self):
        # Gardiner (1976): the finite ultrahomogeneous graphs are the
        # equal-size clique unions mK_r, their complements, C_5 and
        # K_3 x K_3.  Per order 1..6 that is 1, 2, 2, 4, 3, 6; order 6 has
        # K6, I6, 2K3, 3K2, K3,3 and K2,2,2.
        counts = {}
        for n in range(1, 7):
            counts[n] = sum(
                1 for g in enumerate_graphs(n) if decide_xy(g, "I", "A").verdict
            )
        assert counts == {1: 1, 2: 2, 3: 2, 4: 4, 5: 3, 6: 6}
        # K_3 x K_3 on divmod(v, 3): adjacent when sharing a row or column.
        rook = Graph(
            9,
            (
                (u, v)
                for u, v in combinations(range(9), 2)
                if u // 3 == v // 3 or u % 3 == v % 3
            ),
        )
        assert decide_xy(rook, "I", "A").verdict

    def test_mh_equals_hh_up_to_order_5(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                assert (
                    decide_xy(g, "M", "H").verdict == decide_xy(g, "H", "H").verdict
                )

    def test_hm_positive_exactly_the_cliques(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                expected = g.edge_count() == n * (n - 1) // 2
                assert decide_xy(g, "H", "M").verdict == expected

    def test_finite_collapse_of_target_kinds(self):
        # Injective, surjective, bijective and embedding endomorphisms all
        # coincide with automorphisms on finite graphs, so kinds M, E, B,
        # A, I must give one verdict.
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                for x in "HMI":
                    verdicts = {decide_xy(g, x, y).verdict for y in "MEBAI"}
                    assert len(verdicts) == 1

    def test_all_cells_match_brute_oracle_up_to_order_5(self):
        # Verdicts against endomorphisms enumerated kind by kind.  Every
        # counterexample is a local x-morphism that no y-endomorphism
        # restricts to, and a named vertex has no image keeping it local.
        # The enumerating routes report their least failing map, on each
        # class and on a seeded relabelling of it.
        rng = random.Random(7027)
        for n in range(1, 6):
            for rep in enumerate_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for g in (rep, rep.relabel(perm)):
                    local = brute_local_morphisms(g)
                    extendable = brute_extendable(g)
                    for x in "HMI":
                        for y in "HMEBAI":
                            report = decide_xy(g, x, y)
                            assert report.verdict == (local[x] <= extendable[y])
                            ce = report.counterexample
                            if not report.verdict:
                                f = tuple(tuple(p) for p in ce["map"])
                                assert f in local[x] and f not in extendable[y]
                                a = ce["unextendable_vertex"]
                                if a is not None:
                                    for t in range(n):
                                        assert tuple(sorted(f + ((a, t),))) not in local[x]
                            least = _least_route_failure(g, x, y, local, extendable)
                            if least is not None:
                                got = (None, None) if ce is None else (
                                    ce["map"], ce["unextendable_vertex"]
                                )
                                assert got == least, (g.masks, x, y)

    def test_m_counterexamples_replay(self):
        # A returned counterexample either fails the seed-kind requirement
        # for M (which already rules out an injective extension) or admits
        # no M-extension by search.
        from homoglab.errors import SeedNotLocalMorphism

        for n in range(1, 6):
            for g in enumerate_graphs(n):
                report = decide_xy(g, "H", "M")
                if report.verdict:
                    continue
                f = PartialMap(tuple((u, v) for u, v in report.counterexample["map"]))
                try:
                    assert extends_in(g, f, "M") is None
                except SeedNotLocalMorphism:
                    targets = [v for _, v in f.pairs]
                    assert len(set(targets)) != len(targets)


def _gardiner_catalogue() -> list:
    """Graphs of order 5-10 on both sides of Gardiner's list, and the
    census tail's unions of equal cliques and their complements."""
    tail = census_tail()
    return [
        tail[9],  # K3xK3
        cycle_graph(5),
        complement(clique_union((3, 3))),
        petersen(),
        lex_product(cycle_graph(5), complete_graph(2)),
        cycle_graph(9),
    ] + [tail[i] for i in (2, 3, 4, 10, 11)]  # 2K4, 4K2, K4[I2], 3K3, K3[I3]


def _relabelled_classes(max_n: int, seed: int):
    rng = random.Random(seed)
    for n in range(1, max_n + 1):
        for rep in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            yield rep.relabel(perm)


class TestTheoryRoutes:
    """(M, H), (I, H) and (I, Y) answer "true" from (H, H) and Gardiner's
    list before any walk, and else run the search they ran before."""

    def test_routes_match_the_searches_up_to_order_6(self):
        for g in _relabelled_classes(6, 2309):
            for x in "MI":
                expected = homogeneity._h_search_failure(g, x)
                report = decide_xy(g, x, "H")
                assert (report.verdict, report.counterexample) == (expected is None, expected)
            expected = homogeneity._i_to_automorphism_failure(g)
            for y in "MEBAI":
                report = decide_xy(g, "I", y)
                assert (report.verdict, report.counterexample) == (expected is None, expected)

    def test_gardiner_recogniser_matches_the_search(self):
        graphs = list(_relabelled_classes(6, 4111)) + _gardiner_catalogue()
        for g in graphs:
            expected = homogeneity._i_to_automorphism_failure(g) is None
            assert homogeneity._i_theory(g, "A") == expected, g.masks

    def test_gardiner_recogniser_at_order_10(self):
        # The (I, A) search holds on the first three too, but takes 8-19 s
        # on each, so it is not run here.
        homogeneous = [
            clique_union((5, 5)),
            clique_union((2,) * 5),
            lex_product(complete_graph(5), empty_graph(2)),
            complete_graph(10),
            empty_graph(10),
        ]
        assert all(homogeneity._i_theory(g, "A") for g in homogeneous)
        # Unequal clique unions and their complements are not homogeneous:
        # a vertex of a small part and one of a large part are not swapped
        # by any automorphism.
        unequal = [clique_union((5, 4)), clique_union((2, 2, 2, 2, 1)), clique_union((2,) + (1,) * 8)]
        assert not any(homogeneity._i_theory(g, "A") for g in unequal)
        assert not any(homogeneity._i_theory(complement(g), "A") for g in unequal)

    def test_rusinov_schweitzer_mh_equals_hh(self):
        # MH = HH (Rusinov and Schweitzer 2010), on every class up to
        # order 6 under a relabelling.
        for g in _relabelled_classes(6, 3307):
            assert decide_xy(g, "M", "H").verdict == decide_xy(g, "H", "H").verdict, g.masks

    def test_no_search_and_no_walk_on_k10_and_i10(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a map was walked")

        for name in ("search_morphism", "_local_maps", "_targets"):
            monkeypatch.setattr(homogeneity, name, refuse)
        for g in (complete_graph(10), empty_graph(10)):
            for x, y in (("M", "H"), ("I", "H"), ("I", "A")):
                assert decide_xy(g, x, y).verdict

    def test_no_search_and_no_walk_on_multipartite_graphs_and_joins(self, monkeypatch):
        # K10 - e and K_{1,9} are complete multipartite, and K4 v 2K3 is a
        # join K_t v mK_r; the search took over 60 s on each of the first
        # two.
        def refuse(*args, **kwargs):
            raise AssertionError("a map was walked")

        for name in ("search_morphism", "_local_maps", "_targets"):
            monkeypatch.setattr(homogeneity, name, refuse)
        for g in (complement(clique_union((2,) + (1,) * 8)), complement(clique_union((9, 1))), _join(4, 2, 3)):
            assert decide_xy(g, "I", "H").verdict

    def test_new_routes_accept_the_multipartite_graphs_and_joins_at_order_7(self):
        # The 15 complete multipartite classes, one per partition of 7, and
        # the 3 joins K_t v mK_r with t, m, r >= 1, 2, 2; the theory route
        # accepts nothing else, and Gardiner's list at order 7 is K7 and I7.
        expected = {canonical_code(_multipartite(parts)) for parts in _partitions(7)}
        expected |= {canonical_code(_join(t, m, r)) for t, m, r in ((1, 2, 3), (1, 3, 2), (3, 2, 2))}
        assert len(expected) == 18
        gardiner = {canonical_code(complete_graph(7)), canonical_code(empty_graph(7))}
        accepted = set()
        for g in enumerate_graphs(7):
            code = canonical_code(g)
            assert homogeneity._i_theory(g, "A") == (code in gardiner)
            if homogeneity._i_theory(g, "H"):
                accepted.add(code)
        assert accepted == expected
        assert len(accepted - gardiner) == 16


def _partitions(n: int, largest: int | None = None):
    """Every partition of n into parts of at most largest, largest first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _multipartite(parts) -> Graph:
    """The complete multipartite graph with parts of the given sizes."""
    return complement(clique_union(parts))


def _join(t: int, m: int, r: int) -> Graph:
    """K_t v mK_r: the complement of I_t beside the complement of mK_r."""
    return complement(disjoint_union(empty_graph(t), complement(clique_union((r,) * m))))


# The rows (HH, MH, IH, HA, MA, IA) of the six distinct cells seen on the
# classes of each order, T for true; every other row count is 0.
_CENSUS_ROWS = {
    1: {"TTTTTT": 1},
    2: {"TTTTTT": 1, "TTTFTT": 1},
    3: {"TTTTTT": 1, "TTTFTT": 1, "FFTFFF": 1, "FFFFFF": 1},
    4: {"TTTTTT": 1, "TTTFTT": 1, "TTTFFT": 1, "FFTFFT": 1, "FFTFFF": 2, "FFFFFF": 5},
    5: {"TTTTTT": 1, "TTTFTT": 1, "FFTFFT": 1, "FFTFFF": 6, "FFFFFF": 25},
    6: {"TTTTTT": 1, "TTTFTT": 1, "TTTFFT": 2, "FFTFFT": 2, "FFTFFF": 8, "FFFFFF": 142},
}


class TestXYCensus:
    """The six distinct cells on every class of order <= 6, against the
    finite theory, each column from its own constructions."""

    def test_six_cells_match_the_theory_up_to_order_6(self):
        cells = (("H", "H"), ("M", "H"), ("I", "H"), ("H", "A"), ("M", "A"), ("I", "A"))
        code = canonical_code
        for n, want in _CENSUS_ROWS.items():
            unions = [clique_union((r,) * (n // r)) for r in range(1, n + 1) if n % r == 0]
            equal_cliques = {code(g) for g in unions}
            gardiner = equal_cliques | {code(complement(g)) for g in unions}
            if n == 5:
                gardiner.add(code(cycle_graph(5)))
            joins = {code(_join(t, m, r)) for t in range(1, n) for r in range(2, n)
                     for m in range(2, n) if t + m * r == n}
            rules = {
                ("H", "H"): equal_cliques,
                ("M", "H"): equal_cliques,
                ("I", "H"): gardiner | {code(_multipartite(parts)) for parts in _partitions(n)} | joins,
                ("H", "A"): {code(complete_graph(n))},
                ("M", "A"): {code(complete_graph(n)), code(empty_graph(n))},
                ("I", "A"): gardiner,
            }
            rows = {}
            for g in enumerate_graphs(n):
                g_code = code(g)
                row = ""
                for cell in cells:
                    verdict = decide_xy(g, *cell).verdict
                    assert verdict == (g_code in rules[cell]), (g.masks, cell)
                    row += "T" if verdict else "F"
                rows[row] = rows.get(row, 0) + 1
            assert rows == want, n


class TestNeighborhoodClosure:
    def test_closure_over_small_positives(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                if not decide_xy(g, "H", "H").verdict:
                    continue
                for size in (1, 2):
                    for s in combinations(range(g.n), size):
                        from homoglab.graphs import common_neighborhood

                        nbhd = common_neighborhood(g, s)
                        if not nbhd:
                            continue
                        sub, _ = induced_subgraph(g, nbhd)
                        assert decide_xy(sub, "H", "H").verdict
