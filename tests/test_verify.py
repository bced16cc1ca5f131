"""Verification suites: directory lemmas, richness, triangles, the alpha
bound over the layered family, and decider cross-validation."""

import random
from itertools import combinations
from math import comb

import pytest

from homoglab import graphs as graph_module, verify
from homoglab.errors import NotADirectoryBase, OrderTooLarge, StarNumberZero
from homoglab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    independence_number,
    star_number,
)
from homoglab.presentations import make_presentation, truncate
from homoglab.verify import (
    EDGE_PROBABILITIES,
    cross_validate_hh,
    find_triangle_dom2,
    random_graph,
    rs_truncation,
    verify_alpha_bound_family,
    verify_directory_lemmas,
    verify_directory_lemmas_random,
    verify_neighbor_richness,
)

from conftest import (
    brute_directory_lemmas,
    brute_neighbor_richness,
    random_maximal_independent,
)


class TestDirectoryLemmas:
    def test_rs3_clean(self, rs3_m2, rs3_m3):
        assert verify_directory_lemmas(rs3_m2, [0, 1, 2]).passed
        assert verify_directory_lemmas(rs3_m3, [0, 1, 2]).passed

    def test_non_dominating_base_rejected(self):
        with pytest.raises(NotADirectoryBase):
            verify_directory_lemmas(cycle_graph(6), [0])

    def test_edgeless_rejected(self):
        with pytest.raises(StarNumberZero):
            verify_directory_lemmas(empty_graph(3), [0, 1, 2])

    def test_sigma_is_read_without_a_witness(self, rs3_m2, monkeypatch):
        def refuse(*args):
            raise AssertionError("the lemma suites only need sigma and alpha")

        directory = independence_number(rs3_m2)[1]
        monkeypatch.setattr(graph_module, "_lex_least_clique", refuse)
        assert verify_directory_lemmas(rs3_m2, directory).passed
        assert verify_neighbor_richness(rs3_m2, directory, 1).passed
        assert find_triangle_dom2(rs3_m2, directory).triangle is not None
        assert verify_alpha_bound_family([3, 4]).passed

    def test_sigma_is_read_from_the_profile(self, monkeypatch):
        # star_number keeps sigma in the graph's memo slot, so the suite
        # finds it there instead of searching every neighbourhood again.
        g = random_graph(random.Random(12), 24, 0.3)
        sigma, _ = star_number(g)
        directory = independence_number(g)[1]
        calls = []
        max_clique = graph_module._max_clique
        monkeypatch.setattr(
            graph_module,
            "_max_clique",
            lambda *args: calls.append(args) or max_clique(*args),
        )
        report = verify_directory_lemmas(g, directory)
        assert report.passed
        assert calls == []
        verify_neighbor_richness(g, directory, 1)
        assert calls == []

    def test_quick_random_sample(self):
        report = verify_directory_lemmas_random(count=60, seed=7, max_order=24)
        assert report.passed
        assert report.instances == 60

    def test_seed_recorded(self):
        report = verify_directory_lemmas_random(count=3, seed=99, max_order=10)
        assert report.extra["seed"] == 99

    def test_pairwise_formulation_matches_edge_scan(self):
        # The no-edges clause scans edges; spot-check against the literal
        # pairwise enumeration on small instances.
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 12), rng.choice((0.3, 0.6)))
            if g.edge_count() == 0:
                continue
            _, i = independence_number(g)
            sigma, _ = star_number(g)
            report = verify_directory_lemmas(g, i)
            edge_scan = [f for f in report.failures
                         if f["clause"] == "disjoint-exact-neighbourhoods-no-edges"]
            literal = []
            k_of = {}
            imask_members = set(i)
            for s in combinations(sorted(imask_members), sigma):
                k_of[s] = [
                    v for v in range(g.n)
                    if set(g.neighbors(v)) & imask_members == set(s)
                ]
            for s, t in combinations(sorted(k_of), 2):
                if set(s) & set(t):
                    continue
                for v in k_of[s]:
                    for w in k_of[t]:
                        if g.has_edge(v, w):
                            literal.append((v, w))
            assert bool(edge_scan) == bool(literal)
            assert not literal  # the statement itself holds unconditionally


@pytest.fixture(scope="module")
def oracle_cases():
    """Seeded random graphs with random maximal bases, each paired with the
    true star number and one off either side.  Off by one below, every
    clause of the directory lemmas raises failure records."""
    rng = random.Random(4242)
    cases = []
    while len(cases) < 160:
        g = random_graph(rng, rng.randint(3, 12), rng.choice((0.2, 0.4, 0.6, 0.8)))
        if g.edge_count() == 0:
            continue
        base = random_maximal_independent(rng, g)
        sigma, _ = star_number(g)
        cases.extend((g, base, s) for s in (sigma - 1, sigma, sigma + 1) if s >= 1)
    return cases


@pytest.fixture(scope="module")
def dense_oracle_cases():
    """Dense graphs of order 13-18, the regime where the sigma-addressed
    pool holds about 10 vertices and 3b's instances are mostly sets of 3
    and 4, each with the true star number and one off either side."""
    rng = random.Random(8585)
    cases = []
    for _ in range(30):
        g = random_graph(rng, rng.randint(13, 18), 0.85)
        base = random_maximal_independent(rng, g)
        sigma, _ = star_number(g)
        cases.extend((g, base, s) for s in (sigma - 1, sigma, sigma + 1) if s >= 1)
    return cases


class TestLemmaOracle:
    def test_directory_lemmas_match_oracle(self, oracle_cases, monkeypatch):
        clauses = set()
        for g, base, sigma in oracle_cases:
            monkeypatch.setattr(verify, "_star", lambda g, s=sigma: (s, 0))
            report = verify_directory_lemmas(g, base)
            assert (report.instances, report.failures) == brute_directory_lemmas(
                g, base, sigma
            )
            clauses.update(f["clause"] for f in report.failures)
        assert clauses == {
            "exact-neighbourhood-equals-common",
            "disjoint-exact-neighbourhoods-no-edges",
            "cone-address-intersects",
            "cone-address-dominates",
        }

    def test_dense_directory_lemmas_match_oracle(self, dense_oracle_cases, monkeypatch):
        clauses = set()
        for g, base, sigma in dense_oracle_cases:
            monkeypatch.setattr(verify, "_star", lambda g, s=sigma: (s, 0))
            report = verify_directory_lemmas(g, base)
            assert (report.instances, report.failures) == brute_directory_lemmas(
                g, base, sigma
            )
            clauses.update(f["clause"] for f in report.failures)
        assert clauses == {
            "exact-neighbourhood-equals-common",
            "disjoint-exact-neighbourhoods-no-edges",
            "cone-address-intersects",
            "cone-address-dominates",
        }

    def test_passing_report_lists_no_coned_sets(self, dense_oracle_cases, monkeypatch):
        # Clause 1 reads its sets off the address table, and clauses 2 and 3
        # count their instances by formula; only a 3a stray makes 3b list.
        calls = []
        listing = verify._coned_sets
        monkeypatch.setattr(
            verify,
            "_coned_sets",
            lambda *args: calls.append(args[1]) or listing(*args),
        )
        walks = {True: set(), False: set()}
        for g, base, sigma in dense_oracle_cases:
            monkeypatch.setattr(verify, "_star", lambda g, s=sigma: (s, 0))
            calls.clear()
            report = verify_directory_lemmas(g, base)
            stray = any(f["clause"] == "cone-address-intersects" for f in report.failures)
            walks[stray].add(len(calls))
        assert walks == {True: {1}, False: {0}}

    def test_shared_subset_of_two_addresses_is_checked_once(self, monkeypatch):
        # With sigma forced to 2, the addresses {0, 1, 2} of vertex 4 and
        # {0, 1, 3} of vertex 5 share the pair {0, 1}; no vertex has a
        # two-member address, so every pair fails, in lexicographic order.
        g = Graph(6, [(4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 3)])
        assert star_number(g)[0] == 3
        monkeypatch.setattr(verify, "_star", lambda g: (2, 0))
        report = verify_directory_lemmas(g, [0, 1, 2, 3])
        clause_1 = [
            f for f in report.failures if f["clause"] == "exact-neighbourhood-equals-common"
        ]
        assert [f["subset"] for f in clause_1] == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]
        assert clause_1[0] == {
            "clause": "exact-neighbourhood-equals-common",
            "subset": [0, 1],
            "exact": [],
            "common": [4, 5],
        }
        assert (report.instances, report.failures) == brute_directory_lemmas(
            g, [0, 1, 2, 3], 2
        )

    def test_no_sigma_address_means_no_clause_1_instance(self):
        # The centre of K_{1,3} alone is a base; sigma is 3, every leaf's
        # address is {0}, so the only instances are clause 2's edges.
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert star_number(g)[0] == 3
        report = verify_directory_lemmas(g, [0])
        assert report.passed
        assert report.instances == g.edge_count() == 3

    def test_true_star_number_never_fails(self, oracle_cases):
        for g, base, sigma in oracle_cases:
            if sigma == star_number(g)[0]:
                assert verify_directory_lemmas(g, base).passed

    def test_richness_matches_oracle(self, oracle_cases, monkeypatch):
        shortfalls = 0
        for g, base, sigma in oracle_cases:
            monkeypatch.setattr(verify, "_star", lambda g, s=sigma: (s, 0))
            report = verify_neighbor_richness(g, base, 2)
            assert (report.instances, report.failures) == brute_neighbor_richness(
                g, base, sigma, 2
            )
            shortfalls += len(report.failures)
        assert shortfalls


class TestEmptyRuns:
    def test_random_lemmas_need_a_graph(self):
        for count in (0, -3):
            with pytest.raises(ValueError, match="count"):
                verify_directory_lemmas_random(count=count)

    def test_random_lemmas_need_an_order_range_with_edges(self):
        # Orders start at 4, so max_order must reach it; order-1 samples are
        # all edgeless and would be redrawn forever.
        for max_order in (3, 1, 0, -5):
            with pytest.raises(ValueError, match="max_order"):
                verify_directory_lemmas_random(count=1, max_order=max_order)
        report = verify_directory_lemmas_random(count=2, max_order=4)
        assert report.passed and report.instances == 2

    def test_random_lemmas_order_is_capped(self):
        with pytest.raises(ValueError, match="max_order"):
            verify_directory_lemmas_random(count=1, max_order=101)
        report = verify_directory_lemmas_random(count=1, max_order=100)
        assert report.passed and report.instances == 1

    def test_random_lemmas_sample_fixed_ranges(self, monkeypatch):
        # Orders run from 4 to max_order and edge probabilities come from
        # EDGE_PROBABILITIES, with no override; the report lists both.
        drawn = []
        sample = verify.random_graph
        monkeypatch.setattr(
            verify,
            "random_graph",
            lambda rng, n, p: drawn.append((n, p)) or sample(rng, n, p),
        )
        report = verify_directory_lemmas_random(count=40, seed=3, max_order=7)
        assert report.extra["edge_probabilities"] == list(EDGE_PROBABILITIES)
        assert report.extra["max_order"] == 7
        assert {n for n, _ in drawn} == {4, 5, 6, 7}
        assert {p for _, p in drawn} == set(EDGE_PROBABILITIES)
        for keyword in ("min_order", "edge_probs"):
            with pytest.raises(TypeError):
                verify_directory_lemmas_random(count=1, max_order=6, **{keyword: 4})

    def test_cross_validation_needs_an_order(self):
        for n_max in (0, -2):
            with pytest.raises(ValueError, match="n_max"):
                cross_validate_hh(n_max)

    def test_alpha_bound_needs_an_instance(self):
        with pytest.raises(ValueError, match="n_values"):
            verify_alpha_bound_family(range(5, 5))
        with pytest.raises(ValueError, match="part_sizes"):
            verify_alpha_bound_family([3], part_sizes=())


class TestRichness:
    def test_rs3_pinned_pair_at_full_threshold(self, rs3_m3):
        # With parts of size m, exact neighbourhoods of distinct address
        # pairs lie in different parts of one clique, so each vertex of one
        # sees all m of the other.
        m = 3
        report = verify_neighbor_richness(rs3_m3, [0, 1, 2], m)
        bad = [
            f
            for f in report.failures
            if f["subset_s"] == [1, 2] and f["subset_t"] == [0, 2]
        ]
        assert bad == []

    def test_rs3_threshold_one_passes(self, rs3_m2, rs3_m3):
        assert verify_neighbor_richness(rs3_m2, [0, 1, 2], 1).passed
        assert verify_neighbor_richness(rs3_m3, [0, 1, 2], 1).passed

    def test_equal_pair_shortfall_is_reported_at_part_size(self, rs3_m2):
        # For S = T the neighbourhood inside one part has size m - 1 < m,
        # a finding about the truncation, not a failure of anything.
        report = verify_neighbor_richness(rs3_m2, [0, 1, 2], 2)
        equal_pairs = [
            f for f in report.failures if f["subset_s"] == f["subset_t"]
        ]
        assert equal_pairs
        assert all(f["count"] == 1 for f in equal_pairs)

    def test_threshold_below_one_rejected(self, rs3_m2):
        for threshold in (0, -3):
            with pytest.raises(ValueError, match="threshold must be at least 1"):
                verify_neighbor_richness(rs3_m2, [0, 1, 2], threshold)

    def test_disjoint_pairs_skipped(self, rs3_m2):
        report = verify_neighbor_richness(rs3_m2, [0, 1, 2], 1)
        for f in report.failures:
            assert set(f["subset_s"]) & set(f["subset_t"])

    def test_index_sets_are_capped_before_any_is_built(self, rs3_m2, monkeypatch):
        g = truncate(make_presentation("rado_bit"), 26)
        directory = independence_number(g)[1]
        assert comb(len(directory), star_number(g)[0]) == 352_716

        def refuse(*args):
            raise AssertionError("index sets built above the cap")

        monkeypatch.setattr(verify, "combinations", refuse)
        with pytest.raises(ValueError, match="352716 index sets .* cap of 131072"):
            verify_neighbor_richness(g, directory, 1)
        monkeypatch.undo()
        # rs3_m2 has C(3, 2) = 3 index sets: a cap of 3 admits them.
        monkeypatch.setattr(verify, "_MAX_RICHNESS_SETS", 3)
        assert verify_neighbor_richness(rs3_m2, [0, 1, 2], 1).passed
        monkeypatch.setattr(verify, "_MAX_RICHNESS_SETS", 2)
        with pytest.raises(ValueError, match="cap of 2"):
            verify_neighbor_richness(rs3_m2, [0, 1, 2], 1)


class TestTriangleDom2:
    def test_rs3_transversal_triangle(self, rs3_m2):
        result = find_triangle_dom2(rs3_m2, [0, 1, 2])
        assert result.triangle == (3, 4, 5)
        assert result.domination == 2

    def test_low_star_number_notes_precondition(self):
        result = find_triangle_dom2(complete_graph(4), [0])
        assert result.triangle is None
        assert "star number" in result.note

    def test_triangle_free_graph(self):
        result = find_triangle_dom2(cycle_graph(6), [0, 2, 4])
        assert result.triangle is None and result.domination is None


class TestAlphaBound:
    def test_family_3_to_6(self):
        report = verify_alpha_bound_family(range(3, 7), part_sizes=(2, 3))
        assert report.passed
        rows = {(r["n"], r["part_size"]): r for r in report.extra["rows"]}
        assert rows[(3, 2)]["alpha"] == 3 and rows[(3, 2)]["sigma"] == 2
        assert rows[(3, 2)]["bound"] == 4
        assert rows[(4, 2)]["alpha"] == 4 and rows[(4, 2)]["bound"] == 7
        assert rows[(6, 3)]["alpha"] == 6 and rows[(6, 3)]["bound"] == 12

    def test_part_size_invariance_is_enforced(self):
        report = verify_alpha_bound_family([3, 4], part_sizes=(2, 3, 4))
        assert report.passed

    def test_range_validation(self):
        with pytest.raises(ValueError):
            verify_alpha_bound_family([2])
        with pytest.raises(ValueError):
            verify_alpha_bound_family([3], part_sizes=(1,))

    def test_every_part_size_is_checked_before_any_truncation(self, monkeypatch):
        # Part size 1 once raised only after the part size 2 instance was
        # built and analysed.
        def refuse(*args):
            raise AssertionError("truncated before the input was checked")

        monkeypatch.setattr(verify, "rs_truncation", refuse)
        with pytest.raises(ValueError, match="clique parts"):
            verify_alpha_bound_family([3], part_sizes=(2, 1))

    def test_part_sizes_may_be_a_one_shot_iterable(self):
        # Checked in full before the loop, so every n still gets every size.
        report = verify_alpha_bound_family([3, 4], part_sizes=iter((2, 3)))
        assert report.instances == 4 and report.passed


class TestCrossValidation:
    def test_small_orders_agree(self):
        report = cross_validate_hh(4)
        assert report.passed
        assert report.extra["classes_per_order"] == {1: 1, 2: 2, 3: 4, 4: 11}

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            cross_validate_hh(9)
