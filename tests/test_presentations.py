"""Presentation families, truncation, witness search, the spanning
construction, and the bimorphism-class probe."""

import random
from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from homoglab import graphs as graph_module, presentations
from homoglab.errors import BadParams, BudgetExhausted
from homoglab.graphs import (
    Graph,
    complement,
    complete_graph,
    empty_graph,
    independence_number,
    induced_subgraph,
    star_number,
)
from homoglab.morphisms import canonical_code
from homoglab.presentations import (
    FAMILIES,
    Presentation,
    WitnessResult,
    check_property_bounded,
    classify_mb,
    extension_witness,
    make_presentation,
    parse_spec,
    spanning_rado,
    truncate,
)

from conftest import brute_components, reference_spanning_schedule


class TestFamilies:
    def test_rs3_balanced_truncation(self):
        g = truncate(make_presentation("rs", 3), 9)
        expected = Graph(
            9,
            [(0, 4), (0, 5), (0, 7), (0, 8),
             (1, 3), (1, 5), (1, 6), (1, 8),
             (2, 3), (2, 4), (2, 6), (2, 7)]
            + [(u, v) for u in range(3, 9) for v in range(u + 1, 9)],
        )
        assert g == expected

    def test_rs3_smallest_window_is_the_block(self):
        assert truncate(make_presentation("rs", 3), 3) == empty_graph(3)

    def test_rs_rejects_small_n(self):
        with pytest.raises(BadParams):
            make_presentation("rs", 2)

    def test_rado_bit_small_truncation(self):
        g = truncate(make_presentation("rado_bit"), 4)
        assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (1, 3)]

    def test_i_omega_k_omega_truncations_are_clique_unions(self):
        p = make_presentation("i_omega_k_omega")
        for n in (5, 12, 30):
            g = truncate(p, n)
            # cliques are the classes of the reflexive-adjacency relation
            for u in range(n):
                for v in range(u + 1, n):
                    for w in range(v + 1, n):
                        if g.has_edge(u, v) and g.has_edge(v, w):
                            assert g.has_edge(u, w)

    def test_two_way_path_truncations_are_unions_of_paths(self):
        p = make_presentation("two_way_path")
        for n in (1, 4, 9, 16):
            g = truncate(p, n)
            degrees = [g.degree(v) for v in range(n)]
            assert max(degrees, default=0) <= 2
            assert g.edge_count() == max(0, n - 1) or n <= 2
            # union of at most two paths: at most 4 endpoints, no cycles
            assert sum(1 for d in degrees if d <= 1) <= 4

    def test_union_cliques_complement_groups(self):
        p = make_presentation("union_cliques_complement")
        g = truncate(p, 6)
        co = complement(g)
        # groups 0|12|345 appear as cliques of the complement
        assert sorted(co.edges()) == [(1, 2), (3, 4), (3, 5), (4, 5)]

    def test_group_of_matches_a_triangular_search(self):
        m = 0
        for k in range(10**5):
            if (m + 1) * (m + 2) // 2 <= k:
                m += 1
            assert presentations._group_of(k) == m, k
        rng = random.Random(40)
        for k in [10**40, 10**40 + 1, 2**133 - 1] + [
            rng.randrange(10**40, 10**41) for _ in range(20)
        ]:
            # Bisection for the largest m with m(m+1)/2 <= k.
            lo, hi = 0, k
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if mid * (mid + 1) // 2 <= k:
                    lo = mid
                else:
                    hi = mid - 1
            start = lo * (lo + 1) // 2
            assert presentations._group_of(k) == lo, k
            assert presentations._group_of(start) == lo, k
            assert presentations._group_of(start - 1) == lo - 1, k

    def test_lex_and_aliases(self):
        p = parse_spec("lex:k_omega,i_omega")
        g = truncate(p, 6)
        assert g.edge_count() > 0
        q = parse_spec("complement_of:i_omega_k_omega")
        assert truncate(q, 8) == complement(truncate(parse_spec("i_omega_k_omega"), 8))

    def test_nested_spec_parsing(self):
        p = parse_spec("complement_of:rs(3)")
        assert truncate(p, 9) == complement(truncate(parse_spec("rs:3"), 9))

    def test_every_family_round_trips_and_checks_its_parameters(self):
        assert presentations.FAMILIES == (
            "i_omega", "i_omega_k_omega", "k_omega", "null", "rado_bit",
            "two_way_path", "union_cliques_complement", "rs", "complement_of", "lex",
        )
        sub = make_presentation("rado_bit")
        good = {"rs": (3,), "complement_of": (sub,), "lex": (sub, sub)}
        for family in presentations.FAMILIES:
            params = good.get(family, ())
            p = make_presentation(family, *params)
            q = parse_spec(p.spec_string())
            assert q.spec_string() == p.spec_string(), family
            assert truncate(q, 12) == truncate(p, 12), family
            # One parameter too many, one too few, and each of the wrong type.
            wrong = [params + (3,), params[:-1]] + [
                params[:i] + (sub if isinstance(x, int) else 3,) + params[i + 1:]
                for i, x in enumerate(params)
            ]
            for args in wrong:
                if args == params:
                    continue
                with pytest.raises(BadParams, match=family):
                    make_presentation(family, *args)
        for spec in ("rado_bit:1", "rs:rado_bit", "rs", "complement_of:3", "lex:rado_bit"):
            with pytest.raises(BadParams):
                parse_spec(spec)

    def test_unknown_family(self):
        with pytest.raises(BadParams):
            parse_spec("mystery:7")

    def test_nesting_depth_capped(self):
        # 500 levels of complement_of overflowed Python's recursion limit
        # in the first refuter call; 64 levels are accepted.
        assert truncate(parse_spec("complement_of:" * 64 + "null"), 4) == empty_graph(4)
        odd = parse_spec("complement_of(" * 63 + "null" + ")" * 63)
        assert truncate(odd, 4) == complete_graph(4)
        for spec in ("complement_of:" * 65 + "null", "lex(null," * 65 + "null" + ")" * 65):
            with pytest.raises(BadParams, match="deeper than 64 levels"):
                parse_spec(spec)

    def test_truncate_zero(self):
        assert truncate(make_presentation("rado_bit"), 0) == empty_graph(0)


class TestOracleDiscipline:
    @pytest.mark.parametrize(
        "spec", ["rado_bit", "rs:4", "i_omega_k_omega", "two_way_path",
                  "union_cliques_complement", "lex:two_way_path,k_omega"]
    )
    def test_purity_and_monotonicity(self, spec):
        p = parse_spec(spec)
        g1, g2 = truncate(p, 24), truncate(p, 24)
        assert hash(g1) == hash(g2) and g1 == g2
        big = truncate(p, 31)
        sub, _ = induced_subgraph(big, range(24))
        assert sub == g1

    def test_double_complement_matches(self):
        p = parse_spec("complement_of:complement_of:rado_bit")
        q = parse_spec("rado_bit")
        for n in (7, 19):
            assert truncate(p, n) == truncate(q, n)

    @given(
        st.sampled_from(
            ["rado_bit", "rs:3", "rs:5", "k_omega", "null", "i_omega_k_omega",
             "union_cliques_complement", "two_way_path",
             "complement_of:rs(3)", "lex:two_way_path,null"]
        ),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=120)
    def test_symmetric_irreflexive(self, spec, i, j):
        p = parse_spec(spec)
        assert p.adjacent(i, j) == p.adjacent(j, i)
        assert not p.adjacent(i, i)


class TestExtensionWitness:
    def test_rado_basic(self):
        p = make_presentation("rado_bit")
        result = extension_witness(p, [0], [1], 64)
        assert result.status == "found" and result.vertex == 5

    def test_rs_block_cone_proven_absent(self):
        p = make_presentation("rs", 3)
        result = extension_witness(p, [0, 1, 2], [], 10_000)
        assert result.status == "proven_absent"
        assert result.certificate

    def test_trivial_empty_sides(self):
        p = make_presentation("rs", 3)
        assert extension_witness(p, [], [], 16).vertex == 0

    def test_overlapping_sides_rejected(self):
        p = make_presentation("rado_bit")
        with pytest.raises(ValueError):
            extension_witness(p, [1], [1], 8)

    def test_disjointness_is_checked_before_sign(self):
        p = make_presentation("rado_bit")
        with pytest.raises(ValueError, match="must be disjoint"):
            extension_witness(p, [-1, 2], [2], 8)
        for a, b in (([-1, 2], [3]), ([2], [-1, 3])):
            with pytest.raises(ValueError, match="naturals"):
                extension_witness(p, a, b, 8)

    def test_exhausted_is_not_proven(self):
        # No vertex below 9 carries bits 6, 7 and 8, so the least cone over
        # {6, 7, 8} is 0b111000000 = 448; budget 100 merely exhausts.
        p = make_presentation("rado_bit")
        result = extension_witness(p, [6, 7, 8], [], 100)
        assert result.status == "exhausted" and result.certificate is None
        found = extension_witness(p, [6, 7, 8], [], 512)
        assert found.status == "found" and found.vertex == 448

    def test_witness_replays(self):
        p = make_presentation("union_cliques_complement")
        a, b = (0, 2), (4,)
        result = extension_witness(p, a, b, 64)
        assert result.status == "found" and result.vertex == 3
        v = result.vertex
        assert all(p.adjacent(v, x) for x in a)
        assert not any(p.adjacent(v, y) for y in b)

    def test_impossible_mixed_requirement_refuted(self):
        # cocone over {1} forces the witness into the group of 1, but the
        # cone side contains 2 from that same group.
        p = make_presentation("union_cliques_complement")
        result = extension_witness(p, (0, 2), (1,), 64)
        assert result.status == "proven_absent"

    def test_union_cliques_refuter_matches_brute_group_check(self):
        # Every disjoint (a, b) over the first 4 groups, vertices 0..9,
        # against the certificates read off explicit group lists.
        p = make_presentation("union_cliques_complement")
        group = [m for m in range(4) for _ in range(m + 1)]
        for sides in product(range(3), repeat=len(group)):
            a = [v for v, s in enumerate(sides) if s == 1]
            b = [v for v, s in enumerate(sides) if s == 2]
            hit = {group[v] for v in b}
            expected = None
            if len(hit) >= 2:
                expected = (
                    "co-cone refuted: vertices of distinct groups have no common non-neighbour"
                )
            elif hit:
                members = {v for v in range(len(group)) if group[v] in hit}
                if members & set(a):
                    expected = "co-cone refuted: a cone-side vertex sits in the same group"
                elif members <= set(b):
                    expected = "co-cone refuted: the group is exhausted"
            assert p.refute(a, b) == expected, (a, b)

    def test_every_certificate_holds_on_a_truncation(self):
        # A certificate makes extension_witness answer proven_absent, a
        # proof claim: so no vertex of the first 1024 may be adjacent to all
        # of a and none of b.  Every disjoint (a, b) over 0..8 with at most
        # 4 members, for each built-in family and its complement.
        specs = [f for f in FAMILIES if f not in ("rs", "complement_of", "lex")]
        specs += ["rs:3", "rs:4"]
        specs += [f"complement_of:{spec}" for spec in specs]
        certified = 0
        for spec in specs:
            p = parse_spec(spec)
            masks = truncate(p, 1024).masks
            everyone = (1 << 1024) - 1
            for size in range(5):
                for support in combinations(range(9), size):
                    for sides in product((0, 1), repeat=size):
                        a = [v for v, side in zip(support, sides) if side]
                        b = [v for v, side in zip(support, sides) if not side]
                        if p.refute(a, b) is None:
                            continue
                        certified += 1
                        witnesses = everyone
                        for v in a:
                            witnesses &= masks[v]
                        for v in support:
                            witnesses &= ~(1 << v)
                        for v in b:
                            witnesses &= ~masks[v]
                        assert not witnesses, (spec, a, b, p.refute(a, b))
        assert certified > 10_000

    def test_union_cliques_refuter_builds_no_group_set(self):
        # The group of 10**14 has about 1.4 * 10**7 members; building them
        # as a set ran out of memory under a 600 MB address-space limit.
        p = make_presentation("union_cliques_complement")
        assert extension_witness(p, [], [10**14], 10).status == "exhausted"


class TestPropertyProbes:
    def test_rs_cone_fails_exactly_at_the_block(self):
        p = make_presentation("rs", 3)
        report = check_property_bounded(p, "cone", 3, 6, 512)
        assert [list(f[0]) for f in report.failures] == [[0, 1, 2]]
        assert report.failures[0][1] == "proven_absent"

    def test_rs4_cone_fails_exactly_at_the_block(self):
        p = make_presentation("rs", 4)
        report = check_property_bounded(p, "cone", 4, 8, 512)
        assert [list(f[0]) for f in report.failures] == [[0, 1, 2, 3]]

    def test_rado_probes_pass(self):
        p = make_presentation("rado_bit")
        assert check_property_bounded(p, "cone", 3, 8, 1 << 12).passed
        assert check_property_bounded(p, "cocone", 3, 8, 1 << 12).passed

    def test_union_cliques_cone_probe_passes(self):
        p = make_presentation("union_cliques_complement")
        assert check_property_bounded(p, "cone", 3, 8, 512).passed

    def test_parameter_validation(self):
        p = make_presentation("rado_bit")
        with pytest.raises(ValueError):
            check_property_bounded(p, "cone", 5, 4, 100)
        with pytest.raises(ValueError):
            check_property_bounded(p, "sideways", 2, 4, 100)
        # Negative sizes made an empty probe that reported a pass.
        for set_size, base, budget in ((-2, -1, 0), (-1, 4, 100), (2, -1, 100)):
            with pytest.raises(ValueError, match="0 <= set_size"):
                check_property_bounded(p, "cone", set_size, base, budget)


class TestSpanningConstruction:
    def test_empty_target(self):
        c = spanning_rado(make_presentation("rado_bit"), 0, 64)
        assert c.placed == () and c.schedule == ()

    def test_negative_budget_rejected(self):
        for n in (0, 3):
            with pytest.raises(BadParams, match="budget"):
                spanning_rado(make_presentation("rado_bit"), n, -1)

    def test_rado_replays(self):
        p = make_presentation("rado_bit")
        c = spanning_rado(p, 12, 1 << 16)
        assert set(range(12)) <= set(c.placed)
        assert c.verify(p) == []
        assert c.schedule  # requirements were actually served

    def test_union_cliques_replays(self):
        p = make_presentation("union_cliques_complement")
        c = spanning_rado(p, 12, 1 << 16)
        assert set(range(12)) <= set(c.placed)
        assert c.verify(p) == []

    def test_rs_fails_on_block_pattern(self):
        p = make_presentation("rs", 3)
        with pytest.raises(BudgetExhausted) as exc:
            spanning_rado(p, 80, 1 << 14)
        assert set(exc.value.requirement.cone_over) >= {0, 1, 2}

    def test_verify_reports_each_tampered_invariant(self):
        # One tampered copy per problem verify lists; each must be reported.
        p = make_presentation("rado_bit")
        c = spanning_rado(p, 12, 1 << 16)
        assert c.verify(p) == []
        top = max(c.placed) + 2
        out = min(set(range(top)) - set(c.placed))
        u = next(v for v in c.placed if p.adjacent(v, out))
        s, t = next(e for e in combinations(c.placed, 2) if not p.adjacent(*e))
        entries = list(c.schedule)
        free = next(i for i, e in enumerate(entries) if not e.requirement.cone_over)
        entries[free] = replace(entries[free], witness=out)
        coned = next(e for e in c.schedule if e.requirement.cone_over)
        w, x = coned.witness, coned.requirement.cone_over[0]
        cocone = next(e for e in c.schedule if e.requirement.cocone_over)
        w2, y = cocone.witness, cocone.requirement.cocone_over[0]
        edges = c.selected_edges
        cases = [
            (replace(c, placed=c.placed + c.placed[:1]), "placed vertices are not distinct"),
            (replace(c, target=top), f"vertices below {top} are not all placed"),
            (
                replace(c, selected_edges=edges + ((u, out),)),
                f"selected edge ({u},{out}) touches an unplaced vertex",
            ),
            (replace(c, selected_edges=edges + ((s, t),)), f"selected edge ({s},{t}) is not a host edge"),
            (replace(c, schedule=tuple(entries)), f"witness {out} was never placed"),
            (
                replace(c, selected_edges=tuple(e for e in edges if set(e) != {w, x})),
                f"witness {w} is not selected-adjacent to {x} in",
            ),
            (
                replace(c, selected_edges=edges + ((w2, y),)),
                f"witness {w2} is selected-adjacent to {y} in",
            ),
        ]
        for tampered, problem in cases:
            found = tampered.verify(p)
            assert any(got.startswith(problem) for got in found), (problem, found)

    def test_selected_edges_subset_of_host(self):
        p = make_presentation("rado_bit")
        c = spanning_rado(p, 16, 1 << 16)
        for u, v in c.selected_edges:
            assert p.adjacent(u, v)

    @given(st.integers(min_value=0, max_value=20), st.sampled_from(
        ["rado_bit", "union_cliques_complement", "complement_of:two_way_path"]
    ))
    @settings(max_examples=25, deadline=None)
    def test_replay_holds_for_any_target(self, n, spec):
        from homoglab.presentations import parse_spec as ps

        p = ps(spec)
        c = spanning_rado(p, n, 1 << 16)
        assert set(range(n)) <= set(c.placed)
        assert c.verify(p) == []

    def test_determinism(self):
        p = make_presentation("rado_bit")
        a = spanning_rado(p, 14, 1 << 16)
        b = spanning_rado(p, 14, 1 << 16)
        assert a == b

    @pytest.mark.parametrize(
        "spec, sizes, budget",
        [("rado_bit", range(21), 1 << 16),
         ("union_cliques_complement", range(21), 1 << 16),
         ("complement_of:two_way_path", range(21), 1 << 16),
         ("rs:3", [80], 1 << 14)],
    )
    def test_schedule_matches_the_reference(self, spec, sizes, budget):
        p = parse_spec(spec)
        for n in sizes:
            placed, schedule, failed = reference_spanning_schedule(p, n, budget)
            try:
                c = spanning_rado(p, n, budget)
            except BudgetExhausted as exc:
                req = exc.requirement
                assert (req.cone_over, req.cocone_over) == failed, n
                continue
            assert failed is None, n
            assert list(c.placed) == placed, n
            assert [
                (e.requirement.cone_over, e.requirement.cocone_over, e.witness)
                for e in c.schedule
            ] == schedule, n


class TestClassification:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("k_omega", "k_omega"),
            ("null", "null"),
            ("i_omega_k_omega", "i_omega_of_k_omega"),
            ("complement_of:i_omega_k_omega", "k_omega_of_i_omega"),
            ("rado_bit", "rado"),
            ("two_way_path", "not_mb_evidence"),
        ],
    )
    def test_builtins(self, spec, expected):
        report = classify_mb(parse_spec(spec), 512)
        assert report.verdict == expected

    def test_complement_of_the_bit_graph_is_still_rado(self):
        # Degrees of the complement repeat across single doublings (every
        # vertex of [2^k, 2^(k+1)) is bit-adjacent to k), which must not be
        # mistaken for stabilization.
        report = classify_mb(parse_spec("complement_of:rado_bit"), 512)
        assert report.verdict == "rado"

    def test_path_evidence_names_the_stabilized_vertex(self):
        report = classify_mb(parse_spec("two_way_path"), 512)
        assert report.evidence["stabilized"]["kind"] == "degree"
        assert report.evidence["stabilized"]["value"] == 2

    def test_finite_codegree_families_flagged(self):
        # Clique vertices of rs(n) have a single non-neighbour, and the
        # singleton group of the clique-union complement has none at all.
        for spec in ("rs:3", "union_cliques_complement"):
            report = classify_mb(parse_spec(spec), 512)
            assert report.verdict == "not_mb_evidence"
            assert report.evidence["stabilized"]["kind"] == "codegree"

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            classify_mb(parse_spec("rado_bit"), 8)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("i_omega_k_omega", "clique_components"),
            ("lex:i_omega,k_omega", "clique_components"),
            ("complement_of:i_omega_k_omega", "complement_clique_components"),
        ],
    )
    def test_clique_component_evidence(self, spec, key):
        # The count and largest size of the components on every rung, from
        # the components found by closure.
        p = parse_spec(spec)
        report = classify_mb(p, 200)
        rungs = [truncate(p, s) for s in report.evidence["ladder"]]
        if key.startswith("complement"):
            rungs = [complement(g) for g in rungs]
        comps = [brute_components(g) for g in rungs]
        assert report.evidence[key] == {
            "component_counts": [len(c) for c in comps],
            "max_component_sizes": [max(map(len, c)) for c in comps],
        }


def _oracle_only(p: Presentation) -> Presentation:
    """The same presentation without its closed-form hooks."""
    return Presentation(p.name, p.adjacent, p.params, p.metadata, p.refute)


def _sided_pairs(window: int, max_support: int):
    """Every (A, B) with A and B disjoint and |A u B| <= max_support."""
    for size in range(max_support + 1):
        for support in combinations(range(window), size):
            for bits in range(1 << size):
                yield (
                    tuple(v for i, v in enumerate(support) if bits >> i & 1),
                    tuple(v for i, v in enumerate(support) if not bits >> i & 1),
                )


def _adjacency_columns(p: Presentation, window: int, top: int) -> list[int]:
    """For each x < window, the mask of the vertices v <= top with
    p.adjacent(v, x): one oracle call per (v, x)."""
    return [
        int("".join("1" if p.adjacent(v, x) else "0" for v in range(top, -1, -1)), 2)
        for x in range(window)
    ]


def _column_witness(p, columns, a, b, budget) -> WitnessResult:
    """extension_witness(p, a, b, budget) read from adjacency columns: the
    least v <= budget outside A u B whose bit is set in the column of every
    member of A and of no member of B."""
    cert = p.refute(sorted(a), sorted(b))
    if cert is not None:
        return WitnessResult("proven_absent", certificate=cert)
    cand = (1 << budget + 1) - 1
    for x in a:
        cand &= columns[x] & ~(1 << x)
    for y in b:
        cand &= ~(columns[y] | 1 << y)
    if not cand:
        return WitnessResult("exhausted")
    return WitnessResult("found", vertex=(cand & -cand).bit_length() - 1)


class TestClosedFormHooks:
    """Hooks answer exactly as the oracle scan of the same presentation."""

    @pytest.mark.parametrize(
        "spec",
        ["rado_bit", "rs:3", "rs:5", "k_omega", "null", "i_omega_k_omega",
         "union_cliques_complement", "two_way_path", "complement_of:rado_bit",
         "lex:rado_bit,k_omega", "complement_of:lex(rs(4),complement_of(two_way_path))",
         "lex:lex(null,rado_bit),union_cliques_complement",
         "lex:rado_bit,complement_of:rado_bit", "lex:two_way_path,k_omega",
         "lex:k_omega,union_cliques_complement"],
    )
    def test_truncations_match_the_oracle(self, spec):
        p = parse_spec(spec)
        assert p._rows is not None
        oracle = _oracle_only(p)
        for n in (0, 1, 2, 3, 7, 30, 129, 1024):
            assert truncate(p, n) == truncate(oracle, n)

    @pytest.mark.parametrize("spec", ["rado_bit", "complement_of:rado_bit"])
    def test_witnesses_match_the_oracle(self, spec):
        # At budgets 20 and 5 the hook is compared with the oracle-only
        # scan.  At 1 << 16 that scan costs 10-20 s per spec, so there
        # the reference reads each least witness from the adjacency columns
        # of the 12 window vertices, built once from the same oracle; the
        # small budgets check that reference against the scan as well.
        p = parse_spec(spec)
        assert p._least_witness is not None
        oracle = _oracle_only(p)
        columns = _adjacency_columns(oracle, 12, 1 << 16)
        for a, b in _sided_pairs(12, 4):
            assert extension_witness(p, a, b, 1 << 16) == _column_witness(
                oracle, columns, a, b, 1 << 16
            ), (a, b)
            for budget in (20, 5):
                scan = extension_witness(oracle, a, b, budget)
                assert extension_witness(p, a, b, budget) == scan, (a, b, budget)
                assert _column_witness(oracle, columns, a, b, budget) == scan, (a, b, budget)

    @pytest.mark.parametrize("spec", ["rado_bit", "complement_of:rado_bit"])
    def test_far_vertices_and_small_budgets_match_the_oracle(self, spec):
        # Far vertices have witnesses far past the budget (or none below
        # it), so the hook must stop at the budget just as the scan does.
        p = parse_spec(spec)
        oracle = _oracle_only(p)
        rng = random.Random(f"far/{spec}")
        cases = [((1 << 40,), (40,)), ((40,), (1 << 40,)), ((), (3,)), ((3, 2**61 - 1), (5,))]
        for _ in range(400):
            support = {rng.randrange(40)}
            for _ in range(rng.randrange(4)):
                support.add(rng.choice([rng.randrange(3000), 1 << rng.randrange(5, 60),
                                        rng.randrange(10**15)]))
            support = list(support)
            rng.shuffle(support)
            cut = rng.randrange(len(support) + 1)
            cases.append((tuple(support[:cut]), tuple(support[cut:])))
        for a, b in cases:
            for budget in (0, 1, 3, 10, 200, 3000):
                assert extension_witness(p, a, b, budget) == extension_witness(
                    oracle, a, b, budget
                ), (a, b, budget)

    def test_rado_hooks_make_no_oracle_call(self, monkeypatch):
        # Presentations that carry rado_bit's hooks but whose adjacency
        # raises, with the generic scan refused as well, must answer as
        # the oracle does: witnesses from the least_witness hook alone, and
        # truncations of their lex composition from the rows hooks alone.
        def refuse(*args):
            raise AssertionError("the oracle was asked")

        monkeypatch.setattr(presentations, "_least_scan", refuse)
        rado = parse_spec("rado_bit")
        p = Presentation("rado_bit", refuse, rows=rado._rows, least_witness=rado._least_witness)
        oracle = _oracle_only(rado)
        columns = _adjacency_columns(oracle, 12, 1 << 16)
        for a, b in _sided_pairs(12, 4):
            for budget in (0, 1, 2, 3, 5, 20, 1 << 16):
                assert extension_witness(p, a, b, budget) == _column_witness(
                    oracle, columns, a, b, budget
                ), (a, b, budget)
        blind = make_presentation("lex", p, p)
        reference = _oracle_only(parse_spec("lex:rado_bit,rado_bit"))
        for n in (0, 1, 2, 5, 33, 200):
            assert truncate(blind, n) == truncate(reference, n)

    def test_families_without_a_total_witness_keep_the_scan(self):
        for spec in ("rs:3", "two_way_path", "lex:rado_bit,k_omega"):
            assert parse_spec(spec)._least_witness is None

    def test_compositions_drop_missing_hooks(self):
        bare = _oracle_only(parse_spec("rado_bit"))
        assert make_presentation("complement_of", bare)._rows is None
        assert make_presentation("complement_of", bare)._least_witness is None
        assert make_presentation("lex", bare, parse_spec("null"))._rows is None

    @pytest.mark.parametrize(
        "spec", ["rado_bit", "rs:3", "two_way_path", "lex:rado_bit,k_omega",
                 "complement_of:rado_bit"]
    )
    @pytest.mark.parametrize("budget", [32, 100, 512])
    def test_classify_rungs_are_truncations(self, spec, budget):
        p = parse_spec(spec)
        ladder = presentations._ladder(p, budget)
        assert list(ladder) == sorted({max(8, budget // 8), budget // 4, budget // 2, budget})
        for s, g in ladder.items():
            # Rungs are sliced without from_masks, so check what it would.
            graph_module._check_masks(g.masks)
            assert g == truncate(p, s)

    def test_rs_rows_match_the_oracle_at_every_size(self):
        for n in range(3, 8):
            p = make_presentation("rs", n)
            oracle = _oracle_only(p)
            for size in range(3 * n + 3):
                assert truncate(p, size) == truncate(oracle, size), (n, size)

    def test_rs_costs_follow_the_vertices_asked_about(self):
        # Below order n every vertex is a block vertex, so nothing of size
        # n may be built: a part mask of 2^n bits, or range(n) as a set.
        p = make_presentation("rs", 10**12)
        assert truncate(p, 10) == empty_graph(10)
        assert extension_witness(p, [0], [], 10).status == "exhausted"
        assert extension_witness(p, [], [0, 1], 10).status == "found"


class TestTruncationCap:
    def test_cap_rejects_before_building(self):
        def refuse(n):
            raise AssertionError("rows built above the cap")

        cap = presentations._MAX_TRUNCATION
        p = Presentation("k_omega", lambda i, j: True, rows=refuse)
        with pytest.raises(BadParams, match="cap"):
            truncate(p, cap + 1)
        with pytest.raises(BadParams, match="cap"):
            classify_mb(p, cap + 1)

    def test_rows_hook_must_give_n_rows(self):
        p = Presentation("x", lambda i, j: False, rows=lambda n: [0] * (n + 1))
        with pytest.raises(BadParams, match="x: rows hook gave 4 rows for order 3"):
            truncate(p, 3)

    def test_cap_is_reachable(self, monkeypatch):
        monkeypatch.setattr(presentations, "_MAX_TRUNCATION", 40)
        p = parse_spec("rado_bit")
        assert truncate(p, 40).n == 40
        with pytest.raises(BadParams):
            truncate(p, 41)
