"""Core graph operations: construction, products, neighbourhoods, and the
independence machinery with its directory-based quantities."""

import hashlib
import json
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from homoglab import graphs as graph_module
from homoglab.errors import NotADirectoryBase, StarNumberZero
from homoglab.formats import graph_from_graph6, graph_to_graph6
from homoglab.graphs import (
    Graph,
    address,
    address_union,
    analyze,
    common_neighborhood,
    complement,
    complete_graph,
    cone_set,
    cycle_graph,
    directories,
    disjoint_union,
    dominates,
    domination_number,
    empty_graph,
    exact_neighborhood,
    independence_number,
    induced_subgraph,
    is_connected,
    is_directory,
    is_independent_dominating,
    is_independent,
    lex_product,
    path_graph,
    star_number,
)
from homoglab.homogeneity import kk_okk
from homoglab.morphisms import canonical_code, enumerate_graphs
from homoglab.verify import random_graph, verify_directory_lemmas

from conftest import (
    brute_alpha,
    brute_components,
    brute_domination_number,
    brute_independent_dominating_of_size,
    brute_max_clique,
    brute_sigma,
    census_tail,
    graph_from_bits,
    lex_least_independent,
    petersen,
    random_maximal_independent,
    reference_lex_product,
)


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bits)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_symmetry(self):
        g = Graph(3, [(0, 2)])
        assert g.has_edge(2, 0) and g.has_edge(0, 2)
        assert not g.has_edge(0, 1)

    def test_from_masks_validates(self):
        with pytest.raises(ValueError):
            Graph.from_masks([0b010, 0b000, 0b000])  # asymmetric

    def test_negative_order_rejected_by_every_constructor(self):
        # complete_graph(-1) used to fail on a negative shift count.
        for build in (Graph, empty_graph, path_graph, complete_graph):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                build(-1)


def _loop_verdict(masks):
    try:
        graph_module._check_masks(masks)
    except ValueError as exc:
        return str(exc)
    return None


def _one_fault(rng, masks):
    """The masks with one flipped bit, one self-loop or one bit past the order."""
    masks = list(masks)
    n = len(masks)
    v = rng.randrange(n)
    kind = rng.randrange(3)
    if kind == 0 and n > 1:
        masks[v] ^= 1 << rng.choice([u for u in range(n) if u != v])
    elif kind == 1:
        masks[v] |= 1 << v
    else:
        masks[v] |= 1 << (n + rng.randrange(3))
    return tuple(masks)


class TestPackedMaskCheck:
    """The packed transpose accepts exactly what the per-vertex loop
    accepts, and from_masks raises the loop's message either way."""

    @pytest.mark.parametrize("n", list(range(0, 101)) + [1024])
    def test_agrees_with_loop(self, n):
        rng = random.Random(f"packed/{n}")
        for _ in range(3 if n < 1024 else 1):
            g = random_graph(rng, n, rng.random())
            cases = [g.masks] + ([_one_fault(rng, g.masks)] if n else [])
            for masks in cases:
                message = _loop_verdict(masks)
                assert graph_module._masks_valid_packed(masks) == (message is None)
                if message is None:
                    assert Graph.from_masks(masks) == g
                else:
                    with pytest.raises(ValueError) as exc:
                        Graph.from_masks(masks)
                    assert str(exc.value) == message

    def test_first_fault_wins_above_the_crossover(self):
        n = 40
        masks = list(complete_graph(n).masks)
        masks[n - 1] |= 1 << (n - 1)
        masks[3] ^= 1 << 5
        with pytest.raises(ValueError, match="asymmetric adjacency between 3 and 5"):
            Graph.from_masks(masks)


def _is_its_definition(g, reference):
    """g holds valid masks (the check from_masks would make) and equals the
    reference built from an edge list."""
    graph_module._check_masks(g.masks)
    assert g == reference


def _reference_induced(g, s):
    vs = sorted(s)
    return Graph(len(vs), [(i, j) for i, j in combinations(range(len(vs)), 2)
                           if g.has_edge(vs[i], vs[j])])


class TestDerivedGraphsNeedNoCheck:
    """Graphs derived from valid graphs are built without from_masks, so
    every derivation must give valid masks by construction."""

    @pytest.mark.parametrize("n", range(0, 41))
    def test_graph_operations(self, n):
        rng = random.Random(f"derived/{n}")
        for density in (0.0, 0.15, 0.5, 0.85, 1.0):
            g = random_graph(rng, n, density)
            h = random_graph(rng, rng.randrange(4), rng.random())
            perm = list(range(n))
            rng.shuffle(perm)
            s = [v for v in range(n) if rng.random() < 0.5]
            edges = list(g.edges())
            _is_its_definition(complement(g), Graph(n, [
                (u, v) for u, v in combinations(range(n), 2) if not g.has_edge(u, v)
            ]))
            _is_its_definition(disjoint_union(g, h), Graph(
                n + h.n, edges + [(u + n, v + n) for u, v in h.edges()]
            ))
            _is_its_definition(disjoint_union(h, g), Graph(
                n + h.n, list(h.edges()) + [(u + h.n, v + h.n) for u, v in edges]
            ))
            _is_its_definition(induced_subgraph(g, s)[0], _reference_induced(g, s))
            _is_its_definition(g.relabel(perm), Graph(n, [(perm[u], perm[v]) for u, v in edges]))
            _is_its_definition(lex_product(g, h), reference_lex_product(g, h))
            _is_its_definition(lex_product(h, g), reference_lex_product(h, g))
        _is_its_definition(complete_graph(n), Graph(n, combinations(range(n), 2)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_enumerated_representatives(self, n):
        for g in enumerate_graphs(n):
            _is_its_definition(g, Graph(n, list(g.edges())))

    def test_age_class_representatives(self):
        graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)] + census_tail()
        for g in graphs:
            for cls in kk_okk(g, min(g.n, 6)).classes:
                _is_its_definition(cls.representative, _reference_induced(g, cls.embeddings[0]))


class TestComplement:
    def test_clique_to_edgeless(self):
        assert complement(complete_graph(3)) == empty_graph(3)

    def test_c5_self_complementary(self):
        c5 = cycle_graph(5)
        assert canonical_code(complement(c5)) == canonical_code(c5)

    def test_complement_of_two_disjoint_edges_is_c4(self):
        two_edges = lex_product(empty_graph(2), complete_graph(2))
        assert canonical_code(complement(two_edges)) == canonical_code(cycle_graph(4))

    @given(graphs())
    @settings(max_examples=60)
    def test_involutive(self, g):
        assert complement(complement(g)) == g


class TestLexProduct:
    def test_i2_of_k2_is_two_disjoint_edges(self):
        g = lex_product(empty_graph(2), complete_graph(2))
        assert sorted(g.edges()) == [(0, 1), (2, 3)]

    def test_k3_of_k3_is_k9(self):
        assert lex_product(complete_graph(3), complete_graph(3)) == complete_graph(9)

    def test_k2_of_i2_is_c4(self):
        g = lex_product(complete_graph(2), empty_graph(2))
        assert canonical_code(g) == canonical_code(cycle_graph(4))


class TestInducedSubgraph:
    def test_consecutive_cycle_vertices_give_path(self):
        sub, index = induced_subgraph(cycle_graph(5), [0, 1, 2])
        assert sub == path_graph(3)
        assert index == {0: 0, 1: 1, 2: 2}

    def test_empty_selection(self):
        sub, index = induced_subgraph(complete_graph(4), [])
        assert sub.n == 0 and index == {}

    def test_any_three_of_k5(self):
        sub, _ = induced_subgraph(complete_graph(5), [1, 3, 4])
        assert sub == complete_graph(3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(3), [0, 3])


class TestNeighborhoods:
    def test_c5_singleton(self):
        assert common_neighborhood(cycle_graph(5), [0]) == [1, 4]

    def test_c5_pair(self):
        assert common_neighborhood(cycle_graph(5), [1, 4]) == [0]

    def test_empty_set_gives_all(self):
        assert common_neighborhood(petersen(), []) == list(range(10))

    def test_cone_of_singleton_is_neighborhood(self):
        g = petersen()
        assert cone_set(g, [3]) == g.neighbors(3)

    def test_rs3_block_has_no_cone(self, rs3_m2):
        assert cone_set(rs3_m2, [0, 1, 2]) == []

    def test_rs3_cocone_over_block_vertex(self, rs3_m2):
        # Non-neighbours of a_0: the other block vertices and part 0.
        assert cone_set(rs3_m2, [0], "cocone") == [1, 2, 3, 6]

    @given(graphs())
    @settings(max_examples=60)
    def test_cocone_is_cone_in_complement(self, g):
        co = complement(g)
        for size in range(0, min(3, g.n) + 1):
            for x in combinations(range(g.n), size):
                expected = [v for v in cone_set(co, x) if v not in x]
                assert cone_set(g, x, "cocone") == expected

    def test_bad_polarity(self):
        with pytest.raises(ValueError):
            cone_set(complete_graph(2), [0], "sideways")

    def test_dominates_matches_its_definition(self):
        # Every member of x has a neighbour in d; a member of d counts only
        # through its neighbours, and an empty x is dominated by anything.
        rng = random.Random(2909)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            d = [v for v in range(g.n) if rng.random() < 0.3]
            x = [v for v in range(g.n) if rng.random() < 0.5]
            expected = all(any(g.has_edge(v, u) for u in d) for v in x)
            assert dominates(g, d, x) == expected, (g.masks, d, x)


def _random_sets(rng, g, count):
    """Vertex sets of every density, so dependent, non-dominating and
    index sets all turn up."""
    sets = []
    for _ in range(count):
        p = rng.random()
        sets.append([v for v in range(g.n) if rng.random() < p])
    return sets


def _fault_by_definition(g, s):
    """The NotADirectoryBase message for s, from pairwise adjacency."""
    if any(g.has_edge(u, v) for u, v in combinations(s, 2)):
        return "index set is not independent"
    for v in range(g.n):
        if v not in s and not any(g.has_edge(v, u) for u in s):
            return f"index set does not dominate vertex {v}"
    return None


class TestSetNeighbourhoodsByDefinition:
    # Each set function against its written definition, built from
    # pairwise has_edge alone, on seeded random graphs of order 1-10.

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(3010)
        out = []
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            out.append((g, _random_sets(rng, g, 6)))
        return out

    def test_independence_and_index_sets(self, cases):
        # dominates has its own definition test in TestNeighborhoods.
        for g, sets in cases:
            for s in sets:
                independent = not any(g.has_edge(u, v) for u, v in combinations(s, 2))
                assert is_independent(g, s) == independent, (g.masks, s)
                expected = _fault_by_definition(g, s) is None
                assert is_independent_dominating(g, s) == expected, (g.masks, s)

    def test_cones_and_cocones(self, cases):
        for g, sets in cases:
            for x in sets:
                cone = [v for v in range(g.n) if all(g.has_edge(v, u) for u in x)]
                cocone = [
                    v for v in range(g.n) if v not in x and not any(g.has_edge(v, u) for u in x)
                ]
                assert cone_set(g, x) == cone, (g.masks, x)
                assert common_neighborhood(g, x) == cone, (g.masks, x)
                assert cone_set(g, x, "cocone") == cocone, (g.masks, x)

    def test_address_union(self, cases):
        for g, sets in cases:
            for i in sets:
                if _fault_by_definition(g, i) is not None:
                    continue
                for xs in sets:
                    union = set()
                    for x in xs:
                        union |= {x} if x in i else {u for u in i if g.has_edge(x, u)}
                    assert address_union(g, i, xs) == sorted(union), (g.masks, i, xs)

    def test_the_base_fault_names_the_first_fault(self, cases):
        # Not independent wins when both faults hold; otherwise the least
        # undominated vertex is named.
        seen = set()
        for g, sets in cases:
            for i in sets:
                fault = _fault_by_definition(g, i)
                if fault is None:
                    continue
                with pytest.raises(NotADirectoryBase) as info:
                    address_union(g, i, [])
                assert str(info.value) == fault, (g.masks, i)
                undominated = any(
                    not any(g.has_edge(v, u) for u in i) for v in range(g.n) if v not in i
                )
                seen.add((fault.endswith("independent"), undominated))
        assert seen == {(True, True), (True, False), (False, True)}


class TestIndependenceNumber:
    def test_cliques(self):
        for n in (1, 2, 5):
            assert independence_number(complete_graph(n)) == (1, [0])

    def test_rs3_truncations(self, rs3_m2, rs3_m3):
        assert independence_number(rs3_m2) == (3, [0, 1, 2])
        assert independence_number(rs3_m3) == (3, [0, 1, 2])

    def test_petersen_against_brute_force(self):
        g = petersen()
        alpha, witness = independence_number(g)
        assert alpha == brute_alpha(g) == 4
        assert all(not g.has_edge(u, v) for u, v in combinations(witness, 2))
        assert len(witness) == 4

    @given(graphs())
    @settings(max_examples=60)
    def test_matches_brute_force_and_complement_clique(self, g):
        alpha, witness = independence_number(g)
        assert alpha == brute_alpha(g)
        assert alpha == brute_max_clique(complement(g))
        assert len(witness) == alpha
        assert all(not g.has_edge(u, v) for u, v in combinations(witness, 2))

    def test_complement_clique_duality_exhaustive_to_order_6(self):
        from homoglab.morphisms import enumerate_graphs

        for n in range(1, 7):
            for g in enumerate_graphs(n):
                assert independence_number(g)[0] == brute_max_clique(complement(g))

    @given(graphs(max_n=6))
    @settings(max_examples=40)
    def test_witness_is_lexicographically_least(self, g):
        alpha, witness = independence_number(g)
        best = None
        for sub in combinations(range(g.n), alpha):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = list(sub) if best is None else min(best, list(sub))
        assert witness == (best if best is not None else [])


class TestStarNumber:
    def test_rs3(self, rs3_m2):
        sigma, witness = star_number(rs3_m2)
        assert sigma == 2
        v, ind = witness
        assert set(ind) <= set(rs3_m2.neighbors(v)) and len(ind) == 2

    def test_clique_is_one(self):
        assert star_number(complete_graph(4))[0] == 1

    def test_c6_is_two(self):
        assert star_number(cycle_graph(6))[0] == 2

    def test_edgeless(self):
        sigma, witness = star_number(empty_graph(3))
        assert sigma == 0 and witness == (0, [])
        assert star_number(empty_graph(0)) == (0, None)

    @given(graphs())
    @settings(max_examples=40)
    def test_matches_neighborhood_alpha(self, g):
        sigma, _ = star_number(g)
        expected = 0
        for v in range(g.n):
            sub, _ = induced_subgraph(g, g.neighbors(v))
            expected = max(expected, brute_alpha(sub))
        assert sigma == expected

    def test_matches_the_definition_cold_and_after_alpha(self):
        # sigma <= alpha, and once alpha is in the graph's memo the scan
        # stops at the first vertex attaining it; the result, witness
        # included, must be the definition's whether or not alpha is known.
        rng = random.Random(4099)
        gs = [
            random_graph(rng, rng.randint(1, 14), (0.5, 0.7, 0.85, 0.95)[k % 4])
            for k in range(160)
        ]
        gs += [complete_graph(n) for n in (1, 2, 6)] + [empty_graph(n) for n in (0, 1, 6)]
        gs += [cycle_graph(5), petersen(), _rook_3x3()]
        for g in gs:
            want = brute_sigma(g)
            assert star_number(Graph.from_masks(g.masks)) == want
            warm = Graph.from_masks(g.masks)
            independence_number(warm)
            assert star_number(warm) == want

    def test_scan_stops_at_the_least_vertex_attaining_alpha(self, monkeypatch):
        # sigma = alpha = 4 here, first attained at vertex 0, and every
        # later neighbourhood has more than 4 vertices, so only the stop
        # rule keeps the scan from searching them all.  A cold scan reads
        # the alpha memo but never fills it.
        g = random_graph(random.Random(1), 30, 0.8)
        cold = Graph.from_masks(g.masks)
        star_number(cold)
        assert cold._alpha_memo is None
        alpha = independence_number(g)[0]
        keep, _, pos = graph_module._complement_view(g)
        calls = _count_calls(monkeypatch, "_max_clique")
        sigma, (v, _) = star_number(g)
        assert sigma == alpha == 4 and v == 0
        assert any(g.degree(u) > alpha for u in range(v + 1, g.n))
        assert [cand for _, cand, *_ in calls] == [keep[pos[v]]]


class TestDirectories:
    def test_rs3_unique(self, rs3_m2, rs3_m3):
        assert directories(rs3_m2) == [[0, 1, 2]]
        assert directories(rs3_m3) == [[0, 1, 2]]

    def test_c6(self):
        assert directories(cycle_graph(6)) == [[0, 2, 4], [1, 3, 5]]

    def test_k3_singletons(self):
        assert directories(complete_graph(3)) == [[0], [1], [2]]

    def test_edgeless_raises(self):
        with pytest.raises(StarNumberZero):
            directories(empty_graph(4))

    @given(graphs())
    @settings(max_examples=40)
    def test_matches_brute_force(self, g):
        if g.edge_count() == 0:
            return
        alpha, _ = independence_number(g)
        expected = [list(s) for s in brute_independent_dominating_of_size(g, alpha)]
        assert directories(g) == expected

    def test_tie_heavy_fixtures(self, monkeypatch):
        pairs = [(2 * i, 2 * i + 1) for i in range(10)]
        ten_k2 = Graph(20, pairs)
        transversals = [list(t) for t in product(*pairs)]
        dirs = directories(ten_k2)
        assert len(dirs) == 1024
        assert dirs == transversals
        # The witness search stops at the first completion of each probe:
        # here it colours 55 candidate sets, where listing every completion
        # of each probe would colour about a thousand.
        color_order = graph_module._color_order
        calls = []
        monkeypatch.setattr(
            graph_module,
            "_color_order",
            lambda *args: calls.append(args) or color_order(*args),
        )
        assert dirs[0] == independence_number(ten_k2)[1]
        assert len(calls) < 100
        for g in (cycle_graph(6), lex_product(cycle_graph(9), empty_graph(2))):
            alpha, witness = independence_number(g)
            expected = [list(s) for s in brute_independent_dominating_of_size(g, alpha)]
            dirs = directories(g)
            assert dirs == expected
            assert dirs[0] == witness

    def test_matches_networkx_at_order_20_to_40(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(20240)
        for p in (0.1, 0.2, 0.5):
            for _ in range(10):
                g = random_graph(rng, rng.randint(20, 40), p)
                if g.edge_count() == 0:
                    continue
                G = nx.Graph()
                G.add_nodes_from(range(g.n))
                G.add_edges_from(g.edges())
                co = nx.complement(G)
                alpha = nx.max_weight_clique(co, weight=None)[1]
                expected = sorted(
                    sorted(c) for c in nx.find_cliques(co) if len(c) == alpha
                )
                dirs = directories(g)
                assert dirs == expected
                assert independence_number(g) == (alpha, dirs[0])
                # sigma is the clique number of the complement over N(v),
                # maximised over v; the witness is the least v attaining it.
                local = [
                    nx.max_weight_clique(co.subgraph(g.neighbors(v)), weight=None)[1]
                    for v in range(g.n)
                ]
                sigma = max(local)
                v = local.index(sigma)
                nbrs = g.neighbors(v)
                h, _ = induced_subgraph(g, nbrs)
                witness = [nbrs[i] for i in directories(h)[0]] if h.edge_count() else nbrs
                assert star_number(g) == (sigma, (v, witness))

    def test_is_directory_builds_no_witness(self, rs3_m2, monkeypatch):
        def refuse(*args):
            raise AssertionError("is_directory only needs alpha or sigma")

        monkeypatch.setattr(graph_module, "_lex_least_clique", refuse)
        assert is_directory(rs3_m2, [0, 1, 2])
        assert not is_directory(rs3_m2, [0, 3])
        assert is_directory(rs3_m2, [0, 1, 2], relaxed=True)
        assert not is_directory(path_graph(5), [1, 3], relaxed=True)

    def test_is_directory_modes(self, rs3_m2):
        assert is_directory(rs3_m2, [0, 1, 2])
        assert not is_directory(rs3_m2, [0, 3])  # maximal but too small
        # relaxed mode: independent dominating of size >= 2*sigma - 1 = 3
        assert is_directory(rs3_m2, [0, 1, 2], relaxed=True)
        assert not is_directory(empty_graph(2), [0, 1])
        assert not is_independent_dominating(path_graph(4), [0])
        assert not is_independent_dominating(path_graph(3), [0, 1])
        with pytest.raises(ValueError):
            is_independent_dominating(path_graph(3), [3])


def _brute_results(g):
    """alpha, sigma and directories with their witnesses, by enumeration."""
    alpha = brute_alpha(g)
    alpha_witness = lex_least_independent(g, range(g.n), alpha)
    dirs = [list(s) for s in brute_independent_dominating_of_size(g, alpha)]
    return (alpha, alpha_witness), brute_sigma(g), dirs


def _rook_3x3():
    cells = list(product(range(3), repeat=2))
    return Graph(
        9,
        [
            (3 * a + b, 3 * c + d)
            for (a, b), (c, d) in combinations(cells, 2)
            if a == c or b == d
        ],
    )


class TestRelabelledSearch:
    """The clique searches run on the complement relabelled by degree; these
    graphs have degree orders far from the labels, or ties that only the
    stable order breaks, and every result must still be in original labels."""

    @staticmethod
    def _check(g):
        alpha, sigma, dirs = _brute_results(g)
        assert independence_number(g) == alpha
        assert star_number(g) == sigma
        if g.edge_count():
            assert directories(g) == dirs
            assert directories(g)[0] == alpha[1]
            assert is_directory(g, alpha[1])
        else:
            with pytest.raises(StarNumberZero):
                directories(g)

    def test_degree_descending_in_label(self):
        n = 9
        star = Graph(n, [(0, v) for v in range(1, n)])
        # Endpoints of the path carry the two highest labels.
        path = path_graph(n).relabel([n - 1] + list(range(n - 2)) + [n - 2])
        threshold = Graph(n, [(u, v) for u, v in combinations(range(n), 2) if u + v < n - 1])
        for g in (star, path, threshold):
            degrees = [g.degree(v) for v in range(n)]
            assert degrees != sorted(degrees)
            self._check(g)
        assert star_number(path) == (2, (0, [1, 8]))
        assert independence_number(threshold) == (5, [3, 5, 6, 7, 8])

    def test_regular_graphs_tie_on_every_degree(self):
        for g in (cycle_graph(7), cycle_graph(8), petersen(), _rook_3x3()):
            self._check(g)
        assert star_number(petersen()) == (3, (0, [1, 4, 5]))
        assert star_number(_rook_3x3()) == (2, (0, [1, 3]))
        assert directories(_rook_3x3())[:2] == [[0, 4, 8], [0, 5, 7]]

    def test_sigma_attained_at_several_vertices(self):
        # Every vertex of C6 and of K3 + K3 attains sigma, and a star's
        # leaves tie below its centre; the least vertex, then the least set,
        # is the witness.
        k3k3 = disjoint_union(complete_graph(3), complete_graph(3))
        late_star = Graph(7, [(6, v) for v in range(6)])
        tied = disjoint_union(Graph(4, [(0, 1), (0, 2), (3, 1), (3, 2)]), late_star)
        for g in (cycle_graph(6), k3k3, late_star, tied):
            self._check(g)
        assert star_number(cycle_graph(6)) == (2, (0, [1, 5]))
        assert star_number(k3k3) == (1, (0, [1]))
        assert star_number(late_star) == (6, (6, [0, 1, 2, 3, 4, 5]))
        assert star_number(tied) == (6, (10, [4, 5, 6, 7, 8, 9]))

    def test_degenerate_orders(self):
        for n in (0, 1, 2, 5):
            self._check(empty_graph(n))
        for n in (1, 2, 5):
            self._check(complete_graph(n))
        assert independence_number(empty_graph(0)) == (0, [])
        assert star_number(empty_graph(1)) == (0, (0, []))
        assert independence_number(empty_graph(5)) == (5, [0, 1, 2, 3, 4])
        assert star_number(complete_graph(5)) == (1, (0, [1]))

    def test_random_relabellings_agree(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 9), rng.choice((0.2, 0.5, 0.8)))
            perm = list(range(g.n))
            rng.shuffle(perm)
            self._check(g.relabel(perm))

    def test_degree_order_cuts_the_directory_search(self, monkeypatch):
        # directories colours 403 candidate sets on this graph; in natural
        # vertex order, without the colour cut, it coloured 2,258.
        g = random_graph(random.Random(1), 60, 0.1)
        color_order = graph_module._color_order
        calls = []
        monkeypatch.setattr(
            graph_module,
            "_color_order",
            lambda *args: calls.append(args) or color_order(*args),
        )
        assert len(directories(g)) == 15
        assert len(calls) < 1000


class TestCliqueEngine:
    """Both clique searches walk an explicit stack, and the optimiser's
    clique seeds the lexicographic witness walk."""

    def test_max_clique_returns_a_clique_of_its_size(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2111)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 24), rng.choice((0.1, 0.3, 0.5, 0.8)))
            keep, order, _ = graph_module._complement_view(g)
            full = (1 << g.n) - 1
            co = [full ^ keep[i] ^ 1 << i for i in range(g.n)]
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges())
            co_nx = nx.complement(G)
            for i, cand in [(None, (1 << g.n) - 1)] + list(enumerate(keep)):
                size, clique = graph_module._max_clique(keep, cand)
                labels = [order[j] for j in clique]
                if i is None:
                    want = nx.max_weight_clique(co_nx, weight=None)[1]
                else:
                    want = nx.max_weight_clique(co_nx.subgraph(g.neighbors(order[i])), weight=None)[1]
                assert size == want == len(set(clique))
                assert all(cand >> j & 1 for j in clique)
                assert all(co[a] >> b & 1 for a, b in combinations(clique, 2))
                assert is_independent(g, labels)
                # Nothing beats a floor at the clique number.
                assert graph_module._max_clique(keep, cand, size) == (size, [])

    def test_alpha_past_the_recursion_limit(self, monkeypatch):
        # The complement of I1000 is K1000: the colouring of the first
        # branch's candidates gives each its own colour, so that set is
        # taken whole.  Stacking a colour order per level instead took this
        # call to 67 MB of peak RSS, and I5000 to about 1.5 GB.
        # The alpha search starts from the greedy clique, all of K1000, so
        # its one colouring proves that nothing beats it.  Without that
        # incumbent the optimiser colours twice: once for the whole set,
        # then once for the first branch's candidates, a clique.
        calls = _count_calls(monkeypatch, "_color_order")
        assert independence_number(empty_graph(1000)) == (1000, list(range(1000)))
        assert len(calls) == 1
        calls.clear()
        keep = graph_module._complement_view(empty_graph(1000))[0]
        size, clique = graph_module._max_clique(keep, (1 << 1000) - 1)
        assert size == 1000 and sorted(clique) == list(range(1000))
        assert len(calls) == 2
        late_centre = Graph(1200, [(v, 1199) for v in range(1199)])
        assert star_number(late_centre) == (1199, (1199, list(range(1199))))

    def test_kept_incumbent_covers_every_level(self, monkeypatch):
        calls = _count_calls(monkeypatch, "_cliques")
        for n in (2, 5, 40, 300):
            centre_first = Graph(n + 1, [(0, v) for v in range(1, n + 1)])
            centre_last = Graph(n + 1, [(v, n) for v in range(n)])
            assert independence_number(empty_graph(n)) == (n, list(range(n)))
            assert star_number(empty_graph(n)) == (0, (0, []))
            assert independence_number(centre_first) == (n, list(range(1, n + 1)))
            assert star_number(centre_first) == (n, (0, list(range(1, n + 1))))
            assert independence_number(centre_last) == (n, list(range(n)))
            assert star_number(centre_last) == (n, (n, list(range(n))))
        assert calls == []


def _independent_sets(g, pool, size):
    """Every independent set of the given size within pool, sorted: the
    cliques of that size of the complement, by brute force."""
    return [
        list(sub)
        for sub in combinations(sorted(pool), size)
        if all(not g.has_edge(u, v) for u, v in combinations(sub, 2))
    ]


def _tight_root(edges, n, need):
    """keep (g's own rows, no relabelling), the full candidate set, and the
    uncoloured sets of its greedy colouring, which must be tight."""
    g = Graph(n, edges)
    keep = list(g.masks)
    full = (1 << n) - 1
    remains = []
    todo = graph_module._color_order(keep, full, need - 1, remains)
    assert todo and todo[-1][1] == need
    return g, keep, full, remains


class TestTightPropagation:
    """A colouring with exactly as many classes as the clique still needs
    forces its one-vertex classes; each case is checked against the
    independent sets of g found by brute force."""

    def test_adjacent_forced_vertices_cut_the_node(self):
        # Classes {0,1}, {2,3}, {4}, {5,6}.  Forcing 4 removes 0 and 2, so
        # 1 and 3 are forced together, and they are adjacent in g.
        edges = [(0, 1), (0, 4), (1, 3), (2, 3), (2, 4), (5, 6)]
        g, keep, full, remains = _tight_root(edges, 7, 4)
        assert graph_module._force(keep, full, remains) is None
        assert graph_module._cliques(keep, full, 4) == _independent_sets(g, range(7), 4) == []

    def test_forced_vertices_that_empty_a_class_cut_the_node(self):
        # Classes {0,1}, {2}, {3}, {4,5}: forcing 2 and 3 removes 0 and 1.
        edges = [(0, 1), (0, 2), (1, 3), (4, 5)]
        g, keep, full, remains = _tight_root(edges, 6, 4)
        assert graph_module._force(keep, full, remains) is None
        assert graph_module._cliques(keep, full, 4) == _independent_sets(g, range(6), 4) == []

    def test_a_cascade_forces_new_singletons(self):
        # Classes {0,1}, {2}, {3,4}, {5,6}, {7,8}: forcing 2 leaves {1},
        # forcing 1 leaves {4}, forcing 4 leaves {6}; {7,8} is untouched.
        edges = [(0, 1), (0, 2), (1, 3), (3, 4), (4, 5), (5, 6), (7, 8)]
        for n, need, rest in ((7, 4, []), (9, 5, [(7, 1), (8, 1)])):
            g, keep, full, remains = _tight_root(edges[: n - 1], n, need)
            forced, todo, sub = graph_module._force(keep, full, remains)
            assert (forced, todo, sub) == (0b1010110, rest, sum(1 << v for v, _ in rest))
            found = sorted(sorted(c) for c in graph_module._cliques(keep, full, need))
            assert found == _independent_sets(g, range(n), need) != []
            assert graph_module._cliques(keep, full, need, 1)[0] in found

    def test_every_size_matches_brute_force(self):
        # Tight nodes below the root, reached through the explicit stack,
        # on seeded graphs whose complements are mostly dense.
        rng = random.Random(3203)
        for k in range(240):
            g = random_graph(rng, rng.randint(5, 12), (0.1, 0.2, 0.3, 0.5)[k % 4])
            keep, order, _ = graph_module._complement_view(g)
            full = (1 << g.n) - 1
            for need in range(2, brute_alpha(g) + 2):
                want = _independent_sets(g, range(g.n), need)
                found = graph_module._cliques(keep, full, need)
                assert sorted(sorted(order[i] for i in c) for c in found) == want
                assert graph_module._cliques(keep, full, need, 1) == found[:1]


class TestCliquesAgainstNetworkx:
    def test_maximum_cliques_of_the_complement(self):
        # Over the whole vertex set (the directories) and over each
        # neighbourhood (the sigma probes), with and without a limit.
        nx = pytest.importorskip("networkx")
        rng = random.Random(3204)
        for p in (0.1, 0.2, 0.5, 0.9):
            for _ in range(4):
                g = random_graph(rng, rng.randint(10, 30), p)
                keep, order, pos = graph_module._complement_view(g)
                G = nx.Graph()
                G.add_nodes_from(range(g.n))
                G.add_edges_from(g.edges())
                co = nx.complement(G)
                sets = [((1 << g.n) - 1, co)]
                sets += [(keep[pos[v]], co.subgraph(g.neighbors(v))) for v in range(g.n)]
                for cand, sub in sets:
                    cliques = list(nx.find_cliques(sub)) if len(sub) else [[]]
                    size = max(map(len, cliques))
                    want = sorted(sorted(c) for c in cliques if len(c) == size)
                    found = graph_module._cliques(keep, cand, size)
                    assert sorted(sorted(order[i] for i in c) for c in found) == want
                    (one,) = graph_module._cliques(keep, cand, size, 1)
                    assert sorted(order[i] for i in one) in want
                    assert graph_module._cliques(keep, cand, size + 1, 1) == []

    def test_deep_listing_past_the_recursion_limit(self):
        # 1100K2: every level's colouring is tight, with 2-vertex classes
        # only, so each level branches and nothing is forced.
        g = lex_product(empty_graph(1100), complete_graph(2))
        keep, order, _ = graph_module._complement_view(g)
        (found,) = graph_module._cliques(keep, (1 << g.n) - 1, 1100, 1)
        labels = sorted(order[i] for i in found)
        assert len(labels) == 1100 and [v // 2 for v in labels] == list(range(1100))


class TestAddress:
    def test_rs3_clique_vertex(self, rs3_m2):
        assert address(rs3_m2, [0, 1, 2], 3) == [1, 2]
        assert address(rs3_m2, [0, 1, 2], 4) == [0, 2]

    def test_member_maps_to_itself(self, rs3_m2):
        assert address(rs3_m2, [0, 1, 2], 1) == [1]

    def test_c6(self):
        assert address(cycle_graph(6), [0, 2, 4], 1) == [0, 2]

    def test_rejects_non_dominating(self):
        with pytest.raises(NotADirectoryBase):
            address(path_graph(4), [0], 2)

    def test_rejects_dependent(self):
        with pytest.raises(NotADirectoryBase):
            address(path_graph(3), [0, 1], 2)

    def test_union_is_the_union_of_addresses(self):
        rng = random.Random(2093)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 12), rng.choice((0.2, 0.5, 0.8)))
            if g.edge_count() == 0:
                continue
            directory = directories(g)[0]
            for _ in range(4):
                xs = rng.sample(range(g.n), rng.randint(0, g.n))
                union = set().union(*(address(g, directory, x) for x in xs))
                assert address_union(g, directory, xs) == sorted(union)

    def test_union_rejects_a_bad_index_set(self):
        with pytest.raises(NotADirectoryBase, match="dominate"):
            address_union(path_graph(4), [0], [2])
        with pytest.raises(NotADirectoryBase, match="independent"):
            address_union(path_graph(3), [0, 1], [2])

    @given(graphs())
    @settings(max_examples=40)
    def test_never_empty_over_directory(self, g):
        if g.edge_count() == 0:
            return
        _, directory = independence_number(g)
        assert is_independent_dominating(g, directory)
        for x in range(g.n):
            assert address(g, directory, x)


class TestExactNeighborhood:
    def test_rs3_pair(self, rs3_m2):
        assert exact_neighborhood(rs3_m2, [0, 1, 2], [1, 2]) == [3, 6]

    def test_rs3_singleton_empty(self, rs3_m2):
        assert exact_neighborhood(rs3_m2, [0, 1, 2], [0]) == []

    def test_sigma_sized_equals_common(self, rs3_m2):
        sigma, _ = star_number(rs3_m2)
        for s in combinations([0, 1, 2], sigma):
            assert exact_neighborhood(rs3_m2, [0, 1, 2], s) == common_neighborhood(
                rs3_m2, s
            )

    def test_requires_subset(self, rs3_m2):
        with pytest.raises(ValueError):
            exact_neighborhood(rs3_m2, [0, 1, 2], [3])


class TestDominationNumber:
    def test_empty_set(self, rs3_m2):
        assert domination_number(rs3_m2, [0, 1, 2], []) == 0

    def test_transversal_needs_two(self, rs3_m2):
        assert domination_number(rs3_m2, [0, 1, 2], [3, 4, 5]) == 2

    def test_mixed_recursive_case(self, rs3_m2):
        # {a_0, c} with c in part 0: c is not dominated by a_0.
        assert domination_number(rs3_m2, [0, 1, 2], [0, 3]) == 2

    def test_single_clique_vertex(self, rs3_m2):
        assert domination_number(rs3_m2, [0, 1, 2], [4]) == 1

    def test_undominated(self):
        g = disjoint_union(complete_graph(2), empty_graph(1))
        with pytest.raises(NotADirectoryBase):
            domination_number(g, [0], [2])

    def test_matches_the_recursive_definition(self):
        # Seeded random graphs of order 1-10 with a maximal independent
        # index set each, and every set s on order <= 6, else 40 random
        # ones: the recursion's one step, written inline, agrees with the
        # definition recursing on vertex sets.
        rng = random.Random(2203)
        for trial in range(150):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6)))
            i = random_maximal_independent(rng, g)
            if n <= 6:
                sets = [s for k in range(n + 1) for s in combinations(range(n), k)]
            else:
                sets = [rng.sample(range(n), rng.randint(0, n)) for _ in range(40)]
            for s in sets:
                assert domination_number(g, i, s) == brute_domination_number(g, i, s), (
                    g.masks,
                    i,
                    s,
                )


class TestAnalyze:
    def test_rs3_report(self, rs3_m2):
        report = analyze(rs3_m2)
        assert report.independence_number == 3
        assert report.star_number == 2
        assert report.directories == ((0, 1, 2),)
        assert report.is_connected

    def test_matches_separate_calls(self):
        # analyze reads alpha off the first directory; the separate calls
        # search for it again.
        rng = random.Random(31)
        graphs = [empty_graph(0), empty_graph(3)]
        graphs += [
            random_graph(rng, rng.randint(1, 14), rng.choice((0.1, 0.3, 0.6, 0.9)))
            for _ in range(40)
        ]
        for g in graphs:
            report = analyze(g)
            alpha, alpha_wit = independence_number(g)
            sigma, sigma_wit = star_number(g)
            assert report.independence_number == alpha
            assert report.alpha_witness == tuple(alpha_wit)
            assert report.star_number == sigma
            assert report.sigma_witness == (
                None if sigma_wit is None else (sigma_wit[0], tuple(sigma_wit[1]))
            )
            assert report.directories == (
                tuple(tuple(d) for d in directories(g)) if sigma else ()
            )
            assert report.is_connected == is_connected(g)

    def test_disconnected(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert not analyze(g).is_connected
        assert is_connected(complete_graph(1))


class TestComponents:
    @given(graphs(max_n=9))
    @settings(max_examples=80)
    def test_matches_closure(self, g):
        comps = [graph_module._list_of(c) for c in graph_module._components(g)]
        assert comps == brute_components(g)
        assert is_connected(g) == (len(comps) <= 1)

    def test_interleaved_labels(self):
        g = disjoint_union(cycle_graph(5), path_graph(4)).relabel([0, 2, 4, 6, 8, 1, 3, 5, 7])
        comps = [graph_module._list_of(c) for c in graph_module._components(g)]
        assert comps == [[0, 2, 4, 6, 8], [1, 3, 5, 7]]
        assert not is_connected(g)
        assert list(graph_module._components(empty_graph(0))) == []

    def test_clique_components(self):
        # The component masks by least vertex when every component is a
        # clique, else None; the random unions sometimes lose one edge.
        rng = random.Random(19)
        graphs = [empty_graph(1), complete_graph(3), path_graph(4)]
        graphs += [_random_clique_union(rng) for _ in range(40)]
        seen = set()
        for g in graphs:
            comps = brute_components(g)
            cliques = all(g.has_edge(u, v) for c in comps for u, v in combinations(c, 2))
            expected = [sum(1 << v for v in c) for c in comps] if cliques else None
            assert graph_module._clique_components(g) == expected
            seen.add(cliques)
        assert seen == {True, False}
        assert graph_module._clique_components(empty_graph(0)) == []

    def test_clique_components_match_the_component_walk(self):
        # The partition rule against its definition: walk the components
        # and ask that every member's closed neighbourhood is the whole
        # component.  Cliques plus one edge join two cliques into a
        # component that is not one.
        def walked(g):
            comps = list(graph_module._components(g))
            closed = all(g.masks[v] | 1 << v == c for c in comps for v in range(g.n) if c >> v & 1)
            return comps if closed else None

        rng = random.Random(35)
        graphs = [empty_graph(0)]
        graphs += [f(n) for n in range(1, 9) for f in (empty_graph, complete_graph)]
        for _ in range(60):
            g = _random_clique_union(rng)
            graphs.append(g)
            u, v = rng.sample(range(g.n), 2) if g.n > 1 else (0, 0)
            if not g.has_edge(u, v) and u != v:
                graphs.append(Graph(g.n, [*g.edges(), (u, v)]))
        seen = set()
        for g in graphs:
            expected = walked(g)
            assert graph_module._clique_components(g) == expected, g.masks
            seen.add(expected is None)
        assert seen == {True, False}


def _random_clique_union(rng) -> Graph:
    """Cliques of random sizes under a random labelling, sometimes with one
    edge removed."""
    parts = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
    labels = list(range(sum(parts)))
    rng.shuffle(labels)
    edges, at = [], 0
    for k in parts:
        block = labels[at:at + k]
        edges += list(combinations(block, 2))
        at += k
    if edges and rng.random() < 0.5:
        edges.pop(rng.randrange(len(edges)))
    return Graph(len(labels), edges)


def _count_calls(monkeypatch, name, keep=lambda *args: True):
    """Wrap graphs.<name> and return the list of its recorded argument
    tuples (only those that keep accepts)."""
    inner = getattr(graph_module, name)
    calls = []

    def wrapper(*args):
        if keep(*args):
            calls.append(args)
        return inner(*args)

    monkeypatch.setattr(graph_module, name, wrapper)
    return calls


_CALLS = ("alpha", "sigma", "dirs", "analyze")


def _run_calls(g, order):
    """The results of the public calls named in _CALLS, made on g in the
    given order and returned in the order of _CALLS."""
    calls = {
        "alpha": lambda: independence_number(g),
        "sigma": lambda: star_number(g),
        "dirs": lambda: directories(g) if g.edge_count() else None,
        "analyze": lambda: analyze(g).to_dict(),
    }
    out = {name: calls[name]() for name in order}
    return [out[name] for name in _CALLS]


class TestProfile:
    """alpha and sigma are searched once per graph value and kept in its
    private memo slots; results never depend on whether they are filled."""

    def test_directories_reuse_alpha(self, monkeypatch):
        g = random_graph(random.Random(5), 30, 0.2)
        full = (1 << g.n) - 1
        alpha, witness = independence_number(g)
        calls = _count_calls(monkeypatch, "_max_clique", lambda keep, cand, *r: cand == full)
        dirs = directories(g)
        assert dirs[0] == witness and len(dirs[0]) == alpha
        assert is_directory(g, witness)
        assert analyze(g).independence_number == alpha
        assert calls == []

    def test_star_number_searches_once(self, monkeypatch):
        g = random_graph(random.Random(6), 30, 0.2)
        full = (1 << g.n) - 1
        first = star_number(g)
        # sigma searches each neighbourhood, a set that is never full.
        calls = _count_calls(monkeypatch, "_max_clique", lambda keep, cand, *r: cand != full)
        assert star_number(g) == first
        assert graph_module._star(g)[0] == first[0]
        alpha, witness = independence_number(g)
        assert is_directory(g, witness, relaxed=True) == (alpha >= 2 * first[0] - 1)
        assert calls == []

    def test_warm_calls_probe_no_more_than_cold(self, monkeypatch):
        # The memo keeps each search's clique, and every call seeds its
        # witness walk with it.  When a memo hit dropped the clique, a warm
        # star_number on the first graph made one _cliques call against
        # none cold, and a warm independence_number on empty_graph(300) one
        # deep probe against none.
        searches = _count_calls(monkeypatch, "_max_clique")
        probes = _count_calls(monkeypatch, "_cliques")
        pairs = [
            (independence_number, independence_number),
            (star_number, star_number),
            (directories, independence_number),
        ]
        for g in (random_graph(random.Random(1), 60, 0.1), empty_graph(300)):
            for first, call in pairs:
                if first is directories and not g.edge_count():
                    continue
                cold = Graph.from_masks(g.masks)
                probes.clear()
                want = call(cold)
                cold_probes = len(probes)
                warm = Graph.from_masks(g.masks)
                first(warm)
                searches.clear()
                probes.clear()
                assert call(warm) == want
                assert searches == []
                assert len(probes) <= cold_probes

    def test_witness_probes_reuse_their_completions(self, monkeypatch):
        # Each probe that succeeds yields a completion, whose least label
        # the next level takes unprobed: 14 calls here, 37 when every
        # candidate was probed.
        g = random_graph(random.Random(1), 60, 0.1)
        calls = _count_calls(monkeypatch, "_cliques")
        alpha, witness = independence_number(g)
        assert len(calls) < 25
        assert alpha == len(witness) and is_independent(g, witness)

    def test_new_graphs_start_cold(self):
        g = random_graph(random.Random(2), 12, 0.3)
        assert g._alpha_memo is None and g._star_memo is None and g._view_memo is None
        independence_number(g)
        star_number(g)
        assert g._alpha_memo is not None and g._star_memo is not None
        assert g._view_memo is not None
        made = [
            g.relabel(list(range(g.n))),
            complement(g),
            induced_subgraph(g, range(g.n))[0],
            Graph.from_masks(g.masks),
            Graph(g.n, g.edges()),
            graph_from_graph6(graph_to_graph6(g)),
        ]
        for h in made:
            assert h == g or h == complement(g)
            assert h._alpha_memo is None and h._star_memo is None and h._view_memo is None

    def test_warm_equals_cold(self):
        g = random_graph(random.Random(3), 15, 0.3)
        cold = Graph(g.n, g.edges())
        analyze(g)
        assert g._alpha_memo is not None and g._star_memo is not None
        assert g._view_memo is not None
        assert cold._alpha_memo is None and cold._star_memo is None and cold._view_memo is None
        assert g == cold and hash(g) == hash(cold) and repr(g) == repr(cold)
        assert len({g, cold}) == 1

    def test_view_memo_unpacks_to_the_fresh_view(self):
        # The first build remaps the rows and packs them, n * ceil(n / 8)
        # bytes; later builds unpack them.  Orders around a byte boundary,
        # and order 0, whose rows have width 0.
        rng = random.Random(25)
        made = [empty_graph(0), empty_graph(9), complete_graph(9)]
        for n in (1, 7, 8, 9, 63, 64, 65):
            made += [random_graph(rng, n, p) for p in (0.1, 0.5, 0.9)]
        made += [random_graph(rng, rng.randint(0, 40), rng.random()) for _ in range(30)]
        for g in made:
            fresh = graph_module._complement_view(g)
            assert len(g._view_memo) == g.n * ((g.n + 7) // 8)
            assert graph_module._complement_view(g) == fresh
            keep, order, pos = fresh
            assert sorted(order) == list(range(g.n))
            assert all(pos[v] == i for i, v in enumerate(order))
            assert all(
                (keep[i] >> j & 1) == g.has_edge(order[i], order[j])
                for i in range(g.n)
                for j in range(g.n)
                if i != j
            )
        assert analyze(empty_graph(0)).to_dict()["independence_number"] == 0

    def test_one_view_build_per_graph(self, monkeypatch):
        # Only the first view build remaps the rows; the later ones unpack
        # the graph's view memo.  When each public call built its own view,
        # these five calls remapped three times or more.
        g = random_graph(random.Random(8), 30, 0.2)
        calls = _count_calls(monkeypatch, "_view_rows")
        alpha, witness = independence_number(g)
        star_number(g)
        directories(g)
        verify_directory_lemmas(g, witness)
        analyze(g)
        assert len(calls) == 1

    def test_every_call_order_matches_the_oracles(self):
        # Dense graphs often have sigma = alpha, where the sigma scan stops
        # early only when alpha was searched first.
        rng = random.Random(41)
        gs = [random_graph(rng, rng.randint(0, 8), rng.choice((0.2, 0.5, 0.8))) for _ in range(8)]
        gs += [random_graph(rng, rng.randint(6, 10), rng.choice((0.85, 0.95))) for _ in range(6)]
        gs += [complete_graph(6), _rook_3x3()]
        for g in gs:
            alpha, sigma, dirs = _brute_results(g)
            if not g.edge_count():
                dirs = None
            for order in permutations(_CALLS):
                h = Graph(g.n, g.edges())
                for _ in range(2):  # cold, then warm
                    got_alpha, got_sigma, got_dirs, report = _run_calls(h, order)
                    assert got_alpha == alpha
                    assert got_sigma == sigma
                    assert got_dirs == dirs
                    assert report["independence_number"] == alpha[0]
                    assert report["alpha_witness"] == alpha[1]
                    assert report["star_number"] == sigma[0]
                    assert report["directories"] == (dirs or [])
                assert is_directory(h, alpha[1]) == bool(dirs)


# SHA-256 of alpha, sigma and directories with their witnesses and the
# analyze report, recorded before the alpha/sigma memo and the reuse of
# probe completions existed.  Any change to a result or its witness shows
# here, whether the graph's memo slots are cold or warm.
_RECORDED_PROFILE_DIGEST = "06aed563b8012a8db8d03b6a423d6a8d1b23781d81a335fa63cb91d2b42d7c29"


class TestIdentityPin:
    def test_results_are_byte_identical_cold_and_warm(self):
        rng = random.Random(20261018)
        gs = [
            random_graph(rng, rng.randint(2, 40), p)
            for _ in range(100)
            for p in (0.1, 0.2, 0.5)
        ]
        for order in (_CALLS, _CALLS[::-1]):  # fresh graphs, then warm ones
            digest = hashlib.sha256()
            for g in gs:
                record = _run_calls(g, order)
                digest.update(json.dumps(record, separators=(",", ":")).encode())
            assert digest.hexdigest() == _RECORDED_PROFILE_DIGEST
