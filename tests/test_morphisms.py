"""Morphism search, endomorphism extension, canonical codes, enumeration."""

import hashlib
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from homoglab import morphisms
from homoglab.errors import InternalInvariant, OrderTooLarge, SeedNotLocalMorphism
from homoglab.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    lex_product,
    path_graph,
)
from homoglab.morphisms import (
    MorphismConstraints,
    PartialMap,
    canonical_code,
    enumerate_graphs,
    extends_in,
    is_local_homomorphism,
    is_local_isomorphism,
    is_local_monomorphism,
    search_morphism,
    validate_total_map,
)
from homoglab.homogeneity import kk_okk, preceq
from homoglab.verify import random_graph

from conftest import (
    brute_local_morphisms,
    brute_min_code,
    census_tail,
    clique_union,
    graph_from_bits,
    reference_enumerate_masks,
    reference_min_column_code,
)


@st.composite
def graphs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bits)


# Respecting non-edges alone must give the same maps as with injectivity:
# the search reads it as kind I, which excludes used targets.
_CONSTRAINT_SETS = (
    MorphismConstraints(),
    MorphismConstraints(injective=True),
    MorphismConstraints(surjective=True),
    MorphismConstraints(injective=True, surjective=True, respect_nonedges=True),
    MorphismConstraints(respect_nonedges=True),
    MorphismConstraints(surjective=True, respect_nonedges=True),
)


# Recorded from the search before it gained incremental columns;
# conftest.reference_min_column_code in place of canonical_code gives the
# same digest.  See test_codes_match_the_recorded_digest.
_RECORDED_CODE_DIGEST = "1bd6a84e87bc89728a62bc2b1cd4a564b6eae8b840fa4d5d00e1b76364274814"


def _brute_least_map(a, b, seed_pairs, c):
    """Least total map a -> b by enumerating all of them in lexicographic
    order, each constraint checked from its definition."""
    for f in product(range(b.n), repeat=a.n):
        if any(f[u] != t for u, t in seed_pairs):
            continue
        if any(not b.has_edge(f[u], f[v]) for u, v in a.edges()):
            continue
        if c.injective and len(set(f)) < a.n:
            continue
        if c.surjective and len(set(f)) < b.n:
            continue
        if c.respect_nonedges and any(
            not a.has_edge(u, v) and (f[u] == f[v] or b.has_edge(f[u], f[v]))
            for u, v in combinations(range(a.n), 2)
        ):
            continue
        return list(f)
    return None


def _mask(vertices):
    return sum(1 << v for v in set(vertices))


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _has_twins(g):
    return any(
        not (g.masks[u] ^ g.masks[w]) & ~(1 << u | 1 << w)
        for u, w in combinations(range(g.n), 2)
    )


def _first_leaf(g):
    """Code of the first leaf of the column-string search: at every level
    the unplaced vertex with the least column, ties to the least label."""
    placed, cols, rest = [], [], set(range(g.n))
    while rest:
        col, u = min(
            (sum(g.has_edge(p, w) << i for i, p in enumerate(reversed(placed))), w)
            for w in rest
        )
        placed.append(u)
        cols.append(col)
        rest.remove(u)
    return bytes([g.n]) + b"".join(c.to_bytes(2, "big") for c in cols)


def _partitions(n, largest=None):
    """Every partition of n into parts of at most largest, parts descending."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


class TestPartialMap:
    def test_duplicate_source_rejected(self):
        with pytest.raises(ValueError):
            PartialMap([(0, 1), (0, 2)])

    def test_normalized(self):
        assert PartialMap([(2, 0), (1, 1)]).pairs == ((1, 1), (2, 0))


_LOCAL_CHECKS = {
    "H": is_local_homomorphism,
    "M": is_local_monomorphism,
    "I": is_local_isomorphism,
}


class TestLocalChecks:
    def test_every_partial_map_against_brute_force_up_to_order_4(self):
        # Every partial map of every class, targets anywhere in the graph,
        # against the local morphisms listed by their definitions.
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                local = brute_local_morphisms(g)
                for size in range(n + 1):
                    for domain in combinations(range(n), size):
                        for images in product(range(n), repeat=size):
                            pairs = tuple(zip(domain, images))
                            f = PartialMap(pairs)
                            for x, check in _LOCAL_CHECKS.items():
                                assert check(g, g, f) == (pairs in local[x]), (g.masks, pairs, x)

    def test_pairs_outside_the_graphs_raise(self):
        # A lone pair, or one whose vertex no edge test reaches, used to be
        # accepted as part of a local morphism.
        k2, p3 = complete_graph(2), path_graph(3)
        for check in _LOCAL_CHECKS.values():
            for a, b, pairs in (
                (k2, k2, [(5, 7)]),
                (k2, k2, [(0, 2)]),
                (p3, k2, [(2, 2)]),
                (p3, p3, [(0, 0), (2, 5)]),
                (k2, p3, [(0, 1), (-1, 0)]),
            ):
                with pytest.raises(ValueError, match="out of range"):
                    check(a, b, PartialMap(pairs))


class TestSearchMorphism:
    def test_no_hom_onto_smaller_clique(self):
        assert search_morphism(complete_graph(3), complete_graph(2)) is None

    def test_odd_cycle_not_two_colorable(self):
        assert search_morphism(cycle_graph(5), complete_graph(2)) is None

    def test_path_onto_edge_surjective(self):
        got = search_morphism(
            path_graph(3),
            complete_graph(2),
            None,
            MorphismConstraints(surjective=True),
        )
        assert got == [0, 1, 0]

    def test_lexicographically_least_against_enumeration(self):
        a, b = path_graph(4), cycle_graph(4)
        got = search_morphism(a, b)
        best = None
        for f in product(range(b.n), repeat=a.n):
            if all(b.has_edge(f[u], f[v]) for u, v in a.edges()):
                best = list(f) if best is None else min(best, list(f))
        assert got == best

    def test_seed_respected(self):
        seed = PartialMap([(0, 2)])
        got = search_morphism(path_graph(3), cycle_graph(4), seed)
        assert got is not None and got[0] == 2

    def test_inconsistent_seed_gives_none(self):
        seed = PartialMap([(0, 0), (1, 0)])  # edge collapsed to a vertex
        assert search_morphism(path_graph(2), complete_graph(2), seed) is None

    def test_order_zero_against_enumeration(self):
        # An empty source or target is walked like any other graph, under
        # every combination of constraints.
        small = [
            empty_graph(0),
            empty_graph(1),
            empty_graph(2),
            complete_graph(2),
            path_graph(3),
            complete_graph(3),
        ]
        for a, b in product(small, repeat=2):
            for flags in product((False, True), repeat=3):
                c = MorphismConstraints(*flags)
                assert search_morphism(a, b, None, c) == _brute_least_map(a, b, (), c)

    def test_seed_out_of_range_raises_on_order_zero(self):
        # An empty source or target once returned [] or None before the
        # seed was checked.
        with pytest.raises(ValueError):
            search_morphism(empty_graph(0), complete_graph(2), PartialMap([(0, 1)]))
        with pytest.raises(ValueError):
            search_morphism(complete_graph(2), empty_graph(0), PartialMap([(0, 1)]))

    def test_invalid_witness_raises_internal_invariant(self, monkeypatch):
        # A typed error, not an assert, so that python -O keeps the check.
        monkeypatch.setattr(morphisms, "validate_total_map", lambda *args: False)
        with pytest.raises(InternalInvariant):
            search_morphism(path_graph(3), complete_graph(2))

    @given(graphs(), graphs())
    @settings(max_examples=40)
    def test_witness_validates(self, a, b):
        for constraints in _CONSTRAINT_SETS:
            got = search_morphism(a, b, None, constraints)
            if got is not None:
                assert validate_total_map(a, b, got, constraints)

    def test_least_map_against_enumeration_under_every_constraint_set(self):
        # Every third pair is a graph and a relabelling of it, so that the
        # automorphism-like constraint set has maps to find.
        rng = random.Random(3301)
        for i in range(120):
            a, b = (
                graph_from_bits(n, rng.getrandbits(n * (n - 1) // 2))
                for n in (rng.randint(1, 5), rng.randint(1, 5))
            )
            if i % 3 == 0:
                b = a.relabel(rng.sample(range(a.n), a.n))
            seed = ((rng.randrange(a.n), rng.randrange(b.n)),)
            for c in _CONSTRAINT_SETS:
                for pairs in ((), seed):
                    got = search_morphism(a, b, PartialMap(pairs), c)
                    expected = _brute_least_map(a, b, pairs, c)
                    assert got == expected, (a.masks, b.masks, pairs, c)


class TestValidateTotalMap:
    # One hand-built bad map per fault the check names.  Each is paired with
    # constraints under which a good map passes, so a False comes from the
    # fault alone.  P3 is 0-1-2, with the one non-edge 02.
    def test_each_fault_is_rejected(self):
        p3, p4, k3 = path_graph(3), path_graph(4), complete_graph(3)
        none = MorphismConstraints()
        injective = MorphismConstraints(injective=True)
        surjective = MorphismConstraints(surjective=True)
        nonedges = MorphismConstraints(respect_nonedges=True)
        faults = [
            (p3, p4, [0, 1], none),  # wrong length
            (p3, p4, [0, 1, 4], none),  # a target above the range
            (p3, p4, [-1, 0, 1], none),  # a negative target
            (p3, p4, [0, 1, 3], none),  # edge 12 lost
            (p3, p4, [0, 1, 0], injective),  # target 0 repeated
            (p3, p4, [0, 1, 2], surjective),  # vertex 3 missed
            (p3, k3, [0, 1, 2], nonedges),  # non-edge 02 sent to an edge
            (p3, p4, [0, 1, 0], nonedges),  # non-edge 02 sent to one vertex
        ]
        for a, b, f, c in faults:
            assert not validate_total_map(a, b, f, c), (f, c)
        for a, b, f, c in [
            (p3, p4, [0, 1, 2], none),
            (p3, p4, [0, 1, 0], none),
            (p3, p4, [0, 1, 2], injective),
            (p3, p3, [0, 1, 2], surjective),
            (p3, k3, [0, 1, 2], injective),
            (p3, p4, [0, 1, 2], nonedges),
        ]:
            assert validate_total_map(a, b, f, c), (f, c)


class TestLocalMapWalker:
    def test_matches_brute_force_with_prefixes_and_cover(self):
        # On every class of order <= 5 and a relabelling of it: a shuffled
        # vertex list vs, the whole vertex set or a part of it, a prefix
        # drawn from the local maps on its first k vertices or, in the
        # last trial, any images at all, and cover 0 or every vertex.  The
        # walker yields exactly the brute-force local maps on vs that
        # extend the prefix and cover the mask, in ascending order of
        # images; for a prefix that is not a local map, none.
        walk = morphisms._local_maps
        rng = random.Random(2020)
        not_local = 0
        for n in range(1, 6):
            for rep in enumerate_graphs(n):
                for g in (rep, _shuffled(rep, rng)):
                    local = brute_local_morphisms(g)
                    for x in "HMI":
                        by_domain = {}
                        for pairs in local[x]:
                            domain = frozenset(u for u, _ in pairs)
                            by_domain.setdefault(domain, []).append(dict(pairs))
                        for trial in range(4):
                            vs = rng.sample(range(n), n if trial == 0 else rng.randint(0, n))
                            k = rng.randint(0, len(vs))
                            if trial < 3:
                                start = rng.choice(by_domain[frozenset(vs[:k])])
                                prefix = [start[v] for v in vs[:k]]
                            else:
                                prefix = [rng.randrange(n) for _ in range(k)]
                                starts = by_domain[frozenset(vs[:k])]
                                not_local += dict(zip(vs, prefix)) not in starts
                            for cover in (0, (1 << n) - 1):
                                expected = []
                                for f in by_domain[frozenset(vs)]:
                                    images = tuple(f[v] for v in vs)
                                    if list(images[:k]) == prefix and not cover & ~_mask(images):
                                        expected.append(images)
                                got = list(walk(g.masks, g.masks, x, vs, prefix, cover))
                                case = (g.masks, x, vs, prefix, cover)
                                assert [images for images, _ in got] == sorted(expected), case
                                assert all(mask == _mask(images) for images, mask in got), case
        assert not_local > 50, not_local

    # A recursive search passed Python's recursion limit on these paths.
    def test_deep_search_returns(self):
        assert search_morphism(path_graph(5000), complete_graph(2)) == [0, 1] * 2500

    def test_deep_surjective_search_returns(self):
        assert preceq(path_graph(3000), complete_graph(2))

    def test_deep_seeded_extension_returns(self):
        assert extends_in(path_graph(2000), PartialMap([(0, 1)]), "H")[:4] == [1, 0, 1, 0]


class TestExtendsIn:
    def test_clique_automorphism_extension(self):
        got = extends_in(complete_graph(4), PartialMap([(0, 3), (2, 1)]), "A")
        assert got is not None and got[0] == 3 and got[2] == 1
        assert sorted(got) == [0, 1, 2, 3]

    def test_p5_gap_map_has_no_extension(self):
        assert extends_in(path_graph(5), PartialMap([(0, 0), (2, 4)]), "H") is None

    def test_p3_fold(self):
        got = extends_in(path_graph(3), PartialMap([(0, 0), (2, 0)]), "H")
        assert got == [0, 1, 0]

    def test_seed_kind_checked(self):
        # {0->0, 2->0} is a local homomorphism but not a monomorphism.
        with pytest.raises(SeedNotLocalMorphism):
            extends_in(path_graph(3), PartialMap([(0, 0), (2, 0)]), "M")
        # An edge mapped to a non-edge is not even a local homomorphism.
        with pytest.raises(SeedNotLocalMorphism):
            extends_in(path_graph(3), PartialMap([(0, 0), (1, 2)]), "H")

    def test_kind_is_one_letter_of_kinds(self):
        for kind in ("", "HM", "X"):
            with pytest.raises(ValueError, match="kind must be one of"):
                extends_in(path_graph(3), PartialMap([(0, 0)]), kind)

    def test_b_equals_a(self):
        cases = [
            (cycle_graph(5), PartialMap([(0, 1)])),
            (path_graph(4), PartialMap([(0, 3), (1, 2)])),
            (disjoint_union(complete_graph(2), complete_graph(2)), PartialMap([(0, 2)])),
            (complete_graph(3), PartialMap([])),
        ]
        for g, f in cases:
            assert (extends_in(g, f, "B") is None) == (extends_in(g, f, "A") is None)

    @staticmethod
    def _check_h_extension_against_enumeration(g):
        homs = [
            f
            for f in product(range(g.n), repeat=g.n)
            if all(g.has_edge(f[u], f[v]) for u, v in g.edges())
        ]
        for size in range(g.n + 1):
            for domain in combinations(range(g.n), size):
                for imgs in product(range(g.n), repeat=size):
                    f = PartialMap(tuple(zip(domain, imgs)))
                    if not is_local_homomorphism(g, g, f):
                        continue
                    searched = extends_in(g, f, "H")
                    exists = any(all(h[u] == t for u, t in f.pairs) for h in homs)
                    assert (searched is not None) == exists
                    if searched is not None:
                        assert tuple(searched) in homs

    def test_h_extension_matches_total_enumeration_exhaustively(self):
        # Every local homomorphism of every graph up to order 4.
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                self._check_h_extension_against_enumeration(g)

    @given(graphs(max_n=5))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_h_extension_matches_total_enumeration_sampled(self, g):
        self._check_h_extension_against_enumeration(g)


class TestCanonicalCode:
    def test_c4_equals_k2_of_i2(self):
        assert canonical_code(cycle_graph(4)) == canonical_code(
            lex_product(complete_graph(2), empty_graph(2))
        )

    def test_k3_differs_from_p3(self):
        assert canonical_code(complete_graph(3)) != canonical_code(path_graph(3))

    def test_relabeling_invariance(self):
        c5 = cycle_graph(5)
        for perm in ([1, 3, 0, 2, 4], [4, 2, 0, 3, 1], [2, 0, 4, 1, 3]):
            assert canonical_code(c5.relabel(perm)) == canonical_code(c5)

    def test_order_cap(self):
        # The format limit of 17 is the only cap, with no override: order
        # 11 gets a code and order 18 is refused.
        assert canonical_code(empty_graph(11)) == bytes([11]) + bytes(22)
        g = random_graph(random.Random(11), 11, 0.5)
        assert canonical_code(_shuffled(g, random.Random(12))) == canonical_code(g)
        with pytest.raises(OrderTooLarge):
            canonical_code(empty_graph(18))
        with pytest.raises(TypeError):
            canonical_code(empty_graph(11), max_order=11)

    def test_format_limit(self):
        # Each column is packed into 2 bytes, so the format holds at most
        # 17 vertices; a larger graph is refused before any search.
        g = random_graph(random.Random(3), 18, 0.5)
        with pytest.raises(OrderTooLarge, match="at most 17 vertices, got 18"):
            canonical_code(g)
        # Order 17 fits; this dense graph keeps the search short.
        g = random_graph(random.Random(3), 17, 0.7)
        code = canonical_code(g)
        assert len(code) == 1 + 2 * 17
        perm = list(range(17))
        random.Random(4).shuffle(perm)
        assert canonical_code(g.relabel(perm)) == code

    def test_matches_reference_on_every_class_up_to_order_7(self):
        rng = random.Random(1907)
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                h = _shuffled(g, rng)
                assert canonical_code(h) == reference_min_column_code(h), g.masks

    def test_matches_reference_on_twin_rich_graphs(self):
        # Unions of cliques of every size profile up to order 8, their
        # complements (the complete multipartite graphs, K_m[I_k] among
        # them), and C4[K2]: nearly every vertex has a twin.
        # K_n and I_n arise twice; a dict keeps one of each, in order.
        rng = random.Random(2719)
        sample = {lex_product(cycle_graph(4), complete_graph(2)): None}
        for n in range(2, 9):
            for parts in _partitions(n):
                union = clique_union(parts)
                sample.update(dict.fromkeys([union, complement(union)]))
        for g in sample:
            h = _shuffled(g, rng)
            assert canonical_code(h) == reference_min_column_code(h), g.masks

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(9013)
        for n in range(2, 10):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                for _ in range(3):
                    g = random_graph(rng, n, p)
                    assert canonical_code(g) == reference_min_column_code(g), g.masks

    def test_matches_reference_on_twinless_sparse_graphs(self):
        # Without twins every candidate is searched, and on these graphs
        # the first leaf (the least column and vertex at every level) is
        # not the minimum, so a later leaf replaces best and the nodes
        # above it compare their remaining candidates with the new best.
        rng = random.Random(4107)
        sample = []
        for n in range(8, 11):
            sample += [path_graph(n), cycle_graph(n)] * 3
            drawn = []
            while len(drawn) < 4:
                g = random_graph(rng, n, 0.2)
                if not _has_twins(g):
                    drawn.append(g)
            sample += drawn
        for g in sample:
            h = _shuffled(g, rng)
            code = canonical_code(h)
            assert code == reference_min_column_code(h), g.masks
            assert code != _first_leaf(h), g.masks

    def test_orders_0_1_2(self):
        assert canonical_code(empty_graph(0)) == bytes([0])
        assert canonical_code(empty_graph(1)) == bytes([1, 0, 0])
        assert canonical_code(empty_graph(2)) == bytes([2, 0, 0, 0, 0])
        assert canonical_code(complete_graph(2)) == bytes([2, 0, 0, 0, 1])
        for g in (empty_graph(0), empty_graph(1), empty_graph(2), complete_graph(2)):
            assert canonical_code(g) == reference_min_column_code(g)

    def test_codes_match_the_recorded_digest(self):
        # One SHA-256 over the code of every class of order 1-7, in
        # enumeration order, and of the twelve symmetric graphs of order
        # 8-10 that the benchmark's census ends with, so any change to a
        # code byte or to the enumeration order shows here.
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                digest.update(canonical_code(g))
        for g in census_tail():
            digest.update(canonical_code(g))
        assert digest.hexdigest() == _RECORDED_CODE_DIGEST

    def test_closed_forms_at_order_17(self):
        # The plain search walks 17! orderings on I17 and K17; the twin
        # rule walks one.  Column k is 0 on I17 and 2^k - 1 on K17.
        assert canonical_code(empty_graph(17)) == bytes([17]) + bytes(34)
        k17 = bytes([17]) + b"".join(((1 << k) - 1).to_bytes(2, "big") for k in range(17))
        assert canonical_code(complete_graph(17)) == k17
        rng = random.Random(1717)
        k4_of_i4 = lex_product(complete_graph(4), empty_graph(4))
        for g in (clique_union((4, 4, 4, 4, 1)), k4_of_i4):
            code = canonical_code(g)
            for _ in range(3):
                assert canonical_code(_shuffled(g, rng)) == code

    @given(graphs(max_n=5), graphs(max_n=5))
    @settings(max_examples=60)
    def test_complete_invariant_matches_brute_force(self, a, b):
        assert (canonical_code(a) == canonical_code(b)) == (
            brute_min_code(a) == brute_min_code(b)
        )


class TestEnumeration:
    def test_counts_match_brute_force_dedup(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
        for n, count in expected.items():
            codes = set()
            for bits in range(1 << (n * (n - 1) // 2)):
                codes.add(brute_min_code(graph_from_bits(n, bits)))
            assert len(codes) == count
            assert sum(1 for _ in enumerate_graphs(n)) == count

    def test_distinct_codes(self):
        for n in (4, 5, 6):
            codes = [canonical_code(g) for g in enumerate_graphs(n)]
            assert len(codes) == len(set(codes))

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            next(enumerate_graphs(9))
        with pytest.raises(TypeError):
            enumerate_graphs(9, max_order=9)

    def test_deterministic_order(self):
        first = [canonical_code(g) for g in enumerate_graphs(5)]
        second = [canonical_code(g) for g in enumerate_graphs(5)]
        assert first == second

    def test_twin_skip_keeps_every_representative(self):
        # A row holding w but not u, for twins u < w of its parent, is
        # skipped; the loop that codes every row keeps the same masks in
        # the same order.
        for n in range(1, 8):
            assert [g.masks for g in enumerate_graphs(n)] == reference_enumerate_masks(n), n


class TestCodeMemo:
    """The codes kept within a call, in the age scan's per-scan dict, and
    the order-4 table give the codes the search gives, and no result
    depends on an earlier call: nothing is kept between calls."""

    def test_enumeration(self):
        before = [g.masks for g in enumerate_graphs(5)]
        list(enumerate_graphs(7))
        assert [g.masks for g in enumerate_graphs(5)] == before

    def test_small_code_table(self):
        # All 76 labelled graphs of order 0-4, each with the code of the
        # plain minimum-column search; the table is read-only.
        table = morphisms._SMALL_CODES
        assert len(table) == 76
        assert sorted({len(adj) for adj in table}) == [0, 1, 2, 3, 4]
        for adj, code in table.items():
            assert code == reference_min_column_code(Graph.from_masks(adj)), adj
            assert morphisms._code(adj) == code
        with pytest.raises(TypeError):
            table[()] = b""

    def test_codes(self):
        # Codes of every class of order <= 6, under a seeded relabelling,
        # are the same on a second call.
        rng = random.Random(61)
        sample = []
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                sample.append(g.relabel(perm))
        first = [canonical_code(g) for g in sample]
        assert [canonical_code(g) for g in sample] == first

    def test_age_partition(self):
        rng = random.Random(8)
        sample = [random_graph(rng, n, 0.5) for n in range(1, 9)]
        sample += [path_graph(7), cycle_graph(6)]
        first = [kk_okk(g, g.n) for g in sample]
        assert [kk_okk(g, g.n) for g in sample] == first
