"""Shared helpers: small named graphs and independent brute-force oracles.

The oracles here deliberately avoid the package's own search machinery so
that expected values are computed through a second route.
"""

from itertools import combinations, permutations, product

import pytest

from homoglab.graphs import (
    Graph,
    address,
    common_neighborhood,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    exact_neighborhood,
    induced_subgraph,
    lex_product,
)
from homoglab.homogeneity import AgeClass, AgePartition, Conflict
from homoglab.morphisms import canonical_code


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))               # spokes
    return Graph(10, edges)


def clique_union(sizes) -> Graph:
    """Disjoint union of complete graphs of the given sizes, in order."""
    g = empty_graph(0)
    for size in sizes:
        g = disjoint_union(g, complete_graph(size))
    return g


def census_tail() -> list[Graph]:
    """The twelve symmetric graphs of order 8-10 that the benchmark's
    census ends with, in its order and natural labelling."""
    return [
        complete_graph(8),
        empty_graph(8),
        clique_union((4, 4)),
        clique_union((2, 2, 2, 2)),
        lex_product(complete_graph(4), empty_graph(2)),
        lex_product(cycle_graph(4), complete_graph(2)),
        cycle_graph(8),
        petersen(),
        lex_product(cycle_graph(5), complete_graph(2)),
        Graph(9, [(u, v) for u, v in combinations(range(9), 2)
                  if u // 3 == v // 3 or u % 3 == v % 3]),
        clique_union((3, 3, 3)),
        lex_product(complete_graph(3), empty_graph(3)),
    ]


def brute_alpha(g: Graph) -> int:
    """Maximum independent set size by subset enumeration."""
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for sub in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = size
                break
    return best


def lex_least_independent(g: Graph, pool, size: int) -> list[int] | None:
    """The lexicographically least independent set of the given size
    within pool, or None when there is none."""
    for sub in combinations(sorted(pool), size):
        if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
            return list(sub)
    return None


def brute_sigma(g: Graph) -> tuple[int, tuple[int, list[int]] | None]:
    """sigma(g) by its definition: brute_alpha on the subgraph induced by
    each neighbourhood, the least vertex attaining the maximum, and the
    lexicographically least independent set of that size within its
    neighbourhood.  The witness is None only for the empty graph."""
    if g.n == 0:
        return 0, None
    sizes = [brute_alpha(induced_subgraph(g, g.neighbors(v))[0]) for v in range(g.n)]
    sigma = max(sizes)
    v = sizes.index(sigma)
    return sigma, (v, lex_least_independent(g, g.neighbors(v), sigma))


def brute_max_clique(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = size
                break
    return best


def brute_independent_dominating_of_size(g: Graph, size: int) -> list[tuple[int, ...]]:
    out = []
    for sub in combinations(range(g.n), size):
        if any(g.has_edge(u, v) for u, v in combinations(sub, 2)):
            continue
        covered = set(sub)
        for v in sub:
            covered.update(g.neighbors(v))
        if len(covered) == g.n:
            out.append(sub)
    return out


def brute_min_code(g: Graph) -> tuple:
    """Minimum edge-bit tuple over all permutations; independent of the
    package's canonical form."""
    pairs = list(combinations(range(g.n), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    best = None
    for pi in permutations(range(g.n)):
        val = 0
        for u, v in g.edges():
            a, b = pi[u], pi[v]
            val |= 1 << idx[(min(a, b), max(a, b))]
        if best is None or val < best:
            best = val
    return (g.n, best)


def reference_min_column_code(g: Graph) -> bytes:
    """canonical_code by the plain minimum-column-string search, with no
    symmetry pruning: every vertex ordering whose column prefix can still
    tie the best one is walked.  Exponential (n! leaves on K_n and I_n), so
    only for small orders."""
    n, adj = g.n, g.masks
    best = None
    perm: list[int] = []
    prefix: list[int] = []

    def dfs(used: int) -> None:
        nonlocal best
        if len(perm) == n:
            if best is None or prefix < best:
                best = prefix.copy()
            return
        cands = []
        for u in range(n):
            if not used >> u & 1:
                col = 0
                for p in perm:
                    col = col << 1 | (adj[u] >> p & 1)
                cands.append((col, u))
        for col, u in sorted(cands):
            if best is not None and prefix + [col] > best[: len(prefix) + 1]:
                break
            perm.append(u)
            prefix.append(col)
            dfs(used | 1 << u)
            perm.pop()
            prefix.pop()

    dfs(0)
    return bytes([n]) + b"".join(c.to_bytes(2, "big") for c in best or [])


def brute_age_partition(g: Graph) -> AgePartition:
    """The kk/okk partition of g's whole age from a scan of every vertex
    subset in combinations order, each restricted with induced_subgraph
    and its cones read with common_neighborhood."""
    found: dict[bytes, list] = {}
    for size in range(1, g.n + 1):
        for comb in combinations(range(g.n), size):
            code = canonical_code(induced_subgraph(g, comb)[0])
            found.setdefault(code, []).append((comb, common_neighborhood(g, comb)))
    classes, conflicts, kk, okk = [], [], set(), set()
    for code in sorted(found):
        embeddings = [comb for comb, _ in found[code]]
        classes.append(AgeClass(induced_subgraph(g, embeddings[0])[0], code, tuple(embeddings)))
        coned = [(comb, cones[0]) for comb, cones in found[code] if cones]
        coneless = [comb for comb, cones in found[code] if not cones]
        if coned:
            kk.add(code)
        if coneless:
            okk.add(code)
        if coned and coneless:
            conflicts.append(Conflict(code, coned[0][0], coned[0][1], coneless[0]))
    return AgePartition(frozenset(kk), frozenset(okk), tuple(conflicts), tuple(classes))


def reference_lex_product(g: Graph, h: Graph) -> Graph:
    """g[h] from its edge list: (a, x) = a*order(h) + x is adjacent to
    (b, y) when a~b in g, or a = b and x~y in h."""
    n, m = g.n, h.n
    edges = []
    for a in range(n):
        for b in g.neighbors(a):
            if b > a:
                for x in range(m):
                    for y in range(m):
                        edges.append((a * m + x, b * m + y))
        for x, y in h.edges():
            edges.append((a * m + x, a * m + y))
    return Graph(n * m, edges)


def graph_from_bits(n: int, bits: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    return Graph(n, (p for i, p in enumerate(pairs) if bits >> i & 1))


def brute_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the components by least vertex, by repeated
    neighbourhood closure."""
    left = set(range(g.n))
    out = []
    while left:
        comp = {min(left)}
        while True:
            grown = comp | {u for v in comp for u in g.neighbors(v)}
            if grown == comp:
                break
            comp = grown
        out.append(sorted(comp))
        left -= comp
    return out


def all_total_homomorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every total endomorphism by direct enumeration (oracle use only)."""
    out = []
    for f in product(range(g.n), repeat=g.n):
        if all(g.has_edge(f[u], f[v]) for u, v in g.edges()):
            out.append(f)
    return out


def _keeps_nonedges(g: Graph, pairs) -> bool:
    return all(
        g.has_edge(u, v) or (fu != fv and not g.has_edge(fu, fv))
        for (u, fu), (v, fv) in combinations(pairs, 2)
    )


def brute_endomorphisms(g: Graph) -> dict[str, list[tuple[int, ...]]]:
    """Every total endomorphism of each kind, each kind checked by its own
    definition: H any, M injective, E surjective, B bijective, A a
    bijection whose inverse is a homomorphism, I an embedding.  Nothing
    here assumes that the kinds coincide on finite graphs."""
    vertices = set(range(g.n))
    out: dict[str, list[tuple[int, ...]]] = {kind: [] for kind in "HMEBAI"}
    for f in all_total_homomorphisms(g):
        injective = len(set(f)) == g.n
        surjective = set(f) == vertices
        keeps = injective and _keeps_nonedges(g, tuple(enumerate(f)))
        for kind, member in (
            ("H", True),
            ("M", injective),
            ("E", surjective),
            ("B", injective and surjective),
            ("A", injective and surjective and keeps),
            ("I", keeps),
        ):
            if member:
                out[kind].append(f)
    return out


def brute_local_morphisms(g: Graph) -> dict[str, set[tuple[tuple[int, int], ...]]]:
    """Every local x-morphism for x in H, M, I, as its (source, target)
    pairs in ascending source order, by enumerating all partial maps."""
    out: dict[str, set[tuple[tuple[int, int], ...]]] = {x: set() for x in "HMI"}
    for size in range(g.n + 1):
        for domain in combinations(range(g.n), size):
            for images in product(range(g.n), repeat=size):
                pairs = tuple(zip(domain, images))
                if any(
                    g.has_edge(u, v) and not g.has_edge(fu, fv)
                    for (u, fu), (v, fv) in combinations(pairs, 2)
                ):
                    continue
                out["H"].add(pairs)
                if len(set(images)) == size:
                    out["M"].add(pairs)
                    if _keeps_nonedges(g, pairs):
                        out["I"].add(pairs)
    return out


def brute_extendable(g: Graph) -> dict[str, set[tuple[tuple[int, int], ...]]]:
    """Per kind, every partial map that is the restriction of an
    endomorphism of that kind, in the pair form of brute_local_morphisms.
    A local morphism extends to the kind exactly when it lies in the set."""
    domains = [d for size in range(g.n + 1) for d in combinations(range(g.n), size)]
    return {
        kind: {tuple((u, f[u]) for u in d) for f in endos for d in domains}
        for kind, endos in brute_endomorphisms(g).items()
    }


def brute_domination_number(g: Graph, i, s) -> int:
    """The recursive definition of the domination number of s from the
    index set i, read literally on vertex sets: the empty set needs 0; a
    set meeting i counts its members in i and recurses on what they do not
    dominate; a set disjoint from i needs the fewest members of i, tried by
    size, that each of its vertices is adjacent to."""
    iset, s = set(i), set(s)
    if not s:
        return 0
    inside = s & iset
    if inside:
        dominated = inside | {v for x in inside for v in g.neighbors(x)}
        return len(inside) + brute_domination_number(g, iset, s - dominated)
    for k in range(len(iset) + 1):
        for combo in combinations(sorted(iset), k):
            if all(any(g.has_edge(x, c) for c in combo) for x in s):
                return k
    raise ValueError("s is not dominated by the index set")


def brute_directory_lemmas(g: Graph, i, sigma: int) -> tuple[int, list[dict]]:
    """Instances and failure records of verify_directory_lemmas at the given
    sigma, each clause checked literally from its statement: clause 1 by
    exact and common neighbourhoods, clause 2 by the edge rule on
    addresses, clause 3a by address intersection and clause 3b by
    OR-ing the neighbourhoods of the meet."""
    iset = sorted(set(i))
    addr = {v: address(g, iset, v) for v in range(g.n)}
    instances = 0
    failures: list[dict] = []
    for s in combinations(iset, sigma):
        common = common_neighborhood(g, s)
        if not common:
            continue
        instances += 1
        exact = exact_neighborhood(g, iset, s)
        if exact != common:
            failures.append({"clause": "exact-neighbourhood-equals-common",
                             "subset": list(s), "exact": exact, "common": common})
    for u, v in g.edges():
        instances += 1
        if (u not in iset and v not in iset and len(addr[u]) == sigma
                and len(addr[v]) == sigma and not set(addr[u]) & set(addr[v])):
            failures.append({"clause": "disjoint-exact-neighbourhoods-no-edges",
                             "edge": [u, v], "subset_s": addr[u], "subset_t": addr[v]})
    pool = [v for v in range(g.n) if v not in iset and len(addr[v]) == sigma]
    for x in pool:
        for z in g.neighbors(x):
            instances += 1
            if not set(addr[x]) & set(addr[z]):
                failures.append({"clause": "cone-address-intersects", "vertex": x,
                                 "cone": z, "address_x": addr[x], "address_z": addr[z]})
    # Lexicographic order of the tuples is the pre-order of the subset tree.
    x_sets = sorted(
        xs for size in range(1, 5) for xs in combinations(pool, size)
        if common_neighborhood(g, xs)
    )
    for xs in x_sets:
        union = set().union(*(addr[x] for x in xs))
        for z in common_neighborhood(g, xs):
            instances += 1
            meet = sorted(set(addr[z]) & union)
            covered = 0
            for d in meet:
                covered |= g.masks[d]
            undominated = [x for x in xs if not covered >> x & 1]
            if undominated:
                failures.append({"clause": "cone-address-dominates", "x_set": list(xs),
                                 "cone": z, "meet": meet, "undominated": undominated})
    return instances, failures


def brute_neighbor_richness(g: Graph, i, sigma: int, threshold: int) -> tuple[int, list[dict]]:
    """Instances and failure records of verify_neighbor_richness at the
    given sigma, from exact neighbourhoods of every sigma-subset."""
    iset = sorted(set(i))
    k_of = {s: exact_neighborhood(g, iset, s) for s in combinations(iset, sigma)}
    instances = 0
    failures: list[dict] = []
    for s, s_members in k_of.items():
        for t, t_members in k_of.items():
            if not set(s) & set(t):
                continue
            for v in s_members:
                instances += 1
                count = len(set(g.neighbors(v)) & set(t_members))
                if count < threshold:
                    failures.append({"clause": "richness-threshold", "subset_s": list(s),
                                     "subset_t": list(t), "vertex": v, "count": count,
                                     "threshold": threshold})
    return instances, failures


def reference_spanning_schedule(p, n: int, budget: int):
    """spanning_rado's run, literally.  Each step places the least unplaced
    vertex below n, then serves the unserved requirement (A, B) over placed
    vertices, |A u B| from 1 to 4, that is least by (position in placed of
    its latest member, |A u B|, A, B), with the least unplaced v <= budget
    that the oracle makes adjacent to all of A.

    Returns (placed, [(A, B, witness), ...], the (A, B) that found no cone
    or None).
    """
    placed: list[int] = []
    schedule: list[tuple[tuple, tuple, int]] = []
    served: set[tuple[tuple, tuple]] = set()
    while not set(range(n)) <= set(placed):
        placed.append(min(set(range(n)) - set(placed)))
        for t, newest in enumerate(placed):
            options = []
            for size in range(1, 5):
                for rest in combinations(placed[:t], size - 1):
                    support = sorted(rest + (newest,))
                    for sides in product((True, False), repeat=size):
                        a = tuple(v for v, side in zip(support, sides) if side)
                        b = tuple(v for v, side in zip(support, sides) if not side)
                        if (a, b) not in served:
                            options.append((size, a, b))
            if options:
                break
        _, a, b = min(options)
        served.add((a, b))
        w = next(
            (v for v in range(budget + 1)
             if v not in placed and all(p.adjacent(v, x) for x in a)),
            None,
        )
        if w is None:
            return placed, schedule, (a, b)
        placed.append(w)
        schedule.append((a, b, w))
    return placed, schedule, None


def reference_enumerate_masks(n: int) -> list[tuple[int, ...]]:
    """The masks of enumerate_graphs(n), in order, from its loop with no
    twin skip: every row of every parent is extended and coded."""
    reps = ((0,),)
    for order in range(2, n + 1):
        new = 1 << (order - 1)
        seen = {}
        for masks in reps:
            for row in range(new):
                ext = tuple(m | new if row >> v & 1 else m for v, m in enumerate(masks))
                ext += (row,)
                code = canonical_code(Graph.from_masks(ext))
                if code not in seen:
                    seen[code] = ext
        reps = tuple(ext for _, ext in sorted(seen.items()))
    return list(reps)


def random_maximal_independent(rng, g: Graph) -> list[int]:
    """A maximal, not necessarily maximum, independent set: greedy over a
    shuffled vertex order."""
    order = list(range(g.n))
    rng.shuffle(order)
    chosen: set[int] = set()
    for v in order:
        if not chosen & set(g.neighbors(v)):
            chosen.add(v)
    return sorted(chosen)


@pytest.fixture(scope="session")
def rs3_m2():
    from homoglab.verify import rs_truncation

    return rs_truncation(3, 2)


@pytest.fixture(scope="session")
def rs3_m3():
    from homoglab.verify import rs_truncation

    return rs_truncation(3, 3)
