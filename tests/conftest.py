"""Shared helpers: small named graphs and independent brute-force oracles.

The oracles here deliberately avoid the package's own search machinery so
that expected values are computed through a second route.
"""

from itertools import combinations, permutations, product

import pytest

from homoglab.graphs import Graph


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))               # spokes
    return Graph(10, edges)


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


def graph_from_bits(n: int, bits: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    return Graph(n, (p for i, p in enumerate(pairs) if bits >> i & 1))


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


@pytest.fixture(scope="session")
def rs3_m2():
    from homoglab.verify import rs_truncation

    return rs_truncation(3, 2)


@pytest.fixture(scope="session")
def rs3_m3():
    from homoglab.verify import rs_truncation

    return rs_truncation(3, 3)
