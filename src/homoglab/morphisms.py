"""Backtracking search for graph morphisms, canonical forms, enumeration.

The search assigns source vertices in index order and tries targets in
ascending order, so the first complete assignment is the lexicographically
least total map.  One rule, _targets, gives the targets that keep a partial
map a local H-, M- or I-morphism, from the neighbourhood masks of the
vertices already assigned.  One walker, _local_maps, lists the maps that
rule allows, and it is the only place that applies the rule to a map: a
seed or a map to check is placed as the walk's prefix, one candidate per
position.  The is_local_* checks and the seed check of extends_in walk
the map alone, search_morphism takes the first map that extends its seed,
and the deciders in homogeneity.py read every local map from the walker.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Iterator

from .errors import InternalInvariant, OrderTooLarge, SeedNotLocalMorphism
from .graphs import Graph

__all__ = [
    "PartialMap",
    "MorphismConstraints",
    "KINDS",
    "is_local_homomorphism",
    "is_local_monomorphism",
    "is_local_isomorphism",
    "search_morphism",
    "validate_total_map",
    "extends_in",
    "canonical_code",
    "enumerate_graphs",
]

KINDS = tuple("HMEBAI")


@dataclass(frozen=True)
class PartialMap:
    """A finite partial vertex map given as (source, target) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs=()):
        normalized = tuple(sorted((int(u), int(v)) for u, v in pairs))
        sources = [u for u, _ in normalized]
        if len(set(sources)) != len(sources):
            raise ValueError("duplicate source vertex in partial map")
        object.__setattr__(self, "pairs", normalized)

    def sources(self) -> list[int]:
        return [u for u, _ in self.pairs]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class MorphismConstraints:
    injective: bool = False
    surjective: bool = False
    respect_nonedges: bool = False


def _targets(amask, bmask, x: str, vs, images, i: int, used: int) -> int:
    """Mask of targets t for vs[i] that keep vs[:i+1] -> images[:i] + [t] a
    local x-morphism between the graphs with neighbourhood masks amask and
    bmask, given one for vs[:i] -> images[:i] with image mask used: edges
    go to neighbours of the image, M and I exclude used targets, and I also
    keeps non-edges.  The one statement of the rule; the walker asks it at
    every position, and homogeneity's one-point check for one more
    vertex."""
    row = amask[vs[i]]
    allowed = (1 << len(bmask)) - 1
    if x != "H":
        allowed &= ~used
    for j in range(i):
        if row >> vs[j] & 1:
            allowed &= bmask[images[j]]
        elif x == "I":
            allowed &= ~bmask[images[j]]
    return allowed


def _local_maps(amask, bmask, x: str, vs, prefix, cover: int):
    """Yield (images, image_mask) for every local x-morphism vs -> images,
    x in {H, M, I}, whose first len(prefix) images are prefix, with images
    in ascending lexicographic order.

    A position i < len(prefix) is walked like any other, with prefix[i] as
    its one candidate, as Ullmann's search treats a vertex the caller
    fixed.  So a prefix that is not a local x-morphism yields nothing, and
    a prefix on all of vs yields itself when it is one.

    A map must take every target of the mask cover, so a position is cut
    when the targets of cover still unused outnumber the positions left;
    cover 0 cuts nothing.  An explicit stack walks every position but the
    last; the last one is a plain loop over its targets, where almost all
    maps are produced.  A recursive generator would resume once per level
    for every map, and would pass Python's recursion limit on a long vs.
    """
    n = len(vs)
    # The cut at position 0; the last position relies on it having run at
    # every earlier one.
    if n < cover.bit_count():
        return
    if not n:
        yield (), 0
        return
    k = len(prefix)
    images = [0] * n
    last = n - 1
    pending = [0] * n
    used = [0] * n
    pending[0] = _targets(amask, bmask, x, vs, images, 0, 0)
    if k:
        pending[0] &= 1 << prefix[0]
    i = 0
    while i >= 0:
        if i == last:
            base = used[last]
            cand = pending[last]
            missing = cover & ~base
            if missing:
                # The cut leaves at most one target of cover to take.
                cand &= missing
            while cand:
                low = cand & -cand
                cand ^= low
                images[last] = low.bit_length() - 1
                yield tuple(images), base | low
            i -= 1
            continue
        cand = pending[i]
        if not cand:
            i -= 1
            continue
        low = cand & -cand
        pending[i] = cand ^ low
        images[i] = low.bit_length() - 1
        i += 1
        used[i] = base = used[i - 1] | low
        if cover and n - i < (cover & ~base).bit_count():
            pending[i] = 0
        else:
            pending[i] = _targets(amask, bmask, x, vs, images, i, base)
            if i < k:
                pending[i] &= 1 << prefix[i]


def _seed(a: Graph, b: Graph, f: PartialMap) -> tuple[list[int], list[int]]:
    """Sources and targets of f in pair order; a pair outside the graphs
    raises ValueError."""
    for u, t in f.pairs:
        if not 0 <= u < a.n or not 0 <= t < b.n:
            raise ValueError(f"map pair ({u},{t}) out of range")
    return [u for u, _ in f.pairs], [t for _, t in f.pairs]


def _is_local(a: Graph, b: Graph, f: PartialMap, x: str) -> bool:
    """Whether f is a local x-morphism a -> b, x in {H, M, I}: the walk
    with f as its whole prefix yields f or nothing."""
    vs, prefix = _seed(a, b, f)
    return next(_local_maps(a.masks, b.masks, x, vs, prefix, 0), None) is not None


def is_local_homomorphism(a: Graph, b: Graph, f: PartialMap) -> bool:
    """Every edge of the induced domain maps to an edge of b."""
    return _is_local(a, b, f, "H")


def is_local_monomorphism(a: Graph, b: Graph, f: PartialMap) -> bool:
    """An injective local homomorphism."""
    return _is_local(a, b, f, "M")


def is_local_isomorphism(a: Graph, b: Graph, f: PartialMap) -> bool:
    """An injective map that takes edges to edges and non-edges to
    non-edges."""
    return _is_local(a, b, f, "I")


def validate_total_map(
    a: Graph, b: Graph, f: list[int], constraints: MorphismConstraints
) -> bool:
    """Independent check of a returned witness against its constraints."""
    if len(f) != a.n or any(not 0 <= t < b.n for t in f):
        return False
    for u, v in a.edges():
        if not b.has_edge(f[u], f[v]):
            return False
    if constraints.injective and len(set(f)) != len(f):
        return False
    if constraints.surjective and len(set(f)) != b.n:
        return False
    if constraints.respect_nonedges:
        for u in range(a.n):
            for v in range(u + 1, a.n):
                if not a.has_edge(u, v):
                    if f[u] == f[v] or b.has_edge(f[u], f[v]):
                        return False
    return True


def search_morphism(
    a: Graph,
    b: Graph,
    seed: PartialMap | None = None,
    constraints: MorphismConstraints | None = None,
) -> list[int] | None:
    """Least total map a -> b extending seed under the given constraints.

    Returns None when no such map exists.  Maps are compared as tuples
    (f(0), ..., f(n-1)).
    """
    c = constraints or MorphismConstraints()
    n, m = a.n, b.n
    # Respecting non-edges forces injectivity: a graph has no loops, so an
    # edge cannot go to one vertex, and a kept non-edge goes to two
    # distinct non-adjacent ones.
    x = "I" if c.respect_nonedges else "M" if c.injective else "H"
    vs, prefix = _seed(a, b, seed or PartialMap())
    seeded = 0
    for u in vs:
        seeded |= 1 << u
    vs += [v for v in range(n) if not seeded >> v & 1]
    cover = (1 << m) - 1 if c.surjective else 0
    first = next(_local_maps(a.masks, b.masks, x, vs, prefix, cover), None)
    if first is None:
        return None
    f = [0] * n
    for v, t in zip(vs, first[0]):
        f[v] = t
    if not validate_total_map(a, b, f, c):
        raise InternalInvariant("search produced an invalid witness")
    return f


# The local morphism a seed must be to extend to each target kind.  A map
# extending to an injective endomorphism must itself be injective; one
# extending to an embedding must be a local isomorphism.
_SEED_KIND = {"H": "H", "E": "H", "M": "M", "B": "M", "A": "M", "I": "I"}

# On a finite graph an injective, surjective, bijective or embedding
# endomorphism is an automorphism, so every kind but H searches these maps.
_AUTOMORPHISM = MorphismConstraints(
    injective=True, surjective=True, respect_nonedges=True
)


def extends_in(g: Graph, f: PartialMap, kind: str) -> list[int] | None:
    """Total endomorphism of g of the given kind extending f, or None.

    Kinds: H any endomorphism, M injective, E surjective, B bijective,
    A automorphism, I embedding of g into itself.  On finite graphs all
    kinds but H coincide with automorphisms and run the A search.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS!r}, got {kind!r}")
    for u, t in f.pairs:
        if not 0 <= u < g.n or not 0 <= t < g.n:
            raise SeedNotLocalMorphism(f"seed pair ({u},{t}) out of range")
    if not _is_local(g, g, f, _SEED_KIND[kind]):
        raise SeedNotLocalMorphism(
            f"seed is not a local morphism of the kind required for {kind}"
        )
    constraints = MorphismConstraints() if kind == "H" else _AUTOMORPHISM
    return search_morphism(g, g, f, constraints)


# --- canonical forms -------------------------------------------------------

# Each column is packed into 2 bytes, so it holds at most 16 earlier
# vertices.
_CODE_FORMAT_ORDER = 17

# Above every column, so a node with this bound cuts no candidate.
_LOOSE = 1 << 16


def canonical_code(g: Graph) -> bytes:
    """Complete isomorphism invariant: the minimum adjacency column string.

    Columns are the bit strings b(p0,pk)...b(p(k-1),pk) over all vertex
    orderings p, minimized lexicographically.  Exact and permutation
    invariant, but exponential on graphs without twins; the code format
    caps the order at 17, with no override.
    """
    if g.n > _CODE_FORMAT_ORDER:
        raise OrderTooLarge(
            f"canonical code format holds at most {_CODE_FORMAT_ORDER} vertices, got {g.n}"
        )
    return _code(g.masks)


def _twins(adj: tuple[int, ...]) -> list[int]:
    """Each vertex's twins as a mask: u and w are twins when their
    neighbourhoods agree outside {u, w}, so swapping them is an
    automorphism that fixes every other vertex."""
    twins = [0] * len(adj)
    for u, w in combinations(range(len(adj)), 2):
        if not (adj[u] ^ adj[w]) & ~(1 << u | 1 << w):
            twins[u] |= 1 << w
            twins[w] |= 1 << u
    return twins


def _code_search(adj: tuple[int, ...]) -> bytes:
    """canonical_code of the graph with neighbourhood masks adj, searched.

    The search places one vertex per level.  Each node holds the columns of
    the unplaced vertices against the placed prefix, grouped into cells
    (column, member mask) in ascending column order.  Placing u appends
    one bit to every column, so a cell with column c splits into its
    non-neighbours of u (column 2c) and its neighbours (2c + 1), and the
    cells stay in order with no sort; no column is rebuilt from the prefix.

    Tight bound: a node's bound is best[k] while its prefix equals
    best[:k], and _LOOSE while the prefix is below best or no best exists.
    A child whose least column exceeds its bound is cut before the call.
    Once a child returns, prefix + [col] is a prefix of best, either
    because the child replaced best or because it was tight and best kept
    col at k.  So the bound becomes col: the rest of the first cell is
    tried with a tight child, and every later cell, with a larger column,
    would be cut, so a node only tries the members of its first cell.
    With two vertices unplaced, placing one forces the other, whose column
    is compared in place and the leaf finished without a call.

    Twin pruning: u and w are twins when their neighbourhoods agree outside
    {u, w}.  Swapping them is an automorphism that fixes every other
    vertex, so while both are unplaced they get the same column, and the
    subtrees below them give the same set of column strings.  So each
    search node skips a candidate that has a twin already tried at that
    node.  The minimum, and so the code, is the one the full search finds;
    K_n and I_n take a single path instead of n! leaves.  Graphs without
    twins keep their full search.
    """
    n = len(adj)
    if n < 2:
        return bytes([n]) + bytes(2 * n)
    twins = _twins(adj)
    best: list[int] = []
    prefix: list[int] = []

    def dfs(cells: list[tuple[int, int]], bound: int) -> None:
        nonlocal best
        k = len(prefix)
        col, members = cells[0]
        last_step = k + 2 == n
        tried = 0
        while members:
            bit = members & -members
            members ^= bit
            u = bit.bit_length() - 1
            if twins[u] & tried:
                continue
            tried |= bit
            row = adj[u]
            keep = ~(row | bit)  # non-neighbours of u, u itself left out
            rest = []
            for c, m in cells:
                c <<= 1
                if m & keep:
                    rest.append((c, m & keep))
                if m & row:
                    rest.append((c | 1, m & row))
            if last_step:
                last = rest[0][0]
                if col < bound or last < best[k + 1]:
                    best = prefix + [col, last]
            else:
                child_bound = best[k + 1] if col == bound else _LOOSE
                if rest[0][0] <= child_bound:
                    prefix.append(col)
                    dfs(rest, child_bound)
                    prefix.pop()
            bound = col

    dfs([(0, (1 << n) - 1)], _LOOSE)
    return bytes([n]) + b"".join(c.to_bytes(2, "big") for c in best)


def _add_vertex(masks: tuple[int, ...], row: int) -> tuple[int, ...]:
    """The masks of the graph masks plus one new vertex, last, joined to
    the vertices of the mask row: the one extension step of the order-4
    table and of enumerate_graphs."""
    new = 1 << len(masks)
    return tuple(m | new if row >> v & 1 else m for v, m in enumerate(masks)) + (row,)


def _labelled(n: int) -> list[tuple[int, ...]]:
    """The masks of every labelled graph on n vertices, 2^C(n, 2) of them."""
    graphs = [()]
    for order in range(n):
        graphs = [_add_vertex(masks, row) for masks in graphs for row in range(1 << order)]
    return graphs


# The code of each of the 76 labelled graphs of order 0-4, keyed by its
# masks, read-only and derived from _code_search at import.  Most codes the
# age scans of distinct graphs share are of these orders.
_SMALL_CODES = MappingProxyType({adj: _code_search(adj) for n in range(5) for adj in _labelled(n)})


def _code(adj: tuple[int, ...]) -> bytes:
    """canonical_code of the graph with neighbourhood masks adj: read from
    _SMALL_CODES up to order 4, searched above it."""
    return _SMALL_CODES.get(adj) or _code_search(adj)


# --- exhaustive enumeration up to isomorphism ------------------------------

# Largest order enumerate_graphs accepts; order 8 asks for 102,150 codes.
_ENUMERATION_ORDER = 8


def _representatives(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the masks of one representative per isomorphism class for
    each order 1..n in turn, ordered by canonical code.

    Each order is built by one-vertex extensions of the one before,
    deduplicated through canonical codes; every graph arises this way
    since deleting a vertex lands in some class one order smaller.  Each
    extension coded within one order is a distinct masks tuple, so a memo
    of codes would never be hit.

    Twin skip: when u < w are twins of the parent (neighbourhoods equal
    outside {u, w}), swapping them is an automorphism of the parent, so a
    row holding w but not u gives the same class as the smaller row with
    u in place of w, which comes earlier from the same parent.  Such a row
    is never the first of its class and is skipped; the representatives
    and their order are the ones the full loop keeps.
    """
    reps = ((0,),)
    yield reps
    for order in range(2, n + 1):
        seen: dict[bytes, tuple[int, ...]] = {}
        for masks in reps:
            twins = _twins(masks)
            # Each vertex u with twins above it, and their mask.
            higher = [(1 << u, t >> u + 1 << u + 1) for u, t in enumerate(twins) if t >> u + 1]
            for row in range(1 << (order - 1)):
                if any(row & w and not row & u for u, w in higher):
                    continue
                ext = _add_vertex(masks, row)
                code = _code(ext)
                if code not in seen:
                    seen[code] = ext
        reps = tuple(ext for _, ext in sorted(seen.items()))
        yield reps


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of n-vertex graphs,
    ordered by canonical code: the last order _representatives builds.
    Each call builds orders 2..n afresh."""
    if n < 1:
        raise ValueError("enumeration starts at order 1")
    if n > _ENUMERATION_ORDER:
        raise OrderTooLarge(f"enumeration capped at order {_ENUMERATION_ORDER}, got {n}")
    *_, reps = _representatives(n)
    for masks in reps:
        yield Graph._of(masks)
