"""Finite simple graphs over dense integer vertices.

Vertices are the integers 0..n-1 and every vertex set is kept internally as
an integer bitmask, so neighbourhood intersections are single big-int
operations.  On top of that representation the module provides the
structural quantities the rest of the package is built on: common
neighbourhoods, cones and co-cones, exact independence and star numbers,
directories (independent dominating sets of maximum size), addresses,
exact neighbourhoods and domination numbers relative to a directory.

All functions are pure and all returned vertex sets are sorted lists, with
ties broken toward the lexicographically least witness.  A graph value
keeps private memos of alpha, sigma and its degree-ordered view, filled by
the first call that needs each; they depend only on the graph, and
equality, hashing and repr ignore them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import InternalInvariant, NotADirectoryBase, StarNumberZero

__all__ = [
    "Graph",
    "AnalysisReport",
    "complete_graph",
    "empty_graph",
    "cycle_graph",
    "path_graph",
    "disjoint_union",
    "complement",
    "lex_product",
    "induced_subgraph",
    "common_neighborhood",
    "cone_set",
    "is_connected",
    "independence_number",
    "star_number",
    "directories",
    "is_independent",
    "dominates",
    "is_independent_dominating",
    "is_directory",
    "address",
    "address_union",
    "exact_neighborhood",
    "domination_number",
    "analyze",
]


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices: Iterable[int], n: int) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for order {n}")
        mask |= 1 << v
    return mask


def _list_of(mask: int) -> list[int]:
    return list(_iter_bits(mask))


def _check_masks(masks: tuple[int, ...]) -> None:
    """Raise ValueError on the first fault, in vertex order."""
    n = len(masks)
    full = (1 << n) - 1
    for v, row in enumerate(masks):
        if row & ~full:
            raise ValueError(f"mask of vertex {v} references vertices >= {n}")
        if row >> v & 1:
            raise ValueError(f"self-loop at vertex {v}")
        for u in _iter_bits(row):
            if not masks[u] >> v & 1:
                raise ValueError(f"asymmetric adjacency between {u} and {v}")


def _tile(pattern: int, period: int, count: int) -> int:
    """pattern (narrower than period) repeated count times, period bits
    apart, from bit 0; built by doubling, so linear in the result."""
    out, have = pattern, 1
    while have < count:
        out |= out << (period * have)
        have *= 2
    return out & ((1 << (period * count)) - 1)


def _transpose_packed(m: int, size: int) -> int:
    """Transpose a size x size bit matrix stored row by row (bit r*size + c),
    size a power of two, by one delta swap per halving of the block size."""
    half = size >> 1
    while half:
        # Cell (r, c) with bit `half` clear in r and set in c trades places
        # with cell (r + half, c - half), delta bits higher.
        delta = half * (size - 1)
        groups = size // (2 * half)
        row = _tile(((1 << half) - 1) << half, 2 * half, groups)
        mask = _tile(_tile(row, size, half), 2 * half * size, groups)
        t = (m ^ (m >> delta)) & mask
        m ^= t | (t << delta)
        half >>= 1
    return m


def _masks_valid_packed(masks: tuple[int, ...]) -> bool:
    """The verdict of _check_masks, from one packed n x n integer."""
    n = len(masks)
    if any(row < 0 or row >> n for row in masks):
        return False
    size = 1 << max(3, (n - 1).bit_length())
    width = size // 8
    m = int.from_bytes(b"".join(row.to_bytes(width, "little") for row in masks), "little")
    if m & _tile(1, size + 1, n):
        return False
    return _transpose_packed(m, size) == m


class Graph:
    """An immutable simple graph: symmetric irreflexive adjacency on 0..n-1.

    _alpha_memo holds (alpha, clique), _star_memo (sigma, least vertex,
    clique), each clique a tuple in the complement view's bits, and
    _view_memo the packed rows of that view; each is None until a call
    computes it.  They depend only on the graph, so threads that race on
    one can only repeat the work, and they take no part in equality,
    hashing or repr.
    """

    __slots__ = ("n", "_adj", "_alpha_memo", "_star_memo", "_view_memo")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("order must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._alpha_memo = self._star_memo = self._view_memo = None

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "Graph":
        """Build a graph from per-vertex neighbourhood bitmasks.

        The masks are accepted by one packed transpose, and only rejected
        masks are walked vertex by vertex, so the error names the first
        fault in vertex order.
        """
        masks = tuple(masks)
        if not _masks_valid_packed(masks):
            _check_masks(masks)
        return cls._of(masks)

    @classmethod
    def _of(cls, masks: tuple[int, ...]) -> "Graph":
        """Wrap masks derived from valid graphs, without checking them."""
        g = object.__new__(cls)
        g.n = len(masks)
        g._adj = masks
        g._alpha_memo = g._star_memo = g._view_memo = None
        return g

    @property
    def masks(self) -> tuple[int, ...]:
        """Per-vertex neighbourhood bitmasks (stable representation)."""
        return self._adj

    def adjacency_mask(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for order {self.n}")
        return self._adj[v]

    def neighbors(self, v: int) -> list[int]:
        return _list_of(self.adjacency_mask(v))

    def degree(self, v: int) -> int:
        return self.adjacency_mask(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair ({u},{v}) out of range for order {self.n}")
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            above = self._adj[u] >> (u + 1) << (u + 1)
            for v in _iter_bits(above):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def vertices(self) -> range:
        return range(self.n)

    def relabel(self, perm: list[int]) -> "Graph":
        """Return the image of the graph under ``old -> perm[old]``."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertices")
        # Listing the vertices by their new label inverts perm.
        order = sorted(range(self.n), key=perm.__getitem__)
        return Graph._of(tuple(_view_rows(self._adj, order, perm)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("order must be nonnegative")
    full = (1 << n) - 1
    return Graph._of(tuple(full & ~(1 << v) for v in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph(n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, ((v, (v + 1) % n) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, ((v, v + 1) for v in range(n - 1)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph._of(g.masks + tuple(m << g.n for m in h.masks))


def complement(g: Graph) -> Graph:
    """Same vertices; u~v exactly when u != v and u,v are non-adjacent in g."""
    full = (1 << g.n) - 1
    return Graph._of(tuple(full & ~m & ~(1 << v) for v, m in enumerate(g.masks)))


def lex_product(g: Graph, h: Graph) -> Graph:
    """Composite g[h]: (a,x)~(b,y) iff a~b in g, or a=b and x~y in h.

    Vertex (a, x) has index a*order(h) + x.
    """
    m = h.n
    block = (1 << m) - 1
    rows = []
    for a, row in enumerate(g.masks):
        outer = sum(block << b * m for b in _iter_bits(row))
        rows += [outer | inner << a * m for inner in h.masks]
    return Graph._of(tuple(rows))


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Restrict g to s.  Returns the subgraph and the old->new index map."""
    vs = sorted(set(s))
    _mask_of(vs, g.n)
    index = {v: i for i, v in enumerate(vs)}
    rows = _view_rows(g.masks, vs, [index.get(v, 0) for v in range(g.n)])
    return Graph._of(tuple(rows)), index


def _common_mask(masks: tuple[int, ...], smask: int, n: int) -> int:
    result = (1 << n) - 1
    for v in _iter_bits(smask):
        result &= masks[v]
    return result


def _union_mask(masks: Sequence[int], smask: int) -> int:
    """The union of the rows of masks over the bits of smask: N(S) for a
    graph's rows, 0 for an empty smask.  _common_mask is its meet."""
    result = 0
    while smask:
        low = smask & -smask
        result |= masks[low.bit_length() - 1]
        smask ^= low
    return result


def common_neighborhood(g: Graph, s: Iterable[int]) -> list[int]:
    """Vertices adjacent to every member of s; all vertices when s is empty."""
    return cone_set(g, s)


def cone_set(g: Graph, x: Iterable[int], polarity: str = "cone") -> list[int]:
    """Cones (common neighbours) or co-cones (outside x, adjacent to none of x)."""
    xmask = _mask_of(x, g.n)
    if polarity == "cone":
        return _list_of(_common_mask(g.masks, xmask, g.n))
    if polarity == "cocone":
        return _list_of((1 << g.n) - 1 & ~(_union_mask(g.masks, xmask) | xmask))
    raise ValueError(f"polarity must be 'cone' or 'cocone', got {polarity!r}")


def _components(g: Graph) -> Iterator[int]:
    """The vertex masks of the connected components, by least vertex."""
    masks = g.masks
    rest = (1 << g.n) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            grow = _union_mask(masks, frontier)
            frontier = grow & ~comp
            comp |= grow
        yield comp
        rest &= ~comp


def _clique_components(g: Graph) -> list[int] | None:
    """The component masks by least vertex, or None when some component is
    not a clique: homogeneity._block_sizes's rule, that the distinct closed
    neighbourhoods partition the vertices when their sizes add up to n."""
    closed = {row | 1 << v for v, row in enumerate(g.masks)}
    if sum(c.bit_count() for c in closed) != g.n:
        return None
    return sorted(closed, key=lambda c: c & -c)


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability check; vacuously true for order <= 1."""
    if g.n <= 1:
        return True
    return next(_components(g)) == (1 << g.n) - 1


# --- exact independence machinery -----------------------------------------
#
# Independent sets of g are cliques of its complement, and two searches
# over the complement serve every caller.  Both prune with the same greedy
# colouring bound: a candidate set split into c colour classes holds no
# clique of more than c vertices.
#
# * _max_clique finds the clique number by branch and bound, and keeps the
#   first clique of that size it meets.
# * _cliques lists the cliques of a known size.  The alpha and sigma
#   witnesses ask it for one completion of each lexicographic choice that
#   no earlier completion already covers, and directories asks it for
#   every clique of size alpha.
#
# Both walk an explicit stack with one frame per branched vertex: the
# colour order still to branch on, from its far end, and the candidates not
# yet branched on (and, in _cliques, how many vertices the frame added to
# the clique).  So the size of a clique is bounded by memory, not by the
# recursion limit.  When two vertices are still needed, every edge of the
# complement within the candidates completes a clique, and _cliques lists
# those edges with no colouring and no frame.  A candidate set whose
# colouring gives every vertex its own colour is a clique, which
# _max_clique takes whole.
#
# A colouring is tight when it has exactly as many classes as the clique
# still needs; every such clique then takes one vertex from each class.
# At a tight node that needs more than three vertices, _cliques runs one
# unit propagation step, _force: it takes every one-vertex class at once,
# cuts the node when two of those vertices are adjacent in g or when
# removing their neighbours in g empties a class, and repeats on the
# classes left until none has one vertex.  The forced vertices join the
# clique with no frame of their own, and the node branches on the last
# class left, whose children recolour their candidates as before.  On the
# 1,800 G(36, 0.17) graphs of the sparse-directories benchmark, seeds 1-3,
# paired in one process (2 vCPU, CPython 3.11.7), directories took 0.45 s
# per pass against 0.59 s without the step, and every result was the
# same.  Two places do without it.  With three vertices or fewer to find,
# the uncoloured edge listing below is cheaper than the step: forcing
# there made the directories of the dense-lemmas graphs (alpha 2-4) about
# 20 % slower.  And _max_clique has no step: at its tight nodes (best -
# size + 1 classes) the same step made the sigma scan of the sparse
# graphs 4-20 % slower over four runs and alpha no faster, so only
# _cliques asks _color_order for the uncoloured sets the step reads.
#
# The optimiser stays separate: asking _cliques for one clique at each
# size in turn found the clique number about three times more slowly on
# 600 G(36, 0.17) graphs (2 vCPU, CPython 3.11.7).  The clique it keeps
# seeds the lexicographic witness: every independence_number or star_number
# call, warm or cold, hands the clique kept in the memo to _lex_least_clique
# as the first completion, so the walk takes its labels unprobed.
#
# Both searches run on _complement_view, g relabelled so that bit i stands
# for order[i], the vertex with the i-th fewest neighbours in g (ties by
# label).  The greedy colouring then starts from the vertices of highest
# complement degree, the initial order of Tomita and Seki's MCQ, and
# branching starts from the far end.  _color_order lists only the vertices
# whose colour can still reach the cut its caller passes (MCQ again): the
# others would be cut on sight, so the classes up to the cut are built in
# a loop that lists nothing.  On G(110, 0.1), seed 1, the relabel took
# alpha from 3-5 s to under 0.5 s (2 vCPU, CPython 3.11.7).  The view
# holds keep, g's own rows in the view's bits: keep[i] is the set of
# vertices that may share a colour class with i, and, for star_number,
# the neighbourhood of order[i].  It holds no complement rows: a search
# only ever meets the complement neighbourhood of v within a candidate set
# that no longer holds v, and there it is the set minus keep[v].  Every
# vertex set a public call returns is mapped back through order, and the
# lexicographic witnesses walk candidates by original label, so results
# do not depend on the relabelling.
#
# Building the view remaps every row bit by bit, about 34 us on an
# order-36 graph.  So the first build also packs the keep rows into the
# graph's _view_memo slot, one bytes object of n * ceil(n / 8) bytes: 213
# bytes retained per order-36 graph by tracemalloc, where keeping the
# tuple view (about 3.7 KB, complement rows included) cost about 1.3 MB of
# peak RSS on 600 such graphs.  empty_graph(5000) keeps about 3.1 MB.
# Every later build re-sorts the degree order and unpacks the rows, about
# 7 us at order 36.
#
# _alpha and _star keep each search's whole result in the _alpha_memo and
# _star_memo slots: the size, for sigma the least vertex, and the clique in
# the view's bits.  The view's bit order depends on g alone, so a kept
# clique holds in every later view, and no graph searches for either
# twice.  Each public call builds its view first and passes it down, so it
# builds one view at most; _alpha and _star build one only when called
# without it, as is_directory and the verify suites call them.
#
# Each search starts from the bound the graph already offers.  An
# independent subset of N(v) is independent in g, so sigma <= alpha: once
# alpha is in the memo, _star's vertex scan stops at the first vertex that
# attains it, and analyze finds alpha first for that reason.  _star never
# searches for alpha itself: on G(300, 0.5) alpha takes about 0.6 s, and
# sigma = 11 < alpha = 12 there, so the scan would not stop.  _alpha hands
# the optimiser a greedy clique as its floor, the view's lowest bit, then
# the lowest bit among its complement neighbours, and so on.  On
# G(800, 0.9), sigma after alpha fell from 6.5 s to 0.014 s (2 vCPU,
# CPython 3.11.7).

_View = tuple[list[int], list[int], list[int]]


def _view_rows(masks: tuple[int, ...], order: Sequence[int], pos: Sequence[int]) -> list[int]:
    """The rows of masks restricted to the vertices of order: row i is
    masks[order[i]] within order, with bit pos[u] for each member u.  pos
    is read only at the vertices of order.

    Each row is remapped from the sparser of the row and its complement
    within order, and flipped within pos's image when it took the
    complement, so this costs at most len(order)/2 bit moves per vertex.
    It is the one row remap: _complement_view passes the degree order of
    all vertices, Graph.relabel the inverse of its permutation,
    induced_subgraph its sorted vertex set, and lex rows each class.
    """
    n, m = len(masks), len(order)
    bit = [1 << i for i in pos]
    # order holds distinct vertices, so at full length it is all of them.
    within = (1 << n) - 1 if m == n else sum(1 << v for v in order)
    # pos with one entry per member is read at every entry.
    image = sum(bit) if len(bit) == m else sum(map(bit.__getitem__, order))
    rows = []
    for v in order:
        row = masks[v] & within
        sparse = 2 * row.bit_count() <= m
        if not sparse:
            row ^= within ^ (1 << v)
        moved = 0
        while row:
            low = row & -row
            moved |= bit[low.bit_length() - 1]
            row ^= low
        rows.append(moved if sparse else moved ^ image ^ bit[v])
    return rows


def _complement_view(g: Graph) -> _View:
    """(keep, order, pos): g with bit i standing for vertex order[i], and
    pos the inverse of order.

    The first build remaps the rows and packs them into g's view memo;
    every later one unpacks them from it.
    """
    n = g.n
    masks = g.masks
    order = sorted(range(n), key=[m.bit_count() for m in masks].__getitem__)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    width = (n + 7) // 8 or 1  # order 0 has no rows, but range needs a step
    packed = g._view_memo
    if packed is None:
        keep = _view_rows(masks, order, pos)
        g._view_memo = b"".join([row.to_bytes(width, "little") for row in keep])
        return keep, order, pos
    from_bytes = int.from_bytes
    keep = [from_bytes(packed[k : k + width], "little") for k in range(0, n * width, width)]
    return keep, order, pos


def _color_order(
    keep: list[int], cand: int, cut: int, remains: list[int] | None = None
) -> list[tuple[int, int]]:
    """Greedy colouring of cand; returns (vertex, colour) in colour order for
    the vertices of colour above cut.  keep[v] holds the vertices that may
    share v's colour: its non-neighbours in the complement.  When remains
    is a list, the uncoloured set after each class up to the cut is appended
    to it, so each of those classes is the difference of two consecutive
    sets, cand before the first."""
    uncolored = cand
    color = 0
    while uncolored and color < cut:
        color += 1
        avail = uncolored
        while avail:
            low = avail & -avail
            uncolored ^= low
            avail &= keep[low.bit_length() - 1]
        if remains is not None:
            remains.append(uncolored)
    order = []
    while uncolored:
        color += 1
        avail = uncolored
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append((v, color))
            uncolored ^= low
            avail &= keep[v]
    return order


def _force(
    keep: list[int], cand: int, remains: list[int]
) -> tuple[int, list[tuple[int, int]], int] | None:
    """Unit propagation at a tight node: its colouring, given by the
    uncoloured sets remains of _color_order, has exactly one class above the
    cut, so it has as many classes as the clique the node seeks still
    needs.  Each class is independent in the complement, so that clique
    takes one vertex from every class.

    Every one-vertex class is taken at once, and their neighbours in g
    leave every other class, until no one-vertex class is left.  Returns
    None when two taken vertices are adjacent in g or a class runs empty:
    the node holds no such clique.  Otherwise returns (forced, todo, sub):
    the mask of the taken vertices, the last class left as a branch order
    with the number of classes left as its colour, and the union of the
    classes left, so todo is empty when forced alone completes the clique.
    """
    sub = cand
    classes = []
    singles = 0
    for after in [*remains, 0]:  # the last uncoloured set is the class above the cut
        c = cand ^ after
        cand = after
        if c & (c - 1):
            classes.append(c)
        else:
            singles |= c
    forced = 0
    while singles:
        block = _union_mask(keep, singles)
        if block & singles:
            return None
        forced |= singles
        sub ^= sub & (block | singles)
        singles = 0
        left = []
        for c in classes:
            c ^= c & block
            if c & (c - 1):
                left.append(c)
            elif c:
                singles |= c
            else:
                return None
        classes = left
    if not classes:
        return forced, [], 0
    color = len(classes)
    return forced, [(v, color) for v in _iter_bits(classes[-1])], sub


def _max_clique(keep: list[int], cand: int, floor: int = 0) -> tuple[int, list[int]]:
    """(clique number of cand, a clique of that size), or (floor, []) when no
    clique within cand is larger than floor.

    Branches that cannot beat floor are cut, so a caller maximising over
    several candidate sets passes its incumbent and skips the sets that
    cannot improve on it.
    """
    best = floor
    clique: list[int] = []
    chosen: list[int] = []
    stack = [[_color_order(keep, cand, floor), cand]]
    while stack:
        todo, local = frame = stack[-1]
        if not todo or len(chosen) + todo[-1][1] <= best:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        v = todo.pop()[0]
        frame[1] = local = local ^ (1 << v)
        sub = local ^ (local & keep[v])
        size = len(chosen) + 1
        todo = _color_order(keep, sub, best - size)
        if todo and todo[-1][1] < sub.bit_count():
            chosen.append(v)
            stack.append([todo, sub])
        elif todo or not sub and size > best:  # sub is a clique, or empty
            best = size + sub.bit_count()
            clique = [*chosen, v, *_iter_bits(sub)]
    return best, clique


def _cliques(
    keep: list[int], cand: int, need: int, limit: int | None = None
) -> list[list[int]]:
    """The cliques of exactly need vertices within cand, in branch order.

    Only vertices whose colour reaches the number still needed are branched
    on, a tight node that needs more than three vertices forces its
    one-vertex classes (_force), and the last two vertices are read off the
    candidates uncoloured; the search stops once limit cliques are found.
    Each frame keeps how many vertices it added to chosen, its branch
    vertex and the ones forced with it, and removes them when popped.
    """
    if need < 2:
        return [[v] for v in _iter_bits(cand)][:limit] if need else [[]]
    # Only a node that needs more than three vertices is forced, so only
    # its colouring keeps the uncoloured sets.
    remains = [] if need > 3 else None
    todo = _color_order(keep, cand, need - 1, remains)
    chosen: list[int] = []
    if remains and todo and todo[-1][1] == need:
        tight = _force(keep, cand, remains)
        if tight is None:
            return []
        forced, todo, cand = tight
        chosen += _iter_bits(forced)
        if not todo:
            return [chosen]
    found: list[list[int]] = []
    stack = [[todo, cand, 0]]  # the root frame is popped last, so it keeps chosen
    while stack:
        todo, local, added = frame = stack[-1]
        if not todo:
            stack.pop()
            del chosen[len(chosen) - added :]
            continue
        v = todo.pop()[0]
        frame[1] = local = local ^ (1 << v)
        sub = local ^ (local & keep[v])
        left = need - len(chosen) - 1
        if left > 2:
            remains = [] if left > 3 else None
            todo = _color_order(keep, sub, left - 1, remains)
            if not todo:
                continue
            if remains and todo[-1][1] == left:
                tight = _force(keep, sub, remains)
                if tight is None:
                    continue
                forced, todo, sub = tight
                if not todo:
                    found.append([*chosen, v, *_iter_bits(forced)])
                    if len(found) == limit:
                        return found
                    continue
                chosen.append(v)
                chosen += _iter_bits(forced)
                stack.append([todo, sub, 1 + forced.bit_count()])
            else:
                chosen.append(v)
                stack.append([todo, sub, 1])
            continue
        if left == 2:  # each complement edge within sub completes a clique
            while sub:
                low = sub & -sub
                sub ^= low
                w = low.bit_length() - 1
                rest = sub ^ (sub & keep[w])
                while rest:
                    low = rest & -rest
                    rest ^= low
                    found.append([*chosen, v, w, low.bit_length() - 1])
                    if len(found) == limit:
                        return found
            continue
        if not left:  # below a tight node that forced all classes but one
            found.append([*chosen, v])
            if len(found) == limit:
                return found
            continue
        for w in _iter_bits(sub):
            found.append([*chosen, v, w])
            if len(found) == limit:
                return found
    return found


def _lex_least_clique(view: _View, cand: int, size: int, known: tuple[int, ...]) -> list[int]:
    """Least clique of the given size within cand, by original labels.

    cand and known are in the bits of view, whose order and pos map between
    its bits and the labels; the clique is returned as labels.  known is a
    clique of size vertices within cand.

    Labels are walked upward.  known, and each completion that a successful
    probe returns, is a clique of need vertices within cand, so when the
    walk reaches its least label that label is taken unprobed, and only
    lesser labels are probed.
    """
    keep, order, pos = view
    known = sorted((order[i] for i in known), reverse=True)
    chosen: list[int] = []
    start = 0
    for need in range(size, 0, -1):
        for v in range(start, len(pos)):
            bit = 1 << pos[v]
            if not cand & bit:
                continue
            cand ^= bit  # cand keeps only the labels above v
            rest = cand ^ (cand & keep[pos[v]])
            if known and known[-1] == v:
                known.pop()
                break
            found = rest.bit_count() >= need - 1 and _cliques(keep, rest, need - 1, 1)
            if found:
                known = sorted((order[i] for i in found[0]), reverse=True)
                break
        else:
            raise InternalInvariant("witness extraction lost feasibility")
        chosen.append(v)
        cand = rest
        start = v + 1
    return chosen


def _alpha(g: Graph, view: _View | None = None) -> tuple[int, tuple[int, ...]]:
    """g's alpha memo: alpha(g) and a clique of that size in the view's
    bits, searched on view (or a fresh view) the first time only.

    The search starts from a greedy clique: walking the view's bits upward
    takes the vertex with the fewest neighbours in g among the candidates
    left, a static min-degree greedy.  The optimiser then only has to beat
    its size, and when nothing does, the greedy clique is the one kept.
    """
    if g._alpha_memo is None:
        keep = (view or _complement_view(g))[0]
        full = cand = (1 << g.n) - 1
        greedy = []
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            greedy.append(v)
            cand ^= low
            cand ^= cand & keep[v]
        alpha, clique = _max_clique(keep, full, len(greedy))
        g._alpha_memo = alpha, tuple(clique or greedy)
    return g._alpha_memo


def _star(g: Graph, view: _View | None = None) -> tuple[int, int, tuple[int, ...]]:
    """g's sigma memo: sigma(g), the least vertex attaining it (0 for
    edgeless graphs) and a clique of sigma vertices within its
    neighbourhood in the view's bits, searched on view (or a fresh view)
    the first time only.

    An independent subset of N(v) is independent in g, so sigma <= alpha.
    When the alpha memo is filled, the scan stops at the first vertex that
    attains alpha: only a strictly larger size replaces the best, so no
    later vertex could.  The memo is only read here, never filled.
    """
    if g._star_memo is None:
        keep, _, pos = view or _complement_view(g)
        cap = g._alpha_memo[0] if g._alpha_memo else None
        best = best_v = 0
        clique: list[int] = []
        for v, i in enumerate(pos):
            if keep[i].bit_count() <= best:
                continue
            size, found = _max_clique(keep, keep[i], best)
            if size > best:
                best, best_v, clique = size, v, found
                if best == cap:
                    break
        g._star_memo = best, best_v, tuple(clique)
    return g._star_memo


def independence_number(g: Graph) -> tuple[int, list[int]]:
    """Exact alpha(g) with its lexicographically least witness set."""
    view = _complement_view(g)
    alpha, known = _alpha(g, view)
    return alpha, _lex_least_clique(view, (1 << g.n) - 1, alpha, known)


def star_number(g: Graph) -> tuple[int, tuple[int, list[int]] | None]:
    """sigma(g) = max over v of alpha(N(v)), 0 for edgeless graphs.

    The witness is the least vertex attaining the maximum together with the
    least maximum independent subset of its neighbourhood; None only for the
    empty graph.
    """
    if g.n == 0:
        return 0, None
    view = keep, _, pos = _complement_view(g)
    best, v, known = _star(g, view)
    return best, (v, _lex_least_clique(view, keep[pos[v]], best, known))


def directories(g: Graph) -> list[list[int]]:
    """All independent dominating sets of size alpha(g), in lexicographic order.

    For finite graphs these are exactly the maximum independent sets: a
    maximum independent set is maximal, and maximal independent sets
    dominate.  After alpha is known, one search over the complement lists
    every clique of exactly that size.  Requires star number >= 1.
    """
    if not any(g.masks):
        raise StarNumberZero("directories are undefined for edgeless graphs")
    view = keep, order, _ = _complement_view(g)
    alpha = _alpha(g, view)[0]
    return sorted(sorted(order[i] for i in c) for c in _cliques(keep, (1 << g.n) - 1, alpha))


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    smask = _mask_of(s, g.n)
    return _union_mask(g.masks, smask) & smask == 0


def dominates(g: Graph, d: Iterable[int], x: Iterable[int]) -> bool:
    """True when every member of x has a neighbour in d."""
    covered = _union_mask(g.masks, _mask_of(d, g.n))
    return _mask_of(x, g.n) & ~covered == 0


def is_independent_dominating(g: Graph, s: Iterable[int]) -> bool:
    return _base_fault(g, _mask_of(s, g.n)) is None


def is_directory(g: Graph, i: Iterable[int], relaxed: bool = False) -> bool:
    """Check the directory conditions for a finite graph.

    Exact mode requires |i| = alpha(g).  Relaxed mode is the
    truncation-directory variant used for finite windows onto infinite
    graphs and accepts any independent dominating set with
    |i| >= 2*sigma(g) - 1.  Edgeless graphs have no directories.
    """
    iset = sorted(set(i))
    if not any(g.masks) or _base_fault(g, _mask_of(iset, g.n)) is not None:
        return False
    if relaxed:
        return len(iset) >= 2 * _star(g)[0] - 1
    return len(iset) == _alpha(g)[0]


def _base_fault(g: Graph, imask: int) -> str | None:
    """Why imask is no index set: not independent, else the least vertex it
    does not dominate; None when it is independent and dominating."""
    covered = _union_mask(g.masks, imask)
    if covered & imask:
        return "index set is not independent"
    missing = (1 << g.n) - 1 & ~(covered | imask)
    if missing:
        return f"index set does not dominate vertex {(missing & -missing).bit_length() - 1}"
    return None


def _require_base(g: Graph, i: Iterable[int]) -> int:
    imask = _mask_of(i, g.n)
    fault = _base_fault(g, imask)
    if fault is not None:
        raise NotADirectoryBase(fault)
    return imask


def address(g: Graph, i: Iterable[int], x: int) -> list[int]:
    """N(x) intersected with i, or {x} itself when x belongs to i."""
    return address_union(g, i, [x])


def address_union(g: Graph, i: Iterable[int], xs: Iterable[int]) -> list[int]:
    """Union of the addresses of the members of xs."""
    imask = _require_base(g, i)
    xmask = _mask_of(xs, g.n)
    # Members of i give themselves, the rest their neighbours in i.
    return _list_of(xmask & imask | _union_mask(g.masks, xmask & ~imask) & imask)


def exact_neighborhood(g: Graph, i: Iterable[int], s: Iterable[int]) -> list[int]:
    """All vertices v with N(v) intersect i equal to s exactly."""
    imask = _require_base(g, i)
    smask = _mask_of(s, g.n)
    if smask & ~imask:
        raise ValueError("s must be a subset of the index set")
    return [v for v in range(g.n) if g.masks[v] & imask == smask]


def domination_number(g: Graph, i: Iterable[int], s: Iterable[int]) -> int:
    """Minimum number of index-set vertices needed to dominate s.

    Follows the recursive definition: vertices of s inside i count one each
    and take out everything they dominate.  i is independent, so no vertex
    of i is left, and the rest is the disjoint base case: an exact minimum
    hitting set over the address candidates.  _require_base rejects an
    index set that does not dominate every vertex, so the hitting set
    always exists.
    """
    imask = _require_base(g, i)
    smask = _mask_of(s, g.n)
    inside = smask & imask
    outside = smask & ~(inside | _union_mask(g.masks, inside))
    # Only address members can dominate anything in s.
    candidates = _list_of(_union_mask(g.masks, outside) & imask)
    rows = [g.masks[x] for x in _iter_bits(outside)]
    for k in range(len(candidates) + 1):
        for combo in combinations(candidates, k):
            cmask = sum(1 << c for c in combo)
            if all(row & cmask for row in rows):
                return inside.bit_count() + k
    raise InternalInvariant("undominated set escaped the entry check")


@dataclass(frozen=True)
class AnalysisReport:
    """Structural summary of one finite graph."""

    independence_number: int
    alpha_witness: tuple[int, ...]
    star_number: int
    sigma_witness: tuple[int, tuple[int, ...]] | None
    directories: tuple[tuple[int, ...], ...]
    is_connected: bool

    def to_dict(self) -> dict:
        sigma = None
        if self.sigma_witness is not None:
            sigma = {
                "vertex": self.sigma_witness[0],
                "independent_set": list(self.sigma_witness[1]),
            }
        return {
            "independence_number": self.independence_number,
            "alpha_witness": list(self.alpha_witness),
            "star_number": self.star_number,
            "sigma_witness": sigma,
            "directories": [list(d) for d in self.directories],
            "is_connected": self.is_connected,
        }


def analyze(g: Graph) -> AnalysisReport:
    """Compute alpha, sigma, all directories and connectivity in one pass.

    With an edge present, the first directory is the lexicographically
    least maximum independent set, so alpha and its witness are read off
    it instead of searched for again.  The directories come first, so the
    sigma scan finds alpha in the memo and stops once it reaches it.
    """
    dirs = tuple(tuple(d) for d in directories(g)) if any(g.masks) else ()
    sigma, sigma_wit = star_number(g)
    alpha, alpha_wit = (len(dirs[0]), dirs[0]) if dirs else independence_number(g)
    witness = None
    if sigma_wit is not None:
        witness = (sigma_wit[0], tuple(sigma_wit[1]))
    return AnalysisReport(
        independence_number=alpha,
        alpha_witness=tuple(alpha_wit),
        star_number=sigma,
        sigma_witness=witness,
        directories=dirs,
        is_connected=is_connected(g),
    )
