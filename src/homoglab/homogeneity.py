"""Ages, the kk/okk partition, and XY-homogeneity deciders.

Two independent routes decide HH-homogeneity of a finite graph:

* decide_xy runs a one-point check: a graph is HH exactly when every
  homomorphism from a coned domain has a coned image.  Subsets of coned
  sets are coned and an image is no larger than its domain, so domains
  smaller than the smallest coneless set cannot fail and are skipped; on
  K_n, where only the whole vertex set is coneless, no map is walked.
* decide_hh_conditions tests the combinatorial characterization: no age
  class may have both a coned and a cone-free embedding, and the coned part
  of the age must be upward closed under the surjective-homomorphism order.
  The decider reads the age one subset size at a time, and stops after the
  first size with a class of both kinds.

A coned set lies in the neighbourhood of its cone vertex, so no set larger
than the maximum degree is coned.  Both routes stop there: such a domain
has no cone to keep, and such an age class takes part in a failure of
neither condition.

Agreement of the two on every small graph is part of the acceptance suite.

On a finite graph every injective, surjective, bijective or embedding
endomorphism is an automorphism, so every target kind other than H means
"extends to an automorphism".  decide_xy settles those cells exactly:

* (H, Y) holds iff the graph is complete.  A non-edge uv gives the local
  homomorphism {u->u, v->u}, which no injective map extends; on K_n every
  local homomorphism is a local isomorphism, and K_n is ultrahomogeneous.
* (M, Y) holds iff the graph is complete or edgeless.  A non-edge uv and an
  edge st give the local monomorphism {u->s, v->t}, which no automorphism
  extends; on K_n and I_n every local monomorphism is a local isomorphism.
* (I, Y) holds iff every local isomorphism extends to one more vertex as a
  local isomorphism; on a finite graph these steps close into an
  automorphism.

Two implications answer some cells before any walk, and only ever with
"true".  Every local monomorphism is a local homomorphism, and every
local isomorphism a local monomorphism, so (H, H) implies (M, H), which
implies (I, H).  An automorphism is an endomorphism, so (I, A) also
implies (I, H).  (I, A) is homogeneity, and Gardiner (Homogeneous graphs,
JCTB 1976) lists the finite homogeneous graphs: the unions mK_r of equal
cliques, their complements, C5 and K3xK3.  _i_theory recognises that
list; C5 and K3xK3 are the only strongly regular graphs with parameters
(5, 2, 0, 1) and (9, 4, 1, 2), so a parameter check is exact.

Two more families are (I, H)-homogeneous without being homogeneous.

* Complete multipartite graphs.  Non-adjacency (or equality) is an
  equivalence relation whose classes are the parts.  A local isomorphism
  f maps each part's vertices into one part, and vertices of different
  parts to different parts.  So f induces a partial injection between
  parts; extend it to a bijection pi of the parts.  Send each vertex
  outside the domain into pi of its part.  Adjacent vertices lie in
  different parts, so their images are adjacent.  g is complete
  multipartite exactly when the sets "v and its non-neighbours"
  partition the vertices; those sets are the parts.
* The joins K_t v mK_r.  Write T for the t universal vertices and
  B_1..B_m for the blocks: r-cliques, pairwise non-adjacent, each joined
  to T.  Let f: A -> G be a local isomorphism.
  - A meets two blocks.  Vertices of A in different blocks are distinct
    and non-adjacent, so their images are too.  Neither image is
    universal, so both lie in blocks, and in different blocks.  A clique
    of block vertices lies in one block.  So f maps A & B_i into one
    block B_s(i), with s injective.  A vertex of A & T has neighbours
    among the images in two blocks, so its image lies in T.  Extend s to
    a permutation of the blocks.  Map T - A onto T - f(A), and each
    B_i - A onto B_s(i) - f(A), by any bijections.  The result is an
    automorphism that extends f.
  - A meets at most one block.  Then A is a clique, so f(A) is a clique,
    and every clique of G lies in some K = T | B_j, which is itself a
    clique on t + r vertices.  A homomorphism G -> K is a proper
    colouring with the colours K: T takes t distinct colours and every
    block takes the r colours left over.  Keep f on A, and colour T - A
    injectively from K - f(A), which has at least t - |A & T| colours.
    f is injective, so f(A & B_i) avoids the colours of T.  Colour the
    rest of each block with the block colours not yet used.  This
    colouring is an endomorphism that extends f.

  The proof uses none of t >= 1, m >= 2 or r >= 2, so the recogniser
  needs no bounds: t = 0 gives mK_r, and r = 1 a complete multipartite
  graph.  g is such a join exactly when the vertices whose closed
  neighbourhood is not every vertex induce an mK_r.

So (M, H) is true when (H, H) is; (I, H) when (H, H) is, or the graph is
on Gardiner's list, complete multipartite or a join K_t v mK_r; and
(I, Y) for Y other than H when the graph is on Gardiner's list.  A true
verdict has no counterexample, so the report is the one the search
gives.  Otherwise (M, H) and (I, H) search for an extension of every
local morphism; a one-point extension of a local monomorphism can leave
the class of local monomorphisms, so no one-point argument is known to
be sound there.  Rusinov and Schweitzer (Homomorphism-homogeneous
graphs, JGT 2010) show that (M, H) and (H, H) always agree, but that
gives no failing map, so the (M, H) search stays.

The enumerating routes, (H, H), (M, H), (I, H) and the (I, Y) one-point
check, list the local maps on each domain with morphisms._local_maps, the
walker that search_morphism and the is_local_* checks also run.  Domains
come by size and then lexicographically, images lexicographically, so
each route reports its least failing map in that order.  The images a
vertex may take come from morphisms._targets, the one candidate rule,
which the walker asks at each position: neighbours of the images of its
neighbours, for M and I no used target, and for I no neighbour of the
images of its non-neighbours.  The (I, Y) check asks the same rule for a
vertex outside the domain, and (M, H) and (I, H) hand each map to
search_morphism as a seed, which the walker places as its prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import OrderTooLarge
from .graphs import Graph, _iter_bits
from .morphisms import (
    KINDS,
    MorphismConstraints,
    PartialMap,
    _code,
    _local_maps,
    _targets,
    search_morphism,
)

__all__ = [
    "AgeClass",
    "AgePartition",
    "Conflict",
    "HomogReport",
    "age",
    "kk_okk",
    "preceq",
    "decide_xy",
    "decide_hh_conditions",
]

X_KINDS = tuple("HMI")


@dataclass(frozen=True)
class AgeClass:
    """One isomorphism type of induced subgraph, with its embeddings."""

    representative: Graph
    code: bytes
    embeddings: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Conflict:
    code: bytes
    coned_embedding: tuple[int, ...]
    cone_vertex: int
    coneless_embedding: tuple[int, ...]


@dataclass(frozen=True)
class AgePartition:
    """The kk/okk split of an age, with explicit conflict witnesses.

    kk holds the codes of classes with at least one coned embedding, okk
    those with at least one embedding admitting no cone; the two always
    cover the age and conflicts lists their intersection.
    """

    kk: frozenset[bytes]
    okk: frozenset[bytes]
    conflicts: tuple[Conflict, ...]
    classes: tuple[AgeClass, ...]


@dataclass(frozen=True)
class HomogReport:
    verdict: bool
    x_kind: str
    y_kind: str
    method: str
    counterexample: dict | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        ce = None
        if self.counterexample is not None:
            ce = dict(self.counterexample)
            if "code" in ce:
                ce["code"] = ce["code"].hex()
            for key in ("upper_code", "lower_code"):
                if key in ce:
                    ce[key] = ce[key].hex()
        return {
            "verdict": self.verdict,
            "x_kind": self.x_kind,
            "y_kind": self.y_kind,
            "method": self.method,
            "counterexample": ce,
            "note": self.note,
        }


# The largest order the deciders and the age scan accept; there is no
# override.  The (H, H) route builds a cone table of 2^n sets.
_ORDER_LIMIT = 10


def _cone_table(g: Graph) -> list[int]:
    """The common neighbours of every vertex set, indexed by the set's
    mask; the empty set's are all vertices.  Vertex v extends each of the
    2^v sets already listed, all below bit v, so set s | 1 << v lands at
    index s + 2^v and no set is built twice."""
    cones = [(1 << g.n) - 1]
    for row in g.masks:
        cones += [c & row for c in cones]
    return cones


def _max_degree(g: Graph) -> int:
    """The maximum degree: a coned set lies in the neighbourhood of its
    cone vertex, so no set with more vertices is coned."""
    return max(map(int.bit_count, g.masks), default=0)


def age(g: Graph, k: int) -> list[AgeClass]:
    """One AgeClass per isomorphism type of induced subgraph of size <= k."""
    return list(kk_okk(g, k).classes)


def _age_levels(g: Graph, k: int):
    """Yield, for each subset size s = 1..k in turn, the age classes of
    size s: a dict keyed by code holding each class's first induced
    subgraph, its embeddings, its first coned embedding with its least cone
    vertex, and its first coneless embedding.

    Each subset of size s + 1 is a subset of size s plus one vertex above
    its largest.  Its induced masks are the parent's, each with one bit
    for the new vertex, plus the new vertex's row, and its cone is the
    parent's cone within the new vertex's neighbours.  Parents are walked
    in the order they were made and new vertices in ascending order, so
    the subsets of each size come in combinations order, and every
    embedding list and first witness is the one a scan of
    combinations(range(n), s) finds.  One dict per scan keeps the code
    of each induced masks tuple, which comes up again for every subset
    that induces the same labelled graph.
    """
    if k < 0:
        raise ValueError(f"age size k must be at least 0, got {k}")
    if k > g.n:
        raise OrderTooLarge(f"age size {k} exceeds order {g.n}")
    if k > _ORDER_LIMIT:
        raise OrderTooLarge(f"age computation capped at size {_ORDER_LIMIT}, got {k}")
    adj = g.masks
    subsets = [((), (), (1 << g.n) - 1)]
    codes: dict[tuple[int, ...], bytes] = {}
    for size in range(k):
        bit = 1 << size
        grown = []
        level: dict[bytes, list] = {}
        for comb, sig, cone in subsets:
            for v in range(comb[-1] + 1 if comb else 0, g.n):
                row = adj[v]
                rows = []
                new_row = 0
                for i, u in enumerate(comb):
                    if row >> u & 1:
                        rows.append(sig[i] | bit)
                        new_row |= 1 << i
                    else:
                        rows.append(sig[i])
                rows.append(new_row)
                sub, sub_sig, sub_cone = comb + (v,), tuple(rows), cone & row
                grown.append((sub, sub_sig, sub_cone))
                code = codes.get(sub_sig)
                if code is None:
                    code = codes[sub_sig] = _code(sub_sig)
                entry = level.get(code)
                if entry is None:
                    entry = level[code] = [sub_sig, [], None, None]
                entry[1].append(sub)
                if sub_cone:
                    if entry[2] is None:
                        entry[2] = (sub, (sub_cone & -sub_cone).bit_length() - 1)
                elif entry[3] is None:
                    entry[3] = sub
        subsets = grown
        yield level


def _partition(table: dict[bytes, list]) -> AgePartition:
    """The AgePartition of a table of _age_levels entries.  A code's first
    byte is its order, so sorting by code alone lists the classes by
    order."""
    classes = []
    conflicts = []
    for code in sorted(table):
        sig, embeddings, coned, coneless = table[code]
        classes.append(AgeClass(Graph._of(sig), code, tuple(embeddings)))
        if coned is not None and coneless is not None:
            conflicts.append(Conflict(code, coned[0], coned[1], coneless))
    return AgePartition(
        kk=frozenset(code for code, entry in table.items() if entry[2] is not None),
        okk=frozenset(code for code, entry in table.items() if entry[3] is not None),
        conflicts=tuple(conflicts),
        classes=tuple(classes),
    )


def kk_okk(g: Graph, k: int) -> AgePartition:
    """Classify every age class of size <= k by cone existence over its
    embeddings; every embedding of every class is scanned."""
    table: dict[bytes, list] = {}
    for level in _age_levels(g, k):
        table.update(level)
    return _partition(table)


_SURJECTIVE = MorphismConstraints(surjective=True)


def preceq(a: Graph, b: Graph) -> bool:
    """True when a surjective homomorphism a -> b exists."""
    return search_morphism(a, b, None, _SURJECTIVE) is not None


# --- direct decider ---------------------------------------------------------

_FINITE_COLLAPSE_NOTE = (
    "on a finite graph every injective, surjective, bijective or embedding "
    "endomorphism is an automorphism, so kinds M, E, B, A and I share one verdict"
)


def _domains(n: int, sizes: range):
    """Every vertex subset of range(n) with a size in sizes, as a sorted
    tuple, by size and then lexicographically."""
    for size in sizes:
        yield from combinations(range(n), size)


def _counterexample(domain, images, vertex, reason) -> dict:
    return {
        "map": [[u, t] for u, t in zip(domain, images)],
        "unextendable_vertex": vertex,
        "reason": reason,
    }


def _hh_failure(g: Graph) -> dict | None:
    """First homomorphism from a coned domain whose image has no cone.

    Domains are walked by size, sizes smallest..Delta: smallest is the
    size of the smallest coneless set and Delta the maximum degree.  A
    subset of a coned set is coned, so every set smaller than smallest is
    coned, and an image has at most as many vertices as its domain, so a
    smaller domain cannot fail.  No set larger than Delta is coned
    (_max_degree), so no larger domain can fail either.  The least failing
    map is unchanged.  On K_n only the full vertex set is coneless, and
    smallest = n > Delta, so no map is walked.
    """
    cones = _cone_table(g)
    smallest = min(mask.bit_count() for mask, cone in enumerate(cones) if not cone)
    adj = g.masks
    for domain in _domains(g.n, range(smallest, _max_degree(g) + 1)):
        dcones = cones[sum(1 << v for v in domain)]
        if not dcones:
            continue
        for images, image_mask in _local_maps(adj, adj, "H", domain, (), 0):
            if not cones[image_mask]:
                vertex = next(_iter_bits(dcones))
                return _counterexample(domain, images, vertex, "image of the domain has no cone")
    return None


def _h_search_failure(g: Graph, x: str) -> dict | None:
    """First local x-morphism, x in {M, I}, that no endomorphism extends."""
    adj = g.masks
    for domain in _domains(g.n, range(g.n + 1)):
        for images, _ in _local_maps(adj, adj, x, domain, (), 0):
            if search_morphism(g, g, PartialMap(tuple(zip(domain, images)))) is None:
                return _counterexample(domain, images, None, "no extension")
    return None


def _least_pair(g: Graph, adjacent: bool) -> tuple[int, int] | None:
    """Least pair u < v that is an edge if adjacent, else a non-edge."""
    for u, v in combinations(range(g.n), 2):
        if g.has_edge(u, v) == adjacent:
            return u, v
    return None


def _h_to_automorphism_failure(g: Graph) -> dict | None:
    """{u->u, v->u} for the least non-edge uv; no injective map extends it."""
    nonedge = _least_pair(g, False)
    if nonedge is None:
        return None
    u, v = nonedge
    return _counterexample((u, v), (u, u), None, "a non-edge maps to one vertex")


def _m_to_automorphism_failure(g: Graph) -> dict | None:
    """{u->s, v->t} for the least non-edge uv and the least edge st."""
    nonedge = _least_pair(g, False)
    edge = _least_pair(g, True)
    if nonedge is None or edge is None:
        return None
    return _counterexample(nonedge, edge, None, "a non-edge maps onto an edge")


def _i_to_automorphism_failure(g: Graph) -> dict | None:
    """First local isomorphism with a vertex it cannot take on as a local
    isomorphism."""
    adj = g.masks
    full = (1 << g.n) - 1
    for domain in _domains(g.n, range(g.n + 1)):
        outside = full & ~sum(1 << v for v in domain)
        for images, image_mask in _local_maps(adj, adj, "I", domain, (), 0):
            for a in _iter_bits(outside):
                if not _targets(adj, adj, "I", domain + (a,), images, len(domain), image_mask):
                    reason = "no image for the new vertex keeps a local isomorphism"
                    return _counterexample(domain, images, a, reason)
    return None


def _block_sizes(blocks: set[int], within: int) -> set[int] | None:
    """The sizes of blocks when they partition within, else None.  Each
    vertex of within lies in the block read for it, and every block lies
    in within, so distinct blocks whose sizes add up to the size of within
    are disjoint: the classes of an equivalence relation."""
    sizes = [block.bit_count() for block in blocks]
    return set(sizes) if sum(sizes) == within.bit_count() else None


def _equal_sizes(sizes: set[int] | None) -> bool:
    """Whether a _block_sizes result is a partition into blocks of one size."""
    return sizes is not None and len(sizes) <= 1


def _equal_cliques(g: Graph) -> bool:
    """Whether g is mK_r: the closed neighbourhoods partition the vertices,
    so each is a component and a clique, and all have one size."""
    full = (1 << g.n) - 1
    return _equal_sizes(_block_sizes({row | 1 << v for v, row in enumerate(g.masks)}, full))


def _joined_cliques(g: Graph) -> bool:
    """Whether g is K_t v mK_r: the vertices whose closed neighbourhood is
    not every vertex induce mK_r."""
    full = (1 << g.n) - 1
    closed = [row | 1 << v for v, row in enumerate(g.masks)]
    rest = sum(1 << v for v, c in enumerate(closed) if c != full)
    return _equal_sizes(_block_sizes({c & rest for c in closed if c != full}, rest))


# The strongly regular parameters (k, lambda, mu) of C5 and K3xK3, by
# order; each set is met by that graph alone.
_SPORADIC = {5: (2, 0, 1), 9: (4, 1, 2)}


def _sporadic(g: Graph) -> bool:
    """Whether g is C5 or K3xK3."""
    if g.n not in _SPORADIC:
        return False
    k, common_adjacent, common_apart = _SPORADIC[g.n]
    adj = g.masks
    return all(row.bit_count() == k for row in adj) and all(
        (adj[u] & adj[v]).bit_count() == (common_adjacent if adj[u] >> v & 1 else common_apart)
        for u, v in combinations(range(g.n), 2)
    )


def _i_theory(g: Graph, y: str) -> bool:
    """Whether a proof in the module docstring gives (I, y).  For y other
    than H: g is on Gardiner's list of the finite homogeneous graphs, mK_r,
    the complement of one, C5 or K3xK3.  For y = H: g is complete
    multipartite, K_t v mK_r, C5 or K3xK3; the first family holds the
    complements of the mK_r and the second, at t = 0, the mK_r.  The
    sets "v and its non-neighbours" partition the vertices exactly when g
    is complete multipartite, and are then its parts, which serve both the
    complement half of the list and the multipartite test."""
    full = (1 << g.n) - 1
    parts = _block_sizes({full ^ row for row in g.masks}, full)
    if y != "H":
        if _equal_sizes(parts) or _equal_cliques(g):
            return True
    elif parts is not None or _joined_cliques(g):
        return True
    return _sporadic(g)


_AUTOMORPHISM_FAILURE = {
    "H": _h_to_automorphism_failure,
    "M": _m_to_automorphism_failure,
    "I": _i_to_automorphism_failure,
}


def decide_xy(g: Graph, x: str, y: str) -> HomogReport:
    """Decide whether every local x-morphism extends to a y-endomorphism.

    Each cell has one exact route (proofs in the module docstring).  (H, H)
    is a one-point cone check.  Every y but H means automorphism here: for
    x = H the graph must be complete, else a non-edge uv gives {u->u, v->u};
    for x = M complete or edgeless, else a non-edge uv and an edge st give
    {u->s, v->t}; for x = I the graph must be homogeneous: true on
    Gardiner's list, else every local isomorphism must extend by one vertex.
    (M, H) is true when (H, H) is, since a local monomorphism is a local
    homomorphism; (I, H) is true when (H, H) is or the graph is on
    Gardiner's list, since a local isomorphism is a local homomorphism and
    an automorphism an endomorphism, and when the graph is complete
    multipartite or a join K_t v mK_r.  Else (M, H) and (I, H) search for an
    extension of every local morphism, which is exponential and only meant
    for small orders; every cell is capped at order 10, with no override.
    """
    if x not in X_KINDS:
        raise ValueError(f"x kind must be one of {X_KINDS!r}, got {x!r}")
    if y not in KINDS:
        raise ValueError(f"y kind must be one of {KINDS!r}, got {y!r}")
    if g.n > _ORDER_LIMIT:
        raise OrderTooLarge(f"direct decider capped at order {_ORDER_LIMIT}, got {g.n}")
    # A route that holds answers "true" before any walk.
    theory = x == "I" and _i_theory(g, y)
    if y != "H":
        counterexample = None if theory else _AUTOMORPHISM_FAILURE[x](g)
        note = _FINITE_COLLAPSE_NOTE
    elif x == "H":
        counterexample, note = _hh_failure(g), None
    elif theory or _hh_failure(g) is None:
        counterexample, note = None, None
    else:
        counterexample, note = _h_search_failure(g, x), None
    return HomogReport(
        verdict=counterexample is None,
        x_kind=x,
        y_kind=y,
        method="direct",
        counterexample=counterexample,
        note=note,
    )


def _conditions_failure(table: dict[bytes, list]) -> dict | None:
    """The first failure of condition 1, else of condition 2, as a
    counterexample, from a table of _age_levels entries; None when both
    hold.  A code's first byte is its order, so sorting by code alone
    lists the classes by order."""
    codes = sorted(table)
    for code in codes:
        _, _, coned, coneless = table[code]
        if coned is not None and coneless is not None:
            return {
                "condition": 1,
                "code": code,
                "coned_embedding": list(coned[0]),
                "cone_vertex": coned[1],
                "coneless_embedding": list(coneless),
            }
    # Condition 1 holds, so every class is coned or cone-free, not both.
    reps = {code: Graph._of(table[code][0]) for code in codes}
    kk = [code for code in codes if table[code][2] is not None]
    okk = [code for code in codes if table[code][3] is not None]
    for upper in kk:
        for lower in okk:
            surj = search_morphism(reps[upper], reps[lower], None, _SURJECTIVE)
            if surj is not None:
                return {
                    "condition": 2,
                    "upper_code": upper,
                    "lower_code": lower,
                    "upper_embedding": list(table[upper][1][0]),
                    "lower_embedding": list(table[lower][1][0]),
                    "surjection": surj,
                }
    return None


def decide_hh_conditions(g: Graph) -> HomogReport:
    """HH verdict through the age partition, capped at order 10.

    Condition 1: no age class has both a coned and a cone-free embedding.
    Condition 2: the coned classes are upward closed under the surjective
    homomorphism order, tested as: no coned class maps onto a cone-free one.

    No class larger than the maximum degree is coned (_max_degree); such a
    class is in neither a condition-1 conflict nor, being larger than
    every coned class, the image of a surjection from one.  So the age is
    read up to the maximum degree, one subset size at a time, and the scan
    stops after the first size with a condition-1 conflict.  Codes sort by
    order first and a class of size s is settled once size s is read, so
    the first failure is the one the whole age would report.
    """
    if g.n > _ORDER_LIMIT:
        raise OrderTooLarge(f"age computation capped at size {_ORDER_LIMIT}, got {g.n}")
    table: dict[bytes, list] = {}
    for level in _age_levels(g, _max_degree(g)):
        table.update(level)
        if any(entry[2] is not None and entry[3] is not None for entry in level.values()):
            break
    counterexample = _conditions_failure(table)
    return HomogReport(
        verdict=counterexample is None,
        x_kind="H",
        y_kind="H",
        method="conditions",
        counterexample=counterexample,
    )
