"""Executable suites for the directory combinatorics and decider agreement.

Each suite returns a SuiteReport whose failures replay from their recorded
witnesses alone.  The directory lemma checks hold unconditionally on every
finite graph whose index set is independent and dominating, so any failure
there is a bug, not a finding; the richness check is a bounded surrogate
for an infinite statement and its shortfalls are findings.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb

from .errors import OrderTooLarge, StarNumberZero
from .graphs import (
    Graph,
    _alpha,
    _common_mask,
    _iter_bits,
    _list_of,
    _require_base,
    _star,
    _union_mask,
    domination_number,
    independence_number,
    induced_subgraph,
)
from .homogeneity import decide_hh_conditions, decide_xy
from .morphisms import _representatives
from .presentations import make_presentation, truncate

__all__ = [
    "SuiteReport",
    "TriangleSearchResult",
    "verify_directory_lemmas",
    "verify_directory_lemmas_random",
    "verify_neighbor_richness",
    "find_triangle_dom2",
    "verify_alpha_bound_family",
    "cross_validate_hh",
    "random_graph",
    "rs_truncation",
]

DEFAULT_SEED = 20250809
EDGE_PROBABILITIES = (0.2, 0.5, 0.8)
_MIN_RANDOM_ORDER = 4
# One G(100, 0.2) sample with its directory and lemma checks takes about
# 0.05-0.15 s, G(150, 0.2) 2-3 s; past the cap the campaign's cost grows
# with no bound a caller can see.
_MAX_RANDOM_ORDER = 100
# Most index sets the richness suite builds.  On rado_bit, C(19, 11) =
# 75,582 sets (--truncate 24) took 2.4 s and 325 MB peak; C(21, 12) =
# 352,716 (--truncate 26) took 31 s and 2.9 GB, with 389 MB of JSON
# (2 vCPU, CPython 3.11.7).  The pairs of sets grow as the square.
_MAX_RICHNESS_SETS = 1 << 17
# Largest S whose common neighbourhood cross_validate_hh checks for HH.
_CLOSURE_SET_MAX = 2
# Largest order cross_validate_hh enumerates, the enumeration cap.  Order 8
# adds 12,346 classes; the whole run takes about 15 s and 21 MB peak RSS
# (2 vCPU, CPython 3.11.7), so tier-1 stops at order 7.
_CROSS_VALIDATE_ORDER = 8


@dataclass
class SuiteReport:
    suite: str
    instances: int
    failures: list[dict]
    elapsed: float
    extra: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "instances": self.instances,
            "passed": self.passed,
            "failures": self.failures,
            "elapsed_seconds": round(self.elapsed, 6),
            "extra": self.extra or {},
        }


def rs_truncation(n: int = 3, parts: int = 2) -> Graph:
    """Truncation of the rs(n) family with `parts` vertices per clique part."""
    return truncate(make_presentation("rs", n), n + parts * n)


def _coned_sets(masks: tuple[int, ...], pool, limit: int):
    """Every subset of the ascending pool with 1 to limit members and a
    common neighbour, with its cone mask, in sorted tuple order."""
    n = len(masks)
    for s in sorted(c for size in range(1, limit + 1) for c in combinations(pool, size)):
        cone = _common_mask(masks, sum(1 << v for v in s), n)
        if cone:
            yield s, cone


def _address_table(g: Graph, imask: int) -> tuple[list[int], dict[int, int]]:
    """The address mask of every vertex, and for every mask s of index-set
    vertices the mask of the vertices whose neighbours there are exactly s."""
    addr_mask = []
    exact: dict[int, int] = {}
    for v, m in enumerate(g.masks):
        s = m & imask
        exact[s] = exact.get(s, 0) | 1 << v
        addr_mask.append(1 << v if imask >> v & 1 else s)
    return addr_mask, exact


def verify_directory_lemmas(g: Graph, i) -> SuiteReport:
    """Check the three directory statements on one graph.

    1. For sigma-sized S inside the index set, the exact neighbourhood of S
       equals the common neighbourhood of S.  Only sets with a common
       neighbour c can differ.  The index set is independent, so c lies
       outside it and S lies inside the address of c; conversely every
       subset of an address is coned by its vertex.  So the instances are
       the sigma-subsets of the addresses, each taken once, in
       lexicographic order.
    2. No edge joins the exact neighbourhoods of disjoint sigma-sized
       subsets.  An offending edge determines the pair (S, T), so every
       edge is an instance; it can fail only with both ends
       sigma-addressed (outside the index set, sigma neighbours in it), so
       only the edges inside that pool are scanned.
    3. Cones over sets containing a sigma-addressed vertex x intersect the
       address of x; a cone z over a set of sigma-addressed vertices has
       its address meet the address union of X in a set dominating X.  The
       first statement depends only on the pair (x, z) with z adjacent to
       x, which covers every finite X; the second is enumerated over X of
       sigma-addressed vertices up to size 4.  Index-set members are
       excluded from both pools: their address is the degenerate singleton
       {x}, which never dominates x itself, so only when sigma is 1 would
       they enter at all, vacuously for 3a and falsifying the literal
       domination statement whose argument assumes the address sits inside
       the neighbourhood.  The meet lies in the index set and holds the
       meet of the addresses of x and z, so it dominates x exactly when 3a
       holds for (x, z): the 3b failures are read off the 3a ones.

    Clauses 2 and 3 count their instances without visiting them.  Clause 2
    has one per edge.  Clause 3a has one per neighbour of x, and an address
    meets that of x exactly when its vertex is, or is adjacent to, a member
    of x's address (an index vertex's address is itself), so the failing
    neighbours are those outside the closed neighbourhoods of that address.
    Clause 3b has one per pair (X, z) with X a subset of N(z) in the pool of
    1 to 4 members: comb(d, 1) + ... + comb(d, 4) for each vertex z with d
    pool neighbours.  It fails only on a cone over a vertex with a 3a
    failure, so the subsets are walked only when there is one.
    """
    start = time.perf_counter()
    imask = _require_base(g, i)
    sigma = _star(g)[0]
    if sigma < 1:
        raise StarNumberZero("directory lemmas need star number at least 1")
    masks = g.masks
    failures: list[dict] = []
    checked = 0
    addr_mask, exact = _address_table(g, imask)

    # Clause 1: exact neighbourhood of sigma-sized S equals N(S).  A set
    # with a common neighbour lies inside that neighbour's address.  Each
    # address goes in as a list: a tuple built from a generator is resized,
    # and freeing it stocks CPython's tuple free lists (about 0.4 MB of
    # peak RSS over 600 graphs of order 36).
    keys = [key for key in exact if key.bit_count() >= sigma]
    subsets = {sub for key in keys for sub in combinations(_list_of(key), sigma)}
    for subset in sorted(subsets):
        checked += 1
        smask = sum(1 << v for v in subset)
        members = exact.get(smask, 0)
        cone = _common_mask(masks, smask, g.n)
        if members != cone:
            failures.append(
                {
                    "clause": "exact-neighbourhood-equals-common",
                    "subset": list(subset),
                    "exact": _list_of(members),
                    "common": _list_of(cone),
                }
            )

    sigma_addressed = [
        v
        for v in range(g.n)
        if not imask >> v & 1 and addr_mask[v].bit_count() == sigma
    ]
    pool = sum(1 << v for v in sigma_addressed)

    # Clause 2: edges never join exact neighbourhoods of disjoint sigma-sets.
    checked += g.edge_count()
    for u in sigma_addressed:
        su = addr_mask[u]
        for v in _iter_bits(masks[u] & pool >> (u + 1) << (u + 1)):
            sv = addr_mask[v]
            if not su & sv:
                failures.append(
                    {
                        "clause": "disjoint-exact-neighbourhoods-no-edges",
                        "edge": [u, v],
                        "subset_s": _list_of(su),
                        "subset_t": _list_of(sv),
                    }
                )

    # Clause 3a: cones over sigma-addressed vertices intersect their address.
    # stray[x] keeps the neighbours whose address misses that of x.
    stray = [0] * g.n
    for x in sigma_addressed:
        checked += masks[x].bit_count()
        meets = _union_mask(masks, addr_mask[x]) | addr_mask[x]
        stray[x] = masks[x] & ~meets
        for z in _iter_bits(stray[x]):
            failures.append(
                {
                    "clause": "cone-address-intersects",
                    "vertex": x,
                    "cone": z,
                    "address_x": _list_of(addr_mask[x]),
                    "address_z": _list_of(addr_mask[z]),
                }
            )

    # Clause 3b: for X of sigma-addressed vertices, the meet of the cone's
    # address with the address union of X dominates X.
    for m in masks:
        d = (m & pool).bit_count()
        checked += comb(d, 1) + comb(d, 2) + comb(d, 3) + comb(d, 4)
    if any(stray):
        for xs, cone in _coned_sets(masks, sigma_addressed, 4):
            xmask = sum(1 << x for x in xs)
            union = _union_mask(addr_mask, xmask)
            for z in _iter_bits(cone & _union_mask(stray, xmask)):
                failures.append(
                    {
                        "clause": "cone-address-dominates",
                        "x_set": list(xs),
                        "cone": z,
                        "meet": _list_of(addr_mask[z] & union),
                        "undominated": [x for x in xs if stray[x] >> z & 1],
                    }
                )

    return SuiteReport(
        suite="directory-lemmas",
        instances=checked,
        failures=failures,
        elapsed=time.perf_counter() - start,
    )


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def verify_directory_lemmas_random(
    count: int = 1000, seed: int = DEFAULT_SEED, max_order: int = 40
) -> SuiteReport:
    """Run the directory lemmas over seeded random graphs.

    Orders run from 4 to max_order and edge probabilities come from
    EDGE_PROBABILITIES; edgeless samples are redrawn.  Every other graph
    has a directory: the least maximum independent set is independent,
    maximal, hence dominating.  A max_order below 4 or above 100 raises
    ValueError before any sampling.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if max_order < _MIN_RANDOM_ORDER:
        raise ValueError(f"max_order {max_order} is below {_MIN_RANDOM_ORDER}")
    if max_order > _MAX_RANDOM_ORDER:
        raise ValueError(f"max_order {max_order} exceeds the cap of {_MAX_RANDOM_ORDER}")
    start = time.perf_counter()
    rng = random.Random(seed)
    failures: list[dict] = []
    graphs_checked = 0
    while graphs_checked < count:
        n = rng.randint(_MIN_RANDOM_ORDER, max_order)
        p = rng.choice(EDGE_PROBABILITIES)
        g = random_graph(rng, n, p)
        if g.edge_count() == 0:
            continue
        graphs_checked += 1
        _, directory = independence_number(g)
        report = verify_directory_lemmas(g, directory)
        for failure in report.failures:
            failure["instance"] = {
                "index": graphs_checked,
                "order": n,
                "edge_probability": p,
                "directory": directory,
            }
            failures.append(failure)
    return SuiteReport(
        suite="directory-lemmas-random",
        instances=graphs_checked,
        failures=failures,
        elapsed=time.perf_counter() - start,
        extra={"seed": seed, "max_order": max_order, "edge_probabilities": list(EDGE_PROBABILITIES)},
    )


def verify_neighbor_richness(g: Graph, i, threshold: int) -> SuiteReport:
    """Bounded surrogate of neighbour richness over exact neighbourhoods.

    For non-disjoint sigma-sized S, T inside the index set and every vertex
    of the exact neighbourhood of S, count its neighbours in the exact
    neighbourhood of T.  Counts below the threshold are findings about the
    truncation, not refutations of anything infinite.  Raises ValueError
    for a threshold below 1, which no count can miss, and when the index
    set has more than _MAX_RICHNESS_SETS sigma-subsets.
    """
    if threshold < 1:
        raise ValueError(f"richness threshold must be at least 1, got {threshold}")
    start = time.perf_counter()
    imask = _require_base(g, i)
    sigma = _star(g)[0]
    if sigma < 1:
        raise StarNumberZero("richness checks need star number at least 1")
    count = comb(imask.bit_count(), sigma)
    if count > _MAX_RICHNESS_SETS:
        raise ValueError(
            f"richness needs {count} index sets of size {sigma}, "
            f"over the cap of {_MAX_RICHNESS_SETS}"
        )
    _, exact = _address_table(g, imask)
    subsets = [sum(1 << v for v in s) for s in combinations(_list_of(imask), sigma)]
    failures = []
    checked = 0
    for smask in subsets:
        s_members = exact.get(smask, 0)
        if not s_members:
            continue
        for tmask in subsets:
            if not smask & tmask:
                continue
            t_members = exact.get(tmask, 0)
            for v in _iter_bits(s_members):
                checked += 1
                got = (g.masks[v] & t_members).bit_count()
                if got < threshold:
                    failures.append(
                        {
                            "clause": "richness-threshold",
                            "subset_s": _list_of(smask),
                            "subset_t": _list_of(tmask),
                            "vertex": v,
                            "count": got,
                            "threshold": threshold,
                        }
                    )
    return SuiteReport(
        suite="neighbor-richness",
        instances=checked,
        failures=failures,
        elapsed=time.perf_counter() - start,
        extra={"threshold": threshold, "sigma": sigma},
    )


@dataclass(frozen=True)
class TriangleSearchResult:
    triangle: tuple[int, int, int] | None
    domination: int | None
    note: str | None

    def to_dict(self) -> dict:
        return {
            "triangle": list(self.triangle) if self.triangle else None,
            "domination": self.domination,
            "note": self.note,
        }


def find_triangle_dom2(g: Graph, i) -> TriangleSearchResult:
    """Least triangle whose domination number over the index set is 2."""
    _require_base(g, i)
    sigma = _star(g)[0]
    if sigma < 2:
        return TriangleSearchResult(
            None, None, f"star number is {sigma}; the statement assumes at least 2"
        )
    iset = sorted(set(i))
    for u, v, w in combinations(range(g.n), 3):
        if g.masks[u] >> v & 1 and g.masks[u] >> w & 1 and g.masks[v] >> w & 1:
            d = domination_number(g, iset, (u, v, w))
            if d == 2:
                return TriangleSearchResult((u, v, w), 2, None)
    return TriangleSearchResult(None, None, "no triangle with domination number 2")


def verify_alpha_bound_family(
    n_values, part_sizes: tuple[int, ...] = (2,)
) -> SuiteReport:
    """Check alpha < 2*sigma + ceil(sigma/2) - 1 over rs(n) truncations.

    Equality with bound - 1 must occur exactly at n = 3.  The computed
    alpha and sigma must not depend on the clique part size once it is at
    least 2.
    """
    start = time.perf_counter()
    n_values, part_sizes = list(n_values), tuple(part_sizes)
    if not n_values or not part_sizes:
        raise ValueError("n_values and part_sizes must both be nonempty")
    if any(n < 3 or n > 8 for n in n_values):
        raise ValueError("rs truncations are checked for n in 3..8")
    if any(m < 2 for m in part_sizes):
        raise ValueError("clique parts need at least 2 vertices")
    failures = []
    checked = 0
    rows = []
    for n in n_values:
        per_m = []
        for m in part_sizes:
            g = rs_truncation(n, m)
            alpha = _alpha(g)[0]
            sigma = _star(g)[0]
            bound = 2 * sigma + ceil(sigma / 2) - 1
            checked += 1
            rows.append(
                {"n": n, "part_size": m, "alpha": alpha, "sigma": sigma, "bound": bound}
            )
            per_m.append((alpha, sigma))
            if not alpha < bound:
                failures.append(
                    {
                        "clause": "alpha-under-bound",
                        "n": n,
                        "part_size": m,
                        "alpha": alpha,
                        "bound": bound,
                    }
                )
            tight = alpha == bound - 1
            if tight != (n == 3):
                failures.append(
                    {
                        "clause": "tight-exactly-at-3",
                        "n": n,
                        "part_size": m,
                        "alpha": alpha,
                        "bound": bound,
                    }
                )
        if len(set(per_m)) > 1:
            failures.append(
                {"clause": "part-size-invariance", "n": n, "values": per_m}
            )
    return SuiteReport(
        suite="alpha-bound",
        instances=checked,
        failures=failures,
        elapsed=time.perf_counter() - start,
        extra={"rows": rows},
    )


def cross_validate_hh(n_max: int) -> SuiteReport:
    """Run both HH deciders on every isomorphism class up to n_max vertices.

    Also checks closure under common neighbourhoods: for every graph both
    deciders call HH and every nonempty S (up to _CLOSURE_SET_MAX) with
    nonempty N(S), the subgraph induced by N(S) must again be HH.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if n_max > _CROSS_VALIDATE_ORDER:
        raise OrderTooLarge(f"cross validation is specified for orders up to {_CROSS_VALIDATE_ORDER}")
    start = time.perf_counter()
    failures = []
    checked = 0
    counts: dict[int, int] = {}
    positives: list[Graph] = []
    for n, reps in enumerate(_representatives(n_max), 1):
        counts[n] = len(reps)
        for masks in reps:
            g = Graph._of(masks)
            checked += 1
            direct = decide_xy(g, "H", "H")
            conditions = decide_hh_conditions(g)
            if direct.verdict != conditions.verdict:
                failures.append(
                    {
                        "clause": "decider-disagreement",
                        "order": n,
                        "edges": list(g.edges()),
                        "direct": direct.verdict,
                        "conditions": conditions.verdict,
                        "direct_counterexample": direct.counterexample,
                        "conditions_counterexample": conditions.counterexample,
                    }
                )
                continue
            if direct.verdict:
                positives.append(g)
                for s, cone in _coned_sets(g.masks, range(n), _CLOSURE_SET_MAX):
                    checked += 1
                    nbhd = _list_of(cone)
                    sub, _ = induced_subgraph(g, nbhd)
                    if not decide_xy(sub, "H", "H").verdict:
                        failures.append(
                            {
                                "clause": "neighborhood-closure",
                                "order": n,
                                "edges": list(g.edges()),
                                "subset": list(s),
                                "neighborhood": nbhd,
                            }
                        )
    return SuiteReport(
        suite="cross-validate-hh",
        instances=checked,
        failures=failures,
        elapsed=time.perf_counter() - start,
        extra={
            "classes_per_order": counts,
            "hh_positive_count": len(positives),
        },
    )
