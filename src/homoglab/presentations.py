"""Finitely presented countable graphs as pure adjacency oracles.

A presentation is an adjacency predicate on the naturals together with a
name and parameters.  Truncation to the first n naturals produces a finite
Graph, and all questions about the infinite object are answered through
bounded witness search over truncations, except where a family supplies a
finite refutation certificate (then absence is proven, not just observed).
A family may also describe itself in closed form: its truncation rows, or
its least extension witness.  Those hooks give the same answers as the
oracle scan, faster.

Built-in families:

    rado_bit                  i<j adjacent iff bit i of j is 1
    rs:n                      independent block a_0..a_{n-1} plus one
                              infinite clique split into n parts, part j
                              attached to every a_i except a_j; clique
                              vertices are enumerated round robin
    k_omega / null (i_omega)  complete / edgeless
    i_omega_k_omega           disjoint union of countably many infinite
                              cliques (lex product of null over k_omega)
    union_cliques_complement  complement of the disjoint union of cliques
                              of sizes 1, 2, 3, ...
    two_way_path              zig-zag enumeration 0, 1, -1, 2, -2, ...
    complement_of:<spec>      complement of another presentation
    lex:<spec>,<spec>         lexicographic product, diagonal enumeration
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from .errors import BadParams, BudgetExhausted
from .graphs import Graph, _clique_components, _tile, _union_mask, _view_rows
from .graphs import complement as graph_complement

__all__ = [
    "Presentation",
    "make_presentation",
    "parse_spec",
    "truncate",
    "WitnessResult",
    "extension_witness",
    "PropertyReport",
    "check_property_bounded",
    "Requirement",
    "ScheduleEntry",
    "RadoConstruction",
    "spanning_rado",
    "ClassificationReport",
    "classify_mb",
    "FAMILIES",
]


class Presentation:
    """A countable graph given by a symmetric irreflexive oracle on naturals.

    Two optional hooks answer from the family's description instead of the
    oracle, and must agree with it:

    rows(n)                     the n neighbourhood masks of the
                                truncation to n
    least_witness(a, b, budget) the least vertex <= budget adjacent to all
                                of the sorted tuple a and none of b, or
                                None; only for families where every
                                disjoint (a, b) has a witness
    """

    __slots__ = ("name", "params", "metadata", "_adj", "_refuter", "_rows", "_least_witness")

    def __init__(
        self,
        name: str,
        adjacency: Callable[[int, int], bool],
        params: tuple = (),
        metadata: dict | None = None,
        refuter: Callable[[tuple, tuple], str | None] | None = None,
        *,
        rows: Callable[[int], list[int]] | None = None,
        least_witness: Callable[[tuple, tuple, int], int | None] | None = None,
    ):
        self.name = name
        self.params = params
        self.metadata = metadata or {}
        self._adj = adjacency
        self._refuter = refuter
        self._rows = rows
        self._least_witness = least_witness

    def adjacent(self, i: int, j: int) -> bool:
        if i < 0 or j < 0:
            raise ValueError("presentation vertices are naturals")
        if i == j:
            return False
        if i > j:
            i, j = j, i
        return bool(self._adj(i, j))

    def refute(self, a: Iterable[int], b: Iterable[int]) -> str | None:
        """A finite certificate that no (a, b) witness exists, when known."""
        if self._refuter is None:
            return None
        return self._refuter(tuple(sorted(a)), tuple(sorted(b)))

    def spec_string(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(
            p.spec_string() if isinstance(p, Presentation) else str(p)
            for p in self.params
        )
        return f"{self.name}:{inner}"

    def describe(self) -> dict:
        return {"spec": self.spec_string(), "metadata": dict(self.metadata)}

    def __repr__(self) -> str:
        return f"Presentation({self.spec_string()!r})"


# Largest truncation order.  At 2^13, k_omega takes 0.5 s and 93 MB peak
# through its rows and 30 s and 27 MB through the oracle scan; at 2^14 the
# rows take 2.8 s and 322 MB (2 vCPU, CPython 3.11.7).  Each doubling
# quadruples the bits held and the oracle calls made.
_MAX_TRUNCATION = 1 << 13


def truncate(p: Presentation, n: int) -> Graph:
    """Induced graph on the first n enumerated vertices."""
    if n < 0:
        raise ValueError("truncation size must be nonnegative")
    if n > _MAX_TRUNCATION:
        raise BadParams(f"truncation order {n} exceeds the cap of {_MAX_TRUNCATION}")
    if p._rows is not None:
        rows = tuple(p._rows(n))
        if len(rows) != n:
            raise BadParams(f"{p.spec_string()}: rows hook gave {len(rows)} rows for order {n}")
        return Graph.from_masks(rows)
    return Graph(n, ((i, j) for j in range(n) for i in range(j) if p._adj(i, j)))


def _least_scan(
    adjacent: Callable[[int, int], bool], a, b, top: int, skip
) -> int | None:
    """The least v <= top outside skip adjacent to all of a and none of b."""
    for v in range(top + 1):
        if v not in skip and all(adjacent(v, x) for x in a) and not any(
            adjacent(v, y) for y in b
        ):
            return v
    return None


# --- family constructors ----------------------------------------------------


def _diag_pair(k: int) -> tuple[int, int]:
    # Cantor enumeration of N x N by diagonals; outer index is d - j.
    d = (math.isqrt(8 * k + 1) - 1) // 2
    j = k - d * (d + 1) // 2
    return d - j, j


def _rado_bit() -> Presentation:
    def adj(i: int, j: int) -> bool:
        # The larger vertex has the smaller one's bit set.
        return bool((i >> j if j < i else j >> i) & 1)

    def rows(n: int) -> list[int]:
        # Below v, the neighbours of v are the set bits of v itself.  Above
        # it, they are the j with bit v set: one run of 2^v ones in every
        # 2^(v+1), so only the v with 2^v < n have any.
        full = (1 << n) - 1
        out = list(range(n))
        for v in range(min(n, n.bit_length())):
            run = 1 << v
            out[v] |= _tile(((1 << run) - 1) << run, 2 * run, -(-n // (2 * run))) & full
        return out

    def least_witness(a: tuple, b: tuple, budget: int) -> int | None:
        marked = sorted(a + b)
        # Up to top, below the bit length of every marked vertex, a marked
        # x is adjacent to row x, or to its own bits when x > top.
        small = marked[-1].bit_length() if marked else 0
        top = min(small - 1, budget)
        low = rows(top + 1)
        cand = (1 << top + 1) - 1
        for x in a:
            cand &= low[x] if x <= top else x
        for y in b:
            cand &= ~(low[y] | 1 << y if y <= top else y)
        if cand:
            return (cand & -cand).bit_length() - 1
        # From there on no marked x above v has bit v set, so v is adjacent
        # to a marked x only when x < v and bit x of v is set.  In each gap
        # between marked vertices, the least candidate is amask plus the
        # least s clear of the marked bits below the gap; a gap with a
        # vertex of a above it has none.  A v <= budget has no bit at or
        # past the budget's length, so those positions are left out.
        width = budget.bit_length()
        if a and a[-1] >= width:
            return None
        amask = sum(1 << x for x in a)
        taken = 0
        lo = small
        for x in marked + [budget + 1]:
            if x >= lo:
                if not amask & ~taken:
                    s = max(lo - amask, 0)
                    while s & taken:
                        high = (s & taken).bit_length() - 1
                        s = ((s >> high) + 1) << high
                    if amask | s < min(x, budget + 1):
                        return amask | s
                lo = x + 1
                if lo > budget:
                    return None
            if x < width:
                taken |= 1 << x
        return None

    return Presentation(
        "rado_bit",
        adj,
        metadata={
            "declared": [
                "every finite vertex set has a cone",
                "every finite vertex set has a co-cone",
            ]
        },
        rows=rows,
        least_witness=least_witness,
    )


def _rs(n: int) -> Presentation:
    if n < 3:
        raise BadParams(f"rs family needs n >= 3, got {n}")

    def adj(i: int, j: int) -> bool:
        # i < j.  Vertices 0..n-1 are the independent block; vertex n+t is
        # the clique member in part t mod n.
        if j < n:
            return False
        if i < n:
            return (j - n) % n != i
        return True

    def refuter(a: tuple, b: tuple) -> str | None:
        aset, bset = set(a), set(b)
        if len(aset) >= n and set(range(n)) <= aset:
            return (
                "cone refuted: no vertex is adjacent to all of the "
                f"{n} independent block vertices"
            )
        b_parts = {(v - n) % n for v in bset if v >= n}
        if len(b_parts) >= 2:
            return "co-cone refuted: clique vertices from distinct parts share no non-neighbour"
        if len(b_parts) == 1:
            part = next(iter(b_parts))
            # The only candidate non-neighbour of a clique part is its block vertex.
            if part in aset or part in bset:
                return "co-cone refuted: the only candidate is excluded"
            if any(v < n for v in aset):
                return "co-cone refuted: the only candidate is a block vertex, non-adjacent to block vertices"
            if any(v >= n and (v - n) % n == part for v in aset):
                return "co-cone refuted: the only candidate misses part of the cone side"
            return None
        if not b_parts and len(bset) >= n and set(range(n)) <= bset:
            return "co-cone refuted: every candidate co-cone over the block is a block vertex already listed"
        return None

    def rows(size: int) -> list[int]:
        # Up to size n only block vertices are present, and they are
        # independent; so n >= size costs nothing, however large n is.
        if size <= n:
            return [0] * size
        full = (1 << size) - 1
        block = (1 << n) - 1
        clique = full ^ block
        # parts[t]: the clique vertices n + t, 2n + t, ... below size; the
        # parts of t >= size - n are empty.
        count = -(-size // n)
        parts = [(_tile(1, n, count) << (n + t)) & full for t in range(min(n, size - n))]
        out = [clique & ~part for part in parts] + [clique] * (n - len(parts))
        out += [(clique ^ 1 << v) | (block ^ 1 << (v - n) % n) for v in range(n, size)]
        return out

    return Presentation("rs", adj, params=(n,), refuter=refuter, rows=rows)


def _null() -> Presentation:
    def refuter(a: tuple, b: tuple) -> str | None:
        if a:
            return "cone refuted: the graph has no edges"
        return None

    return Presentation("null", lambda i, j: False, refuter=refuter, rows=lambda n: [0] * n)


def _k_omega() -> Presentation:
    def refuter(a: tuple, b: tuple) -> str | None:
        if b:
            return "co-cone refuted: the graph is complete"
        return None

    def rows(n: int) -> list[int]:
        full = (1 << n) - 1
        return [full ^ (1 << v) for v in range(n)]

    return Presentation("k_omega", lambda i, j: True, refuter=refuter, rows=rows)


def _two_way_path() -> Presentation:
    def z(k: int) -> int:
        if k == 0:
            return 0
        return (k + 1) // 2 if k % 2 else -(k // 2)

    def adj(i: int, j: int) -> bool:
        return abs(z(i) - z(j)) == 1

    def index_of(value: int) -> int:
        return 0 if value == 0 else (2 * value - 1 if value > 0 else -2 * value)

    def refuter(a: tuple, b: tuple) -> str | None:
        if len(a) >= 3:
            return "cone refuted: path vertices have degree 2"
        if not a:
            return None
        za = [z(v) for v in a]
        if len(a) == 2:
            if abs(za[0] - za[1]) != 2:
                return "cone refuted: only integer pairs at distance 2 share a neighbour"
            cands = [(za[0] + za[1]) // 2]
        else:
            cands = [za[0] - 1, za[0] + 1]
        excluded = set(a) | set(b)
        zb = [z(v) for v in b]
        for c in cands:
            if index_of(c) in excluded:
                continue
            if all(abs(c - w) != 1 for w in zb):
                return None
        return "cone refuted: every candidate neighbour is excluded or adjacent to the co-cone side"

    def rows(n: int) -> list[int]:
        out = [0] * n
        for k in range(n):
            for j in (index_of(z(k) - 1), index_of(z(k) + 1)):
                if j < n:
                    out[k] |= 1 << j
        return out

    return Presentation("two_way_path", adj, refuter=refuter, rows=rows)


def _group_of(k: int) -> int:
    # Groups of sizes 1, 2, 3, ...; group m covers [m(m+1)/2, (m+1)(m+2)/2).
    return (math.isqrt(8 * k + 1) - 1) // 2


def _union_cliques_complement() -> Presentation:
    def adj(i: int, j: int) -> bool:
        return _group_of(i) != _group_of(j)

    def refuter(a: tuple, b: tuple) -> str | None:
        groups = {_group_of(v) for v in b}
        if len(groups) >= 2:
            return "co-cone refuted: vertices of distinct groups have no common non-neighbour"
        if len(groups) == 1:
            g = next(iter(groups))
            if any(_group_of(v) == g for v in a):
                return "co-cone refuted: a cone-side vertex sits in the same group"
            # Group g is [start, start + g]: count the listed vertices in it
            # instead of building a set of its g + 1 members.
            start = g * (g + 1) // 2
            listed = {v for v in (*a, *b) if start <= v <= start + g}
            if len(listed) > g:
                return "co-cone refuted: the group is exhausted"
        return None

    def rows(n: int) -> list[int]:
        full = (1 << n) - 1
        out = []
        m = 0
        while len(out) < n:
            start = m * (m + 1) // 2
            row = full & ~(((1 << (m + 1)) - 1) << start)
            out += [row] * min(m + 1, n - start)
            m += 1
        return out

    return Presentation(
        "union_cliques_complement",
        adj,
        metadata={"declared": ["every finite vertex set has a cone"]},
        refuter=refuter,
        rows=rows,
    )


def _lex(p: Presentation, q: Presentation) -> Presentation:
    def adj(i: int, j: int) -> bool:
        o1, i1 = _diag_pair(i)
        o2, i2 = _diag_pair(j)
        if o1 != o2:
            return p.adjacent(o1, o2)
        return q.adjacent(i1, i2)

    def rows(n: int) -> list[int]:
        # members[o][i] is the index of vertex (o, i); inner indices of one
        # class increase with the index, so each class is a prefix of q.
        members: list[list[int]] = []
        for k in range(n):
            o, _ = _diag_pair(k)
            if o == len(members):
                members.append([])
            members[o].append(k)
        classes = [sum(1 << k for k in ks) for ks in members]
        outer = p._rows(len(members))
        inner = q._rows(max(map(len, members), default=0))
        out = [0] * n
        for o, ks in enumerate(members):
            across = _union_mask(classes, outer[o])
            for k, row in zip(ks, _view_rows(inner, range(len(ks)), ks)):
                out[k] = across | row
        return out

    hooked = p._rows is not None and q._rows is not None
    return Presentation("lex", adj, params=(p, q), rows=rows if hooked else None)


def _i_omega_k_omega() -> Presentation:
    base = _lex(_null(), _k_omega())

    def refuter(a: tuple, b: tuple) -> str | None:
        outers = {_diag_pair(v)[0] for v in a}
        if len(outers) >= 2:
            return "cone refuted: vertices of distinct cliques have no common neighbour"
        return None

    return Presentation("i_omega_k_omega", base._adj, refuter=refuter, rows=base._rows)


def _complement_of(p: Presentation) -> Presentation:
    def adj(i: int, j: int) -> bool:
        return not p.adjacent(i, j)

    def refuter(a: tuple, b: tuple) -> str | None:
        return p.refute(b, a)

    def rows(n: int) -> list[int]:
        full = (1 << n) - 1
        return [full ^ row ^ (1 << v) for v, row in enumerate(p._rows(n))]

    def least_witness(a: tuple, b: tuple, budget: int) -> int | None:
        return p._least_witness(b, a, budget)

    return Presentation(
        "complement_of",
        adj,
        params=(p,),
        refuter=refuter,
        rows=rows if p._rows is not None else None,
        least_witness=least_witness if p._least_witness is not None else None,
    )


# Family name -> (builder, the type of each parameter).
_FAMILY_TABLE: dict[str, tuple[Callable[..., Presentation], tuple[type, ...]]] = {
    "i_omega": (_null, ()),
    "i_omega_k_omega": (_i_omega_k_omega, ()),
    "k_omega": (_k_omega, ()),
    "null": (_null, ()),
    "rado_bit": (_rado_bit, ()),
    "two_way_path": (_two_way_path, ()),
    "union_cliques_complement": (_union_cliques_complement, ()),
    "rs": (_rs, (int,)),
    "complement_of": (_complement_of, (Presentation,)),
    "lex": (_lex, (Presentation, Presentation)),
}

FAMILIES = tuple(_FAMILY_TABLE)


def make_presentation(family: str, *params) -> Presentation:
    """Build a named family; params are ints or sub-presentations."""
    if family not in _FAMILY_TABLE:
        raise BadParams(f"unknown family {family!r}")
    build, types = _FAMILY_TABLE[family]
    if len(params) != len(types) or not all(map(isinstance, params, types)):
        want = ", ".join(t.__name__ for t in types)
        got = ", ".join(type(x).__name__ for x in params)
        raise BadParams(f"family {family!r} takes ({want}), got ({got})")
    return build(*params)


def _split_args(text: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise BadParams(f"unbalanced parentheses in {text!r}")
        current.append(ch)
    parts.append("".join(current))
    return parts


# Deepest nesting parse_spec accepts.  Each level adds frames to every
# adjacency and refuter call; 500 levels passed Python's recursion limit.
_MAX_SPEC_DEPTH = 64


def parse_spec(text: str) -> Presentation:
    """Parse 'family', 'family:args' or 'family(args)' with at most
    _MAX_SPEC_DEPTH levels of nesting."""
    def parse(text: str, depth: int) -> Presentation:
        text = text.strip()
        if not text:
            raise BadParams("empty presentation spec")
        if depth > _MAX_SPEC_DEPTH:
            raise BadParams(f"spec nests deeper than {_MAX_SPEC_DEPTH} levels")
        if ":" in text and (text.index(":") < text.find("(") or "(" not in text):
            name, _, rest = text.partition(":")
            args = _split_args(rest)
        elif text.endswith(")") and "(" in text:
            name, _, rest = text.partition("(")
            args = _split_args(rest[:-1])
        else:
            name, args = text, []
        parsed = []
        for arg in args:
            arg = arg.strip()
            if not arg:
                raise BadParams(f"empty argument in spec {text!r}")
            try:
                parsed.append(int(arg))
            except ValueError:
                parsed.append(parse(arg, depth + 1))
        return make_presentation(name.strip(), *parsed)

    return parse(text, 0)


# --- bounded witness search --------------------------------------------------


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of a bounded cone/co-cone search.

    status 'found' carries the least witness vertex; 'proven_absent' means a
    family certificate shows no witness exists at any index; 'exhausted'
    only means none exists up to the budget.
    """

    status: str
    vertex: int | None = None
    certificate: str | None = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "vertex": self.vertex,
            "certificate": self.certificate,
        }


def extension_witness(
    p: Presentation, a: Iterable[int], b: Iterable[int], budget: int
) -> WitnessResult:
    """Least vertex <= budget adjacent to all of a and none of b.

    The budget bounds the highest vertex index examined; a family's
    least_witness hook answers without the scan, under the same budget.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    aset = sorted(set(a))
    bset = sorted(set(b))
    if not set(aset).isdisjoint(bset):
        raise ValueError("cone and co-cone sides must be disjoint")
    if aset and aset[0] < 0 or bset and bset[0] < 0:
        raise ValueError("presentation vertices are naturals")
    cert = p.refute(aset, bset)
    if cert is not None:
        return WitnessResult("proven_absent", certificate=cert)
    if p._least_witness is not None:
        v = p._least_witness(tuple(aset), tuple(bset), budget)
        return WitnessResult("exhausted") if v is None else WitnessResult("found", vertex=v)
    v = _least_scan(p.adjacent, aset, bset, budget, set(aset) | set(bset))
    return WitnessResult("exhausted") if v is None else WitnessResult("found", vertex=v)


@dataclass(frozen=True)
class PropertyReport:
    """Bounded check that small vertex sets have cones (or co-cones)."""

    property: str
    set_size: int
    base: int
    budget: int
    checked: int
    failures: tuple[tuple[tuple[int, ...], str, str | None], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "set_size": self.set_size,
            "base": self.base,
            "budget": self.budget,
            "checked": self.checked,
            "passed": self.passed,
            "failures": [
                {"subset": list(s), "status": status, "certificate": cert}
                for s, status, cert in self.failures
            ],
        }


def check_property_bounded(
    p: Presentation, prop: str, set_size: int, base: int, budget: int
) -> PropertyReport:
    """Probe every nonempty subset of size <= set_size of the first base
    vertices for a cone ('cone') or co-cone ('cocone') within the budget."""
    if prop not in ("cone", "cocone"):
        raise ValueError("property must be 'cone' or 'cocone'")
    if not 0 <= set_size <= base <= budget:
        raise ValueError("need 0 <= set_size <= base <= budget")
    failures = []
    checked = 0
    for size in range(1, set_size + 1):
        for subset in combinations(range(base), size):
            checked += 1
            if prop == "cone":
                result = extension_witness(p, subset, (), budget)
            else:
                result = extension_witness(p, (), subset, budget)
            if result.status != "found":
                failures.append((subset, result.status, result.certificate))
    return PropertyReport(
        property=prop,
        set_size=set_size,
        base=base,
        budget=budget,
        checked=checked,
        failures=tuple(failures),
    )


# --- greedy spanning construction with the Rado extension schedule ----------


@dataclass(frozen=True)
class Requirement:
    cone_over: tuple[int, ...]
    cocone_over: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"cone_over": list(self.cone_over), "cocone_over": list(self.cocone_over)}


@dataclass(frozen=True)
class ScheduleEntry:
    requirement: Requirement
    witness: int

    def to_dict(self) -> dict:
        return {"requirement": self.requirement.to_dict(), "witness": self.witness}


@dataclass(frozen=True)
class RadoConstruction:
    """A spanning subgraph selection satisfying scheduled (A, B) requirements.

    selected_edges is a subset of the host edges over the placed vertices;
    each scheduled requirement's witness is selected-adjacent to all of its
    A side and (because only witness-to-A edges are ever added) to none of
    its B side.
    """

    host_spec: str
    target: int
    budget: int
    placed: tuple[int, ...]
    selected_edges: tuple[tuple[int, int], ...]
    schedule: tuple[ScheduleEntry, ...]

    def verify(self, p: Presentation) -> list[str]:
        """Replay every invariant; an empty list means the construction holds."""
        problems = []
        placed_set = set(self.placed)
        if len(placed_set) != len(self.placed):
            problems.append("placed vertices are not distinct")
        if not set(range(self.target)) <= placed_set:
            problems.append(f"vertices below {self.target} are not all placed")
        edge_set = set()
        for u, v in self.selected_edges:
            if u not in placed_set or v not in placed_set:
                problems.append(f"selected edge ({u},{v}) touches an unplaced vertex")
            if not p.adjacent(u, v):
                problems.append(f"selected edge ({u},{v}) is not a host edge")
            edge_set.add((min(u, v), max(u, v)))
        for entry in self.schedule:
            w = entry.witness
            if w not in placed_set:
                problems.append(f"witness {w} was never placed")
            for x in entry.requirement.cone_over:
                if (min(w, x), max(w, x)) not in edge_set:
                    problems.append(
                        f"witness {w} is not selected-adjacent to {x} in {entry.requirement}"
                    )
            for y in entry.requirement.cocone_over:
                if (min(w, y), max(w, y)) in edge_set:
                    problems.append(
                        f"witness {w} is selected-adjacent to {y} in {entry.requirement}"
                    )
        return problems

    def to_dict(self) -> dict:
        return {
            "host": self.host_spec,
            "target": self.target,
            "budget": self.budget,
            "placed": list(self.placed),
            "selected_edges": [list(e) for e in self.selected_edges],
            "schedule": [s.to_dict() for s in self.schedule],
        }


# Largest support |A u B| of a scheduled requirement.
_MAX_REQUIREMENT_SIZE = 4


def _requirement_batch(placed: list[int], t: int) -> list[Requirement]:
    """All requirements whose latest member is placed[t], by size then lex."""
    newest = placed[t]
    older = placed[:t]
    batch = []
    for size in range(1, _MAX_REQUIREMENT_SIZE + 1):
        for rest in combinations(sorted(older), size - 1):
            support = tuple(sorted(rest + (newest,)))
            for abits in range(1 << size):
                aside = tuple(v for i, v in enumerate(support) if abits >> i & 1)
                bside = tuple(v for i, v in enumerate(support) if not abits >> i & 1)
                batch.append(Requirement(aside, bside))
    batch.sort(key=lambda r: (len(r.cone_over) + len(r.cocone_over), r.cone_over, r.cocone_over))
    return batch


def _requirement_stream(placed: list[int]):
    """The batches of placed[0], placed[1], ... in turn.

    A batch reads only placed[:t + 1] and placed only grows, so a batch is
    the same whenever it is built.
    """
    t = 0
    while t < len(placed):
        yield from _requirement_batch(placed, t)
        t += 1


def spanning_rado(p: Presentation, n: int, budget: int) -> RadoConstruction:
    """Greedy spanning selection: place every host vertex below n while
    serving (A, B) requirements over the placed vertices in a dovetailed
    order.

    Requirement witnesses are fresh host cones over A: the least unplaced
    vertex adjacent to all of A.  Only witness-to-A edges enter the
    selection, so B sides hold automatically and permanently.  Raises
    BadParams for negative n or budget, and BudgetExhausted naming the
    first requirement whose cone search is refuted or runs out of budget.
    """
    if n < 0:
        raise BadParams(f"n must be non-negative, got {n}")
    if budget < 0:
        raise BadParams(f"budget must be non-negative, got {budget}")
    placed: list[int] = []
    placed_set: set[int] = set()
    selected: list[tuple[int, int]] = []
    schedule: list[ScheduleEntry] = []
    # Each placed vertex adds at least 2 requirements (its size-1 batch)
    # and each step consumes 1, so next() never finds the stream empty.
    requirements = _requirement_stream(placed)
    for v in range(n):
        if v in placed_set:
            continue
        placed.append(v)
        placed_set.add(v)
        req = next(requirements)
        cert = p.refute(req.cone_over, ())
        if cert is not None:
            raise BudgetExhausted(req, cert)
        # Freshness is enforced by exclusion rather than by augmenting A
        # with previously found cones: the least cone over an augmented set
        # outgrows every budget on bit-style presentations.  A is placed, so
        # skipping the placed vertices skips A too.
        w = _least_scan(p.adjacent, req.cone_over, (), budget, placed_set)
        if w is None:
            raise BudgetExhausted(
                req, f"no fresh cone over {req.cone_over} within budget {budget}"
            )
        placed.append(w)
        placed_set.add(w)
        selected.extend((min(w, x), max(w, x)) for x in req.cone_over)
        schedule.append(ScheduleEntry(req, w))

    return RadoConstruction(
        host_spec=p.spec_string(),
        target=n,
        budget=budget,
        placed=tuple(placed),
        selected_edges=tuple(sorted(set(selected))),
        schedule=tuple(schedule),
    )


# --- bimorphism-class probe ---------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    """Evidence-graded verdict; never a proof about the infinite object."""

    verdict: str
    budget: int
    evidence: dict

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "budget": self.budget, "evidence": self.evidence}


def _ladder(p: Presentation, budget: int) -> dict[int, Graph]:
    """The truncations classify_mb compares, by increasing order.

    Truncations are prefix-closed, so every rung is sliced from the one at
    the budget instead of truncated again.
    """
    top = truncate(p, budget)
    rungs = sorted({max(8, budget // 8), budget // 4, budget // 2})
    sliced = {s: Graph._of(tuple(m & ((1 << s) - 1) for m in top.masks[:s])) for s in rungs}
    return {**sliced, budget: top}


def classify_mb(p: Presentation, budget: int) -> ClassificationReport:
    """Probe truncations for the bimorphism class of the presentation.

    Checks, in order: complete/edgeless; growing disjoint unions of cliques
    (and the complement form); stabilizing degrees or codegrees, which
    contradict the infinite degree and codegree every such graph must have;
    finally bounded cone and co-cone probes on the presentation and its
    complement.  Everything is evidence at the stated budget.
    """
    if budget < 32:
        raise ValueError("classification needs a budget of at least 32")
    truncations = _ladder(p, budget)
    ladder = list(truncations)
    top = truncations[budget]
    evidence: dict = {"ladder": ladder}

    edges = top.edge_count()
    if edges == budget * (budget - 1) // 2:
        evidence["complete_at"] = budget
        return ClassificationReport("k_omega", budget, evidence)
    if edges == 0:
        evidence["edgeless_at"] = budget
        return ClassificationReport("null", budget, evidence)

    def growing_cliques(graphs: list[Graph]) -> dict | None:
        counts = []
        maxima = []
        by_vertex = []
        for g in graphs:
            comps = _clique_components(g)
            if comps is None:
                return None
            # Each vertex's component is its closed neighbourhood.
            sizes = [row.bit_count() + 1 for row in g.masks]
            counts.append(len(comps))
            maxima.append(max(sizes))
            by_vertex.append(sizes)
        if not all(c2 > c1 for c1, c2 in zip(counts, counts[1:])):
            return None
        # Every clique already present must keep growing; cliques of fixed
        # size are evidence for a different shape entirely.
        for earlier, later in zip(by_vertex, by_vertex[1:]):
            if any(later[v] <= earlier[v] for v in range(len(earlier))):
                return None
        return {"component_counts": counts, "max_component_sizes": maxima}

    direct = growing_cliques([truncations[s] for s in ladder])
    if direct is not None:
        evidence["clique_components"] = direct
        return ClassificationReport("i_omega_of_k_omega", budget, evidence)
    complemented = growing_cliques([graph_complement(truncations[s]) for s in ladder])
    if complemented is not None:
        evidence["complement_clique_components"] = complemented
        return ClassificationReport("k_omega_of_i_omega", budget, evidence)

    # Stabilization must persist over the last three rungs: a single equal
    # pair can be a resonance between the rung spacing and the family (the
    # complement of the bit graph repeats a degree across one doubling).
    probe_vertices = range(min(8, ladder[0]))
    tail = ladder[-3:]
    for v in probe_vertices:
        degrees = [truncations[s].degree(v) for s in tail]
        if len(set(degrees)) == 1:
            evidence["stabilized"] = {"vertex": v, "kind": "degree", "value": degrees[-1]}
            return ClassificationReport("not_mb_evidence", budget, evidence)
        codegrees = [s - 1 - d for s, d in zip(tail, degrees)]
        if len(set(codegrees)) == 1:
            evidence["stabilized"] = {
                "vertex": v,
                "kind": "codegree",
                "value": codegrees[-1],
            }
            return ClassificationReport("not_mb_evidence", budget, evidence)

    cone_probe = check_property_bounded(p, "cone", 3, 8, budget)
    cocone_probe = check_property_bounded(p, "cocone", 3, 8, budget)
    evidence["cone_probe"] = cone_probe.to_dict()
    evidence["cocone_probe"] = cocone_probe.to_dict()
    if cone_probe.passed and cocone_probe.passed:
        return ClassificationReport("rado", budget, evidence)
    return ClassificationReport("unknown", budget, evidence)
