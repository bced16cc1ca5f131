"""Seed-to-inputs generation for the four workloads.

Pure standard library: nothing here imports homoglab, so the inputs a run
feeds the program depend only on the workload name and the seed.  Graphs
leave this module as plain data (order, edge list, graph6 text written by
an encoder independent of homoglab.formats).
"""

from __future__ import annotations

import random
from itertools import combinations

WORKLOADS = ("hh-census", "sparse-directories", "dense-lemmas", "countable-probe")

# hh-census: orders enumerated and decided per class, and the largest
# order that also runs the full 18-cell XY matrix.  Order 7 (1044 classes,
# about 8 s) and the matrix at order 5 (about 2 s) leave too few
# fresh-interpreter passes in a run for steady per-item medians.
CENSUS_ORDERS = range(1, 7)
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}  # OEIS A000088
MATRIX_MAX_ORDER = 4
X_KINDS = ("H", "M", "I")
Y_KINDS = ("H", "M", "E", "B", "A", "I")

# ((n, p), count) strata, the same in every pass.  Each graph has exactly
# round(p * n(n-1)/2) edges placed at random (G(n, m)), so a seed changes
# which edges, not how many: the edge count is what moves a graph's cost
# most.  Per-graph cost is still skewed (coefficient of variation 0.5-0.6),
# so each stratum has hundreds of graphs to keep p90 steady from seed to
# seed (400 graphs of G(40,m) still moved it by 0.10 of its median).
# Sparse graphs put the work in the clique search on their dense
# complements (directories, alpha; p = 0.2 left 11 % to verify), dense ones
# in the lemma clause loops.
SPARSE_STRATA = (((36, 0.17), 600),)
DENSE_STRATA = (((18, 0.85), 300),)

RADO_WINDOW = 10
RADO_MAX_SUPPORT = 4
WITNESS_BUDGET = 1 << 16
TRUNCATE_SPECS = ("rado_bit", "rs:3", "two_way_path", "lex:rado_bit,k_omega")
TRUNCATE_ORDER = 1024
SPANNING_FAMILIES = ("union_cliques_complement", "rado_bit")
SPANNING_ORDER = 12
RS3_SPANNING = (80, 1 << 14)
CLASSIFY_SPECS = (
    "k_omega",
    "null",
    "i_omega_k_omega",
    "complement_of:i_omega_k_omega",
    "rado_bit",
    "two_way_path",
    "rs:3",
    "union_cliques_complement",
)
CLASSIFY_BUDGET = 512


def rng_for(workload: str, seed: int, *parts) -> random.Random:
    """A generator keyed by workload, seed and any sub-keys (string seeding
    is stable across processes and Python versions)."""
    return random.Random("/".join(map(str, (workload, seed) + parts)))


def random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]


def random_edges_m(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Exactly round(p * n(n-1)/2) edges, uniformly at random."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return sorted(rng.sample(pairs, round(p * len(pairs))))


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel_edges(edges, perm) -> list[tuple[int, int]]:
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def graph6(n: int, edges) -> str:
    """graph6 text for an undirected simple graph (orders below 2^18)."""
    if n < 63:
        head = [n]
    else:
        head = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    present = set(map(tuple, map(sorted, edges)))
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = [
        sum(bit << (5 - k) for k, bit in enumerate(bits[s : s + 6]))
        for s in range(0, len(bits), 6)
    ]
    return "".join(chr(63 + d) for d in head + body)


# --- hh-census ----------------------------------------------------------------


def _complete(n, offset=0):
    return [(offset + i, offset + j) for i, j in combinations(range(n), 2)]


def _cycle(n):
    return [tuple(sorted((i, (i + 1) % n))) for i in range(n)]


def _copies(parts, edges_of):
    edges, offset = [], 0
    for size in parts:
        edges += [(offset + u, offset + v) for u, v in edges_of(size)]
        offset += size
    return edges


def _lex(outer_n, outer_edges, inner_n, inner_edges):
    """Lexicographic product G[H]: vertex (a, b) is a * inner_n + b."""
    outer = set(outer_edges)
    edges = []
    for a, b in combinations(range(outer_n * inner_n), 2):
        ga, ha = divmod(a, inner_n)
        gb, hb = divmod(b, inner_n)
        if (ga, gb) in outer or (ga == gb and (ha, hb) in inner_edges):
            edges.append((a, b))
    return edges


def _petersen():
    edges = []
    for i in range(5):
        edges += [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)]
    return [tuple(sorted(e)) for e in edges]


def _rook3():
    cells = [(r, c) for r in range(3) for c in range(3)]
    return [
        (a, b)
        for a, b in combinations(range(9), 2)
        if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
    ]


def symmetric_tail() -> dict[str, tuple[int, list[tuple[int, int]]]]:
    """Vertex-transitive graphs of order 8 to 10, in their natural labelling."""
    k2 = set(_complete(2))
    return {
        "K8": (8, _complete(8)),
        "I8": (8, []),
        "2K4": (8, _copies((4, 4), _complete)),
        "4K2": (8, _copies((2, 2, 2, 2), _complete)),
        "K4[I2]": (8, _lex(4, _complete(4), 2, set())),
        "C4[K2]": (8, _lex(4, _cycle(4), 2, k2)),
        "C8": (8, _cycle(8)),
        "Petersen": (10, _petersen()),
        "C5[K2]": (10, _lex(5, _cycle(5), 2, k2)),
        "K3xK3": (9, _rook3()),
        "3K3": (9, _copies((3, 3, 3), _complete)),
        "K3[I3]": (9, _lex(3, _complete(3), 3, set())),
    }


def census_inputs(seed: int) -> dict:
    """Relabelling permutations for every enumerated class, and the
    relabelled symmetric tail."""
    w = "hh-census"
    perms = {
        n: [permutation(rng_for(w, seed, n, i), n) for i in range(CLASS_COUNTS[n])]
        for n in CENSUS_ORDERS
    }
    tail = []
    for name, (n, edges) in symmetric_tail().items():
        perm = permutation(rng_for(w, seed, name), n)
        tail.append({"name": name, "n": n, "edges": relabel_edges(edges, perm)})
    return {"perms": perms, "tail": tail}


# --- sparse-directories and dense-lemmas --------------------------------------


def graph_inputs(workload: str, seed: int) -> list[dict]:
    strata = SPARSE_STRATA if workload == "sparse-directories" else DENSE_STRATA
    graphs = []
    for (n, p), count in strata:
        for k in range(count):
            edges = random_edges_m(rng_for(workload, seed, n, p, k), n, p)
            graphs.append({"n": n, "p": p, "edges": edges, "g6": graph6(n, edges)})
    rng_for(workload, seed, "order").shuffle(graphs)
    return graphs


# --- countable-probe -----------------------------------------------------------


def rado_requirements(seed: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (A, B) split of every support of size <= 4 in the first ten
    vertices, in a seeded order."""
    reqs = []
    for size in range(RADO_MAX_SUPPORT + 1):
        for support in combinations(range(RADO_WINDOW), size):
            for abits in range(1 << size):
                a = tuple(v for i, v in enumerate(support) if abits >> i & 1)
                b = tuple(v for i, v in enumerate(support) if not abits >> i & 1)
                reqs.append((a, b))
    rng_for("countable-probe", seed).shuffle(reqs)
    return reqs


def countable_inputs(seed: int) -> dict:
    rng = rng_for("countable-probe", seed, "parts")
    return {
        "requirements": rado_requirements(seed),
        "truncate": rng.sample(TRUNCATE_SPECS, len(TRUNCATE_SPECS)),
        "classify": rng.sample(CLASSIFY_SPECS, len(CLASSIFY_SPECS)),
    }


def make_inputs(workload: str, seed: int):
    if workload == "hh-census":
        return census_inputs(seed)
    if workload in ("sparse-directories", "dense-lemmas"):
        return graph_inputs(workload, seed)
    if workload == "countable-probe":
        return countable_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")
