"""Output checks, run after the timed phase.

Each check replays a result through a route independent of the code that
produced it: brute-force enumeration, direct adjacency tests, networkx
(when importable), or a table recorded once from the seed commit
(``expected.json``) for results that depend neither on the seed nor on
which class representatives enumeration returns.  Every function returns
``{item_key: message}`` for the items whose outputs are wrong.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations, permutations, product

import inputs

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
# Listing every maximal clique of the complement is cheap only for small
# graphs, so the complete directory list is cross-checked up to this order.
NX_DIRECTORY_MAX_ORDER = 24


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _adj_of(g) -> list[set[int]]:
    return adjacency(g.n, g.edges())


def _has_cone(adj, vs) -> bool:
    return any(all(u in adj[w] for u in vs) for w in range(len(adj)))


def _isomorphic(adj, xs, ys) -> bool:
    """Brute-force isomorphism of the subgraphs induced on xs and ys."""
    if len(xs) != len(ys):
        return False
    k = len(xs)
    deg = lambda vs: sorted(sum(v in adj[u] for v in vs) for u in vs)
    if deg(xs) != deg(ys):
        return False
    return any(
        all((xs[j] in adj[xs[i]]) == (ys[pi[j]] in adj[ys[pi[i]]]) for i, j in combinations(range(k), 2))
        for pi in permutations(range(k))
    )


def _is_local(adj, pairs, x) -> bool:
    """pairs is a partial map of a local x-morphism (x in H, M, I)."""
    images = [t for _, t in pairs]
    if x in ("M", "I") and len(set(images)) != len(images):
        return False
    for (u, s), (v, t) in combinations(pairs, 2):
        if v in adj[u] and t not in adj[s]:
            return False
        if x == "I" and v not in adj[u] and t in adj[s]:
            return False
    return True


def _endomorphisms(adj, y):
    """Every total endomorphism of kind y; on a finite graph every kind but
    H is an automorphism."""
    n = len(adj)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    maps = permutations(range(n)) if y != "H" else product(range(n), repeat=n)
    for f in maps:
        if all(f[v] in adj[f[u]] for u, v in edges) and (
            y == "H" or sum(f[v] in adj[f[u]] for u, v in combinations(range(n), 2)) == len(edges)
        ):
            yield f


def replay_counterexample(adj, report, x="H", y="H", endos=None) -> str | None:
    """None when the report's counterexample proves its negative verdict.

    With ``endos`` (every endomorphism of kind y) the map must extend to
    none of them; without, only the one-point HH argument is available."""
    ce = report.counterexample
    if ce is None:
        return "negative verdict without counterexample"
    if "condition" in ce:
        return _replay_conditions(adj, ce)
    pairs = [tuple(p) for p in ce["map"]]
    if not _is_local(adj, pairs, x):
        return "counterexample map is not a local morphism"
    if endos is not None:
        if any(all(f[u] == t for u, t in pairs) for f in endos):
            return "an endomorphism extends the counterexample map"
        return None
    if (x, y) != ("H", "H"):
        return f"no independent replay for ({x},{y}) at this order"
    # One-point argument: a cone over the domain must map to a cone over
    # the image, and the image has none.
    v = ce["unextendable_vertex"]
    domain = [u for u, _ in pairs]
    if v in domain or not all(u in adj[v] for u in domain):
        return "unextendable vertex is not a cone over the domain"
    if _has_cone(adj, [t for _, t in pairs]):
        return "image of the domain has a cone"
    return None


def _replay_conditions(adj, ce) -> str | None:
    if ce["condition"] == 1:
        coned, coneless = list(ce["coned_embedding"]), list(ce["coneless_embedding"])
        z = ce["cone_vertex"]
        if z in coned or not all(u in adj[z] for u in coned):
            return "cone vertex is not a cone over the coned embedding"
        if _has_cone(adj, coneless):
            return "cone-free embedding has a cone"
        if not _isomorphic(adj, coned, coneless):
            return "condition-1 embeddings are not isomorphic"
        return None
    upper, lower, surj = list(ce["upper_embedding"]), list(ce["lower_embedding"]), ce["surjection"]
    if not _has_cone(adj, upper) or _has_cone(adj, lower):
        return "condition-2 embeddings have the wrong cone status"
    if sorted(set(surj)) != list(range(len(lower))) or len(surj) != len(upper):
        return "condition-2 map is not a surjection"
    for i, j in combinations(range(len(upper)), 2):
        if upper[j] in adj[upper[i]] and lower[surj[j]] not in adj[lower[surj[i]]]:
            return "condition-2 map is not a homomorphism"
    return None


def check_census(out, expected) -> dict[str, str]:
    bad: dict[str, str] = {}
    for n, count in out["class_counts"].items():
        if count != inputs.CLASS_COUNTS[n]:
            bad[f"enumerate{n}"] = f"order {n}: {count} classes, expected {inputs.CLASS_COUNTS[n]}"
    positives: dict[str, int] = {}
    for key, item in out["bulk"]:
        if item is None:
            continue
        msg = _check_hh_pair(item)
        adj = _adj_of(item["graph"])
        endos = {}  # "H" -> all endomorphisms, "A" -> automorphisms
        for (x, y), rep in item["matrix"].items():
            cell = f"{item['order']}:{x}{y}"
            positives[cell] = positives.get(cell, 0) + rep.verdict
            if msg is None and not rep.verdict:
                kind = "H" if y == "H" else "A"
                if kind not in endos:
                    endos[kind] = list(_endomorphisms(adj, kind))
                msg = replay_counterexample(adj, rep, x, y, endos[kind])
                msg = msg and f"({x},{y}) {msg}"
        positives[f"{item['order']}:hh"] = positives.get(f"{item['order']}:hh", 0) + item["hh_direct"].verdict
        if msg:
            bad[key] = msg
    for cell, count in expected["census_positives"].items():
        if positives.get(cell, 0) != count:
            bad[f"positives:{cell}"] = f"{positives.get(cell, 0)} positive verdicts, expected {count}"
    for key, item in out["tail"]:
        if item is None:
            continue
        want = expected["tail"][key]
        msg = _check_hh_pair(item)
        if msg is None and item["hh_direct"].verdict != want["hh"]:
            msg = f"HH verdict {item['hh_direct'].verdict}, expected {want['hh']}"
        if msg is None and item["code"].hex() != want["code"]:
            msg = "canonical code differs from the recorded one"
        if msg:
            bad[key] = msg
    return bad


def _check_hh_pair(item) -> str | None:
    direct, cond = item["hh_direct"], item["hh_conditions"]
    if direct.verdict != cond.verdict:
        return f"HH deciders disagree: direct {direct.verdict}, conditions {cond.verdict}"
    if not direct.verdict:
        adj = _adj_of(item["graph"])
        return replay_counterexample(adj, direct) or replay_counterexample(adj, cond)
    return None


def _is_independent(adj, vs) -> bool:
    return all(v not in adj[u] for u, v in combinations(vs, 2))


def check_graph_items(out, sample_seed: int | None) -> dict[str, str]:
    """Independent checks of every pipeline item; with networkx importable,
    alpha on a seeded sample of items against the complement's maximum
    clique, and on small graphs the whole directory list against the
    complement's maximum cliques."""
    bad: dict[str, str] = {}
    for key, spec, item in out["items"]:
        if item is not None:
            msg = _check_graph_item(spec, item)
            if msg:
                bad[key] = msg
    if sample_seed is not None:
        try:
            import networkx as nx
        except ImportError:
            nx = None
        if nx is not None:
            sample = random.Random(sample_seed).sample(out["items"], min(8, len(out["items"])))
            for key, spec, item in sample:
                if item is None or key in bad:
                    continue
                g = nx.Graph()
                g.add_nodes_from(range(spec["n"]))
                g.add_edges_from(spec["edges"])
                co = nx.complement(g)
                _, size = nx.max_weight_clique(co, weight=None)
                if size != item["alpha"]:
                    bad[key] = f"alpha {item['alpha']} but networkx finds {size}"
                elif spec["n"] <= NX_DIRECTORY_MAX_ORDER:
                    want = sorted(sorted(c) for c in nx.find_cliques(co) if len(c) == size)
                    if [list(d) for d in item["directories"]] != want:
                        bad[key] = "directories differ from networkx's maximum cliques of the complement"
    return bad


def _check_graph_item(spec, item) -> str | None:
    n = spec["n"]
    adj = adjacency(n, spec["edges"])
    g = item["graph"]
    if g.n != n or sorted(g.edges()) != sorted(map(tuple, spec["edges"])):
        return "graph6 decoding changed the graph"
    alpha, witness = item["alpha"], list(item["alpha_witness"])
    if len(witness) != alpha or not _is_independent(adj, witness):
        return "alpha witness is not an independent set of size alpha"
    dirs = [list(d) for d in item["directories"]]
    if not dirs or dirs[0] != witness:
        return "first directory is not the alpha witness"
    for prev, cur in zip(dirs, dirs[1:]):
        if not prev < cur:
            return "directories are not strictly lex-ascending"
    for d in dirs:
        if len(d) != alpha or d != sorted(set(d)) or not _is_independent(adj, d):
            return f"directory {d} is not an independent set of size alpha"
        covered = set(d).union(*(adj[v] for v in d))
        if len(covered) != n:
            return f"directory {d} does not dominate"
    sigma, (v, sw) = item["sigma"], item["sigma_witness"]
    if len(sw) != sigma or not set(sw) <= adj[v] or not _is_independent(adj, sw):
        return "sigma witness is not an independent subset of N(v) of size sigma"
    report = item["report"]
    if report.failures or report.instances < 1:
        return f"directory lemmas: {len(report.failures)} failures over {report.instances} instances"
    return None


def check_countable(out, expected) -> dict[str, str]:
    """Witnesses and constructions replay through fresh presentations."""
    from homoglab import make_presentation
    from homoglab.errors import BudgetExhausted

    rado = make_presentation("rado_bit")
    bad: dict[str, str] = {}
    for key, a, b, res in out["witnesses"]:
        if res is None:
            continue
        if res.status != "found":
            bad[key] = f"rado_bit requirement not found: {res.status}"
            continue
        v = res.vertex
        if v in a or v in b or not all(rado.adjacent(v, x) for x in a) or any(
            rado.adjacent(v, y) for y in b
        ):
            bad[key] = f"witness {v} does not replay"
    for key, spec, g in out["truncations"]:
        if g is None:
            continue
        if g.n != inputs.TRUNCATE_ORDER or g.edge_count() != expected["truncate_edges"][spec]:
            bad[key] = f"truncation has {g.n} vertices and {g.edge_count()} edges"
    for key, fam, cons in out["spanning"]:
        if cons is None:
            continue
        problems = cons.verify(make_presentation(fam))
        if problems or len(cons.placed) < inputs.SPANNING_ORDER:
            bad[key] = f"spanning construction: {problems[:1]} placed {len(cons.placed)}"
    exc = out["rs3"]
    if not isinstance(exc, BudgetExhausted) or not {0, 1, 2} <= set(exc.requirement.cone_over):
        bad["spanning:rs:3"] = f"rs:3 spanning did not exhaust at a block cone: {exc!r}"
    for key, spec, result in out["classify"]:
        if result is None:
            continue
        code, text = result
        try:
            verdict = json.loads(text)["payload"]["classification"]["verdict"]
        except (ValueError, KeyError, TypeError):
            verdict = None
        if code != 0 or verdict != expected["classify"][spec]:
            bad[key] = f"classify exit {code}, verdict {verdict!r}"
    return bad
