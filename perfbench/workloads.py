"""The timed phase of each workload, against homoglab's public API.

``prepare(workload, seed, rec)`` is set-up: it turns the seeded inputs into
the values a caller would hold before asking anything (graph6 text, Graph
values, presentations).  ``run(workload, prepared, rec)`` is the timed
phase; it returns the raw outputs, which ``checks`` inspects after the
clock has stopped.  Every call into the program goes through ``rec`` so a
traced pass gets one span per call.
"""

from __future__ import annotations

import contextlib
import io

import homoglab
from homoglab import cli
from homoglab.errors import BudgetExhausted
from homoglab.presentations import Presentation

import inputs


def prepare(workload: str, seed: int, rec) -> dict:
    data = inputs.make_inputs(workload, seed)
    if workload == "hh-census":
        data["tail_graphs"] = [
            (t["name"], homoglab.Graph(t["n"], t["edges"])) for t in data["tail"]
        ]
    elif workload == "countable-probe":
        make = homoglab.make_presentation
        data["rado"] = _counted(make("rado_bit"), rec)
        data["truncate_p"] = [
            (spec, _counted(homoglab.parse_spec(spec), rec)) for spec in data["truncate"]
        ]
        data["spanning_p"] = [(fam, _counted(make(fam), rec)) for fam in inputs.SPANNING_FAMILIES]
        data["rs3"] = _counted(make("rs", 3), rec)
    return data


def _counted(p: Presentation, rec) -> Presentation:
    """In a traced pass, the same presentation with its oracle counted into
    ``presentations.oracle_calls``; built through the public constructor."""
    if not rec.tracing:
        return p

    def adjacency(i: int, j: int) -> bool:
        rec.counts["presentations.oracle_calls"] += 1
        return p.adjacent(i, j)

    return Presentation(p.name, adjacency, p.params, p.metadata, p.refute)


def run(workload: str, data: dict, rec) -> dict:
    if workload == "hh-census":
        return _census(data, rec)
    if workload == "countable-probe":
        return _countable(data, rec)
    return _graph_pipeline(data, rec)


# --- hh-census -----------------------------------------------------------------


def _census_class(rec, g, order):
    decide = homoglab.decide_xy
    out = {
        "order": order,
        "graph": g,
        "hh_direct": rec.call("homogeneity.decide_xy", decide, g, "H", "H"),
        "hh_conditions": rec.call(
            "homogeneity.decide_hh_conditions", homoglab.decide_hh_conditions, g
        ),
        "matrix": {},
    }
    if order <= inputs.MATRIX_MAX_ORDER:
        for x in inputs.X_KINDS:
            for y in inputs.Y_KINDS:
                if (x, y) == ("H", "H"):
                    out["matrix"][x, y] = out["hh_direct"]
                else:
                    out["matrix"][x, y] = rec.call("homogeneity.decide_xy", decide, g, x, y)
    return out


def _census_tail(rec, name, g):
    return {
        "name": name,
        "graph": g,
        "code": rec.call("morphisms.canonical_code", homoglab.canonical_code, g),
        "hh_direct": rec.call("homogeneity.decide_xy", homoglab.decide_xy, g, "H", "H"),
        "hh_conditions": rec.call(
            "homogeneity.decide_hh_conditions", homoglab.decide_hh_conditions, g
        ),
    }


def _census(data, rec) -> dict:
    classes = {}
    with rec.phase("enumerate"):
        for n in inputs.CENSUS_ORDERS:
            classes[n] = rec.call(
                "morphisms.enumerate_graphs", lambda n: list(homoglab.enumerate_graphs(n)), n
            )
    bulk = []
    for n in inputs.CENSUS_ORDERS:
        perms = data["perms"][n]
        for i, rep in enumerate(classes[n]):
            g = rep.relabel(perms[i]) if i < len(perms) else rep
            key = f"class{n}.{i}"
            bulk.append((key, rec.item("bulk", key, _census_class, rec, g, n)))
    tail = []
    for name, g in data["tail_graphs"]:
        tail.append((name, rec.item("symmetric", name, _census_tail, rec, name, g)))
    return {"class_counts": {n: len(c) for n, c in classes.items()}, "bulk": bulk, "tail": tail}


# --- sparse-directories and dense-lemmas ------------------------------------------


def _pipeline(rec, text):
    g = rec.call("formats.graph_from_graph6", homoglab.graph_from_graph6, text)
    alpha, witness = rec.call("graphs.independence_number", homoglab.independence_number, g)
    sigma, sigma_witness = rec.call("graphs.star_number", homoglab.star_number, g)
    dirs = rec.call("graphs.directories", homoglab.directories, g)
    report = rec.call(
        "verify.verify_directory_lemmas", homoglab.verify_directory_lemmas, g, witness
    )
    return {
        "graph": g,
        "alpha": alpha,
        "alpha_witness": witness,
        "sigma": sigma,
        "sigma_witness": sigma_witness,
        "directories": dirs,
        "report": report,
    }


def _graph_pipeline(data, rec) -> dict:
    items = []
    for idx, spec in enumerate(data):
        key = f"g{idx}"
        items.append((key, spec, rec.item("graph", key, _pipeline, rec, spec["g6"])))
    return {"items": items}


# --- countable-probe ----------------------------------------------------------------


def _classify(rec, spec):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rec.call("cli.run", cli.run, ["classify", spec, "--budget", str(inputs.CLASSIFY_BUDGET)])
    return code, out.getvalue()


def _rs3_spanning(rec, p):
    n, budget = inputs.RS3_SPANNING
    try:
        rec.call("presentations.spanning_rado", homoglab.spanning_rado, p, n, budget)
    except BudgetExhausted as exc:
        return exc
    return None


def _countable(data, rec) -> dict:
    witness = homoglab.extension_witness
    witnesses = []
    for a, b in data["requirements"]:
        key = f"req{a}|{b}"
        result = rec.item(
            "witness", key, rec.call, "presentations.extension_witness",
            witness, data["rado"], a, b, inputs.WITNESS_BUDGET,
        )
        witnesses.append((key, a, b, result))
    truncations = []
    for spec, p in data["truncate_p"]:
        key = f"truncate:{spec}"
        g = rec.item("truncate", key, rec.call, "presentations.truncate",
                     homoglab.truncate, p, inputs.TRUNCATE_ORDER)
        truncations.append((key, spec, g))
    spans = []
    for fam, p in data["spanning_p"]:
        key = f"spanning:{fam}"
        cons = rec.item("spanning", key, rec.call, "presentations.spanning_rado",
                        homoglab.spanning_rado, p, inputs.SPANNING_ORDER, inputs.WITNESS_BUDGET)
        spans.append((key, fam, cons))
    rs3 = rec.item("spanning", "spanning:rs:3", _rs3_spanning, rec, data["rs3"])
    classified = []
    for spec in data["classify"]:
        key = f"classify:{spec}"
        classified.append((key, spec, rec.item("classify", key, _classify, rec, spec)))
    return {
        "witnesses": witnesses,
        "truncations": truncations,
        "spanning": spans,
        "rs3": rs3,
        "classify": classified,
    }
