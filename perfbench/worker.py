"""One pass of one workload in a fresh interpreter.

Usage (normally started by run.py, with PYTHONPATH reaching src/):

    python3 perfbench/worker.py WORKLOAD SEED TRACE PASS SPANS_PATH

Stamps ``ready_monotonic`` once homoglab is imported and the inputs are
prepared (the parent's set-up clock stops there), runs the timed phase
between two speed probes, checks the outputs, and prints one JSON line
with the pass's measurements, raw and speed-corrected (see speed.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time

import checks
import spans
import speed
import workloads  # imports homoglab
from spans import MODULES


def layer_metrics(rec, out: dict, workload: str, wall: float) -> dict[str, float]:
    """Per-layer values of one traced pass (span totals plus the counts the
    outputs carry)."""
    m = dict(rec.layer_totals())
    m.update(rec.counts)
    if workload == "hh-census":
        m["morphisms.enumerate_graphs.classes"] = sum(out["class_counts"].values())
        items = [it for _, it in out["bulk"] + out["tail"] if it is not None]
        m["homogeneity.hh_positive"] = sum(it["hh_direct"].verdict for it in items)
    elif workload == "countable-probe":
        results = [r for _, _, _, r in out["witnesses"] if r is not None]
        m["presentations.extension_witness.found_share"] = (
            sum(r.status == "found" for r in results) / max(1, len(out["witnesses"]))
        )
    else:
        items = [it for _, _, it in out["items"] if it is not None]
        m["graphs.directories.found"] = sum(len(it["directories"]) for it in items)
        m["verify.verify_directory_lemmas.instances"] = sum(it["report"].instances for it in items)
    for module in MODULES:
        m[f"{module}.busy_share"] = m.get(f"{module}.busy_s", 0.0) / wall
    return m


def main(argv: list[str]) -> int:
    workload, seed, trace, pass_index, spans_path = argv
    seed, trace, pass_index = int(seed), trace == "1", int(pass_index)
    rec = spans.Tracer() if trace else spans.Recorder()
    data = workloads.prepare(workload, seed, rec)
    ready = time.monotonic()

    rec.begin()
    out = workloads.run(workload, data, rec)
    rec.end()
    timed = rec.corrected()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if workload == "hh-census":
        bad = checks.check_census(out, checks.load_expected())
    elif workload == "countable-probe":
        bad = checks.check_countable(out, checks.load_expected())
    else:
        # The networkx cross-check runs on the first pass of a run only;
        # later passes repeat the same inputs.
        bad = checks.check_graph_items(out, seed if pass_index == 0 else None)
    bad.update(rec.errors)
    attempted = len(rec.latencies)
    result = {
        "ready_monotonic": ready,
        # Set-up ran just before the timed phase, so it is corrected by
        # the pass's median probe time.
        "setup_scale": speed.scale_of([end - start for start, end in rec.marks]),
        **timed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": min(attempted, len(bad)),
        "failures": dict(sorted(bad.items())[:10]),
    }
    if trace:
        result["layers"] = layer_metrics(rec, out, workload, timed["wall_s"])
        rec.write(spans_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
