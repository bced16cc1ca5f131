"""homoglab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload hh-census --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each pass is a fresh single-threaded
interpreter (perfbench/worker.py) so homoglab's process-global caches start
empty, as they do for every CLI invocation; passes run one at a time, back
to back, while another one still fits in --seconds (at least MIN_PASSES).  Every pass
checks its outputs after its clock stops.

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones; spans go to .perfbench-out/.  Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from inputs import WORKLOADS
from spans import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
RUN_DEADLINE_S = 150  # every pass of a run ends by then, or the run fails
OUT_DIR = ".perfbench-out"
# Items that count toward wall_s but not the item percentiles: the census's
# dozen symmetric graphs are there to move wall_s, and among its 220 items
# they put the p90 rank on the step between the bulk and the few costly
# classes, whose number moves with the seed's relabelling.
TAIL_PHASES = {"symmetric"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "morphisms.enumerate_graphs.busy_s": "s",
    "morphisms.enumerate_graphs.classes": "count",
    "morphisms.canonical_code.busy_s": "s",
    "morphisms.canonical_code.calls": "count",
    "homogeneity.decide_xy.bulk.busy_s": "s",
    "homogeneity.decide_xy.bulk.calls": "count",
    "homogeneity.decide_xy.symmetric.busy_s": "s",
    "homogeneity.decide_xy.symmetric.calls": "count",
    "homogeneity.decide_hh_conditions.bulk.busy_s": "s",
    "homogeneity.decide_hh_conditions.bulk.calls": "count",
    "homogeneity.decide_hh_conditions.symmetric.busy_s": "s",
    "homogeneity.decide_hh_conditions.symmetric.calls": "count",
    "homogeneity.hh_positive": "count",
    "graphs.directories.busy_s": "s",
    "graphs.directories.found": "count",
    "graphs.independence_number.busy_s": "s",
    "graphs.star_number.busy_s": "s",
    "verify.verify_directory_lemmas.busy_s": "s",
    "verify.verify_directory_lemmas.instances": "count",
    "formats.graph_from_graph6.busy_s": "s",
    "formats.graph_from_graph6.calls": "count",
    "presentations.extension_witness.busy_s": "s",
    "presentations.extension_witness.calls": "count",
    "presentations.extension_witness.found_share": "ratio",
    "presentations.oracle_calls": "count",
    "presentations.truncate.busy_s": "s",
    "presentations.spanning_rado.busy_s": "s",
    "cli.run.busy_s": "s",
    "cli.run.calls": "count",
    **{f"{m}.busy_share": "ratio" for m in MODULES},
    "trace.overhead_s": "s",
}


def percentile(samples, q: float, beyond: int = 10) -> float:
    """Nearest-rank q-quantile; refuses when fewer than ``beyond`` samples
    lie above the rank, so a reported tail always has that support."""
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < beyond:
        raise ValueError(
            f"{len(ordered)} samples leave {len(ordered) - rank} above the "
            f"{q:.0%} rank; need {beyond}"
        )
    return ordered[rank - 1]


def _read_proc(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    text = _read_proc("/proc/stat")
    if not text:
        return None
    fields = [int(x) for x in text.split("\n", 1)[0].split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _git_sha(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    head = _read_proc(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read_proc(os.path.join(root, ".git", ref))
    if sha:
        return sha.strip()
    packed = _read_proc(os.path.join(root, ".git", "packed-refs")) or ""
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


class PassFailed(RuntimeError):
    pass


def run_pass(root, env, workload, seed, trace, index, deadline) -> dict:
    """Run one worker; its set-up time runs from just before the process is
    started to the worker's ``ready`` stamp (both CLOCK_MONOTONIC), and is
    speed-corrected by the pass's median probe time."""
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-pass{index}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           "1" if trace else "0", str(index), spans_path]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {index} exceeded the time limit") from None
    if proc.returncode != 0 or not proc.stdout:
        raise PassFailed(f"pass {index} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_raw_s"] = result.pop("ready_monotonic") - start
    result["setup_s"] = result["setup_raw_s"] * result.pop("setup_scale")
    result["traced"] = trace
    return result


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Medians over passes of speed-corrected times.  Every item is the
    same in every pass, so the percentiles are taken over each item's
    median time across passes, leaving out the census's symmetric tail."""
    items = [
        statistics.median(ts)
        for phase, *ts in zip(passes[0]["phases"], *(p["latencies_s"] for p in passes))
        if phase not in TAIL_PHASES
    ]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_ms": percentile(items, 0.5) * 1000,
        "item_p90_ms": percentile(items, 0.9) * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    extra = {
        "sampling": f"{len(passes)} passes x {len(items)} items; "
                    f"percentiles over items of their median across passes",
        "wall_raw_median_s": statistics.median(p["wall_raw_s"] for p in passes),
        "setup_raw_median_s": statistics.median(p["setup_raw_s"] for p in passes),
    }
    return values, extra


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = {
        name: statistics.median(p["layers"].get(name, 0.0) for p in traced)
        for name in PER_LAYER if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain)
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "homoglab", "__init__.py")):
        print(f"error: no homoglab package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    os.makedirs(OUT_DIR, exist_ok=True)

    begin = time.monotonic()
    hard_deadline = begin + RUN_DEADLINE_S
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "vcpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "loadavg_start": (_read_proc("/proc/loadavg") or "").strip(),
    }
    jiffies_start = _cpu_jiffies()
    # Compile homoglab's bytecode once so no pass pays for it.
    subprocess.run([sys.executable, "-c", "import homoglab.cli"], cwd=root, env=env, check=True)

    passes: list[dict] = []
    last = 0.0  # how long the previous pass took, start to exit
    try:
        while True:
            now = time.monotonic()
            enough = len(passes) >= (2 * MIN_TRACED_PAIRS if args.trace else MIN_PASSES)
            if enough and now + last - begin > args.seconds:
                break
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(root, env, args.workload, args.seed, traced,
                                   len(passes), hard_deadline))
            last = time.monotonic() - now
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    jiffies_end = _cpu_jiffies()
    if jiffies_start and jiffies_end and jiffies_end[1] > jiffies_start[1]:
        steal = jiffies_end[0] - jiffies_start[0]
        meta["steal_jiffies"] = steal
        meta["steal_share"] = steal / (jiffies_end[1] - jiffies_start[1])
    scales = [p["scale_median"] for p in passes]
    meta["speed_scales"] = scales
    meta["noise_warning"] = (
        meta.get("steal_share", 0) > 0.02
        or float((meta["loadavg_start"] or "0").split()[0]) > (os.cpu_count() or 1)
        or max(scales) > 1.25 * min(scales)
    )

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = {k: v for p in passes for k, v in p["failures"].items()}
    values, extra = end_to_end(passes) if not args.trace else (per_layer(passes), {"sampling": "traced"})
    units = END_TO_END if not args.trace else PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    meta.update(extra, passes=len(passes), failed_share=failed / attempted,
                walls_s=[p["wall_s"] for p in passes], walls_raw_s=[p["wall_raw_s"] for p in passes],
                setups_s=[p["setup_s"] for p in passes],
                setups_raw_s=[p["setup_raw_s"] for p in passes])
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "failures": failures}, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {failed}/{attempted} ({extra['sampling']})")
    for key, msg in list(failures.items())[:10]:
        print(f"FAILED {key}: {msg}")
    if meta["noise_warning"]:
        print(f"WARNING noisy host: steal {meta.get('steal_share', 0):.1%}, "
              f"loadavg {meta['loadavg_start']}, speed factor "
              f"{min(scales):.2f}-{max(scales):.2f} across passes")
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
