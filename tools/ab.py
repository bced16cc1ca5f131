"""Same-host A/B of two revisions on one perfbench workload.

    python tools/ab.py PARENT CHANGE --workload countable-probe --pairs 6

Run from inside the git repository.  Both revisions are exported with
``git archive`` into two temporary directories whose paths have the same
length, since ``peak_rss_mb`` moves with the length of the checkout's path.
Each pair runs ``perfbench/run.py --seconds 5 --trace 0`` once in each
tree, the parent first in even pairs and the change first in odd ones,
with the seed cycling through 1-3.  For each end-to-end metric the report
gives both medians, their ratio (change over parent), the number of pairs
in which the change read lower and the distance between the quartiles of
the parent's runs, with ``level`` at the end of the row when the medians
are closer than that distance; then each side's failed operations.  When
``perfbench/`` differs between the two revisions, the change's harness is
copied over the parent's tree before the first pair, so both sides measure
the same thing, and a line before the table says so.
Set TMPDIR to choose where the trees go; they are removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

SEEDS = (1, 2, 3)


def export(rev: str, dest: str) -> None:
    """Write the files of rev into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                         stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run_once(tree: str, workload: str, seed: int) -> str:
    """The last line of standard output of one run.py call: its JSON result."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "5", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()[-1]


def harness_differs(parent: str, change: str) -> bool:
    """Whether ``perfbench/`` differs between the two revisions, from the
    exit code of ``git diff --quiet``: 0 same, 1 different."""
    code = subprocess.run(["git", "diff", "--quiet", parent, change, "--", "perfbench"]).returncode
    if code not in (0, 1):
        raise subprocess.CalledProcessError(code, "git diff")
    return code == 1


def use_harness(source: str, tree: str) -> None:
    """Replace the ``perfbench/`` of tree with a copy of source's."""
    shutil.rmtree(os.path.join(tree, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(source, "perfbench"), os.path.join(tree, "perfbench"))


def summarize(pairs: list[tuple[str, str]]) -> list[str]:
    """Report lines for (parent, change) pairs of run.py result lines."""
    parsed = [(json.loads(p), json.loads(c)) for p, c in pairs]
    lines = [f"{'metric':<14}{'parent':>12}{'change':>12}{'ratio':>8}  lower{'parent_iqr':>12}"]
    for name in parsed[0][0]["metrics"]:
        base = [p["metrics"][name]["value"] for p, _ in parsed]
        new = [c["metrics"][name]["value"] for _, c in parsed]
        mb, mc = statistics.median(base), statistics.median(new)
        ratio = f"{mc / mb:.3f}" if mb else "-"
        won = sum(c < b for b, c in zip(base, new))
        # The distance between the quartiles of the parent's runs: a move
        # of the median smaller than this is within the parent's spread.
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (0, 0, 0)
        iqr = q3 - q1
        level = "  level" if abs(mc - mb) < iqr else ""
        lines.append(f"{name:<14}{mb:>12.6g}{mc:>12.6g}{ratio:>8}  {won}/{len(parsed)}"
                     f"{iqr:>12.3g}{level}")
    for side, k in (("parent", 0), ("change", 1)):
        failed = sum(pair[k]["failed"] for pair in parsed)
        attempted = sum(pair[k]["attempted"] for pair in parsed)
        lines.append(f"{side} failed {failed}/{attempted}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)

    differs = harness_differs(args.parent, args.change)
    base = tempfile.mkdtemp(prefix="homoglab-ab-")
    trees = os.path.join(base, "a"), os.path.join(base, "b")
    try:
        for rev, tree in zip((args.parent, args.change), trees):
            export(rev, tree)
        if differs:
            use_harness(trees[1], trees[0])
        pairs = []
        for k in range(args.pairs):
            seed = SEEDS[k % len(SEEDS)]
            order = trees if k % 2 == 0 else trees[::-1]
            lines = {tree: run_once(tree, args.workload, seed) for tree in order}
            pairs.append((lines[trees[0]], lines[trees[1]]))
            print(f"pair {k + 1}/{args.pairs} done (seed {seed})", file=sys.stderr)
    finally:
        shutil.rmtree(base)
    print(f"{args.workload}: {args.parent} -> {args.change}, {args.pairs} pairs")
    if differs:
        print("perfbench/ differs between the revisions; both sides ran the change's harness")
    print("\n".join(summarize(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
