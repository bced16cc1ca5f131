"""Command line front end.

Subcommands: analyze, check, generate, witness, rado-span, classify,
verify.  Every command prints one JSON report to stdout.  Exit codes:
0 verdict computed, 1 suite failures or a negative verdict under
--expect yes, 2 invalid input, 3 budget exhausted, 4 internal error: an
invariant failure, a search deeper than Python's recursion limit, or
exhausted memory.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import BadParams, BudgetExhausted, HomoglabError, InternalInvariant
from .formats import FORMATS, read_graph, write_graph
from .graphs import analyze, independence_number
from .homogeneity import (
    _ORDER_LIMIT,
    X_KINDS,
    AgePartition,
    decide_hh_conditions,
    decide_xy,
    kk_okk,
)
from .morphisms import KINDS
from .presentations import (
    classify_mb,
    extension_witness,
    parse_spec,
    spanning_rado,
    truncate,
)
from .verify import (
    DEFAULT_SEED,
    TriangleSearchResult,
    cross_validate_hh,
    find_triangle_dom2,
    verify_alpha_bound_family,
    verify_directory_lemmas,
    verify_directory_lemmas_random,
    verify_neighbor_richness,
)


def _report(argv: list[str], payload: dict) -> dict:
    return {
        "tool": {"name": "homoglab", "version": __version__},
        "command": list(argv),
        "payload": payload,
    }


def _emit(argv: list[str], payload: dict) -> None:
    print(json.dumps(_report(argv, payload), indent=2, sort_keys=False))


def _partition_dict(part: AgePartition) -> dict:
    return {
        "classes": [
            {
                "code": cls.code.hex(),
                "order": cls.representative.n,
                "representative_edges": list(cls.representative.edges()),
                "embeddings": [list(e) for e in cls.embeddings],
            }
            for cls in part.classes
        ],
        "kk": sorted(code.hex() for code in part.kk),
        "okk": sorted(code.hex() for code in part.okk),
        "conflicts": [
            {
                "code": c.code.hex(),
                "coned_embedding": list(c.coned_embedding),
                "cone_vertex": c.cone_vertex,
                "coneless_embedding": list(c.coneless_embedding),
            }
            for c in part.conflicts
        ],
    }


def _parse_vertex_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad vertex list {text!r}") from exc


def _fixture(args) -> tuple:
    """The truncation a fixture suite reads, with its least directory."""
    g = truncate(parse_spec(args.family), args.truncate)
    return g, independence_number(g)[1]


# Every verify option with its default, and each mode (the campaign is
# directory-lemmas with --random) with the options it reads and the call
# that runs it.  Setting an option the chosen mode does not read is
# refused, not ignored.
_VERIFY_DEFAULTS = {"family": "rs:3", "truncate": 9, "count": 1000, "seed": DEFAULT_SEED,
                    "max_order": 40, "threshold": 1, "n_min": 3, "n_max": 6, "part_size": 2}
_VERIFY_SUITES = {
    "directory-lemmas": ({"family", "truncate"}, lambda a: verify_directory_lemmas(*_fixture(a))),
    "directory-lemmas --random": (
        {"count", "seed", "max_order"},
        lambda a: verify_directory_lemmas_random(count=a.count, seed=a.seed, max_order=a.max_order),
    ),
    "richness": (
        {"family", "truncate", "threshold"},
        lambda a: verify_neighbor_richness(*_fixture(a), a.threshold),
    ),
    "triangle-dom2": ({"family", "truncate"}, lambda a: find_triangle_dom2(*_fixture(a))),
    "alpha-bound": (
        {"n_min", "n_max", "part_size"},
        lambda a: verify_alpha_bound_family(range(a.n_min, a.n_max + 1), part_sizes=(a.part_size,)),
    ),
    "cross-validate": ({"n_max"}, lambda a: cross_validate_hh(a.n_max)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homoglab",
        description="Exact analysis of finite graphs and finitely presented countable graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="independence, star number, directories, age partition")
    p.add_argument("file")
    p.add_argument("--format", choices=FORMATS, default="graph6")

    p = sub.add_parser("check", help="decide XY-homogeneity of a finite graph")
    p.add_argument("file")
    p.add_argument("--format", choices=FORMATS, default="graph6")
    p.add_argument("--x", required=True, choices=X_KINDS)
    p.add_argument("--y", required=True, choices=KINDS)
    p.add_argument("--method", choices=("direct", "conditions"), default="direct")
    p.add_argument("--expect", choices=("yes", "no"))

    p = sub.add_parser("generate", help="truncate a presentation to a graph file")
    p.add_argument("spec")
    p.add_argument("--truncate", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=FORMATS, default="graph6")

    p = sub.add_parser("witness", help="bounded cone/co-cone witness search")
    p.add_argument("spec")
    p.add_argument("--cone", default="")
    p.add_argument("--cocone", default="")
    p.add_argument("--budget", type=int, default=1 << 16)

    p = sub.add_parser("rado-span", help="greedy spanning selection with extension schedule")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=1 << 16)

    p = sub.add_parser("classify", help="bimorphism-class probe of a presentation")
    p.add_argument("spec")
    p.add_argument("--budget", type=int, default=512)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=[m for m in _VERIFY_SUITES if not m.endswith(" --random")])
    # Unset options stay None, so _cmd_verify can tell them from defaults.
    for name, default in _VERIFY_DEFAULTS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default))
    p.add_argument("--random", action="store_true", help="run the random-graph campaign")

    return parser


def _cmd_analyze(args, argv) -> int:
    g = read_graph(args.file, args.format)
    report = analyze(g)
    payload: dict = {
        "order": g.n,
        "edge_count": g.edge_count(),
        "analysis": report.to_dict(),
    }
    if g.n <= _ORDER_LIMIT:
        payload["age_partition"] = _partition_dict(kk_okk(g, g.n))
    else:
        payload["age_partition"] = {
            "skipped": f"age computation is capped at order {_ORDER_LIMIT}"
        }
    _emit(argv, payload)
    return 0


def _cmd_check(args, argv) -> int:
    g = read_graph(args.file, args.format)
    if args.method == "conditions":
        if args.x != "H" or args.y != "H":
            raise BadParams("the conditions method only decides x=H, y=H")
        report = decide_hh_conditions(g)
    else:
        report = decide_xy(g, args.x, args.y)
    _emit(argv, {"check": report.to_dict()})
    if args.expect == "yes" and not report.verdict:
        return 1
    if args.expect == "no" and report.verdict:
        return 1
    return 0


def _cmd_generate(args, argv) -> int:
    p = parse_spec(args.spec)
    g = truncate(p, args.truncate)
    write_graph(g, args.output, args.format)
    _emit(
        argv,
        {
            "presentation": p.describe(),
            "truncation": args.truncate,
            "written": args.output,
            "format": args.format,
            "order": g.n,
            "edge_count": g.edge_count(),
        },
    )
    return 0


def _cmd_witness(args, argv) -> int:
    p = parse_spec(args.spec)
    a = _parse_vertex_list(args.cone)
    b = _parse_vertex_list(args.cocone)
    result = extension_witness(p, a, b, args.budget)
    _emit(
        argv,
        {
            "presentation": p.describe(),
            "cone_over": list(a),
            "cocone_over": list(b),
            "budget": args.budget,
            "result": result.to_dict(),
        },
    )
    return 3 if result.status == "exhausted" else 0


def _cmd_rado_span(args, argv) -> int:
    p = parse_spec(args.spec)
    try:
        construction = spanning_rado(p, args.n, args.budget)
    except BudgetExhausted as exc:
        _emit(
            argv,
            {
                "presentation": p.describe(),
                "error": "budget-exhausted",
                "requirement": exc.requirement.to_dict(),
                "detail": exc.detail,
            },
        )
        return 3
    problems = construction.verify(p)
    _emit(
        argv,
        {
            "presentation": p.describe(),
            "construction": construction.to_dict(),
            "replay_problems": problems,
        },
    )
    return 0 if not problems else 1


def _cmd_classify(args, argv) -> int:
    p = parse_spec(args.spec)
    report = classify_mb(p, args.budget)
    _emit(argv, {"presentation": p.describe(), "classification": report.to_dict()})
    return 0


def _cmd_verify(args, argv) -> int:
    mode = f"{args.suite} --random" if args.random else args.suite
    if mode not in _VERIFY_SUITES:
        raise BadParams(f"verify {args.suite} does not read --random")
    reads, call = _VERIFY_SUITES[mode]
    for name, default in _VERIFY_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in reads:
            raise BadParams(f"verify {mode} does not read --{name.replace('_', '-')}")
    report = call(args)
    if isinstance(report, TriangleSearchResult):  # a search: it neither passes nor fails
        _emit(argv, {"triangle_dom2": report.to_dict()})
        return 0
    _emit(argv, {"suite_report": report.to_dict()})
    return 0 if report.passed else 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "check": _cmd_check,
    "generate": _cmd_generate,
    "witness": _cmd_witness,
    "rado-span": _cmd_rado_span,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, argv)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InternalInvariant, RecursionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return 4
    except (HomoglabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
