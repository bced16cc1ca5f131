"""Command line contracts: subcommands, report shape, exit codes."""

import json

import pytest

from homoglab import cli, formats, graphs as graph_module, morphisms
from homoglab.cli import run
from homoglab.errors import (
    BadParams,
    BudgetExhausted,
    FormatError,
    HomoglabError,
    InternalInvariant,
    NotADirectoryBase,
    OrderTooLarge,
    SeedNotLocalMorphism,
    StarNumberZero,
    Undominated,
)
from homoglab.formats import read_graph, write_graph
from homoglab.graphs import Graph, complete_graph, path_graph
from homoglab.morphisms import canonical_code


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.mark.parametrize(
    "error, code",
    [
        (BadParams("bad"), 2),
        (FormatError("bad"), 2),
        (NotADirectoryBase("bad"), 2),
        (OrderTooLarge("bad"), 2),
        (SeedNotLocalMorphism("bad"), 2),
        (StarNumberZero("bad"), 2),
        (Undominated("bad"), 2),
        (HomoglabError("bad"), 2),
        (ValueError("bad"), 2),
        (OSError("bad"), 2),
        (BudgetExhausted(((0,), ()), "refuted"), 3),
        (InternalInvariant("bad"), 4),
    ],
)
def test_error_exit_codes(capsys, monkeypatch, error, code):
    def command(args, argv):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "analyze", command)
    assert run(["analyze", "unused.g6"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "internal error" if code == 4 else "error"
    assert captured.err == f"{prefix}: {error}\n"


def test_exhausted_memory_exits_four(capsys, monkeypatch):
    def command(args, argv):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "analyze", command)
    assert run(["analyze", "unused.g6"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: out of memory\n"


class TestAnalyze:
    def test_rs3_pipeline(self, tmp_path, capsys):
        target = str(tmp_path / "rs3.g6")
        code, report = run_json(
            capsys, ["generate", "rs:3", "--truncate", "9", "-o", target]
        )
        assert code == 0
        assert report["payload"]["order"] == 9

        code, report = run_json(capsys, ["analyze", target])
        assert code == 0
        analysis = report["payload"]["analysis"]
        assert analysis["independence_number"] == 3
        assert analysis["star_number"] == 2
        assert analysis["directories"] == [[0, 1, 2]]
        assert report["payload"]["age_partition"]["conflicts"] != []

    def test_byte_identical_output(self, tmp_path, capsys):
        target = str(tmp_path / "g.g6")
        write_graph(path_graph(5), target)
        run(["analyze", target])
        first = capsys.readouterr().out
        run(["analyze", target])
        second = capsys.readouterr().out
        assert first == second

    def test_age_skipped_beyond_cap(self, tmp_path, capsys):
        target = str(tmp_path / "big.g6")
        write_graph(complete_graph(12), target)
        code, report = run_json(capsys, ["analyze", target])
        assert code == 0
        assert "skipped" in report["payload"]["age_partition"]

    def test_missing_file(self, capsys):
        assert run(["analyze", "/nonexistent.g6"]) == 2

    def test_clique_past_the_recursion_limit(self, tmp_path, capsys):
        # alpha of K_{1,1199} is 1199: the clique searches walk an explicit
        # stack, so a clique this large no longer exceeds the recursion limit.
        target = str(tmp_path / "star.edges")
        write_graph(Graph(1200, [(0, v) for v in range(1, 1200)]), target, "edges")
        code, report = run_json(capsys, ["analyze", target, "--format", "edges"])
        assert code == 0
        assert report["payload"]["analysis"]["independence_number"] == 1199

    def test_search_past_the_recursion_limit_exits_four(self, monkeypatch, tmp_path, capsys):
        # A search that still overflows the stack ends in one line on
        # stderr, with no traceback.
        def overflow(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(graph_module, "_max_clique", overflow)
        target = str(tmp_path / "star.edges")
        write_graph(Graph(12, [(0, v) for v in range(1, 12)]), target, "edges")
        assert run(["analyze", target, "--format", "edges"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: maximum recursion depth exceeded")
        assert captured.err.count("\n") == 1

    def test_edgelist_order_over_cap(self, tmp_path, capsys, monkeypatch):
        def no_graph(n, edges):
            raise AssertionError(f"Graph({n}) would be allocated")

        monkeypatch.setattr(formats, "Graph", no_graph)
        target = tmp_path / "huge.edges"
        target.write_text("p 300000000\n0 1\n")
        assert run(["analyze", str(target), "--format", "edges"]) == 2
        assert "exceeds the limit" in capsys.readouterr().err


class TestCheck:
    def test_k3_hh(self, tmp_path, capsys):
        target = str(tmp_path / "k3.g6")
        write_graph(complete_graph(3), target)
        code, report = run_json(capsys, ["check", target, "--x", "H", "--y", "H"])
        assert code == 0
        assert report["payload"]["check"]["verdict"] is True

    def test_expect_yes_failure_exit(self, tmp_path, capsys):
        target = str(tmp_path / "p4.g6")
        write_graph(path_graph(4), target)
        code, report = run_json(
            capsys, ["check", target, "--x", "H", "--y", "H", "--expect", "yes"]
        )
        assert code == 1
        assert report["payload"]["check"]["verdict"] is False

    def test_conditions_method_restricted(self, tmp_path, capsys):
        target = str(tmp_path / "k3.g6")
        write_graph(complete_graph(3), target)
        assert (
            run(["check", target, "--x", "M", "--y", "H", "--method", "conditions"])
            == 2
        )

    def test_internal_invariant_exits_four(self, tmp_path, capsys, monkeypatch):
        # P3 is not HH, so (M, H) replays its local monomorphisms through
        # the morphism search, whose witness check is made to fail here.
        monkeypatch.setattr(morphisms, "validate_total_map", lambda *args: False)
        target = str(tmp_path / "p3.g6")
        write_graph(path_graph(3), target)
        assert run(["check", target, "--x", "M", "--y", "H"]) == 4
        assert capsys.readouterr().out == ""

    def test_methods_agree(self, tmp_path, capsys):
        target = str(tmp_path / "p5.g6")
        write_graph(path_graph(5), target)
        _, direct = run_json(capsys, ["check", target, "--x", "H", "--y", "H"])
        _, conditions = run_json(
            capsys,
            ["check", target, "--x", "H", "--y", "H", "--method", "conditions"],
        )
        assert (
            direct["payload"]["check"]["verdict"]
            == conditions["payload"]["check"]["verdict"]
        )


class TestGenerate:
    def test_graph6_round_trip_is_canonical_stable(self, tmp_path, capsys):
        target = str(tmp_path / "r.g6")
        assert run(["generate", "rado_bit", "--truncate", "8", "-o", target]) == 0
        capsys.readouterr()
        g = read_graph(target)
        code1 = canonical_code(g)
        write_graph(g, target)
        assert canonical_code(read_graph(target)) == code1

    def test_edge_format(self, tmp_path, capsys):
        target = str(tmp_path / "r.edges")
        assert (
            run(
                ["generate", "rs:3", "--truncate", "9", "-o", target,
                 "--format", "edges"]
            )
            == 0
        )
        capsys.readouterr()
        assert read_graph(target, "edges").n == 9

    def test_bad_family(self, capsys):
        assert run(["generate", "who:1", "--truncate", "4", "-o", "/tmp/x"]) == 2

    def test_truncation_over_cap_rejected(self, tmp_path, capsys):
        target = tmp_path / "x.g6"
        argv = ["generate", "rado_bit", "--truncate", "100000000", "-o", str(target)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the cap" in captured.err
        assert not target.exists()


class TestWitness:
    def test_found(self, capsys):
        code, report = run_json(
            capsys,
            ["witness", "rado_bit", "--cone", "0", "--cocone", "1", "--budget", "64"],
        )
        assert code == 0
        assert report["payload"]["result"] == {
            "status": "found",
            "vertex": 5,
            "certificate": None,
        }

    def test_proven_absent_exits_zero(self, capsys):
        code, report = run_json(
            capsys, ["witness", "rs:3", "--cone", "0,1,2", "--budget", "64"]
        )
        assert code == 0
        assert report["payload"]["result"]["status"] == "proven_absent"

    def test_far_cone_exhausts_at_the_budget(self, capsys):
        # Only vertex 40 is adjacent to 2^40 below it, and it is excluded.
        code, report = run_json(
            capsys,
            ["witness", "rado_bit", "--cone", str(1 << 40), "--cocone", "40", "--budget", "10"],
        )
        assert code == 3
        assert report["payload"]["result"]["status"] == "exhausted"

    def test_spec_nested_too_deep_exits_two(self, capsys):
        spec = "complement_of:" * 500 + "null"
        assert run(["witness", spec, "--cone", "0", "--budget", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: spec nests deeper than 64 levels\n"

    def test_exhausted_exits_three(self, capsys):
        code, report = run_json(
            capsys, ["witness", "rado_bit", "--cone", "6,7,8", "--budget", "100"]
        )
        assert code == 3
        assert report["payload"]["result"]["status"] == "exhausted"


class TestRadoSpan:
    def test_success(self, capsys):
        code, report = run_json(
            capsys, ["rado-span", "rado_bit", "--n", "12", "--budget", "65536"]
        )
        assert code == 0
        payload = report["payload"]
        assert payload["replay_problems"] == []
        assert len(payload["construction"]["placed"]) >= 12

    def test_budget_exhausted(self, capsys):
        code, report = run_json(
            capsys, ["rado-span", "rs:3", "--n", "80", "--budget", "16384"]
        )
        assert code == 3
        assert set(report["payload"]["requirement"]["cone_over"]) >= {0, 1, 2}

    def test_negative_n_rejected(self, capsys):
        assert run(["rado-span", "rado_bit", "--n", "-3"]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_budget_rejected(self, capsys):
        assert run(["rado-span", "rado_bit", "--n", "3", "--budget", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


class TestClassify:
    def test_rado(self, capsys):
        code, report = run_json(capsys, ["classify", "rado_bit", "--budget", "512"])
        assert code == 0
        assert report["payload"]["classification"]["verdict"] == "rado"

    def test_block_larger_than_the_budget(self, capsys):
        # Every vertex below the budget is a block vertex of rs:10^11.
        code, report = run_json(capsys, ["classify", "rs:100000000000"])
        assert code == 0
        assert report["payload"]["classification"]["verdict"] == "null"

    def test_budget_over_cap_rejected(self, capsys):
        assert run(["classify", "rado_bit", "--budget", "100000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the cap" in captured.err


class TestVerify:
    def test_alpha_bound(self, capsys):
        code, report = run_json(
            capsys, ["verify", "alpha-bound", "--n-min", "3", "--n-max", "5"]
        )
        assert code == 0
        assert report["payload"]["suite_report"]["passed"] is True

    def test_directory_lemmas_fixture(self, capsys):
        code, report = run_json(
            capsys,
            ["verify", "directory-lemmas", "--family", "rs:3", "--truncate", "9"],
        )
        assert code == 0

    def test_directory_lemmas_random(self, capsys):
        code, report = run_json(
            capsys,
            ["verify", "directory-lemmas", "--random", "--count", "20",
             "--seed", "5", "--max-order", "16"],
        )
        assert code == 0
        assert report["payload"]["suite_report"]["extra"]["seed"] == 5

    def test_triangle_dom2(self, capsys):
        code, report = run_json(
            capsys,
            ["verify", "triangle-dom2", "--family", "rs:3", "--truncate", "9"],
        )
        assert code == 0
        assert report["payload"]["triangle_dom2"]["triangle"] == [3, 4, 5]

    def test_richness(self, capsys):
        code, report = run_json(
            capsys,
            ["verify", "richness", "--family", "rs:3", "--truncate", "9",
             "--threshold", "1"],
        )
        assert code == 0
        assert report["payload"]["suite_report"]["passed"] is True

    def test_richness_threshold_below_one_rejected(self, capsys):
        # No count is below 0, so such a threshold would pass unchecked.
        argv = ["verify", "richness", "--family", "rs:3", "--truncate", "9",
                "--threshold", "-3"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold must be at least 1" in captured.err

    def test_richness_beyond_the_index_set_cap_rejected(self, capsys):
        argv = ["verify", "richness", "--family", "rado_bit", "--truncate", "26"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "352716 index sets" in captured.err

    def test_cross_validate_small(self, capsys):
        code, report = run_json(capsys, ["verify", "cross-validate", "--n-max", "4"])
        assert code == 0
        counts = report["payload"]["suite_report"]["extra"]["classes_per_order"]
        assert counts == {"1": 1, "2": 2, "3": 4, "4": 11} or counts == {
            1: 1, 2: 2, 3: 4, 4: 11
        }

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["directory-lemmas", "--random", "--count", "0"], "count"),
            (["directory-lemmas", "--random", "--count", "-3"], "count"),
            (["directory-lemmas", "--random", "--max-order", "3"], "max_order"),
            (["cross-validate", "--n-max", "0"], "n_max"),
            (["cross-validate", "--n-max", "-2"], "n_max"),
            (["alpha-bound", "--n-min", "5", "--n-max", "4"], "n_values"),
        ],
    )
    def test_empty_runs_rejected(self, capsys, argv, name):
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err

    def test_random_order_beyond_cap_rejected(self, capsys):
        argv = ["verify", "directory-lemmas", "--random", "--count", "1"]
        assert run([*argv, "--max-order", "101"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_order" in captured.err
        assert run([*argv, "--max-order", str(10**9)]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["directory-lemmas", "--count", "5"],
             "verify directory-lemmas does not read --count"),
            (["directory-lemmas", "--random", "--family", "rs:3", "--truncate", "9"],
             "verify directory-lemmas --random does not read --family"),
            (["richness", "--random"], "verify richness does not read --random"),
            (["triangle-dom2", "--threshold", "2"],
             "verify triangle-dom2 does not read --threshold"),
            (["alpha-bound", "--truncate", "9"], "verify alpha-bound does not read --truncate"),
            (["cross-validate", "--n-min", "3"], "verify cross-validate does not read --n-min"),
        ],
    )
    def test_option_the_suite_does_not_read_rejected(self, capsys, argv, message):
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["directory-lemmas"],
            ["directory-lemmas", "--random", "--count", "3", "--max-order", "8"],
            ["richness", "--threshold", "1"],
            ["triangle-dom2", "--truncate", "9"],
            ["alpha-bound", "--n-max", "4"],
            ["cross-validate", "--n-max", "3"],
        ],
    )
    def test_unset_options_take_the_suite_defaults(self, capsys, argv):
        code, report = run_json(capsys, ["verify", *argv])
        assert code == 0
        suite_report = report["payload"].get("suite_report", {})
        if "--random" in argv:
            assert suite_report["extra"]["seed"] == cli.DEFAULT_SEED
        if argv[0] == "alpha-bound":
            assert [row["n"] for row in suite_report["extra"]["rows"]] == [3, 4]

    def test_cross_validate_beyond_cap_rejected(self, capsys):
        assert run(["verify", "cross-validate", "--n-max", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "orders up to 8" in captured.err
