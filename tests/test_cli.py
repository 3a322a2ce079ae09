import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondkit import cli, constructions, hypergraph, tournament
from diamondkit.cli import INPUT_ERROR, OK, VIOLATED, main
from diamondkit.constructions import paley_tournament, star_paley
from diamondkit.hypergraph import (
    CONJECTURAL,
    PROVEN,
    REFUTED,
    baber,
    edge_count_bound,
    format_hyp,
    load_hyp,
    save_hyp,
    verify_ff4,
)
from diamondkit.spectral import ODD_EXTREMAL, count_diamonds_spectral
from diamondkit.tournament import (
    Tournament,
    count_diamonds,
    encode,
    format_trn,
    load_trn,
    parse_trn,
    random_tournament,
    save_trn,
)

from oracles import count_diamonds_naive, flip_arc, seidel


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip().startswith("{") else None
    return code, report


def transitive_trn(n):
    lines = [str(n)]
    for i in range(n):
        lines.append("".join("1" if i < j else "0" for j in range(n)))
    return "\n".join(lines) + "\n"


class TestConstruct:
    def test_star_paley_7(self, tmp_path, capsys):
        out = tmp_path / "t.trn"
        code, report = run(capsys, "construct", "star-paley", "--q", "7",
                           "--out", str(out))
        assert code == OK
        assert report["status"] == "ok"
        assert report["results"]["n"] == 8
        assert report["results"]["diamonds"] == 28
        assert report["results"]["skew_conference"] is True
        # the one comparison with diamond_upper_bound, as count and search report it
        assert report["results"]["bound"] == {"num": 28, "den": 1, "decimal": 28.0}
        assert report["results"]["attained"] is True
        assert report["results"]["out"] == str(out)
        assert set(report["results"]) == {"kind", "q", "n", "diamonds", "bound", "attained",
                                          "skew_conference", "out"}
        assert load_trn(out) == star_paley(7)

    def test_paley_3(self, tmp_path, capsys):
        out = tmp_path / "c3.trn"
        code, report = run(capsys, "construct", "paley", "--q", "3", "--out", str(out))
        assert code == OK
        assert load_trn(out).rows == (0b010, 0b100, 0b001)

    def test_bad_q_exit_2(self, capsys):
        code, _ = run(capsys, "construct", "star-paley", "--q", "5")
        assert code == INPUT_ERROR

    def test_p_k_form(self, capsys):
        # --q is the one spelling of the order
        for argv in (["--p", "3", "--k", "3"], []):
            assert main(["construct", "paley", *argv]) == INPUT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: the following arguments are required: --q\n"


class TestCount:
    def test_both_agree_attained(self, tmp_path, capsys):
        path = tmp_path / "t.trn"
        save_trn(star_paley(7), path)
        code, report = run(capsys, "count", "--in", str(path), "--method", "both")
        assert code == OK
        assert report["results"]["naive"] == report["results"]["spectral"] == 28
        assert report["results"]["attained"] is True
        assert report["results"]["bound"] == {"num": 28, "den": 1, "decimal": 28.0}

    @pytest.mark.parametrize("method", ["naive", "spectral"])
    @pytest.mark.parametrize("t", [star_paley(7), parse_trn(transitive_trn(5)),
                                   random_tournament(64, 0)], ids=["tstar7", "transitive5", "r64"])
    def test_one_method_reports_the_bound_of_both(self, tmp_path, capsys, t, method):
        path = tmp_path / "t.trn"
        save_trn(t, path)
        _, both = run(capsys, "count", "--in", str(path))
        code, report = run(capsys, "count", "--in", str(path), "--method", method)
        assert code == OK and report["status"] == "ok"
        assert report["results"] == {"n": t.n, "method": method, method: both["results"][method],
                                     "bound": both["results"]["bound"],
                                     "attained": both["results"]["attained"]}

    def test_disagreeing_counts_are_violated(self, tmp_path, capsys, monkeypatch):
        # the bound is held to the first count that ran, naive
        monkeypatch.setitem(cli._COUNTS, "naive", lambda t: 27)
        path = tmp_path / "t.trn"
        save_trn(star_paley(7), path)
        code, report = run(capsys, "count", "--in", str(path), "--method", "both")
        assert code == VIOLATED and report["status"] == "violated"
        assert (report["results"]["naive"], report["results"]["spectral"]) == (27, 28)
        assert report["results"]["attained"] is False

    def test_transitive_not_attained(self, tmp_path, capsys):
        path = tmp_path / "t.trn"
        path.write_text(transitive_trn(10))
        code, report = run(capsys, "count", "--in", str(path))
        assert code == OK
        assert report["results"]["naive"] == 0
        assert report["results"]["attained"] is False

    def test_corrupt_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.trn"
        path.write_text("3\n110\n001\n010\n")  # diagonal 1
        code, _ = run(capsys, "count", "--in", str(path))
        assert code == INPUT_ERROR

    def test_missing_file_exit_2(self, capsys):
        code, _ = run(capsys, "count", "--in", "/nonexistent.trn")
        assert code == INPUT_ERROR

    def test_three_vertices_bound_zero(self, tmp_path, capsys):
        # no 4-set, so no diamond: the bound is 0, and every 3-vertex
        # tournament attains it
        path = tmp_path / "c3.trn"
        path.write_text("3\n010\n001\n100\n")
        code, report = run(capsys, "count", "--in", str(path))
        assert code == OK
        assert report["results"]["naive"] == report["results"]["spectral"] == 0
        assert report["results"]["bound"] == {"num": 0, "den": 1, "decimal": 0.0}
        assert report["results"]["attained"] is True
        code, report = run(capsys, "construct", "paley", "--q", "3")
        assert code == OK and report["results"]["n"] == 3
        assert report["results"]["bound"] == {"num": 0, "den": 1, "decimal": 0.0}

    def test_both_at_max_n(self, tmp_path, capsys):
        path = tmp_path / "t.trn"
        save_trn(random_tournament(512, 7), path)
        code, report = run(capsys, "count", "--in", str(path), "--method", "both")
        assert code == OK
        assert report["results"]["naive"] == report["results"]["spectral"] > 0


class TestVerify:
    def test_design_pass(self, tmp_path, capsys):
        path = tmp_path / "h.hyp"
        save_hyp(baber(star_paley(7)), path)
        code, report = run(capsys, "verify", "--in", str(path),
                           "--checks", "ff4,design")
        assert code == OK
        assert report["results"]["ff4"] is True
        assert report["results"]["design"] is True
        assert report["results"]["design_lambda"] == 2

    def test_ff4_fails_with_named_five_set(self, tmp_path, capsys):
        h = baber(star_paley(7))
        removed = min(h.edges)
        path = tmp_path / "h.hyp"
        path.write_text(format_hyp(type(h)(h.n, tuple(e for e in h.edges if e != removed))))
        code, report = run(capsys, "verify", "--in", str(path), "--checks", "ff4")
        assert code == VIOLATED
        assert report["status"] == "violated"
        assert len(report["results"]["ff4_counterexample"]["five_set"]) == 5
        assert report["results"]["ff4_counterexample"]["count"] == 1

    def test_conference_pass(self, tmp_path, capsys):
        path = tmp_path / "t.trn"
        save_trn(star_paley(7), path)
        code, report = run(capsys, "verify", "--in", str(path),
                           "--checks", "conference,extremal-charpoly")
        assert code == OK
        assert report["results"]["conference"] is True
        assert report["results"]["extremal_charpoly"] == "even-extremal"

    def test_conference_fail(self, tmp_path, capsys):
        path = tmp_path / "t.trn"
        save_trn(random_tournament(8, 0), path)
        code, report = run(capsys, "verify", "--in", str(path), "--checks", "conference")
        assert code == VIOLATED

    def test_unknown_check_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.trn"
        save_trn(star_paley(7), path)
        code, _ = run(capsys, "verify", "--in", str(path), "--checks", "bogus")
        assert code == INPUT_ERROR


class TestPipelines:
    def test_baber_command(self, tmp_path, capsys):
        trn = tmp_path / "t.trn"
        hyp = tmp_path / "h.hyp"
        save_trn(star_paley(7), trn)
        code, report = run(capsys, "baber", "--in", str(trn), "--out", str(hyp))
        assert code == OK
        assert report["results"]["m"] == 28
        assert load_hyp(hyp) == baber(star_paley(7))

    @pytest.mark.parametrize("n", [3, 4])
    def test_baber_below_five_vertices_has_exact_bound(self, tmp_path, capsys, n):
        # below 5 vertices the bound is the exact maximum: 0 edges at n = 3,
        # 1 at n = 4
        path = tmp_path / "t.trn"
        path.write_text(transitive_trn(n))
        code, report = run(capsys, "baber", "--in", str(path))
        assert code == OK
        bound = {"num": n - 3, "den": 1, "decimal": n - 3.0, "status": PROVEN}
        assert report["results"] == {"bound": bound, "m": 0, "n": n, "out": None}

    def test_delete_down_to_three_vertices(self, tmp_path, capsys):
        path = tmp_path / "s3.trn"
        save_trn(star_paley(3), path)
        code, report = run(capsys, "delete", "--in", str(path), "--vertices", "3")
        assert code == OK
        assert report["results"]["n"] == 3 and report["results"]["diamonds"] == 0
        assert report["results"]["bound"] == {"num": 0, "den": 1, "decimal": 0.0}
        assert report["results"]["attained"] is True

    def test_baber_refuses_above_the_edge_limit(self, tmp_path, capsys):
        # T*(151) has 5,451,100 diamonds, above hypergraph.MAX_EDGES
        path = tmp_path / "t.trn"
        save_trn(star_paley(151), path)
        assert main(["baber", "--in", str(path), "--out", str(tmp_path / "h.hyp")]) == INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "h.hyp").exists()
        assert captured.err == ("error: baber of n=152 would build 5451100 edges, "
                                "above the limit of 4194304\n")

    def test_delete_command(self, tmp_path, capsys):
        trn = tmp_path / "t.trn"
        out = tmp_path / "d.trn"
        save_trn(star_paley(7), trn)
        code, report = run(capsys, "delete", "--in", str(trn),
                           "--vertices", "7", "--out", str(out))
        assert code == OK
        assert report["results"]["n"] == 7
        assert report["results"]["diamonds"] == 14
        assert report["results"]["attained"] is True
        assert report["results"]["dropped"] == [7] and report["results"]["out"] == str(out)
        assert set(report["results"]) == {"n", "dropped", "diamonds", "bound", "attained", "out"}

    def test_extend_command(self, tmp_path, capsys):
        trn = tmp_path / "p7.trn"
        from diamondkit.constructions import paley_tournament
        save_trn(paley_tournament(7), trn)
        code, report = run(capsys, "extend", "--in", str(trn))
        assert code == OK
        assert report["results"]["n"] == 8
        assert report["results"]["skew_conference"] is True

    def test_extend_rejects_non_extremal(self, tmp_path, capsys):
        trn = tmp_path / "t.trn"
        trn.write_text(transitive_trn(7))
        code, _ = run(capsys, "extend", "--in", str(trn))
        assert code == INPUT_ERROR

    def test_round_trip_construct_count(self, tmp_path, capsys):
        out = tmp_path / "t.trn"
        code, report = run(capsys, "construct", "star-paley", "--q", "11",
                           "--out", str(out))
        delta = report["results"]["diamonds"]
        code, report = run(capsys, "count", "--in", str(out), "--method", "both")
        assert code == OK
        assert report["results"]["naive"] == delta == 165


class TestSearchCommand:
    def test_exhaustive_n5(self, capsys):
        code, report = run(capsys, "search", "--mode", "exhaustive", "--n", "5")
        assert code == OK
        assert report["results"]["max_diamonds"] == 2
        assert report["results"]["bound"] == {"num": 2, "den": 1, "decimal": 2.0}
        assert report["results"]["attained"] is True

    def test_exhaustive_n3(self, capsys):
        # the least order: 8 encodings, none with a 4-set, so the bound 0 is
        # attained by the least encoding, the transitive tournament
        code, report = run(capsys, "search", "--mode", "exhaustive", "--n", "3")
        assert code == OK
        results = report["results"]
        assert results["max_diamonds"] == 0 and results["explored"] == 8
        assert results["bound"] == {"num": 0, "den": 1, "decimal": 0.0}
        assert results["attained"] is True
        assert parse_trn(results["witness_trn"]).rows == (0, 1, 3)

    def test_local_seeded(self, tmp_path, capsys):
        out = tmp_path / "w.trn"
        code, report = run(capsys, "search", "--mode", "local", "--n", "8",
                           "--restarts", "4", "--steps", "2000", "--seed", "0",
                           "--out", str(out))
        assert code == OK
        w = load_trn(out)
        assert count_diamonds_naive(w) == report["results"]["max_diamonds"]

    def test_n8_needs_no_flag(self, capsys):
        # the full 2^28 scan runs like any other n and attains the bound
        code, report = run(capsys, "search", "--mode", "exhaustive", "--n", "8",
                           "--threads", "2")
        assert code == OK
        results = report["results"]
        assert results["max_diamonds"] == 28 and results["attained"] is True
        assert results["explored"] == 1 << 28
        assert encode(parse_trn(results["witness_trn"])) == 600626

    @pytest.mark.parametrize("n, attained", [(5, True), (7, True)])
    def test_count_of_the_witness_reports_the_same_bound(self, tmp_path, capsys, n, attained):
        # search and count compare a count with the bound in one place
        out = tmp_path / "w.trn"
        _, found = run(capsys, "search", "--mode", "exhaustive", "--n", str(n), "--out", str(out))
        _, counted = run(capsys, "count", "--in", str(out))
        assert found["results"]["attained"] is attained
        assert [found["results"][k] for k in ("bound", "attained")] == \
            [counted["results"][k] for k in ("bound", "attained")]


class TestSearchArguments:
    @pytest.mark.parametrize("argv", [
        ("--mode", "local", "--n", "8", "--restarts", "0"),
        ("--mode", "local", "--n", "8", "--restarts", "-1"),
        ("--mode", "exhaustive", "--n", "5", "--threads", "0"),
        # the annealer takes no threads: refused as an option local does not read
        ("--mode", "local", "--n", "8", "--threads", "-2"),
    ])
    def test_rejected_exit_2(self, capsys, argv):
        code = main(["search", *argv])
        captured = capsys.readouterr()
        assert code == INPUT_ERROR
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestLocalSearchLimits:
    @pytest.mark.parametrize("argv", [
        ("--n", "2"),
        ("--n", "513"),
        ("--n", "8", "--steps", "-5"),
        # the schedule is fixed: --t0 and --cooling are no options
        ("--n", "8", "--t0", "nan"),
        ("--n", "8", "--t0", "-1"),
        ("--n", "8", "--t0", "inf"),
        ("--n", "8", "--cooling", "-1"),
        ("--n", "8", "--cooling", "0"),
        ("--n", "8", "--cooling", "nan"),
    ])
    def test_rejected_exit_2(self, monkeypatch, capsys, argv):
        def never(*args):
            raise AssertionError("search started")
        monkeypatch.setattr("diamondkit.search.random_tournament", never)
        code = main(["search", "--mode", "local", *argv])
        captured = capsys.readouterr()
        assert code == INPUT_ERROR
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_zero_steps_and_zero_temperature_accepted(self, capsys):
        # the schedule has no option; zero steps explore each restart's start
        code, report = run(capsys, "search", "--mode", "local", "--n", "6",
                           "--restarts", "3", "--steps", "0")
        assert code == OK
        assert report["results"]["explored"] == 3


class TestSearchModes:
    """Each search mode reads only its own options: any other is refused,
    exit 2 with one error: line, before any block is scanned or any
    tournament drawn."""

    @pytest.mark.parametrize("mode, option", [
        ("exhaustive", ("--restarts", "2")),
        ("exhaustive", ("--steps", "10")),
        ("exhaustive", ("--seed", "1")),
        ("local", ("--threads", "1")),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_foreign_option_exit_2(self, monkeypatch, capsys, mode, option):
        def no_work(*args, **kwargs):
            raise AssertionError("search work started")
        monkeypatch.setattr("diamondkit.search._block_planes", no_work)
        monkeypatch.setattr("diamondkit.search.random_tournament", no_work)
        assert main(["search", "--mode", mode, "--n", "5", *option]) == INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --mode {mode} does not read {option[0]}\n"

    def test_every_foreign_option_is_named(self, capsys):
        argv = ["search", "--mode", "exhaustive", "--n", "4", "--restarts", "-5", "--steps", "-1"]
        assert main(argv) == INPUT_ERROR
        assert capsys.readouterr().err == \
            "error: --mode exhaustive does not read --restarts, --steps\n"

    def test_the_library_declares_each_default(self):
        # the parser leaves every mode's option unset, and --mode offers the table's modes
        from diamondkit.cli import _SEARCH_MODES, build_parser
        args = build_parser().parse_args(["search", "--n", "5"])
        assert all(getattr(args, o) is None
                   for _, options in _SEARCH_MODES.values() for o in options)
        assert list(_SEARCH_MODES) == ["exhaustive", "local"]


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert main([]) == INPUT_ERROR

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == INPUT_ERROR

    @pytest.mark.parametrize("argv", [
        # argparse takes -1e+16 for an option, so --seed has no value
        ("search", "--mode", "local", "--n", "8", "--seed", "-1e+16"),
        ("count",),
        ("count", "--in", "t.trn", "--bogus"),
        (),
        ("frobnicate",),
        # an echoed argument with a line break is quoted, and one of many
        # short words is clipped as a whole
        ("count", "--in", "t.trn", "a\nb"),
        ("search", "--n", "4", "--mode", "a " * 2500),
        # main bounds every exit-2 text, not only argparse's: many short
        # unknown names, a mixed list, an OSError naming a long path, and
        # a file error whose path has a line break ({tmp}/a\nb.trn has a bad row)
        ("verify", "--in", "t.trn", "--checks", ",".join(f"b{i}" for i in range(1000))),
        ("verify", "--in", "t.trn", "--checks", "ff4" + ",conference" * 500),
        ("count", "--in", "x" * 5000),
        ("construct", "paley", "--q", "7", "--out", "{tmp}/missing/" + "x" * 5000),
        ("count", "--in", "{tmp}/missing/a\nb"),
        ("count", "--in", "{tmp}/a\nb.trn"),
    ])
    def test_usage_error_is_one_line(self, tmp_path, capsys, argv):
        (tmp_path / "a\nb.trn").write_text("3\n01x\n001\n100\n")
        assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == INPUT_ERROR
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error:")
        assert lines[0].isprintable() and len(captured.err.encode()) < 200

    def test_quoted_path_keeps_its_colon_outside(self, tmp_path, monkeypatch, capsys):
        # a path with a line break is quoted, and _load's colon after it
        # stays outside the quotes
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a\nb.trn").write_text("3\n01x\n001\n100\n")
        assert main(["count", "--in", "a\nb.trn"]) == INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 'a\\nb.trn': bad character 'x' (line 2, column 3)\n"

    def test_long_path_keeps_its_file_name(self, tmp_path, monkeypatch, capsys):
        # a path over 40 characters with a line break is clipped to its
        # first and last 20 characters: the file name stays on the line
        monkeypatch.chdir(tmp_path)
        path = "some/deeper/directory/for/the/line/break/case/a\nb.trn"
        (tmp_path / path).parent.mkdir(parents=True)
        (tmp_path / path).write_text("3\n01x\n001\n100\n")
        assert main(["count", "--in", path]) == INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: 'some/deeper/director'...'e/break/case/a\\nb.trn' "
                                "(53 characters): bad character 'x' (line 2, column 3)\n")

    @pytest.mark.parametrize("argv", [
        ("search", "--mode", "local", "--n", "8", "--t0", "x" * 5000),
        ("search", "--mode", "x" * 5000, "--n", "4"),
        ("construct", "x" * 5000, "--q", "7"),
        ("count", "--in", "t.trn", "--method", "x" * 5000),
        ("x" * 5000,),
        # checked before the file is read
        ("verify", "--in", "t.trn", "--checks", "x" * 5000),
    ], ids=["unrecognized", "mode", "construct-kind", "method", "command", "checks"])
    def test_echoed_argument_is_clipped(self, capsys, argv):
        # argparse echoes an argument whole; the error quotes its first and last 20 characters
        assert main(list(argv)) == INPUT_ERROR
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error:")
        assert len(captured.err.encode()) < 200
        assert f"{'x' * 20!r}...{'x' * 20!r} (5000 characters)" in captured.err

    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("search", "--help")])
    def test_help_and_version_exit_0(self, capsys, argv):
        assert main(list(argv)) == OK
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""


def one_line_error(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    return captured.out == "" and len(lines) == 1 and lines[0].startswith("error:")


class TestHypInputErrors:
    @pytest.mark.parametrize("text", [
        "5 1\n0 1 2 5\n",
        "5 1\n-1 0 1 2\n",
        "5 -1\n",
        "-5 0\n",
        "5 2\n0 1 2 3\n0 1 2 3\n",
    ])
    def test_bad_hyp_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "h.hyp"
        path.write_text(text)
        code = main(["verify", "--in", str(path), "--checks", "ff4"])
        assert code == INPUT_ERROR
        assert one_line_error(capsys)

    def test_ff4_below_5_vertices_holds(self, tmp_path, capsys):
        # no 5-set, so the law holds vacuously; the bound is the exact maximum
        path = tmp_path / "h.hyp"
        for n, edges, bound in [(0, [], 0), (3, [], 0), (4, [], 1), (4, [(0, 1, 2, 3)], 1)]:
            save_hyp(hypergraph.Hypergraph4(n, edges), path)
            code, report = run(capsys, "verify", "--in", str(path), "--checks", "ff4")
            assert code == OK
            results = report["results"]
            assert results["ff4"] is True and results["bound"]["num"] == bound
            assert results["margin"]["num"] == bound - len(edges)

    def test_design_at_4_vertices(self, tmp_path, capsys):
        # Baber of T*(3) is the single-block 3-(4,4,1) design
        path = tmp_path / "h.hyp"
        save_hyp(baber(star_paley(3)), path)
        code, report = run(capsys, "verify", "--in", str(path), "--checks", "ff4,design")
        assert code == OK
        results = report["results"]
        assert results["bound"] == {"num": 1, "den": 1, "decimal": 1.0, "status": PROVEN}
        assert results["margin"] == {"num": 0, "den": 1, "decimal": 0.0}
        assert results["ff4"] is True
        assert results["design"] is True and results["design_lambda"] == 1

    def test_ff4_where_design_is_refused(self, tmp_path, capsys):
        # TestErrorText refuses --checks design on this n = 7 file
        path = tmp_path / "h.hyp"
        save_hyp(baber(paley_tournament(7)), path)
        code, report = run(capsys, "verify", "--in", str(path), "--checks", "ff4")
        assert code == OK
        results = report["results"]
        assert results["ff4"] is True and results["m"] == 14
        assert results["bound"] == {"num": 14, "den": 1, "decimal": 14.0, "status": PROVEN}

    def test_ff4_and_design_run_one_ff4_test(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = hypergraph.verify_ff4
        monkeypatch.setattr(hypergraph, "verify_ff4", lambda h: calls.append(h) or real(h))
        path = tmp_path / "h.hyp"
        save_hyp(baber(star_paley(11)), path)
        code, report = run(capsys, "verify", "--in", str(path), "--checks", "ff4,design")
        assert code == OK and len(calls) == 1
        assert report["results"]["ff4"] is True and report["results"]["design_lambda"] == 3

    def test_design_fails_when_ff4_fails(self, tmp_path, capsys):
        h = baber(star_paley(7))
        path = tmp_path / "h.hyp"
        removed = min(h.edges)
        path.write_text(format_hyp(type(h)(h.n, tuple(e for e in h.edges if e != removed))))
        code, report = run(capsys, "verify", "--in", str(path), "--checks", "ff4,design")
        assert code == VIOLATED
        assert report["results"]["design"] is False
        assert report["results"]["design_lambda"] is None
        assert report["results"]["ff4_counterexample"]["count"] == 1


class TestConstructLimit:
    @pytest.mark.parametrize("kind,q", [("paley", 1019), ("star-paley", 523),
                                        ("star-paley", 512)])
    def test_order_above_max_n_exit_2(self, tmp_path, capsys, kind, q):
        out = tmp_path / "t.trn"
        code = main(["construct", kind, "--q", str(q), "--out", str(out)])
        assert code == INPUT_ERROR
        assert one_line_error(capsys)
        assert not out.exists()

    def test_star_paley_503_at_the_limit(self, tmp_path, capsys):
        out = tmp_path / "t.trn"
        code, report = run(capsys, "construct", "star-paley", "--q", "503",
                           "--out", str(out))
        assert code == OK and report["results"]["n"] == 504
        code, report = run(capsys, "count", "--in", str(out), "--method", "spectral")
        assert code == OK


class TestExtendKernelColumn:
    @pytest.mark.parametrize("q", [7, 43, 343])
    def test_kernel_column(self, tmp_path, capsys, q):
        trn = tmp_path / "p.trn"
        t = paley_tournament(q)
        save_trn(t, trn)
        code, report = run(capsys, "extend", "--in", str(trn))
        assert code == OK
        u = report["results"]["kernel_column"]
        assert len(u) == q and u[0] == 1 and set(u) <= {-1, 1}
        assert not (np.array(seidel(t)) @ np.array(u, dtype=np.int64)).any()
        # the last column of the bordered Seidel matrix, read from one bit per row
        ext = constructions.extend_to_conference(t)
        assert u == [row[-1] for row in seidel(ext)[:-1]]


class TestExtendCertificate:
    """The extend report's skew_conference check is the one certificate of
    the bordering: a wrong kernel vector is a violated report (exit 1)."""

    def test_wrong_kernel_vector_is_violated(self, tmp_path, capsys, monkeypatch):
        # T(7) with the arc 1 -> 3 reversed is not odd-extremal, but row 0 of
        # its S^2 + 7I is +-1: a verdict that lets it pass borders it with
        # that row, which is not in the kernel of S
        monkeypatch.setattr(constructions, "matches_extremal_charpoly",
                            lambda t: ODD_EXTREMAL)
        trn = tmp_path / "p7.trn"
        save_trn(flip_arc(paley_tournament(7), 1, 3), trn)
        code, report = run(capsys, "extend", "--in", str(trn))
        assert code == VIOLATED and report["status"] == "violated"
        assert report["results"] == {"n": 8, "skew_conference": False,
                                     "kernel_column": [1, -1, 1, -1, 1, 1, 1]}


class TestNonUtf8Input:
    """A byte that is not UTF-8 is a format error (exit 2), not a traceback."""

    @pytest.mark.parametrize("argv", [
        ("count",), ("baber",), ("verify", "--checks", "conference,extremal-charpoly"),
        ("delete", "--vertices", "0"), ("extend",),
    ])
    def test_trn_exit_2(self, tmp_path, capsys, argv):
        path = tmp_path / "t.trn"
        path.write_bytes(format_trn(paley_tournament(7)).encode().replace(b"0", b"\xff", 1))
        code = main([argv[0], "--in", str(path), *argv[1:]])
        err = capsys.readouterr().err
        assert code == INPUT_ERROR
        assert err == f"error: {path}: byte 0xff is not UTF-8 text (line 2)\n"

    @pytest.mark.parametrize("checks", ["ff4", "design", "ff4,design"])
    def test_hyp_exit_2(self, tmp_path, capsys, checks):
        path = tmp_path / "h.hyp"
        path.write_bytes(b"8 1\n0 1 2 3\n\xc3(\n")
        code = main(["verify", "--in", str(path), "--checks", checks])
        err = capsys.readouterr().err
        assert code == INPUT_ERROR
        assert err == f"error: {path}: byte 0xc3 is not UTF-8 text (line 3)\n"


class TestLineRule:
    """A line of a .trn or .hyp file ends at \\n, less a \\r before it, as the
    UTF-8 check counts lines: a form feed, a vertical tab or a lone \\r ends none."""

    @pytest.mark.parametrize("data, err", [
        (b"3\x0c010\x0b001\x1c100", "bad vertex count '3\\x0c010\\x0b001\\x1c100' (line 1)"),
        (b"3\x0c01x\n001\n100\n", "bad vertex count '3\\x0c01x' (line 1)"),
        (b"3\r010\r001\r100\r", "bad vertex count '3\\r010\\r001\\r100\\r' (line 1)"),
    ], ids=["form-feed-only", "form-feed-in-the-header", "lone-cr"])
    def test_trn_exit_2(self, tmp_path, capsys, data, err):
        path = tmp_path / "t.trn"
        path.write_bytes(data)
        assert main(["count", "--in", str(path)]) == INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: {err}\n"

    def test_crlf_reads_as_lf(self, tmp_path, capsys):
        reports = []
        for end in (b"\n", b"\r\n"):
            path = tmp_path / f"t{len(end)}.trn"
            path.write_bytes(format_trn(paley_tournament(7)).encode().replace(b"\n", end))
            assert main(["count", "--in", str(path)]) == OK
            reports.append(json.loads(capsys.readouterr().out)["results"])
        assert reports[0] == reports[1]


class TestThreadLimit:
    @pytest.mark.parametrize("argv", [
        ("--mode", "exhaustive", "--n", "8", "--threads", "65"),
        ("--mode", "exhaustive", "--n", "8", "--threads", "100000"),
        ("--mode", "exhaustive", "--n", "7", "--threads", "0"),
    ])
    def test_above_max_threads_exit_2(self, monkeypatch, capsys, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("search work started")
        monkeypatch.setattr("diamondkit.search._block_planes", no_work)
        monkeypatch.setattr("diamondkit.search.random_tournament", no_work)
        assert main(["search", *argv]) == INPUT_ERROR
        assert one_line_error(capsys)

    def test_help_states_the_limit(self, capsys):
        from diamondkit.search import MAX_THREADS
        assert main(["search", "--help"]) == OK
        help_text = " ".join(capsys.readouterr().out.split())
        assert (f"--threads THREADS exhaustive only: 1 to {MAX_THREADS}, checked and reported,"
                " not used") in help_text


class TestOneSquaringPerMatrix:
    """Each command squares a Seidel matrix at most once: every check reads
    the S^2 cached on the tournament.  extend squares S and the bordered
    matrix."""

    def test_squarings(self, tmp_path, capsys, monkeypatch):
        orders = []
        square = tournament._square

        def counted(n, rows):
            orders.append(n)
            return square(n, rows)
        monkeypatch.setattr(tournament, "_square", counted)
        star, paley = str(tmp_path / "s.trn"), str(tmp_path / "p.trn")
        checks = "conference,extremal-charpoly"
        for argv, want_code, want_orders in [
            (("construct", "star-paley", "--q", "11", "--out", star), OK, [12]),
            (("count", "--in", star), OK, [12]),
            (("verify", "--in", star, "--checks", checks), OK, [12]),
            (("delete", "--in", star, "--vertices", "11", "--out", paley), OK, [11]),
            # T(11) is odd-extremal but not skew-conference
            (("verify", "--in", paley, "--checks", checks), VIOLATED, [11]),
            (("extend", "--in", paley), OK, [11, 12]),
        ]:
            orders.clear()
            code, _ = run(capsys, *argv)
            assert (argv[0], code, orders) == (argv[0], want_code, want_orders)


class TestConstructPrimePower:
    """--q names the prime power; the old --p/--k spelling of q = p^k is a
    usage error, refused before any construction starts."""

    @pytest.mark.parametrize("p,k", [("3", "10000"), ("3", "10"), ("2", "10"), ("513", "1"),
                                     ("10" * 20, "3")])
    def test_order_above_max_n_exit_2(self, monkeypatch, capsys, p, k):
        def never(q):
            raise AssertionError("construction started")
        monkeypatch.setattr(constructions, "paley_tournament", never)
        # the echo of a refused value is clipped to its first and last 20 characters
        text = f"{p}^{k}"
        echo = repr(text) if len(text) <= 40 else \
            f"{text[:20]!r}...{text[-20:]!r} ({len(text)} characters)"
        for argv, err in [(["--p", p, "--k", k], "the following arguments are required: --q"),
                          ([f"--q={text}"], f"argument --q: invalid int value: {echo}")]:
            assert main(["construct", "paley", *argv]) == INPUT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {err}\n"

    def test_order_above_max_n_after_the_power(self, capsys):
        # 3^7 = 2187 is small enough to read; the field builder refuses it
        assert main(["construct", "star-paley", "--q", "2187"]) == INPUT_ERROR
        err = capsys.readouterr().err
        assert err == "error: q=2187 out of range [2, 512]\n"

    @pytest.mark.parametrize("p,k", [("3", "-2"), ("3", "0"), ("1", "5"), ("0", "3"),
                                     ("-3", "3")])
    def test_p_below_2_or_k_below_1_exit_2(self, capsys, p, k):
        # beside a valid --q too
        assert main(["construct", "paley", "--q", "27", f"--p={p}", f"--k={k}"]) == INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: --p={p} --k={k}\n"


class TestVerifyReaderFromChecks:
    """verify reads .hyp for ff4/design and .trn for conference/extremal-charpoly,
    whatever the file is called."""

    def test_hyp_saved_as_trn(self, tmp_path, capsys):
        path = tmp_path / "x.trn"
        save_hyp(baber(star_paley(7)), path)
        code, report = run(capsys, "verify", "--in", str(path), "--checks", "ff4,design")
        assert code == OK
        assert report["results"]["ff4"] is True and report["results"]["design_lambda"] == 2

    def test_trn_saved_as_hyp(self, tmp_path, capsys):
        path = tmp_path / "x.hyp"
        save_trn(star_paley(7), path)
        code, report = run(capsys, "verify", "--in", str(path),
                           "--checks", "conference,extremal-charpoly")
        assert code == OK
        assert report["results"]["conference"] is True
        assert report["results"]["extremal_charpoly"] == "even-extremal"

    @pytest.mark.parametrize("checks", ["ff4,conference", "extremal-charpoly,design",
                                        "", ",", " , "])
    def test_mixed_or_empty_checks_exit_2_before_reading(self, tmp_path, capsys, checks):
        path = tmp_path / "missing.hyp"
        assert main(["verify", "--in", str(path), "--checks", checks]) == INPUT_ERROR
        err = capsys.readouterr().err
        # a list that names no check says so; a mixed one names both kinds
        want = "error: --checks takes tournament checks" if checks.strip(" ,") \
            else "error: --checks names no check"
        assert err.startswith(want) and err.count("\n") == 1


# An annealing witness at n = 17 (bit j of row i set iff i -> j) with 702
# diamonds, above the 700 of the n = 1 (mod 4) formula
ROWS_17 = (70798, 92668, 46264, 98336, 1513, 114049, 55469, 29448, 123981, 45439, 43722,
           99229, 52506, 71769, 11837, 24723, 54996)


class TestRefutedBound:
    def test_n17_witness(self):
        t = Tournament(ROWS_17)
        assert count_diamonds(t) == count_diamonds_spectral(t) == count_diamonds_naive(t) == 702
        assert verify_ff4(baber(t)) is None
        assert edge_count_bound(17) == (700, CONJECTURAL)

    def test_baber_verify_chain_reports_refuted(self, tmp_path, capsys):
        trn, hyp = tmp_path / "w17.trn", tmp_path / "w17.hyp"
        save_trn(Tournament(ROWS_17), trn)
        code, report = run(capsys, "baber", "--in", str(trn), "--out", str(hyp))
        assert code == OK and report["results"]["m"] == 702
        assert report["results"]["bound"]["status"] == REFUTED
        code, report = run(capsys, "verify", "--in", str(hyp), "--checks", "ff4")
        assert code == OK and report["status"] == "ok"
        results = report["results"]
        assert results["ff4"] is True and results["bound"]["status"] == REFUTED
        assert results["margin"] == {"num": -2, "den": 1, "decimal": -2.0}

    def test_non_ff4_above_the_bound_stays_conjectural(self, tmp_path, capsys):
        # all 126 quadruples of 9 vertices: above the bound 42, but not FF4
        # (up to 6 vertices every bound is proven)
        path = tmp_path / "k9.hyp"
        save_hyp(hypergraph.Hypergraph4(9, combinations(range(9), 4)), path)
        code, report = run(capsys, "verify", "--in", str(path), "--checks", "ff4")
        assert code == VIOLATED
        assert report["results"]["bound"]["status"] == CONJECTURAL
        assert report["results"]["margin"]["num"] == 42 - 126


class TestErrorText:
    """Each rejected argv exits 2 with exactly this one stderr line.  {trn}
    is T*(31), {hyp} its Baber hypergraph and {missing} a path that does
    not exist.  {plus_trn} and {plus_hyp} hold numbers with a "+" sign,
    which int() takes but the file formats and the integer options do not.  {long_trn} and
    {long_hyp} declare a 4000-digit n, {long_m_hyp} a 4000-digit m."""

    @pytest.mark.parametrize("argv,err", [
        (("construct", "paley", "--q", "10"), "10 is not a prime power"),
        (("construct", "paley", "--q", "15"), "15 is not a prime power"),
        (("construct", "paley", "--q", "13"),
         "q=13 is not 3 mod 4; the square relation would not be a tournament"),
        (("construct", "paley", "--p", "3", "--k", "10000"),
         "the following arguments are required: --q"),
        (("delete", "--in", "{trn}", "--vertices", "a,b"),
         "invalid literal for int() with base 10: 'a'"),
        (("delete", "--in", "{trn}", "--vertices", "99"), "vertex 99 out of range for n=32"),
        (("extend", "--in", "{trn}"), "matrix is not odd-extremal; extension does not apply"),
        (("search", "--mode", "local", "--n", "2"), "n=2 out of range [3, 512]"),
        (("search", "--mode", "exhaustive", "--n", "9"), "n=9 out of range [3, 8]"),
        # n = 8 runs like any other n: the parser refuses --long-run
        (("search", "--mode", "exhaustive", "--n", "8", "--long-run"),
         "unrecognized arguments: --long-run"),
        # an OSError names the file once, through repr
        (("count", "--in", "{missing}"), "[Errno 2] No such file or directory: '{missing}'"),
        (("verify", "--in", "{hyp}", "--checks", "conference"),
         "{hyp}: bad vertex count '32 9920' (line 1)"),
        (("verify", "--in", "{trn}", "--checks", "ff4"),
         "{trn}: header must be 'n m', got '32' (line 1)"),
        (("delete", "--in", "{trn}", "--vertices", "3,3"), "vertex 3 named twice"),
        (("delete", "--in", "{trn}", "--vertices", "+3"),
         "invalid literal for int() with base 10: '+3'"),
        (("delete", "--in", "{trn}", "--vertices", "1,1_0"),
         "invalid literal for int() with base 10: '1_0'"),
        (("delete", "--in", "{trn}", "--vertices", "\u0663"),
         "invalid literal for int() with base 10: '\u0663'"),
        (("delete", "--in", "{trn}", "--vertices", "-1"), "vertex -1 out of range for n=32"),
        (("count", "--in", "{plus_trn}"), "{plus_trn}: bad vertex count '+3' (line 1)"),
        (("verify", "--in", "{plus_hyp}", "--checks", "ff4"),
         "{plus_hyp}: bad index in '0 1 2 +3' (line 2)"),
        (("delete", "--in", "{trn}", "--vertices", "1" * 5000), "number too long: 5000 digits"),
        # numeric options echo at most 40 characters of a long value
        (("construct", "paley", "--q", "9" * 4000),
         f"q={'9' * 40!r}... (4000 characters) out of range [2, 512]"),
        (("search", "--n", "9" * 5000),
         f"argument --n: invalid int value: {'9' * 20!r}...{'9' * 20!r} (5000 characters)"),
        (("search", "--n", "8", "--restarts", "9" * 5000),
         f"argument --restarts: invalid int value: {'9' * 20!r}...{'9' * 20!r} (5000 characters)"),
        (("search", "--mode", "local", "--n", "9" * 4000),
         f"n={'9' * 40!r}... (4000 characters) out of range [3, 512]"),
        # the annealing schedule is fixed: --t0 is no option
        (("search", "--mode", "local", "--n", "8", "--t0", "1"),
         "unrecognized arguments: --t0 1"),
        (("count", "--in", "{long_trn}"),
         f"{{long_trn}}: n={'9' * 40!r}... (4000 characters) out of range [3, 512] (line 1)"),
        (("verify", "--in", "{long_hyp}", "--checks", "ff4"),
         f"{{long_hyp}}: need 0 <= n <= 512 and 0 <= m <= 4194304, "
         f"got n={'9' * 40!r}... (4000 characters), m=0 (line 1)"),
        (("verify", "--in", "{long_m_hyp}", "--checks", "ff4"),
         f"{{long_m_hyp}}: need 0 <= n <= 512 and 0 <= m <= 4194304, "
         f"got n=5, m={'9' * 40!r}... (4000 characters) (line 1)"),
        # integer options read the files' grammar, -?[0-9]+, not int()'s
        (("search", "--mode", "exhaustive", "--n", "+7"), "argument --n: invalid int value: '+7'"),
        (("construct", "paley", "--q", "1_1"), "argument --q: invalid int value: '1_1'"),
        (("search", "--mode", "local", "--n", "8", "--seed", "\u0663"),
         "argument --seed: invalid int value: '\u0663'"),
        # a vertex is echoed as at most 40 digits
        (("delete", "--in", "{trn}", "--vertices", "9" * 100),
         f"vertex {'9' * 40!r}... (100 characters) out of range for n=32"),
        # and so is a q below the smallest field order
        (("construct", "paley", "--q", "-" + "9" * 3999),
         f"q={'-' + '9' * 39!r}... (4000 characters) out of range [2, 512]"),
        # a list that names no check
        (("verify", "--in", "{hyp}", "--checks", ","), "--checks names no check, got ','"),
        (("verify", "--in", "{hyp}", "--checks", ""), "--checks names no check, got ''"),
        # the least order is 3, for both searches and for what delete leaves
        (("search", "--mode", "exhaustive", "--n", "2"), "n=2 out of range [3, 8]"),
        (("delete", "--in", "{trn}", "--vertices", ",".join(map(str, range(30)))),
         "cannot drop 30 of 32 vertices (need >= 3 left)"),
        # the one design refusal: Baber(T(7)) is FF4, but 7 is not divisible by 4
        (("verify", "--in", "{hyp7}", "--checks", "design"),
         "design check needs n divisible by 4, got n=7"),
        # 512 is a field order, so T*(512), of 513 vertices, is refused by the 3 mod 4 check
        (("construct", "star-paley", "--q", "512"),
         "q=512 is not 3 mod 4; the square relation would not be a tournament"),
        # --cooling is no option either, and every report goes to stdout
        (("search", "--mode", "local", "--n", "8", "--cooling", "0.5"),
         "unrecognized arguments: --cooling 0.5"),
        (("search", "--mode", "exhaustive", "--n", "4", "--report", "r.json"),
         "unrecognized arguments: --report r.json"),
        (("verify", "--in", "{empty_hyp}", "--checks", "ff4"), "{empty_hyp}: empty input (line 1)"),
    ])
    def test_exit_2_with_text(self, tmp_path, capsys, argv, err):
        paths = {"trn": str(tmp_path / "s31.trn"), "hyp": str(tmp_path / "s31.hyp"),
                 "hyp7": str(tmp_path / "p7.hyp"),
                 "missing": str(tmp_path / "missing.trn"),
                 "plus_trn": str(tmp_path / "plus.trn"), "plus_hyp": str(tmp_path / "plus.hyp"),
                 "long_trn": str(tmp_path / "long.trn"), "long_hyp": str(tmp_path / "long.hyp"),
                 "long_m_hyp": str(tmp_path / "long_m.hyp"),
                 "empty_hyp": str(tmp_path / "empty.hyp")}
        t = star_paley(31)
        save_trn(t, paths["trn"])
        save_hyp(baber(t), paths["hyp"])
        save_hyp(baber(paley_tournament(7)), paths["hyp7"])
        with open(paths["plus_trn"], "w") as fh:
            fh.write("+3\n010\n001\n100\n")
        with open(paths["plus_hyp"], "w") as fh:
            fh.write("6 1\n0 1 2 +3\n")
        for name, text in [("long_trn", "9" * 4000 + "\n"), ("long_hyp", "9" * 4000 + " 0\n"),
                           ("long_m_hyp", "5 " + "9" * 4000 + "\n"), ("empty_hyp", "")]:
            with open(paths[name], "w") as fh:
                fh.write(text)
        code = main([a.format(**paths) for a in argv])
        captured = capsys.readouterr()
        assert code == INPUT_ERROR and captured.out == ""
        assert captured.err == f"error: {err.format(**paths)}\n"


class TestOnlyInputErrorsExit2:
    def test_plain_value_error_is_a_traceback(self, monkeypatch):
        # a ValueError that is not an InputError is a bug, not bad input
        def bug(q):
            raise ValueError("bug")
        monkeypatch.setattr(constructions, "paley_tournament", bug)
        with pytest.raises(ValueError, match="^bug$") as info:
            main(["construct", "paley", "--q", "7"])
        assert type(info.value) is ValueError


def _count_scans(monkeypatch):
    """The list that each later call of tournament._first_defect appends to."""
    calls = []
    first_defect = tournament._first_defect
    monkeypatch.setattr(tournament, "_first_defect",
                        lambda *a: calls.append(a) or first_defect(*a))
    return calls


class TestUnpackOnce:
    def test_verify_unpacks_the_rows_once(self, tmp_path, capsys, monkeypatch):
        # parse_trn builds the one Tournament, and its constructor is the check
        path = tmp_path / "s.trn"
        save_trn(star_paley(11), path)
        calls = _count_scans(monkeypatch)
        code, report = run(capsys, "verify", "--in", str(path),
                           "--checks", "conference,extremal-charpoly")
        assert code == OK and report["results"]["conference"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("text, err", [
        ("3\n011\n001\n100\n", "both orientations present (line 2, column 3)"),
        ("4\n0111\n0011\n0001\n0010\n", "both orientations present (line 4, column 4)"),
    ])
    def test_a_bad_file_is_scanned_once(self, tmp_path, capsys, monkeypatch, text, err):
        # parse_trn places the defect the constructor's one scan found
        path = tmp_path / "bad.trn"
        path.write_text(text)
        calls = _count_scans(monkeypatch)
        assert main(["count", "--in", str(path)]) == INPUT_ERROR
        assert capsys.readouterr().err.rstrip().endswith(err)
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, scans", [
        # each Tournament made is scanned once: star_paley builds no T(q) first
        (["construct", "star-paley", "--q", "11"], 1),
        (["count", "--in", "s.trn"], 1),
        (["verify", "--in", "s.trn", "--checks", "conference"], 1),
        (["baber", "--in", "s.trn"], 1),
        # the loaded tournament and the result
        (["delete", "--in", "s.trn", "--vertices", "11"], 2),
        (["extend", "--in", "p.trn"], 2),
        # the witness
        (["search", "--mode", "exhaustive", "--n", "5"], 1),
        # three random starts and the witness
        (["search", "--mode", "local", "--n", "5", "--restarts", "3", "--steps", "10"], 4),
    ])
    def test_one_scan_per_tournament(self, tmp_path, capsys, monkeypatch, argv, scans):
        save_trn(star_paley(11), tmp_path / "s.trn")
        save_trn(paley_tournament(11), tmp_path / "p.trn")
        monkeypatch.chdir(tmp_path)
        calls = _count_scans(monkeypatch)
        code, _ = run(capsys, *argv)
        assert code == OK and len(calls) == scans


# Runs the README chain in one interpreter, each report swallowed, and prints,
# after the import and after each command, the exit code, whether numpy and
# dataclasses have been imported and the diamondkit modules loaded so far
_NUMPY_PROBE = """
import contextlib, io, json, sys

def loaded(step, code):
    return [step, code, "numpy" in sys.modules, "dataclasses" in sys.modules,
            sorted(m for m in sys.modules if m.partition(".")[0] == "diamondkit")]

import diamondkit.cli
steps = [loaded("import diamondkit.cli", 0)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = diamondkit.cli.main(argv)
    steps.append(loaded(" ".join(argv), code))
print(json.dumps(steps))
"""


class TestNumpyOnlyForSearch:
    """Each command loads only the modules it runs: only the annealer of
    search --mode local imports numpy, so the exhaustive search runs
    without it, and none imports dataclasses.  count and verify of a .trn
    run first, so they show that they load no module the import has not."""

    def test_readme_chain(self, tmp_path):
        save_trn(star_paley(7), tmp_path / "tstar7.trn")
        # each command with the diamondkit modules it adds to those loaded before
        chain = [
            (["count", "--in", "tstar7.trn", "--method", "both"], []),
            (["verify", "--in", "tstar7.trn", "--checks", "conference,extremal-charpoly"], []),
            (["construct", "star-paley", "--q", "7", "--out", "tstar7.trn"],
             ["constructions", "gf"]),
            (["baber", "--in", "tstar7.trn", "--out", "tstar7.hyp"], ["hypergraph"]),
            (["verify", "--in", "tstar7.hyp", "--checks", "ff4,design"], []),
            (["delete", "--in", "tstar7.trn", "--vertices", "7", "--out", "paley7.trn"], []),
            (["extend", "--in", "paley7.trn"], []),
            (["search", "--mode", "exhaustive", "--n", "5"], ["search"]),
            (["search", "--mode", "local", "--n", "5", "--restarts", "1", "--steps", "10"], []),
        ]
        src = os.path.dirname(os.path.dirname(tournament.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _NUMPY_PROBE,
                              json.dumps([argv for argv, _ in chain])],
                             cwd=tmp_path, env=env, capture_output=True, text=True,
                             timeout=120, check=True).stdout
        modules = ["diamondkit", "diamondkit.cli", "diamondkit.spectral", "diamondkit.tournament"]
        want = [["import diamondkit.cli", OK, False, False, sorted(modules)]]
        numpy = False
        for argv, added in chain:
            modules += [f"diamondkit.{m}" for m in added]
            numpy = numpy or "local" in argv
            want.append([" ".join(argv), OK, numpy, False, sorted(modules)])
        assert json.loads(out) == want


@lru_cache(maxsize=None)
def _fuzz_files():
    """Valid, violating, malformed and misnamed inputs, by file name."""
    star = format_trn(star_paley(7)).encode()
    design = baber(star_paley(7))
    removed = min(design.edges)
    broken = type(design)(8, tuple(e for e in design.edges if e != removed))
    hyp = format_hyp(design).encode()
    return {
        "s7.trn": star,
        "p7.trn": format_trn(paley_tournament(7)).encode(),
        "r6.trn": format_trn(random_tournament(6, 1)).encode(),
        "s7.hyp": hyp,
        "broken.hyp": format_hyp(broken).encode(),
        "hyp-as.trn": hyp,
        "trn-as.hyp": star,
        "s7.txt": star,
        "h7.txt": hyp,
        "not-utf8.trn": star.replace(b"0", b"\xff", 1),
        "not-utf8.hyp": hyp + b"\xc3(\n",
        "short.trn": b"4\n0110\n",
        "range.hyp": b"5 1\n0 1 2 5\n",
        "empty.trn": b"",
        # a file error names the path, line break and all
        "line\nbreak.trn": b"3\n01x\n001\n100\n",
    }


# a file name too long for the file system: an OSError names it whole
_LONG_NAME = "x" * 5000
_NAMES = sorted(_fuzz_files()) + ["mutant.trn", "mutant.hyp", "mutant.txt", "missing.trn",
                                  _LONG_NAME]
_TRN_NAMES = ["p7.trn", "s7.trn", "r6.trn", "trn-as.hyp", "s7.txt"]
_HYP_NAMES = ["s7.hyp", "broken.hyp", "hyp-as.trn", "h7.txt"]
_OUT_NAMES = ["out.trn", "line\nbreak-out.trn", _LONG_NAME]
_PATHS = {*_NAMES, *_OUT_NAMES}


# the options that each search mode reads; any other is a usage error
_SEARCH_READS = {"exhaustive": {"--threads"},
                 "local": {"--restarts", "--steps", "--seed"}}

# each st.one_of below draws valid values or any values, so that commands
# succeed and fail in about equal measure


@st.composite
def _argvs(draw):
    def opt(name, value):
        # --flag value or --flag=value: in the first form argparse takes a
        # value such as "-1e+16" for an option, a usage error
        return [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", str(value)]

    cmd = draw(st.sampled_from(["construct", "count", "verify", "baber", "delete", "extend",
                                "search"]))
    argv = [cmd]
    if cmd == "construct":
        argv.append(draw(st.sampled_from(["paley", "star-paley"])))
        form = draw(st.sampled_from(["q", "p,k", "neither"]))
        if form == "q":
            q = st.one_of(st.sampled_from([3, 7, 11, 19, 27, 43]),
                          st.integers(-3, 60) | st.sampled_from([503, 512, 1019, 10 ** 30]))
            argv += opt("q", draw(q))
        elif form == "p,k":
            p = st.one_of(st.sampled_from([3, 7, 11]), st.integers(-2, 12) | st.just(10 ** 20))
            k = st.one_of(st.integers(1, 2),
                          st.integers(-2, 4) | st.sampled_from([9, 10, 10 ** 4]))
            argv += opt("p", draw(p)) + opt("k", draw(k))
    elif cmd == "search":
        mode = draw(st.sampled_from(sorted(_SEARCH_READS)))
        n = st.one_of(st.integers(4, 7), st.integers(2, 7))
        argv += opt("mode", mode) + opt("n", draw(n))
        values = {"--threads": st.one_of(st.integers(1, 2), st.integers(-1, 2)),
                  "--restarts": st.one_of(st.integers(1, 3), st.integers(-1, 3)),
                  "--steps": st.integers(-1, 200), "--seed": st.integers(-5, 5)}
        for flag, value in values.items():
            # any option for either mode: one the mode reads half the time,
            # one it does not read a quarter of the time
            if draw(st.integers(0, 3)) < (2 if flag in _SEARCH_READS[mode] else 1):
                argv += opt(flag[2:], draw(value))
    else:
        tournament_checks = st.lists(st.sampled_from(["conference", "extremal-charpoly"]),
                                     min_size=1, max_size=2)
        hypergraph_checks = st.lists(st.sampled_from(["ff4", "design"]), min_size=1, max_size=2)
        any_checks = st.lists(st.sampled_from(["conference", "extremal-charpoly", "ff4",
                                               "design", "bogus", " "]), max_size=3)
        # many short unknown names, or a mixed list: each refusal is one short line
        floods = st.sampled_from([[f"b{i}" for i in range(1000)], ["ff4"] + ["conference"] * 500])
        checks = draw(tournament_checks | hypergraph_checks | any_checks | floods)
        hyp_input = cmd == "verify" and bool(checks) and set(checks) <= {"ff4", "design"}
        names = _HYP_NAMES if hyp_input else _TRN_NAMES
        argv += opt("in", draw(st.one_of(st.sampled_from(names), st.sampled_from(_NAMES))))
        if cmd == "count":
            argv += opt("method", draw(st.sampled_from(["naive", "spectral", "both"])))
        elif cmd == "verify":
            argv += opt("checks", ",".join(checks))
        elif cmd == "delete":
            junk = st.integers(-2, 9).map(str) | st.sampled_from(["", "x", " 1"])
            vertices = st.one_of(st.lists(st.integers(0, 6).map(str), min_size=1, max_size=3),
                                 st.lists(junk, max_size=4))
            argv += opt("vertices", ",".join(draw(vertices)))
    if cmd in ("construct", "baber", "delete", "search") and draw(st.booleans()):
        argv += opt("out", draw(st.sampled_from(_OUT_NAMES)))
    return argv


class TestExitContract:
    """Any argv that parses exits 0, 1 or 2: 1 exactly when the report says
    violated, 2 with nothing on stdout and one error: line on stderr."""

    @settings(max_examples=300, deadline=None)
    @given(_argvs(), st.sampled_from(sorted(_fuzz_files())), st.integers(0, 200),
           st.binary(min_size=1, max_size=2))
    def test_main(self, argv, base, pos, patch):
        files = dict(_fuzz_files())
        data = files[base]
        pos %= len(data) + 1
        mutant = data[:pos] + patch + data[pos + 1:]
        for name in ("mutant.trn", "mutant.hyp", "mutant.txt"):
            files[name] = mutant
        with tempfile.TemporaryDirectory() as work:
            for name, content in files.items():
                with open(os.path.join(work, name), "wb") as fh:
                    fh.write(content)
            def in_work(a):
                # a file name, alone or after "--flag=", moves into the work directory
                head, eq, name = a.rpartition("=")
                return head + eq + os.path.join(work, name) if name in _PATHS else a
            argv = [in_work(a) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (OK, VIOLATED, INPUT_ERROR)
        flags = {a.partition("=")[0] for a in argv if a.startswith("--")}
        if argv[0] == "construct" and ("--q" not in flags or flags & {"--p", "--k"}):
            # --q alone names the order: --p, --k or no --q is a usage error
            assert code == INPUT_ERROR
        if argv[0] == "search":
            mode = "local" if {"local", "--mode=local"} & set(argv) else "exhaustive"
            if flags & set().union(*_SEARCH_READS.values()) - _SEARCH_READS[mode]:
                # each mode reads only its own options
                assert code == INPUT_ERROR
        if code == INPUT_ERROR:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].isprintable()
        else:
            assert err.getvalue() == ""
            assert (code == VIOLATED) == (json.loads(out.getvalue())["status"] == "violated")
