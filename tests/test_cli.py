import json

import numpy as np
import pytest

from diamondkit import hypergraph, tournament
from diamondkit.cli import INPUT_ERROR, OK, VIOLATED, main
from diamondkit.constructions import paley_tournament, star_paley
from diamondkit.hypergraph import baber, format_hyp, load_hyp, save_hyp
from diamondkit.spectral import seidel_from_tournament
from diamondkit.tournament import format_trn, load_trn, save_trn, random_tournament


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
        code, report = run(capsys, "construct", "paley", "--p", "3", "--k", "3")
        assert code == OK
        assert report["results"]["n"] == 27


class TestCount:
    def test_both_agree_attained(self, tmp_path, capsys):
        path = tmp_path / "t.trn"
        save_trn(star_paley(7), path)
        code, report = run(capsys, "count", "--in", str(path), "--method", "both")
        assert code == OK
        assert report["results"]["naive"] == report["results"]["spectral"] == 28
        assert report["results"]["attained"] is True
        assert report["results"]["bound"] == {"num": 28, "den": 1, "decimal": 28.0}

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

    def test_three_vertices_no_bound(self, tmp_path, capsys):
        path = tmp_path / "c3.trn"
        path.write_text("3\n010\n001\n100\n")
        code, report = run(capsys, "count", "--in", str(path))
        assert code == OK
        assert report["results"]["naive"] == report["results"]["spectral"] == 0
        assert report["results"]["bound"] is None
        assert report["results"]["attained"] is False

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
        path.write_text(format_hyp(type(h)(h.n, h.edges - {removed})))
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

    def test_delete_command(self, tmp_path, capsys):
        trn = tmp_path / "t.trn"
        out = tmp_path / "d.trn"
        save_trn(star_paley(7), trn)
        code, report = run(capsys, "delete", "--in", str(trn),
                           "--vertices", "7", "--out", str(out))
        assert code == OK
        assert report["results"]["n"] == 7
        assert report["results"]["diamonds"] == 14

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
        assert report["results"]["bound"] == {"num": 5, "den": 2, "decimal": 2.5}
        assert report["results"]["attained"] is False

    def test_local_seeded(self, tmp_path, capsys):
        out = tmp_path / "w.trn"
        code, report = run(capsys, "search", "--mode", "local", "--n", "8",
                           "--restarts", "4", "--steps", "2000", "--seed", "0",
                           "--out", str(out))
        assert code == OK
        w = load_trn(out)
        from diamondkit.tournament import count_diamonds_naive
        assert count_diamonds_naive(w) == report["results"]["max_diamonds"]

    def test_n8_needs_long_run(self, capsys):
        code, _ = run(capsys, "search", "--mode", "exhaustive", "--n", "8")
        assert code == INPUT_ERROR

    def test_report_file(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        code = main(["search", "--mode", "exhaustive", "--n", "4",
                     "--report", str(report_path)])
        assert code == OK
        report = json.loads(report_path.read_text())
        assert report["results"]["max_diamonds"] == 1
        assert report["versions"]["diamondkit"]


class TestSearchArguments:
    @pytest.mark.parametrize("argv", [
        ("--mode", "local", "--n", "8", "--restarts", "0"),
        ("--mode", "local", "--n", "8", "--restarts", "-1"),
        ("--mode", "exhaustive", "--n", "5", "--threads", "0"),
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
        ("--n", "3"),
        ("--n", "513"),
        ("--n", "8", "--steps", "-5"),
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
        code, report = run(capsys, "search", "--mode", "local", "--n", "6",
                           "--restarts", "3", "--steps", "0", "--t0", "0")
        assert code == OK
        assert report["results"]["explored"] == 3


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert main([]) == INPUT_ERROR

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == INPUT_ERROR


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

    def test_ff4_below_5_vertices_exit_2(self, tmp_path, capsys):
        path = tmp_path / "h.hyp"
        save_hyp(baber(star_paley(3)), path)
        for checks in ("ff4", "ff4,design"):
            assert main(["verify", "--in", str(path), "--checks", checks]) == INPUT_ERROR
            assert one_line_error(capsys)

    def test_design_at_4_vertices(self, tmp_path, capsys):
        # Baber of T*(3) is the single-block 3-(4,4,1) design
        path = tmp_path / "h.hyp"
        save_hyp(baber(star_paley(3)), path)
        code, report = run(capsys, "verify", "--in", str(path), "--checks", "design")
        assert code == OK
        results = report["results"]
        assert results["bound"] is None and results["margin"] is None
        assert results["design"] is True and results["design_lambda"] == 1

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
        path.write_text(format_hyp(type(h)(h.n, h.edges - {min(h.edges)})))
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
    @pytest.mark.parametrize("q", [7, 43])
    def test_kernel_column(self, tmp_path, capsys, q):
        trn = tmp_path / "p.trn"
        t = paley_tournament(q)
        save_trn(t, trn)
        code, report = run(capsys, "extend", "--in", str(trn))
        assert code == OK
        u = report["results"]["kernel_column"]
        assert len(u) == q and u[0] == 1 and set(u) <= {-1, 1}
        s = seidel_from_tournament(t).to_numpy()
        assert not (s @ np.array(u, dtype=np.int64)).any()


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
        assert err == f"error: {path}: line 3: byte 0xc3 is not UTF-8 text\n"


class TestThreadLimit:
    @pytest.mark.parametrize("argv", [
        ("--mode", "exhaustive", "--n", "8", "--long-run", "--threads", "65"),
        ("--mode", "local", "--n", "8", "--threads", "100000"),
    ])
    def test_above_max_threads_exit_2(self, monkeypatch, capsys, argv):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool constructed")
        monkeypatch.setattr("diamondkit.search.ThreadPoolExecutor", no_pool)
        assert main(["search", *argv]) == INPUT_ERROR
        assert one_line_error(capsys)


class TestOneSquaringPerMatrix:
    """Each command squares a Seidel matrix at most once: every check reads
    the S^2 cached on the matrix.  extend squares S and the bordered matrix."""

    def test_squarings(self, tmp_path, capsys, monkeypatch):
        orders = []
        square = tournament._square

        def counted(a):
            orders.append(len(a))
            return square(a)
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
