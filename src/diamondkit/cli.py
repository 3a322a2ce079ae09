"""Command-line entry point: constructions, counting, verification, Baber,
deletion, extension and search, all emitting JSON reports.

Exit codes: 0 all checks pass, 1 a checked property is violated (or methods
disagree), 2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, constructions, hypergraph, search, spectral, tournament

OK = 0
VIOLATED = 1
INPUT_ERROR = 2


def _rat(x) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator, "decimal": float(f)}


def _emit(report, path=None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(command, inputs, results, status):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "status": status,
        "versions": {"diamondkit": __version__},
    }


def _load_trn(path):
    try:
        return tournament.load_trn(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except tournament.TrnFormatError as exc:
        loc = f" (line {exc.line}" + (f", column {exc.column})" if exc.column else ")") \
            if exc.line else ""
        raise CliError(f"{path}: {exc}{loc}") from exc


def _load_hyp(path):
    try:
        return hypergraph.load_hyp(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except hypergraph.HypFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc


class CliError(Exception):
    """Input or usage error, mapped to exit code 2."""


def cmd_construct(args):
    if args.q is not None:
        q = args.q
    elif args.p is not None and args.k is not None:
        q = args.p ** args.k
    else:
        raise CliError("give either --q or both --p and --k")
    try:
        t = constructions.star_paley(q) if args.kind == "star-paley" \
            else constructions.paley_tournament(q)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.out:
        tournament.save_trn(t, args.out)
    s = spectral.seidel_from_tournament(t)
    delta = spectral.count_diamonds_spectral(t)
    results = {
        "kind": args.kind,
        "q": q,
        "n": t.n,
        "diamonds": delta,
        "bound": _rat(spectral.diamond_upper_bound(t.n)) if t.n >= 4 else None,
        "skew_conference": spectral.is_skew_conference(s),
        "out": args.out,
    }
    _emit(_report("construct", {"kind": args.kind, "q": q}, results, "ok"), args.report)
    return OK


def cmd_count(args):
    t = _load_trn(args.input)
    results = {"n": t.n, "method": args.method}
    status = "ok"
    code = OK
    naive = spectral_count = None
    if args.method in ("naive", "both"):
        naive = tournament.count_diamonds(t)
        results["naive"] = naive
    if args.method in ("spectral", "both"):
        spectral_count = spectral.count_diamonds_spectral(t)
        results["spectral"] = spectral_count
    delta = naive if naive is not None else spectral_count
    if args.method == "both" and naive != spectral_count:
        status = "violated"
        code = VIOLATED
    bound = spectral.diamond_upper_bound(t.n) if t.n >= 4 else None
    results["bound"] = _rat(bound) if bound is not None else None
    results["attained"] = bound is not None and bound.denominator == 1 and delta == bound
    _emit(_report("count", {"in": args.input}, results, status), args.report)
    return code


def _verify_tournament_checks(t, checks, results):
    s = spectral.seidel_from_tournament(t)
    failed = False
    if "conference" in checks:
        ok = spectral.is_skew_conference(s)
        results["conference"] = ok
        failed |= not ok
    if "extremal-charpoly" in checks:
        verdict = spectral.matches_extremal_charpoly(s)
        results["extremal_charpoly"] = verdict
        failed |= verdict == spectral.NOT_EXTREMAL
    return failed


def _verify_hypergraph_checks(h, checks, results):
    if "ff4" in checks and h.n < 5:
        raise CliError(f"ff4 check needs n >= 5, got n={h.n}")
    if "design" in checks and h.n % 4 != 0:
        raise CliError(f"design check needs n divisible by 4, got n={h.n}")
    failed = False
    results["m"] = h.m
    results["bound"] = results["margin"] = None
    if h.n >= 5:
        bound, status = hypergraph.edge_count_bound(h.n)
        results["bound"] = {**_rat(bound), "status": status}
        results["margin"] = _rat(bound - h.m)
    # one FF4 test serves both checks (it is vacuous below n=5)
    bad = hypergraph.verify_ff4(h) if h.n >= 5 else None
    if "ff4" in checks:
        results["ff4"] = bad is None
        if bad is not None:
            results["ff4_counterexample"] = {"five_set": list(bad[0]), "count": bad[1]}
            failed = True
    if "design" in checks:
        ok = bad is None and hypergraph.is_3_design(h, h.n // 4)
        results["design"] = ok
        results["design_lambda"] = h.n // 4 if ok else None
        failed |= not ok
    return failed


def cmd_verify(args):
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    t_checks = {"conference", "extremal-charpoly"}
    h_checks = {"ff4", "design"}
    unknown = set(checks) - t_checks - h_checks
    if unknown:
        raise CliError(f"unknown checks: {sorted(unknown)}")
    results = {}
    if args.input.endswith(".hyp") or set(checks) <= h_checks and not args.input.endswith(".trn"):
        h = _load_hyp(args.input)
        if set(checks) - h_checks:
            raise CliError("tournament checks requested on a hypergraph input")
        failed = _verify_hypergraph_checks(h, checks, results)
    else:
        t = _load_trn(args.input)
        if set(checks) - t_checks:
            raise CliError("hypergraph checks requested on a tournament input")
        failed = _verify_tournament_checks(t, checks, results)
    status = "violated" if failed else "ok"
    _emit(_report("verify", {"in": args.input, "checks": checks}, results, status), args.report)
    return VIOLATED if failed else OK


def cmd_baber(args):
    t = _load_trn(args.input)
    h = hypergraph.baber(t)
    if args.out:
        hypergraph.save_hyp(h, args.out)
    bound, status = hypergraph.edge_count_bound(h.n) if h.n >= 5 else (None, None)
    results = {"n": h.n, "m": h.m, "out": args.out}
    if bound is not None:
        results["bound"] = {**_rat(bound), "status": status}
    _emit(_report("baber", {"in": args.input}, results, "ok"), args.report)
    return OK


def cmd_delete(args):
    t = _load_trn(args.input)
    try:
        drop = [int(v) for v in args.vertices.split(",")]
        sub = constructions.delete_vertices(t, drop)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.out:
        tournament.save_trn(sub, args.out)
    results = {
        "n": sub.n,
        "dropped": drop,
        "diamonds": spectral.count_diamonds_spectral(sub),
        "bound": _rat(spectral.diamond_upper_bound(sub.n)),
        "out": args.out,
    }
    _emit(_report("delete", {"in": args.input, "vertices": drop}, results, "ok"), args.report)
    return OK


def cmd_extend(args):
    t = _load_trn(args.input)
    s = spectral.seidel_from_tournament(t)
    try:
        ext = constructions.extend_to_conference(s)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except constructions.ExtensionFailed as exc:
        _emit(_report("extend", {"in": args.input},
                      {"error": str(exc)}, "violated"), args.report)
        return VIOLATED
    results = {
        "n": ext.n,
        "skew_conference": spectral.is_skew_conference(ext),
        "kernel_column": ext.to_numpy()[:-1, -1].tolist(),
    }
    _emit(_report("extend", {"in": args.input}, results, "ok"), args.report)
    return OK


def cmd_search(args):
    # the search functions check every limit before they start work
    try:
        if args.mode == "exhaustive":
            res = search.exhaustive_max_diamonds(args.n, threads=args.threads,
                                                 long_run=args.long_run)
        else:
            res = search.local_search_max_diamonds(
                args.n, restarts=args.restarts, steps=args.steps, t0=args.t0,
                cooling=args.cooling, seed=args.seed, threads=args.threads)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.out:
        tournament.save_trn(res.witness, args.out)
    results = {
        "n": res.n,
        "mode": res.mode,
        "max_diamonds": res.max_diamonds,
        "bound": _rat(res.bound),
        "attained": res.attained,
        "explored": res.explored,
        "params": res.params,
        "witness_trn": tournament.format_trn(res.witness),
        "out": args.out,
    }
    _emit(_report("search", {"n": args.n, "mode": args.mode}, results, "ok"), args.report)
    return OK


def build_parser():
    p = argparse.ArgumentParser(prog="diamondkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a Paley or star-Paley tournament")
    c.add_argument("kind", choices=["paley", "star-paley"])
    c.add_argument("--q", type=int)
    c.add_argument("--p", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--out")
    c.add_argument("--report")
    c.set_defaults(func=cmd_construct)

    c = sub.add_parser("count", help="count diamonds in a .trn file")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--method", choices=["naive", "spectral", "both"], default="both")
    c.add_argument("--report")
    c.set_defaults(func=cmd_count)

    c = sub.add_parser("verify", help="check FF4/design or conference/extremal properties")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--checks", required=True,
                   help="comma list: ff4,design (for .hyp) or conference,extremal-charpoly (for .trn)")
    c.add_argument("--report")
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("baber", help="diamond hypergraph of a tournament")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--out")
    c.add_argument("--report")
    c.set_defaults(func=cmd_baber)

    c = sub.add_parser("delete", help="delete vertices from a tournament")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--vertices", required=True, help="comma list of vertex indices")
    c.add_argument("--out")
    c.add_argument("--report")
    c.set_defaults(func=cmd_delete)

    c = sub.add_parser("extend", help="extend an odd-extremal Seidel matrix to a conference matrix")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--report")
    c.set_defaults(func=cmd_extend)

    c = sub.add_parser("search", help="search for diamond-maximal tournaments")
    c.add_argument("--mode", choices=["exhaustive", "local"], default="exhaustive")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--threads", type=int, default=1)
    c.add_argument("--long-run", action="store_true")
    c.add_argument("--restarts", type=int, default=4)
    c.add_argument("--steps", type=int, default=2000)
    c.add_argument("--t0", type=float, default=2.0)
    c.add_argument("--cooling", type=float, default=0.999)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.add_argument("--report")
    c.set_defaults(func=cmd_search)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return INPUT_ERROR if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
