"""Command-line entry point: constructions, counting, verification, Baber,
deletion, extension and search, all emitting JSON reports.

Exit codes: 0 the report's status is ok, 1 it is violated (a check fails or
methods disagree), 2 input or usage error (an InputError or OSError),
reported as one error: line on stderr.  Any other exception is a bug.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

# every command reads or writes a tournament and most square its Seidel
# matrix; the other modules are imported by the commands that run them
from . import __version__, spectral, tournament
from .tournament import InputError, parse_int

OK = 0
VIOLATED = 1
INPUT_ERROR = 2


def _rat(x) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator, "decimal": float(f)}


def _diamond_bound(n, diamonds) -> dict:
    """The diamond bound of n as reported, and whether diamonds attains it."""
    bound = spectral.diamond_upper_bound(n)
    return {"bound": _rat(bound), "attained": diamonds == bound}


def _bound(h, ff4):
    """edge_count_bound of h as reported; a conjectural bound that an FF4
    hypergraph (ff4 true) exceeds is refuted."""
    from . import hypergraph

    bound, status = hypergraph.edge_count_bound(h.n)
    if status == hypergraph.CONJECTURAL and ff4 and h.m > bound:
        status = hypergraph.REFUTED
    return bound, {**_rat(bound), "status": status}


def _load(read, path):
    """read(path), with the path put before an InputError (an OSError names it)."""
    try:
        return read(path)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as InputError, so main reports them like any
    other input error; add_subparsers makes every subparser one too."""

    def error(self, message):
        raise InputError(message)


def _int(text):
    """The argparse type of every numeric option: parse_int, whose refusal
    argparse reports as an invalid int value, echoing at most 40 characters
    (tournament._quote)."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {tournament._quote(text)}") from None


# Every cmd_* returns (inputs, results, status); main prints the report.

def _built(t, out) -> dict:
    """Save t to out when given, and report its order, diamonds and bound."""
    if out:
        tournament.save_trn(t, out)
    diamonds = spectral.count_diamonds_spectral(t)
    return {"n": t.n, "diamonds": diamonds, **_diamond_bound(t.n, diamonds), "out": out}


def cmd_construct(args):
    from . import constructions

    t = constructions.star_paley(args.q) if args.kind == "star-paley" \
        else constructions.paley_tournament(args.q)
    results = {"kind": args.kind, "q": args.q, **_built(t, args.out),
               "skew_conference": spectral.matches_extremal_charpoly(t) == spectral.EVEN_EXTREMAL}
    return {"kind": args.kind, "q": args.q}, results, "ok"


# count's methods in --method's order; the first that runs is held to the bound.
# Each calls its module's function by name, so a rebound one (a tracer's) runs
_COUNTS = {"naive": lambda t: tournament.count_diamonds(t),
           "spectral": lambda t: spectral.count_diamonds_spectral(t)}


def cmd_count(args):
    t = _load(tournament.load_trn, args.input)
    counts = {m: count(t) for m, count in _COUNTS.items() if args.method in (m, "both")}
    results = {"n": t.n, "method": args.method, **counts,
               **_diamond_bound(t.n, next(iter(counts.values())))}
    return {"in": args.input}, results, "violated" if len(set(counts.values())) > 1 else "ok"


def _verify_tournament(path, checks):
    # one verdict answers both checks: S^2 = -(n-1) I is its even-extremal case
    verdict = spectral.matches_extremal_charpoly(_load(tournament.load_trn, path))
    results = {}
    failed = False
    if "conference" in checks:
        results["conference"] = verdict == spectral.EVEN_EXTREMAL
        failed |= not results["conference"]
    if "extremal-charpoly" in checks:
        results["extremal_charpoly"] = verdict
        failed |= verdict == spectral.NOT_EXTREMAL
    return results, failed


def _verify_hypergraph(path, checks):
    from . import hypergraph

    h = _load(hypergraph.load_hyp, path)
    if "design" in checks and h.n % 4 != 0:
        raise InputError(f"design check needs n divisible by 4, got n={h.n}")
    # one FF4 test serves both checks and the bound
    bad = hypergraph.verify_ff4(h)
    bound, reported = _bound(h, bad is None)
    results = {"m": h.m, "bound": reported, "margin": _rat(bound - h.m)}
    failed = False
    if "ff4" in checks:
        results["ff4"] = bad is None
        if bad is not None:
            results["ff4_counterexample"] = {"five_set": list(bad[0]), "count": bad[1]}
            failed = True
    if "design" in checks:
        # every triple in n/4 edges is the bound's equality case (edge_count_bound)
        ok = bad is None and h.m == bound
        results["design"] = ok
        results["design_lambda"] = h.n // 4 if ok else None
        failed |= not ok
    return results, failed


# the checks pick the reader: tournament checks read a .trn, hypergraph
# checks a .hyp, whatever the file is called
_VERIFIERS = {"conference": _verify_tournament, "extremal-charpoly": _verify_tournament,
              "ff4": _verify_hypergraph, "design": _verify_hypergraph}


def cmd_verify(args):
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not checks:
        raise InputError(f"--checks names no check, got {tournament._quote(args.checks)}")
    unknown = set(checks) - set(_VERIFIERS)
    if unknown:
        raise InputError(f"unknown checks: [{', '.join(map(tournament._quote, sorted(unknown)))}]")
    verifiers = {_VERIFIERS[c] for c in checks}
    if len(verifiers) != 1:
        raise InputError("--checks takes tournament checks (conference, extremal-charpoly) or "
                         "hypergraph checks (ff4, design), one kind only")
    results, failed = verifiers.pop()(args.input, checks)
    return {"in": args.input, "checks": checks}, results, "violated" if failed else "ok"


def cmd_baber(args):
    from . import hypergraph

    t = _load(tournament.load_trn, args.input)
    h = hypergraph.baber(t)
    if args.out:
        hypergraph.save_hyp(h, args.out)
    # the diamond hypergraph of a tournament is always FF4
    results = {"n": h.n, "m": h.m, "bound": _bound(h, True)[1], "out": args.out}
    return {"in": args.input}, results, "ok"


def cmd_delete(args):
    from . import constructions

    t = _load(tournament.load_trn, args.input)
    drop = [parse_int(v.strip()) for v in args.vertices.split(",")]
    sub = constructions.delete_vertices(t, drop)
    return {"in": args.input, "vertices": drop}, {**_built(sub, args.out), "dropped": drop}, "ok"


def cmd_extend(args):
    from . import constructions

    t = _load(tournament.load_trn, args.input)
    ext = constructions.extend_to_conference(t)
    results = {
        "n": ext.n,
        # the one check of the bordering (see extend_to_conference): B^2 = -nI
        "skew_conference": spectral.matches_extremal_charpoly(ext) == spectral.EVEN_EXTREMAL,
        # column n of the bordered S: +1 where vertex i dominates the new vertex n
        "kernel_column": [1 if (r >> t.n) & 1 else -1 for r in ext.rows[:-1]],
    }
    return {"in": args.input}, results, "ok" if results["skew_conference"] else "violated"


# each search mode: its function in diamondkit.search and the options it
# reads, which the parser defaults to None so that the function's defaults hold
_SEARCH_MODES = {"exhaustive": ("exhaustive_max_diamonds", ("threads",)),
                 "local": ("local_search_max_diamonds", ("restarts", "steps", "seed"))}


def cmd_search(args):
    # only the annealer (--mode local) imports numpy; the scan runs without it
    from . import search

    name, reads = _SEARCH_MODES[args.mode]
    given = {o: getattr(args, o) for _, options in _SEARCH_MODES.values() for o in options
             if getattr(args, o) is not None}
    foreign = [f"--{o}" for o in given if o not in reads]
    if foreign:
        raise InputError(f"--mode {args.mode} does not read {', '.join(foreign)}")
    # the search function checks every limit before it starts work
    res = getattr(search, name)(args.n, **given)
    if args.out:
        tournament.save_trn(res.witness, args.out)
    results = {
        "n": res.witness.n,
        "mode": args.mode,
        "max_diamonds": res.max_diamonds,
        **_diamond_bound(res.witness.n, res.max_diamonds),
        "explored": res.explored,
        "params": res.params,
        "witness_trn": tournament.format_trn(res.witness),
        "out": args.out,
    }
    return {"n": args.n, "mode": args.mode}, results, "ok"


def build_parser():
    p = _Parser(prog="diamondkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a Paley or star-Paley tournament")
    c.add_argument("kind", choices=["paley", "star-paley"])
    c.add_argument("--q", type=_int, required=True)
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    c = sub.add_parser("count", help="count diamonds in a .trn file")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--method", choices=[*_COUNTS, "both"], default="both")
    c.set_defaults(func=cmd_count)

    c = sub.add_parser("verify", help="check FF4/design or conference/extremal properties")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--checks", required=True,
                   help="comma list: ff4,design (read as .hyp) or "
                        "conference,extremal-charpoly (read as .trn)")
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("baber", help="diamond hypergraph of a tournament")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--out")
    c.set_defaults(func=cmd_baber)

    c = sub.add_parser("delete", help="delete vertices from a tournament")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--vertices", required=True, help="comma list of vertex indices")
    c.add_argument("--out")
    c.set_defaults(func=cmd_delete)

    c = sub.add_parser("extend", help="extend an odd-extremal Seidel matrix to a conference matrix")
    c.add_argument("--in", dest="input", required=True)
    c.set_defaults(func=cmd_extend)

    c = sub.add_parser("search", help="search for diamond-maximal tournaments")
    c.add_argument("--mode", choices=_SEARCH_MODES, default="exhaustive")
    c.add_argument("--n", type=_int, required=True)
    c.add_argument("--threads", type=_int,
                   help="exhaustive only: 1 to 64, checked and reported, not used")
    for option in ("--restarts", "--steps", "--seed"):
        c.add_argument(option, type=_int, help="local only")
    c.add_argument("--out")
    c.set_defaults(func=cmd_search)
    return p


def main(argv=None) -> int:
    """Run one command; exit 1 comes only from a report whose status is violated."""
    try:
        args = build_parser().parse_args(argv)
        inputs, results, status = args.func(args)
        print(json.dumps({"command": args.command, "inputs": inputs, "results": results,
                          "status": status, "versions": {"diamondkit": __version__}},
                         indent=2, sort_keys=True))
    except SystemExit:
        # only --help and --version exit: usage errors raise InputError
        return OK
    except (InputError, OSError) as exc:
        # one printable line: a text over 400 characters or with a line break
        # has each word, between spaces or ": ", over 40 characters cut to its
        # two ends by tournament._quote, then is clipped whole if still too long
        message = str(exc)
        if len(message) > 400 or not message.isprintable():
            words = re.split("(:? )", message)  # words at even places
            words[::2] = [w if len(w) <= 40 and w.isprintable() else tournament._quote(w.strip("'"))
                          for w in words[::2]]
            message = "".join(words)
            message = message if len(message) <= 400 else tournament._quote(message)
        print(f"error: {message}", file=sys.stderr)
        return INPUT_ERROR
    return VIOLATED if status == "violated" else OK


if __name__ == "__main__":
    sys.exit(main())
