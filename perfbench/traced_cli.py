"""Run one diamondkit CLI command with its layers traced.

Usage: python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...

Before the command runs, every public function of the modules in MODULES
(and the methods in METHODS) is replaced by a wrapper that records a span:
name, start, end, the enclosing span, the process's minor page faults during
the call, and the size of the first argument (n of a tournament, Seidel
matrix or hypergraph, an int argument itself, or the length of a text).
The wrapper is bound in every diamondkit namespace that holds the function,
so `from .tournament import flip_arc` call sites are traced too.  Spans stay
in memory and are written to SPANS_JSON when the command returns; run.py
derives busy and self times from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import threading
import time

MODULES = ("cli", "gf", "constructions", "tournament", "spectral", "hypergraph", "search")
METHODS = (
    "tournament.Tournament.adjacency",
    "spectral.SeidelMatrix.__post_init__",
    "spectral.SeidelMatrix.to_numpy",
    "gf.FieldTable.squares",
    "hypergraph.Hypergraph4.__post_init__",
)
# Called once per 4-subset, pair or minor: a span each would time the wrapper,
# not the work, so their work is reported as computed counts of the caller.
PER_ELEMENT = {"tournament.is_diamond", "search.pair_index", "spectral.bareiss_det"}

SPANS: list = []
_stack = threading.local()


def _size(args):
    if not args:
        return None
    x = args[0]
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return len(x)
    n = getattr(x, "n", None)
    return n if isinstance(n, int) else None


def _wrap(name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = _stack.__dict__.setdefault("ids", [])
        parent = stack[-1] if stack else -1
        idx = len(SPANS)
        SPANS.append(None)
        stack.append(idx)
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt
            stack.pop()
            SPANS[idx] = [name, t0, t1, parent, flt, _size(args)]
    return traced


def install():
    """Wrap the traced functions and rebind them wherever they were imported.

    A module, class or method that no longer exists is skipped, so its
    metrics read 0 instead of the traced run failing.
    """
    wrapped = {}
    for short in MODULES:
        mod = sys.modules.get(f"diamondkit.{short}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in PER_ELEMENT):
                wrapped[obj] = _wrap(name, obj)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "diamondkit" or mod_name.startswith("diamondkit."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
    for name in METHODS:
        short, cls_name, meth = name.split(".")
        cls = getattr(sys.modules.get(f"diamondkit.{short}"), cls_name, None)
        if inspect.isfunction(getattr(cls, meth, None)):
            setattr(cls, meth, _wrap(name, getattr(cls, meth)))


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import diamondkit.cli

    install()
    try:
        code = diamondkit.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(SPANS, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
