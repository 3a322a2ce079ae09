import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import diamondkit
from diamondkit.gf import gf_build
from diamondkit.hypergraph import Hypergraph4, baber
from diamondkit.search import SearchResult
from diamondkit.tournament import Tournament, random_tournament

import oracles

# the names `diamondkit` exported when its __init__ imported every module,
# by the module that held them then; the package root exports none of them
EXPORTS = {
    "tournament": ["ArcFlip", "Tournament", "count_diamonds", "diamond_delta_on_flip",
                   "is_diamond", "random_tournament", "validate"],
    "spectral": ["CharPoly", "char_poly", "count_diamonds_spectral", "diamond_upper_bound",
                 "is_skew_conference", "kernel_sign_vector", "matches_extremal_charpoly",
                 "sigma4_upper_bound", "sigma_from_traces", "sum_principal_minors"],
    "constructions": ["delete_vertices", "extend_to_conference", "paley_tournament",
                      "star_paley"],
    "gf": ["FieldTable", "gf_build"],
    "hypergraph": ["Hypergraph4", "baber", "design_block_counts", "delete_vertices_count",
                   "edge_count_bound", "is_3_design", "is_ff4_design", "min_sum_squares",
                   "triple_profile", "verify_ff4", "verify_ff4_naive"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
# the test oracles among them, which live beside the tests in oracles.py,
# outside the package (is_skew_conference and is_3_design among them:
# production reads the even-extremal verdict and the FF4 bound's equality case)
ORACLES = {"char_poly", "delete_vertices_count", "design_block_counts", "diamond_delta_on_flip",
           "is_3_design", "is_skew_conference", "min_sum_squares", "sigma_from_traces",
           "sum_principal_minors", "triple_profile", "verify_ff4_naive"}
# deleted: production decides diamonds by tournament._diamond_lanes alone,
# Tournament(rows) checks every tournament it makes, `verify --checks design`
# is the one design verdict, sigma_4's bound is 8 * diamonds + C(n,4), the
# extremal verdict is the bound's equality case, and the oracles take an arc
# as i, j and give char_poly's coefficients as a tuple
DELETED = {"ArcFlip", "CharPoly", "is_diamond", "is_ff4_design", "kernel_sign_vector",
           "sigma4_upper_bound", "validate"}
# the production modules: all that the package holds
MODULES = ["cli", "constructions", "gf", "hypergraph", "search", "spectral", "tournament"]


class TestLazyExports:
    """Each name has one import path, the module that defines it: the
    package root defines no public name but __version__ and re-exports none."""

    def test_34_names(self):
        assert len(NAMES) == 34
        assert ORACLES | DELETED < {name for _, name in NAMES}

    @pytest.mark.parametrize("module,name", NAMES)
    def test_from_import(self, module, name):
        with pytest.raises(ImportError):
            exec(f"from diamondkit import {name}", {})
        assert name not in dir(diamondkit)
        if name not in ORACLES | DELETED:
            obj = getattr(importlib.import_module(f"diamondkit.{module}"), name)
            assert obj.__module__ == f"diamondkit.{module}"
            return
        # in no diamondkit module; an oracle is defined in the tests' oracles
        for home in MODULES:
            assert not hasattr(importlib.import_module(f"diamondkit.{home}"), name)
        if name in ORACLES:
            assert getattr(oracles, name).__module__ == "oracles"
        else:
            assert not hasattr(oracles, name)

    def test_package_holds_the_production_modules(self):
        assert sorted(m.name for m in pkgutil.iter_modules(diamondkit.__path__)) == MODULES

    def test_star_import(self):
        # a fresh interpreter: an imported submodule becomes an attribute of
        # the package, so this process's diamondkit has some
        code = ("import diamondkit; namespace = {}; exec('from diamondkit import *', namespace); "
                "print([x for x in dir(diamondkit) if not x.startswith('_')], "
                "sorted(x for x in namespace if not x.startswith('_')), diamondkit.__version__)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(diamondkit.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out == "[] [] 0.1.0\n"

    def test_tournament_is_its_rows(self):
        # the arc readers are gone, and the builders only tests call are oracles
        from diamondkit import tournament
        for name in ("dom", "out_degree", "_vertex"):
            assert not hasattr(Tournament, name)
        for name in ("from_arcs", "reverse"):
            assert not hasattr(tournament, name)
            assert getattr(oracles, name).__module__ == "oracles"

    def test_hypergraph_has_one_constructor(self):
        # Hypergraph4(n, edges) checks every hypergraph: the second,
        # sorting constructor is gone
        from diamondkit import hypergraph
        assert not hasattr(hypergraph, "hypergraph")

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            diamondkit.no_such_name
        with pytest.raises(ImportError):
            exec("from diamondkit import no_such_name", {})


def _records():
    t = random_tournament(5, 0)
    return [
        (t, "n"),
        (gf_build(9), "modulus"),
        (baber(t), "edges"),
        (SearchResult(0, t, 0, {}), "witness"),
    ]


class TestRecords:
    @pytest.mark.parametrize("record,field", _records(),
                             ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
    def test_assignment_refused(self, record, field):
        for name in (field, "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_cached_properties_are_read_only(self):
        t = random_tournament(6, 1)
        square = t.square_upper
        with pytest.raises(AttributeError):
            t.square_upper = None
        assert t.square_upper is square

    def test_equal_tournaments_are_equal_and_hash_equal(self):
        a, b = random_tournament(7, 3), random_tournament(7, 3)
        a.square_upper  # the cache does not take part in == or hash
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != random_tournament(7, 4)

    def test_fields_and_repr(self):
        assert Tournament._fields == ("rows",)
        assert repr(Tournament((2, 4, 1))) == "Tournament(rows=(2, 4, 1))"
        assert Hypergraph4._fields == ("n", "edges")
        assert SearchResult._fields == ("max_diamonds", "witness", "explored", "params")
        assert gf_build(9)._fields == ("p", "k", "q", "modulus")
