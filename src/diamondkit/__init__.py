"""Exact toolkit for diamond-maximal tournaments, skew-conference Seidel
matrices and FF4-hypergraphs/designs.

`import diamondkit` loads no submodule and exports no name but
`__version__`: each name is imported from the module that defines it
(`from diamondkit.hypergraph import baber`), so a command pays only for
the modules it runs.  The searches are in diamondkit.search, whose
annealer alone imports numpy.
"""

__version__ = "0.1.0"
