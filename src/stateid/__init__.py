"""Optimal global and LOCC measurement schemes for identifying a pure state
with one of two unknown reference states (single copy each).

Import from the submodules: linalg, symmetry, povm, protocol, minerr,
unambiguous, simulate, checks, cli.
"""

__version__ = "0.1.0"
