"""Crossing minimization for two-layer drawings under gap constraints.

The package root exports the library surface shown in the README; every
other name is imported from its submodule (`oscm_gaps.core`,
`oscm_gaps.exact`, ...).
"""

from .core import BipartiteInstance, InputError, Permutation, count_crossings, count_gaps
from .exact import SolveResult, solve_kgap_exact, solve_sidegap_exact, solve_unrestricted_exact
from .gap_placement import solve_kgaps, solve_sidegaps
from .generator import GenParams, generate

__version__ = "0.1.0"

__all__ = [
    "BipartiteInstance",
    "GenParams",
    "InputError",
    "Permutation",
    "SolveResult",
    "count_crossings",
    "count_gaps",
    "generate",
    "solve_kgap_exact",
    "solve_kgaps",
    "solve_sidegap_exact",
    "solve_sidegaps",
    "solve_unrestricted_exact",
]
