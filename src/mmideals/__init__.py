"""Mixed multiplier ideals on resolutions of surface singularities.

The package works with a dual graph of a resolution (exceptional components
plus affine arrows), tuples of ideals given by their divisors of
multiplicities, and the lattice of antinef divisors.  It computes mixed
multiplier ideals, their jumping walls and constancy regions, minimal jumping
divisors, and the contribution/criticality tests that go with them.
Everything is exact: coordinates are `fractions.Fraction`, never floats.
"""

from __future__ import annotations

from . import errors
from .io import load_input
from .jumping import is_jumping_point
from .regions import RegionEngine, next_jumping_number

__version__ = "1.0.0"

# The names README "Library use" documents, plus the two free functions the
# benchmark reads as `mmideals.<name>`; everything else is imported from its
# submodule.
__all__ = [
    "errors",
    "RegionEngine",
    "load_input",
    "is_jumping_point",
    "next_jumping_number",
    "__version__",
]
