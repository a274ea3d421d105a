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
from .divisors import (
    Containment,
    DEFAULT_MAX_UNLOAD_ITERS,
    Divisor,
    NonclosedComparison,
    antinef_closure,
    compare_nonclosed,
    ideal_contains,
    is_antinef,
    parse_point,
    unload_once,
)
from .graph import (
    Classification,
    DualGraph,
    IdealDivisorSet,
    relative_canonical,
    validate_graph,
)
from .io import build_ideals, dump_json, enumeration_json, load_input, record_json
from .jumping import (
    Contribution,
    MinimalJumpingDivisor,
    VerificationReport,
    contributes,
    is_jumping_point,
    minimal_jumping_divisor,
    verify_contribution_dichotomy,
    verify_jump_identity,
    verify_numeric_conditions,
)
from .regions import (
    CFacet,
    ConstancyRecord,
    EnumerationResult,
    PointContext,
    RegionEngine,
    RegionPolytope,
    WallInequality,
    next_jumping_number,
)
from .svg import render_walls

__version__ = "1.0.0"

__all__ = [
    "errors",
    "Containment",
    "DEFAULT_MAX_UNLOAD_ITERS",
    "Divisor",
    "NonclosedComparison",
    "antinef_closure",
    "compare_nonclosed",
    "ideal_contains",
    "is_antinef",
    "parse_point",
    "unload_once",
    "Classification",
    "DualGraph",
    "IdealDivisorSet",
    "relative_canonical",
    "validate_graph",
    "build_ideals",
    "dump_json",
    "enumeration_json",
    "load_input",
    "record_json",
    "Contribution",
    "MinimalJumpingDivisor",
    "VerificationReport",
    "contributes",
    "is_jumping_point",
    "minimal_jumping_divisor",
    "verify_contribution_dichotomy",
    "verify_jump_identity",
    "verify_numeric_conditions",
    "CFacet",
    "ConstancyRecord",
    "EnumerationResult",
    "PointContext",
    "RegionEngine",
    "RegionPolytope",
    "WallInequality",
    "next_jumping_number",
    "render_walls",
    "__version__",
]
