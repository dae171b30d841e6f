"""Exact p-adic reduction analysis for rational self-maps of P^1.

The library decides strict good reduction by resultant valuations on
primitive integral models, computes postcritical sets of reduced maps
over F_p, certifies unramifiedness of preimage towers through unit
fiber discriminants, and reports Frobenius action on reduced preimage
trees along forward orbits.  Analyses of one map at one prime share a
``MapAtPrime`` session, which derives each of these objects once.  All
arithmetic is exact: integers inside the Q layer (every model, iterate
and fiber polynomial has integer coefficients), rationals only where
input is read and output printed, and digit-encoded F_{p^m} elements
over residue fields.
"""

from .errors import InputError, InternalError, PadicDynError, ResourceLimitError
from .golden import battery_passed, run_battery
from .maps import (
    IntegralModel,
    Mobius,
    ProjPointQ,
    RationalMapModel,
    conjugate_map,
    eval_map,
    normalize_integral,
    parse_map,
    reduce_map,
)
from .orbits import forward_orbit, moduli_search, orbital_report
from .padics import INFINITY, is_prime, vp
from .reduction import (
    ClosedPoint,
    MapAtPrime,
    condition2_check,
    critical_divisor,
    good_locus,
    postcritical_set,
    pushforward,
    strict_good_reduction,
)
from .towers import (
    fiber_polynomial,
    fiber_report,
    frobenius_cycle_type,
    newton_polygon,
    preimage_tree,
    tower_levels,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "ClosedPoint",
    "InputError",
    "IntegralModel",
    "InternalError",
    "MapAtPrime",
    "Mobius",
    "PadicDynError",
    "ProjPointQ",
    "RationalMapModel",
    "ResourceLimitError",
    "battery_passed",
    "condition2_check",
    "conjugate_map",
    "critical_divisor",
    "eval_map",
    "fiber_polynomial",
    "fiber_report",
    "forward_orbit",
    "frobenius_cycle_type",
    "good_locus",
    "is_prime",
    "moduli_search",
    "newton_polygon",
    "normalize_integral",
    "orbital_report",
    "parse_map",
    "postcritical_set",
    "preimage_tree",
    "pushforward",
    "reduce_map",
    "run_battery",
    "strict_good_reduction",
    "tower_levels",
    "vp",
    "__version__",
]
