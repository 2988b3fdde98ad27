"""Elliptic curves over Z/NZ: exact group structure and anomalous-curve logs.

The ring Z/NZ (gcd(6, N) = 1) carries a full projective group law with
no special cases, built from two complete addition laws.  On top of it:
exact classification of E(Z/NZ) into invariant factors, the points over
infinity mod p^e with their one-variable parameterization, the rank
bound H_p + chi_p + 1 for p-group curves with explicit constructions
attaining it, and the lift-and-Theta discrete-log attack on anomalous
curves.
"""

from .curve import ADDITIONS, Curve, CurvePoint, new_curve, point_order
from .dlp import DlpInstance, solve_anomalous_dlp
from .errors import ZnecError
from .infinity import compute_f, infinity_points, kernel_generator, lift_point, theta
from .modring import Modulus, crt_ints, factorize, is_prime
from .rank import construct_max_rank_curve, hasse_primes, rank_bound
from .structure import (
    GroupStructure,
    classify,
    count_points_fp,
    group_structure_fp,
    is_anomalous,
    phi_map,
)

__version__ = "0.1.0"

__all__ = [
    "ADDITIONS",
    "Curve",
    "CurvePoint",
    "DlpInstance",
    "GroupStructure",
    "Modulus",
    "ZnecError",
    "classify",
    "compute_f",
    "construct_max_rank_curve",
    "count_points_fp",
    "crt_ints",
    "factorize",
    "group_structure_fp",
    "hasse_primes",
    "infinity_points",
    "is_anomalous",
    "is_prime",
    "kernel_generator",
    "lift_point",
    "new_curve",
    "phi_map",
    "point_order",
    "rank_bound",
    "solve_anomalous_dlp",
    "theta",
]
