"""Canonical forms of primitive points of the projective plane over Z/NZ.

A point is a primitive coordinate triple (X : Y : Z) up to unit scaling.
Two triples name the same point exactly when their canonical forms are
equal: over Z/p^eZ scale the first unit coordinate in the priority order
Z, Y, X to 1 (so affine points become (X : Y : 1) and points over
infinity become (X : 1 : Z) with p | X, p | Z); over composite N do that
for each prime-power component and glue while scaling, in one pass over
Modulus.parts: each scaled component adds its idempotent times its
coordinates to a running sum, reduced mod N once at the end (no gcd or
CRT inverse).  canonical_triple is the only code that scales a triple:
the group law returns raw triples and leaves the one inverse per prime
to it.
"""

from __future__ import annotations

import math

from .errors import NotPrimitive
# crt_ints is not called here; bench/tracer.py patches znec.projective.crt_ints by name
from .modring import Modulus, crt_ints


def canonical_triple(x: int, y: int, z: int, modulus: Modulus) -> tuple[int, int, int]:
    """The canonical representative of (x : y : z) as integers in [0, N).

    One pass over the components: per p^e the chart coordinate (Z, else Y,
    else X) is inverted mod p^e, the triple scaled by it, and eps times
    each scaled coordinate added to the glued sums.  For N = p^e, eps = 1.

    >>> canonical_triple(0, 2, 0, Modulus(169))
    (0, 1, 0)
    """
    gx = gy = gz = 0
    for p, pe, eps in modulus.parts:
        u = z if z % p else y if y % p else x
        if not u % p:
            raise NotPrimitive(modulus.n, math.gcd(modulus.n, x, y, z))
        inv = pow(u, -1, pe)
        gx += eps * (x * inv % pe)
        gy += eps * (y * inv % pe)
        gz += eps * (z * inv % pe)
    n = modulus.n
    return gx % n, gy % n, gz % n
