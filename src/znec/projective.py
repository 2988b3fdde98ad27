"""Canonical forms of primitive points of the projective plane over Z/NZ.

A point is a primitive coordinate triple (X : Y : Z) up to unit scaling.
Two triples name the same point exactly when their canonical forms are
equal: over Z/p^eZ scale the first unit coordinate in the priority order
Z, Y, X to 1 (so affine points become (X : Y : 1) and points over
infinity become (X : 1 : Z) with p | X, p | Z); over composite N
canonicalize each prime-power component and glue back with CRT, as a sum
weighted by the idempotents Modulus precomputes (no gcd or inverse).
canonical_triple is the only code that scales a triple: the group law
returns raw triples and leaves the one inverse per prime to it.
"""

from __future__ import annotations

import math

from .errors import NotPrimitive
# crt_ints is not called here; bench/tracer.py patches znec.projective.crt_ints by name
from .modring import Modulus, crt_ints


def canonical_triple(x: int, y: int, z: int, modulus: Modulus) -> tuple[int, int, int]:
    """The canonical representative of (x : y : z) as integers in [0, N).

    >>> canonical_triple(0, 2, 0, Modulus(169))
    (0, 1, 0)
    """
    parts = []
    for p, _, pe in modulus.components():
        if z % p:
            inv = pow(z, -1, pe)
            parts.append((x * inv % pe, y * inv % pe, 1))
        elif y % p:
            inv = pow(y, -1, pe)
            parts.append((x * inv % pe, 1, z * inv % pe))
        elif x % p:
            inv = pow(x, -1, pe)
            parts.append((1, y * inv % pe, z * inv % pe))
        else:
            raise NotPrimitive(modulus.n, math.gcd(modulus.n, x, y, z))
    return parts[0] if len(parts) == 1 else _crt_triple(parts, modulus)  # p^e = N: no glue


def _crt_triple(parts, modulus: Modulus) -> tuple[int, int, int]:
    """Glue one triple per component, in components() order, into one triple mod N."""
    x = y = z = 0
    for (px, py, pz), eps in zip(parts, modulus.idempotents):
        x += eps * px
        y += eps * py
        z += eps * pz
    return x % modulus.n, y % modulus.n, z % modulus.n
