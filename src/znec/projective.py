"""Canonical forms of primitive points of the projective plane over Z/NZ.

A point is a primitive coordinate triple (X : Y : Z) up to unit scaling.
Two triples name the same point exactly when their canonical forms are
equal: over Z/p^eZ scale the last unit coordinate in the priority order
Z, Y, X to 1 (so affine points become (X : Y : 1) and points over
infinity become (X : 1 : Z) with p | X, p | Z); over composite N
canonicalize each prime-power component and glue back with CRT.
"""

from __future__ import annotations

from .errors import NotPrimitive
from .modring import Modulus, crt_ints, primitivity_gcd


def _canonical_prime_power(x: int, y: int, z: int, p: int, pe: int) -> tuple[int, int, int] | None:
    """The canonical form of (x : y : z) over Z/p^eZ, or None if p divides all three."""
    if z % p:
        inv = pow(z, -1, pe)
        return x * inv % pe, y * inv % pe, 1
    if y % p:
        inv = pow(y, -1, pe)
        return x * inv % pe, 1, z * inv % pe
    if x % p:
        inv = pow(x, -1, pe)
        return 1, y * inv % pe, z * inv % pe
    return None


def canonical_triple(x: int, y: int, z: int, modulus: Modulus) -> tuple[int, int, int]:
    """The canonical representative of (x : y : z) as integers in [0, N).

    >>> canonical_triple(0, 2, 0, Modulus(169))
    (0, 1, 0)
    """
    parts = []
    for p, _, pe in modulus.components():
        part = _canonical_prime_power(x, y, z, p, pe)
        if part is None:
            raise NotPrimitive(modulus.n, primitivity_gcd((x, y, z), modulus))
        parts.append((part, pe))
    return _crt_triple(parts)


def _crt_triple(parts) -> tuple[int, int, int]:
    """Glue (triple, p^e) components into one triple mod their product, coordinate-wise."""
    if len(parts) == 1:
        return parts[0][0]
    x, _ = crt_ints([(t[0], pe) for t, pe in parts])
    y, _ = crt_ints([(t[1], pe) for t, pe in parts])
    z, _ = crt_ints([(t[2], pe) for t, pe in parts])
    return x, y, z
