"""Primitive points of the projective plane over Z/NZ.

A point is a primitive coordinate triple (X : Y : Z) up to unit scaling.
Equality, hashing and rendering all go through a canonical representative:
over Z/p^eZ scale the last unit coordinate in the priority order Z, Y, X
to 1 (so affine points become (X : Y : 1) and points over infinity become
(X : 1 : Z) with p | X, p | Z); over composite N canonicalize each
prime-power component and glue back with CRT.
"""

from __future__ import annotations

from .errors import NotPrimitive
from .modring import Modulus, RingElement, crt_ints, primitivity_gcd


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
    """The canonical representative of (x : y : z) as integers in [0, N)."""
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


class ProjectivePoint:
    """A point of P^2(Z/NZ), stored in canonical form."""

    __slots__ = ("modulus", "xyz")

    def __init__(self, modulus: Modulus, x: int, y: int, z: int):
        self.modulus = modulus
        self.xyz = canonical_triple(int(x), int(y), int(z), modulus)

    @property
    def x(self) -> RingElement:
        return self.modulus.element(self.xyz[0])

    @property
    def y(self) -> RingElement:
        return self.modulus.element(self.xyz[1])

    @property
    def z(self) -> RingElement:
        return self.modulus.element(self.xyz[2])

    def coords(self) -> tuple[RingElement, RingElement, RingElement]:
        return self.x, self.y, self.z

    def triple(self) -> tuple[int, int, int]:
        return self.xyz

    def is_affine(self) -> bool:
        return self.xyz[2] == 1

    def reduced(self, modulus: Modulus) -> "ProjectivePoint":
        """Image under Z/NZ -> Z/MZ for M | N."""
        if self.modulus.n % modulus.n:
            raise ValueError(f"{modulus.n} does not divide {self.modulus.n}")
        x, y, z = self.xyz
        return ProjectivePoint(modulus, x % modulus.n, y % modulus.n, z % modulus.n)

    def as_json(self) -> list[str]:
        return [str(c) for c in self.xyz]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProjectivePoint)
            and self.modulus.n == other.modulus.n
            and self.xyz == other.xyz
        )

    def __hash__(self) -> int:
        return hash((self.modulus.n, self.xyz))

    def __repr__(self) -> str:
        return f"({self.xyz[0]} : {self.xyz[1]} : {self.xyz[2]})"


def make_point(modulus: Modulus, x, y, z) -> ProjectivePoint:
    """Build the canonical point for any primitive triple.

    >>> make_point(Modulus(169), 0, 2, 0)
    (0 : 1 : 0)
    """
    return ProjectivePoint(modulus, int(x), int(y), int(z))

