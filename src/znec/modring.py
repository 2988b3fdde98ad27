"""Arithmetic in Z/NZ with the factorization of N carried along.

Everything downstream (projective canonical forms, the curve group law,
the structure classifier) constantly switches between the ring Z/NZ and
its prime-power components, so a modulus here is always the pair
(N, factorization of N).  Elements are plain residues; the heavy loops
elsewhere work on raw ints and only wrap results in RingElement at API
boundaries.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import NonInvertible, NotPrimePower, ZnecError

# Deterministic Miller-Rabin witnesses: this base set decides primality
# correctly for every n < 3.317e24 (Sorenson-Webster).  Beyond that the
# same test is probabilistic with error < 4^-12 per composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    """Primes below 10^4 by sieve, for trial division and Hasse windows."""
    limit = 10_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(limit) if sieve[i])


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _introot(n: int, k: int) -> int:
    """Floor of the integer k-th root, by monotone Newton from above."""
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(root, k) with root**k = n and k prime, if n is a perfect power."""
    for k in _small_primes():
        if k > n.bit_length():
            return None
        r = _introot(n, k)
        if r**k == n:
            return r, k


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in itertools.count(1):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 2 into sorted (prime, exponent) pairs.

    Trial division by the sieve primes, then Miller-Rabin plus Pollard rho
    on whatever is left.  Practical up to ~2^64 cofactors; larger moduli
    should arrive with their factorization already known.

    >>> factorize(187187)
    ((7, 1), (11, 2), (13, 1), (17, 1))
    """
    if n < 2:
        raise ValueError(f"nothing to factor: {n}")
    factors: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        power = _perfect_power(m)  # rho degenerates on p^k, catch it first
        if power:
            root, k = power
            stack.extend([root] * k)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(factors.items()))


class Modulus:
    """A modulus N >= 1 together with its factorization.

    The factorization may be supplied explicitly (mandatory in practice
    for N beyond trial-division scale, e.g. p^2 for a 160-bit p); it must
    list distinct primes with exponents >= 1 and multiply to N.  N = 1 is allowed as the trivial ring so that
    quantities living mod p^(e-1) stay well-typed at e = 1.
    """

    __slots__ = ("n", "factorization", "_components")

    def __init__(self, n: int, factorization: tuple[tuple[int, int], ...] | None = None):
        if n < 1:
            raise ZnecError(f"modulus must be positive: {n}")
        if factorization is None:
            factorization = factorize(n) if n > 1 else ()
        else:
            factorization = tuple(sorted((int(p), int(e)) for p, e in factorization))
            for i, (p, e) in enumerate(factorization):
                if e < 1 or (i and factorization[i - 1][0] == p) or not is_prime(p):
                    raise ZnecError(
                        f"factorization {factorization} is not into distinct primes"
                        f" with exponents >= 1: bad factor {p}^{e}"
                    )
            check = 1
            for p, e in factorization:
                check *= p**e
            if check != n:
                raise ZnecError(f"factorization {factorization} does not multiply to {n}")
        self.n = n
        self.factorization = factorization
        self._components = tuple((p, e, p**e) for p, e in factorization)

    @classmethod
    def prime_power(cls, p: int, e: int) -> "Modulus":
        return cls(p**e, ((p, e),))

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factorization)

    def components(self) -> tuple[tuple[int, int, int], ...]:
        """(p, e, p^e) for each prime-power component."""
        return self._components

    def as_prime_power(self) -> tuple[int, int]:
        if len(self.factorization) != 1:
            raise NotPrimePower(f"{self.n} is not a prime power")
        return self.factorization[0]

    def is_prime(self) -> bool:
        return len(self.factorization) == 1 and self.factorization[0][1] == 1

    def is_unit(self, value: int) -> bool:
        return math.gcd(value, self.n) == 1

    def element(self, value: int) -> "RingElement":
        return RingElement(self, value % self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Modulus) and self.n == other.n

    def __hash__(self) -> int:
        return hash(self.n)

    def __repr__(self) -> str:
        return f"Modulus({self.n})"


class RingElement:
    """A residue in Z/NZ.  Arithmetic between different moduli is a bug."""

    __slots__ = ("modulus", "value")

    def __init__(self, modulus: Modulus, value: int):
        self.modulus = modulus
        self.value = value % modulus.n

    def _coerce(self, other) -> int:
        if isinstance(other, RingElement):
            if other.modulus.n != self.modulus.n:
                raise ValueError(
                    f"mixed moduli: {self.modulus.n} vs {other.modulus.n}"
                )
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.modulus, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.modulus, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.modulus, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.modulus, self.value * v)

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.modulus, -self.value)

    def __pow__(self, k: int):
        return RingElement(self.modulus, pow(self.value, k, self.modulus.n))

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self * inverse(RingElement(self.modulus, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.modulus, v) * self.inverse()

    def inverse(self) -> "RingElement":
        return inverse(self)

    def is_unit(self) -> bool:
        return math.gcd(self.value, self.modulus.n) == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, RingElement):
            return self.modulus.n == other.modulus.n and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.modulus.n, self.value))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.modulus.n})"


def inverse(x: RingElement) -> RingElement:
    """Multiplicative inverse; NonInvertible carries the witness gcd."""
    g = math.gcd(x.value, x.modulus.n)
    if g != 1:
        raise NonInvertible(x.value, x.modulus.n, g)
    return RingElement(x.modulus, pow(x.value, -1, x.modulus.n))


def vp_int(value: int, p: int, e: int) -> int:
    """p-adic valuation of a residue mod p^e, capped at e (the value of vp(0))."""
    value %= p**e
    if value == 0:
        return e
    t = 0
    while value % p == 0:
        value //= p
        t += 1
    return t


def vp(x: RingElement, p: int) -> int:
    """Valuation of x in Z/p^eZ: the t with x in p^t R but not p^(t+1) R.

    >>> vp(Modulus.prime_power(5, 3).element(75), 5)
    2
    """
    fact = x.modulus.factorization
    if len(fact) != 1 or fact[0][0] != p:
        raise NotPrimePower(f"modulus {x.modulus.n} is not a power of {p}")
    return vp_int(x.value, p, fact[0][1])


def crt_ints(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine (residue, modulus) pairs; returns (value, product modulus)."""
    value, modulus = 0, 1
    for r, m in pairs:
        g = math.gcd(modulus, m)
        if g != 1:
            raise ValueError(f"moduli not pairwise coprime: share {g}")
        # x = value + modulus * t  with  x = r (mod m)
        t = (r - value) * pow(modulus, -1, m) % m
        value += modulus * t
        modulus *= m
    return value % modulus, modulus


def primitivity_gcd(values, modulus: Modulus) -> int:
    g = modulus.n
    for v in values:
        g = math.gcd(g, int(v))
    return g

