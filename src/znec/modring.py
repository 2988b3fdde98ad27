"""Arithmetic in Z/NZ with the factorization of N carried along.

Everything downstream (projective canonical forms, the curve group law,
the structure classifier) constantly switches between the ring Z/NZ and
its prime-power components, so a modulus here is always the pair
(N, factorization of N).  Elements are plain int residues throughout,
at the API as well as in the loops.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import budgets
from .errors import NotPrimePower, ZnecError

# Miller-Rabin witnesses: the primes up to 41 are exact below _MR_EXACT
# (Sorenson-Webster); without 41 the composite 318665857834031151167461
# passes.  _MR_EXACT itself, 1287836182261 * 2575672364521, passes all
# thirteen, so from there on is_prime runs Baillie-PSW instead.  Below
# each psi_k of _MR_PSI the first k bases are already exact, and psi_k
# passes them (Jaeschke, Math. Comp. 61, 1993; OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981
_MR_PSI = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
           (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9), (_MR_EXACT, 13))


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    """Primes below 10^4 by sieve, for trial division and the exponents of _perfect_power."""
    limit = 10_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(limit) if sieve[i])


def is_prime(n: int) -> bool:
    """Miller-Rabin below _MR_EXACT, to the first k bases below the least psi_k above n.

    From _MR_EXACT on: Baillie-PSW, a strong test to base 2 and a strong
    Lucas test (Baillie-Wagstaff 1980), which no composite is known to pass.
    """
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
    for a in _MR_BASES[: next((k for psi, k in _MR_PSI if n < psi), 0)] or (2,):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT or (math.isqrt(n) ** 2 != n and _strong_lucas(n))


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters.

    n must be odd, not a square and above 41.  D is the first of 5, -7,
    9, -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4; with
    n + 1 = k 2^s, k odd, a prime n has U_k = 0 or V_(k 2^j) = 0 mod n
    for some j < s.
    """
    disc = 5
    while (j := _jacobi(disc, n)) != -1:
        if j == 0 and abs(disc) != n:
            return False
        disc = -disc - 2 if disc > 0 else 2 - disc
    q = (1 - disc) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    u, v, qk = 1, 1, q % n  # U_1, V_1 and Q^1
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":  # (U, V)_(i+1) = ((U + V) / 2, (D U + V) / 2) when P = 1
            u, v = u + v, disc * u + v
            u, v = (u + n * (u % 2)) // 2 % n, (v + n * (v % 2)) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


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
    """Brent-cycle Pollard rho; a nontrivial factor of composite odd n within the rho budget."""
    meter = budgets.Meter(budgets.resolve(budgets.RHO_STEPS), f"Pollard rho on {n}")
    for c in itertools.count(1):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            meter.charge(2 * r)
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

    Trial division by the sieve primes, then is_prime and Pollard rho
    on whatever is left, within the rho budget.  Practical up to ~2^64
    cofactors; larger moduli should arrive with their factorization known.

    >>> factorize(187187)
    ((7, 1), (11, 2), (13, 1), (17, 1))
    """
    if n < 2:
        raise ZnecError(f"nothing to factor: {n}")
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
    """A modulus N >= 2 together with its factorization.

    The factorization may be supplied explicitly (mandatory in practice for N
    beyond trial-division scale, e.g. p^2 for a 160-bit p); it must list
    distinct primes with exponents >= 1 and multiply to N, and each prime is
    proved.  parts holds one (p, p^e, eps) per prime-power component, in
    factorization order, eps the CRT idempotent (1 mod its p^e, 0 mod the
    rest); every reader of the decomposition reads it.  component() is the
    only construction that skips the proof.
    """

    __slots__ = ("n", "factorization", "parts")

    def __init__(self, n: int, factorization: tuple[tuple[int, int], ...] | None = None):
        if n < 2:
            raise ZnecError(f"modulus must be at least 2: {n}")
        if factorization is None:
            factorization = factorize(n)
        else:
            factorization = tuple(sorted((int(p), int(e)) for p, e in factorization))
            for i, (p, e) in enumerate(factorization):
                if e < 1 or (i and factorization[i - 1][0] == p) or not is_prime(p):
                    raise ZnecError(
                        f"factorization {factorization} is not into distinct primes"
                        f" with exponents >= 1: bad factor {p}^{e}"
                    )
            if math.prod(p**e for p, e in factorization) != n:
                raise ZnecError(f"factorization {factorization} does not multiply to {n}")
        self._fill(n, factorization)

    def _fill(self, n: int, factorization: tuple[tuple[int, int], ...]) -> "Modulus":
        self.n = n
        self.factorization = factorization
        pes = [(p, p**e) for p, e in factorization]
        self.parts = tuple((p, pe, n // pe * pow(n // pe, -1, pe) % n) for p, pe in pes)
        return self

    def component(self, p: int, e: int) -> "Modulus":
        """p^e, for a prime p of this factorization and any e >= 1.

        p is not tested again: __init__ proved it for the modulus this one comes from.
        """
        if e < 1 or all(p != f for f, _ in self.factorization):
            raise ZnecError(f"{p}^{e} is not a power of a prime of {self.n} with exponent >= 1")
        return object.__new__(Modulus)._fill(p**e, ((p, e),))

    def as_prime_power(self) -> tuple[int, int]:
        if len(self.factorization) != 1:
            raise NotPrimePower(f"{self.n} is not a prime power")
        return self.factorization[0]

    def as_prime(self) -> int:
        """p, for a modulus that is a prime p."""
        p, e = self.as_prime_power()
        if e != 1:
            raise ZnecError(f"prime modulus required, got {p}^{e}")
        return p

    def __eq__(self, other) -> bool:
        return isinstance(other, Modulus) and self.n == other.n

    def __hash__(self) -> int:
        return hash(self.n)

    def __repr__(self) -> str:
        return f"Modulus({self.n})"


def crt_ints(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine (residue, modulus) pairs; returns (value, product modulus)."""
    value, modulus = 0, 1
    for r, m in pairs:
        g = math.gcd(modulus, m)
        if g != 1:
            raise ZnecError(f"moduli not pairwise coprime: share {g}")
        # x = value + modulus * t  with  x = r (mod m)
        t = (r - value) * pow(modulus, -1, m) % m
        value += modulus * t
        modulus *= m
    return value % modulus, modulus

