"""The p-group rank bound H_p + chi_p + 1 and curves attaining it.

A curve whose group is a p-group must, at every prime q | N, reduce to
a curve over F_q with p-power order; Hasse then confines q to a short
interval around p, so the number of local building blocks is finite.
Each Hasse prime q != p contributes one cyclic factor F_p, the prime p
itself contributes two via an anomalous-split component mod p^2, and a
prime q = p^2 -+ p + 1 (at most one of which can be prime) contributes
two more when some E(F_q) has full p-torsion.  Gluing lex-smallest
witnesses by CRT produces explicit curves of maximal rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import budgets
from .curve import new_curve
from .errors import NoCurveOfOrderP, SearchBudgetExceeded, ZnecError
from .modring import crt_ints, is_prime
from .structure import (
    SPLIT,
    GroupStructure,
    _count_fp,
    anomalous_type,
    classify,
    group_structure_fp,
)

CHI_WITNESSED = "witnessed"
CHI_ABSENT = "absent"
CHI_ASSUMED = "assumed"


@dataclass(frozen=True)
class RankBoundReport:
    p: int
    hasse_primes: tuple[int, ...]
    h_p: int
    chi_p: int
    bound: int
    chi_witness: tuple[int, int, int] | None  # (q, A, B)
    chi_status: str  # witnessed | absent | assumed

    def as_json(self) -> dict:
        witness = None
        if self.chi_witness is not None:
            witness = {"q": str(self.chi_witness[0]), "a": str(self.chi_witness[1]), "b": str(self.chi_witness[2])}
        return {
            "p": str(self.p),
            "hasse_primes": [str(q) for q in self.hasse_primes],
            "h_p": self.h_p,
            "chi_p": self.chi_p,
            "bound": self.bound,
            "chi_witness": witness,
            "chi_status": self.chi_status,
        }


def hasse_primes(p: int) -> tuple[int, ...]:
    """All primes q with (q - p - 1)^2 <= 4p, the Hasse window around p.

    >>> hasse_primes(11)
    (7, 11, 13, 17)
    >>> hasse_primes(13)
    (7, 11, 13, 17, 19)
    """
    if not is_prime(p):
        raise ZnecError(f"{p} is not prime")
    radius = math.isqrt(4 * p) + 1
    lo = max(2, p + 1 - radius)
    return tuple(q for q in range(lo, p + 2 + radius) if (q - p - 1) ** 2 <= 4 * p and is_prime(q))


def chi_candidates(p: int) -> tuple[int, ...]:
    """The prime members of {p^2 - p + 1, p^2 + p + 1} (at most one for p > 3)."""
    return tuple(q for q in (p * p - p + 1, p * p + p + 1) if is_prime(q))


def _curves_of_order(q: int, order: int, budget: int, search: str):
    """Nonsingular (A, B) over F_q with exactly `order` points, in lexicographic order.

    Each counted curve charges q against the budget; passing it raises
    SearchBudgetExceeded, naming the search.
    """
    spent = 0
    for a in range(q):
        for b in range(q):
            if (4 * a * a * a + 27 * b * b) % q == 0:
                continue
            spent += q
            if spent > budget:
                raise SearchBudgetExceeded(f"{search} over F_{q} passed {budget} operations")
            if _count_fp(a, b, q) == order:
                yield a, b


def chi_p(p: int, budget: int | None = None) -> tuple[int, tuple[int, int, int] | None]:
    """(2, (q, A, B)) if some E_{A,B}(F_q) has group F_p + F_p, else (0, None).

    Only q = p^2 -+ p + 1 can carry full p-torsion of order p^2 (p | q - 1
    and trace 2 mod p force q + 1 - t = p^2 with t^2 <= 4q), and 3 divides
    one of the two, so at most one prime candidate exists.  The witness
    search walks (A, B) in lexicographic order, counting points and then
    checking the exponent; it charges q per counted curve against the
    search budget and gives up with SearchBudgetExceeded beyond it.
    """
    if p < 5 or not is_prime(p):
        raise ZnecError(f"p must be a prime >= 5, got {p}")
    if budget is None:
        budget = budgets.resolve(budgets.CURVE_SEARCH)
    for q in chi_candidates(p):
        for a, b in _curves_of_order(q, p * p, budget, "chi search"):
            if group_structure_fp(new_curve(a, b, q)).shape == (p, p):
                return 2, (q, a, b)
    return 0, None


def rank_bound(p: int, budget: int | None = None) -> RankBoundReport:
    """Assemble the report: rank of any p-group curve is <= H_p + chi_p + 1.

    When the chi witness search exceeds its budget the bound is still
    valid with chi assumed 2 (conservative), reported as such.
    """
    primes = hasse_primes(p)
    try:
        chi, witness = chi_p(p, budget)
        status = CHI_WITNESSED if chi else CHI_ABSENT
    except SearchBudgetExceeded:
        chi, witness, status = 2, None, CHI_ASSUMED
    return RankBoundReport(
        p=p,
        hasse_primes=primes,
        h_p=len(primes),
        chi_p=chi,
        bound=len(primes) + chi + 1,
        chi_witness=witness,
        chi_status=status,
    )


def _curve_of_order_p(q: int, p: int, budget: int) -> tuple[int, int]:
    """Lex-smallest (A, B) over F_q with exactly p points."""
    if (p - q - 1) ** 2 > 4 * q:
        raise NoCurveOfOrderP(q, p)
    for a, b in _curves_of_order(q, p, budget, f"order-{p} search"):
        return a, b
    raise NoCurveOfOrderP(q, p)


def _split_curve_mod_p2(p: int, budget: int) -> tuple[int, int]:
    """Lex-smallest (A, B) mod p^2 that is anomalous with split lift."""
    spent = 0
    pp = p * p
    for a in range(pp):
        for b in range(pp):
            if (4 * a * a * a + 27 * b * b) % p == 0:
                continue
            if _count_fp(a % p, b % p, p) != p:
                continue
            spent += p
            if spent > budget:
                raise SearchBudgetExceeded(f"split search mod {p}^2 passed {budget} operations")
            c = new_curve(a, b, pp, factorization=((p, 2),))
            if anomalous_type(c) == SPLIT:
                return a, b
    raise NoCurveOfOrderP(p, p)  # unreachable: split lifts exist for every base


@dataclass(frozen=True)
class MaxRankCurve:
    """Output of construct_max_rank_curve: the glued curve plus provenance."""

    a: int
    b: int
    n: int
    rank: int
    bound: int
    skipped: tuple[int, ...]  # Hasse primes excluded by gcd(6, N) = 1
    pieces: tuple[tuple[int, int, int, str], ...]  # (modulus, A, B, role)
    structure: GroupStructure

    @property
    def sharp(self) -> bool:
        return self.rank == self.bound

    def as_json(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "n": str(self.n),
            "rank": self.rank,
            "bound": self.bound,
            "sharp": self.sharp,
            "skipped": [str(q) for q in self.skipped],
            "pieces": [
                {"modulus": str(m), "a": str(a), "b": str(b), "role": role}
                for m, a, b, role in self.pieces
            ],
        }


def construct_max_rank_curve(p: int, budget: int | None = None) -> MaxRankCurve:
    """Glue local curves by CRT into one of maximal p-group rank.

    Per Hasse prime q != p the lex-smallest curve over F_q of order p
    contributes one factor F_p; the prime p contributes F_p + Z/pZ via an
    anomalous-split curve mod p^2; the chi witness, when present,
    contributes F_p + F_p.  Primes q in {2, 3} fall outside the ring
    (gcd(6, N) = 1) and are skipped, so for p with 2 or 3 in the Hasse
    window the bound is not attainable here; the best found is returned
    and the gap is visible as rank < bound.
    """
    if budget is None:
        budget = budgets.resolve(budgets.CURVE_SEARCH)
    report = rank_bound(p, budget)
    pieces: list[tuple[int, int, int, str]] = []
    skipped: list[int] = []
    factorization: list[tuple[int, int]] = []
    for q in report.hasse_primes:
        if q == p:
            continue
        if q in (2, 3):
            skipped.append(q)
            continue
        a_q, b_q = _curve_of_order_p(q, p, budget)
        pieces.append((q, a_q, b_q, f"order-{p} curve over F_{q}"))
        factorization.append((q, 1))
    a_p, b_p = _split_curve_mod_p2(p, budget)
    pieces.append((p * p, a_p, b_p, f"anomalous split mod {p}^2"))
    factorization.append((p, 2))
    if report.chi_witness is not None:
        q_chi, a_chi, b_chi = report.chi_witness
        pieces.append((q_chi, a_chi, b_chi, f"full {p}-torsion over F_{q_chi}"))
        factorization.append((q_chi, 1))
    a, n = crt_ints([(a_i, m) for m, a_i, _, _ in pieces])
    b, _ = crt_ints([(b_i, m) for m, _, b_i, _ in pieces])
    glued = new_curve(a, b, n, factorization=tuple(sorted(factorization)))
    structure = classify(glued)
    return MaxRankCurve(
        a=a,
        b=b,
        n=n,
        rank=structure.rank,
        bound=report.bound,
        skipped=tuple(skipped),
        pieces=tuple(pieces),
        structure=structure,
    )
