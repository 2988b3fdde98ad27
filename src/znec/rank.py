"""The p-group rank bound H_p + chi_p + 1 and curves attaining it.

A curve whose group is a p-group must, at every prime q | N, reduce to
a curve over F_q with p-power order; Hasse then confines q to a short
interval around p, so the number of local building blocks is finite.
Each Hasse prime q != p contributes one cyclic factor F_p, the prime p
itself contributes two via an anomalous-split component mod p^2, and a
prime q = p^2 -+ p + 1 (at most one of which can be prime) contributes
two more, since some sextic twist y^2 = x^3 + B over it has full
p-torsion.  Gluing lex-smallest witnesses by CRT produces explicit
curves of maximal rank.  chi_p is decided by primality, and its witness
costs at most six point counts, each priced by the counting budget; only
the two lexicographic construction walks spend the curve-search budget.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import budgets
from .curve import Curve, new_curve
from .errors import BudgetExceeded, NoCurveOfOrderP, SelfCheckFailed, ZnecError
from .modring import Modulus, crt_ints, is_prime
from .structure import (
    SPLIT,
    GroupStructure,
    _count_cost,
    _count_fp,
    anomalous_type,
    classify,
    count_points_fp,
    group_structure_fp,
)

CHI_WITNESSED = "witnessed"
CHI_ABSENT = "absent"
CHI_ASSUMED = "assumed"


class RankBoundReport(NamedTuple):
    p: int
    hasse_primes: tuple[int, ...]
    h_p: int
    chi_p: int
    bound: int
    chi_witness: tuple[int, int, int] | None  # (q, A, B)
    chi_status: str  # witnessed | absent | assumed

    def as_json(self) -> dict:
        w = self.chi_witness
        witness = None if w is None else {"q": str(w[0]), "a": str(w[1]), "b": str(w[2])}
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
    w = math.isqrt(4 * p)
    return tuple(q for q in range(p + 1 - w, p + 2 + w) if q == p or is_prime(q))


def chi_p(p: int) -> tuple[int, tuple[int, int, int] | None]:
    """(2, (q, 0, B)) if a candidate q = p^2 -+ p + 1 is prime, else (0, None).

    Only those q admit E(F_q) = F_p + F_p (p | q - 1 and trace 2 mod p
    force q + 1 - t = p^2), and 3 divides one of them.  Such a curve has
    disc(pi) = -3p^2 and pi = 1 mod p Z[omega], so j = 0, and conversely
    one sextic twist of y^2 = x^3 + B has that group (Waterhouse 1969,
    Rueck 1987).  B and B' are twists when B^((q-1)/6) = B'^((q-1)/6), so
    the lex-smallest witness costs at most six counts, each priced by the
    counting budget (BudgetExceeded when one does not fit); its shape
    (p, p) is certified, not assumed.
    """
    return _chi(p, is_prime(p))


def _chi(p: int, prime: bool) -> tuple[int, tuple[int, int, int] | None]:
    """chi_p(p), once the caller has decided whether p is prime; each q is proved once, as F_q's Modulus."""
    if p < 5 or not prime:
        raise ZnecError(f"p must be a prime >= 5, got {p}")
    for q in (p * p - p + 1, p * p + p + 1):
        try:
            fq = Modulus(q, ((q, 1),))
        except ZnecError:  # q is not prime
            continue
        twists: dict[int, int] = {}  # sextic class -> least B in it
        b = 0
        while len(twists) < 6:
            b += 1
            twists.setdefault(pow(b, (q - 1) // 6, q), b)
        for b in twists.values():
            c = Curve(0, b, fq)
            if count_points_fp(c) == p * p:
                shape = group_structure_fp(c).shape
                if shape != (p, p):
                    raise SelfCheckFailed(f"E_{{0,{b}}}(F_{q}) has {p * p} points but shape {shape}")
                return 2, (q, 0, b)
        raise SelfCheckFailed(f"no sextic twist of y^2 = x^3 + B over F_{q} has {p * p} points")
    return 0, None


def rank_bound(p: int) -> RankBoundReport:
    """Assemble the report: rank of any p-group curve is <= H_p + chi_p + 1.

    chi_p = 2 is decided by primality alone.  When one of the witness's
    at most six counts passes the counting budget (with the default, only
    for p above about 7.8e9) the bound still holds with chi_p = 2, and
    the report says the witness is missing with status "assumed".
    """
    primes = hasse_primes(p)  # proves p
    try:
        chi, witness = _chi(p, True)
        status = CHI_WITNESSED if chi else CHI_ABSENT
    except BudgetExceeded:
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


def _curve_of_order_p(q: int, p: int) -> tuple[int, int]:
    """Lex-smallest (A, B) over F_q with exactly p points."""
    if (p - q - 1) ** 2 > 4 * q:
        raise NoCurveOfOrderP(q, p)
    meter = budgets.Meter(budgets.resolve(budgets.CURVE_SEARCH), f"order-{p} search over F_{q}")
    cost = _count_cost(q)
    for a, b in itertools.product(range(q), repeat=2):
        if (4 * a * a * a + 27 * b * b) % q == 0:
            continue
        meter.charge(cost)
        if _count_fp(a, b, q) == p:
            return a, b
    raise SelfCheckFailed(f"no curve over F_{q} has {p} points")  # Deuring: each order in the window occurs


def _split_curve_mod_p2(p: int) -> tuple[int, int]:
    """Lex-smallest (A, B) mod p^2 that is anomalous with split lift.

    Per row A, B runs up over B0 + p t for the anomalous E_{A,B0}(F_p), each
    candidate charged p; one Modulus proves p for them all.
    """
    meter = budgets.Meter(budgets.resolve(budgets.CURVE_SEARCH), f"split search mod {p}^2")
    mod = Modulus(p * p, ((p, 2),))
    for a in range(p * p):
        a0 = a % p
        bases = [b0 for b0 in range(p) if (4 * a0**3 + 27 * b0 * b0) % p and _count_fp(a0, b0, p) == p]
        for t, b0 in itertools.product(range(p), bases):
            meter.charge(p)
            if anomalous_type(Curve(a, b0 + p * t, mod)) == SPLIT:
                return a, b0 + p * t
    raise SelfCheckFailed(f"no anomalous curve mod {p}^2 has a split lift")  # split lifts exist for every base


class MaxRankCurve(NamedTuple):
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


def construct_max_rank_curve(p: int) -> MaxRankCurve:
    """Glue local curves by CRT into one of maximal p-group rank.

    Per Hasse prime q != p the lex-smallest curve over F_q of order p
    contributes one factor F_p; the prime p contributes F_p + Z/pZ via an
    anomalous-split curve mod p^2; the chi witness, when present,
    contributes F_p + F_p.  Primes q in {2, 3} fall outside the ring
    (gcd(6, N) = 1) and are skipped, so for p with 2 or 3 in the Hasse
    window the bound is not attainable here; the best found is returned
    and the gap is visible as rank < bound.
    """
    report = rank_bound(p)
    pieces: list[tuple[int, int, int, str]] = []
    skipped: list[int] = []
    factorization: list[tuple[int, int]] = []
    for q in report.hasse_primes:
        if q == p:
            continue
        if q in (2, 3):
            skipped.append(q)
            continue
        a_q, b_q = _curve_of_order_p(q, p)
        pieces.append((q, a_q, b_q, f"order-{p} curve over F_{q}"))
        factorization.append((q, 1))
    a_p, b_p = _split_curve_mod_p2(p)
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
