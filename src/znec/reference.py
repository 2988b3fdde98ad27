"""Reference instances the package is validated against.

A curated set of curves with independently known invariants: the two
mod-169 anomalous groups, the maximal-rank constructions for p = 11 and
p = 13, the chi witness over F_157, and a 160-bit anomalous-curve
discrete-log instance with its intermediate Theta values.  The CLI's
verify-paper-examples command re-derives every value here; the test
suite pins them as regressions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import ADDITIONS, Curve, new_curve, point_order
from .dlp import DlpInstance, solve_anomalous_dlp
from .infinity import lift_point, theta
from .rank import chi_p, construct_max_rank_curve, rank_bound
from .structure import NON_ANOMALOUS, classify

# 160-bit anomalous instance: Q = N*P on E_{A,B}(Z/pZ) with |E| = p.
DLP160_P = 730750818665451459112596905638433048232067471723
DLP160_A = 425706413842211054102700238164133538302169176474
DLP160_B = 203362936548826936673264444982866339953265530166
DLP160_BASE = (1, 310536468939899693718962354338996655381367569020, 1)
DLP160_TARGET = (3, 38292783053156441019740319553956376819943854515, 1)
DLP160_THETA_BASE = 343088892565802863386490109374548044078624360215
DLP160_THETA_TARGET = 470974712001084540433398653921983741661987449793
DLP160_LOG = 113690975836469390483838646646828917131453128585


@dataclass(frozen=True)
class StructureInstance:
    a: int
    b: int
    n: int
    factors: tuple[int, ...]
    case: str  # local case at the interesting prime
    generator: tuple[int, int, int] | None = None
    generator_order: int | None = None


STRUCTURE_INSTANCES = (
    StructureInstance(7, 3, 169, (169,), "cyclic", (0, 61, 1), 169),
    StructureInstance(1, 6, 169, (13, 13), "split", (2, 4, 1), 13),
    StructureInstance(167707, 21664, 187187, (11,) * 5, "split"),
    StructureInstance(63707931, 239467091, 659902243, (13,) * 8, "split"),
)

# rank bounds: p -> (H_p, chi_p, bound)
RANK_BOUNDS = {11: (4, 0, 5), 13: (5, 2, 8)}
CHI_WITNESS_13 = (157, 0, 15)  # E_{0,15}(F_157) has group F_13 + F_13

# maximal-rank constructions: p -> (A, B, N, rank)
CONSTRUCTIONS = {
    11: (167707, 21664, 187187, 5),
    13: (63707931, 239467091, 659902243, 8),
}


def verify_all() -> list[tuple[str, bool, str]]:
    """Re-derive every reference value; returns (label, ok, detail) rows."""
    rows: list[tuple[str, bool, str]] = []

    def check(label: str, got, want):
        ok = got == want
        rows.append((label, ok, f"got {got}" + ("" if ok else f", want {want}")))

    for inst in STRUCTURE_INSTANCES:
        c = new_curve(inst.a, inst.b, inst.n)
        g = classify(c)
        cases = tuple(loc.case for loc in g.local if loc.case != NON_ANOMALOUS)
        check(f"structure E_{{{inst.a},{inst.b}}}(Z/{inst.n})", (g.factors, cases), (inst.factors, (inst.case,)))
        if inst.generator is not None:
            pt = c.point(*inst.generator)
            check(
                f"order of {pt} on E_{{{inst.a},{inst.b}}}(Z/{inst.n})",
                point_order(pt, g.order),
                inst.generator_order,
            )

    for p, (h, chi, bound) in RANK_BOUNDS.items():
        rep = rank_bound(p)
        check(f"rank bound p={p}", (rep.h_p, rep.chi_p, rep.bound), (h, chi, bound))
    check("chi witness p=13", chi_p(13)[1], CHI_WITNESS_13)
    for p, (a, b, n, rk) in CONSTRUCTIONS.items():
        mc = construct_max_rank_curve(p)
        check(f"constructed max-rank curve p={p}", (mc.a, mc.b, mc.n, mc.rank), (a, b, n, rk))

    c = new_curve(DLP160_A, DLP160_B, DLP160_P, factorization=((DLP160_P, 1),))
    base = c.point(*DLP160_BASE)
    target = c.point(*DLP160_TARGET)
    check("|E(F_p)| = p certificate (160-bit)", c.scalar_xyz(DLP160_P, base.xyz), (0, 1, 0))
    lifted = Curve(DLP160_A, DLP160_B, c.modulus.component(DLP160_P, 2))
    check(
        "Theta of lifted base point",
        theta(lifted, lift_point(c, base, lifted)),
        DLP160_THETA_BASE,
    )
    check(
        "Theta of lifted target point",
        theta(lifted, lift_point(c, target, lifted)),
        DLP160_THETA_TARGET,
    )
    ADDITIONS.reset()
    n = solve_anomalous_dlp(DlpInstance(c, base, target))
    check("160-bit discrete log", n, DLP160_LOG)
    check("discrete log additions < 2000", ADDITIONS.value < 2000, True)
    return rows
