"""What the result records show a caller: their repr, equality, hash and immutability.

The reprs below were recorded from the library while its records were
frozen dataclasses, so a change to how a record is built must keep
every field, its order and its printed form.  A DlpInstance compares,
hashes and prints by (curve, base, target) alone: the lift it keeps for
the solve is neither shown nor compared.
"""

import pytest

from znec import DlpInstance, classify, construct_max_rank_curve, new_curve, rank_bound

GROUP_REPR = (
    "GroupStructure(n=169, factors=(13, 13), local=(LocalStructure(p=13, e=2, case='split', "
    "fp_order=13, factors=(13, 13)),))"
)
RANK_BOUND_REPR = (
    "RankBoundReport(p=13, hasse_primes=(7, 11, 13, 17, 19), h_p=5, chi_p=2, bound=8, "
    "chi_witness=(157, 0, 15), chi_status='witnessed')"
)
MAX_RANK_REPR = (
    "MaxRankCurve(a=167707, b=21664, n=187187, rank=5, bound=5, skipped=(), "
    "pieces=((7, 1, 6, 'order-11 curve over F_7'), (13, 7, 6, 'order-11 curve over F_13'), "
    "(17, 2, 6, 'order-11 curve over F_17'), (121, 1, 5, 'anomalous split mod 11^2')), "
    "structure=GroupStructure(n=187187, factors=(11, 11, 11, 11, 11), "
    "local=(LocalStructure(p=7, e=1, case='non-anomalous', fp_order=11, factors=(11,)), "
    "LocalStructure(p=11, e=2, case='split', fp_order=11, factors=(11, 11)), "
    "LocalStructure(p=13, e=1, case='non-anomalous', fp_order=11, factors=(11,)), "
    "LocalStructure(p=17, e=1, case='non-anomalous', fp_order=11, factors=(11,)))))"
)
DLP_REPR = "DlpInstance(curve=E_{1,6}(Z/13), base=(2 : 4 : 1), target=(3 : 7 : 1))"


def test_record_reprs_are_pinned():
    assert repr(classify(new_curve(1, 6, 169))) == GROUP_REPR
    assert repr(rank_bound(13)) == RANK_BOUND_REPR
    assert repr(construct_max_rank_curve(11)) == MAX_RANK_REPR


def _instance(qx=3, qy=7):
    c = new_curve(1, 6, 13)  # anomalous: (3, 7) = 5 * (2, 4)
    return DlpInstance(c, c.point(2, 4), c.point(qx, qy))


def test_dlp_instance_compares_by_curve_base_and_target_only():
    one, two = _instance(), _instance()
    assert repr(one) == DLP_REPR and "_lift" not in repr(one)
    assert one == two and hash(one) == hash(two)
    object.__setattr__(two, "_lift", (two.curve, 12345))  # a different lift changes nothing seen
    assert one == two and hash(one) == hash(two) and repr(two) == DLP_REPR
    assert one != _instance(3, 6)  # -Q = 8 * P
    assert one != (one.curve, one.base, one.target)


def test_dlp_instance_fields_cannot_be_assigned():
    inst = _instance()
    with pytest.raises(AttributeError):
        inst.curve = new_curve(1, 6, 13)
    with pytest.raises(AttributeError):
        inst.target = inst.base
    assert repr(inst) == DLP_REPR
