"""Command-line front end: structure, dlp, rank-bound, f-poly, verification.

Output is designed for scripting: deterministic ordering, big integers
as decimal strings in JSON (nothing is ever truncated to 64 bits), and
exit codes that separate usage errors (1) from mathematical
precondition failures such as a singular curve or a non-anomalous dlp
input (2).  ZNEC_BUDGET scales the enumeration and counting budgets.
"""

from __future__ import annotations

import argparse
import json
import sys

from .curve import new_curve
from .dlp import DlpInstance, solve_anomalous_dlp
from .errors import ZnecError
from .infinity import compute_f
from .rank import construct_max_rank_curve, rank_bound
from .structure import classify


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; reserve 2 for math failures instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2)


def _build_parser() -> _Parser:
    parser = _Parser(prog="znec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    st = sub.add_parser("structure", help="group structure of E_{A,B}(Z/NZ)")
    st.add_argument("--a", type=int, required=True)
    st.add_argument("--b", type=int, required=True)
    st.add_argument("--n", type=int, required=True)
    st.add_argument("--json", action="store_true")

    dl = sub.add_parser("dlp", help="discrete log on an anomalous curve mod p")
    dl.add_argument("--p", type=int, required=True)
    dl.add_argument("--a", type=int, required=True)
    dl.add_argument("--b", type=int, required=True)
    dl.add_argument("--px", type=int, required=True)
    dl.add_argument("--py", type=int, required=True)
    dl.add_argument("--qx", type=int, required=True)
    dl.add_argument("--qy", type=int, required=True)
    dl.add_argument("--json", action="store_true")

    rb = sub.add_parser("rank-bound", help="p-group rank bound H_p + chi_p + 1")
    rb.add_argument("--p", type=int, required=True)
    rb.add_argument("--construct", action="store_true")

    fp = sub.add_parser("f-poly", help="infinity polynomial of E_{A,B}(Z/p^eZ)")
    fp.add_argument("--a", type=int, required=True)
    fp.add_argument("--b", type=int, required=True)
    fp.add_argument("--p", type=int, required=True)
    fp.add_argument("--e", type=int, required=True)
    fp.add_argument("--json", action="store_true")

    sub.add_parser(
        "verify-paper-examples",
        help="re-derive every bundled reference value, PASS/FAIL per item",
    )
    return parser


def _cmd_structure(args) -> int:
    structure = classify(new_curve(args.a, args.b, args.n))
    if args.json:
        print(_dump(structure.as_json()))
    else:
        print(structure.describe())
    return 0


def _cmd_dlp(args) -> int:
    curve = new_curve(args.a, args.b, args.p)
    base = curve.point(args.px, args.py)
    target = curve.point(args.qx, args.qy)
    n = solve_anomalous_dlp(DlpInstance(curve, base, target))
    if args.json:
        print(_dump({"n": str(n), "verified": True}))
    else:
        print(n)
        print(f"verified: {n} * ({args.px}, {args.py}) = ({args.qx}, {args.qy})")
    return 0


def _cmd_rank_bound(args) -> int:
    report = rank_bound(args.p)
    payload = report.as_json()
    if args.construct:
        payload["construction"] = construct_max_rank_curve(args.p).as_json()
    print(_dump(payload))
    return 0


def _cmd_f_poly(args) -> int:
    f = compute_f(new_curve(args.a, args.b, args.p**args.e, factorization=((args.p, args.e),)))
    if args.json:
        print(_dump({"p": str(args.p), "e": args.e, "coefficients": [str(c) for c in f.coefficients()]}))
    else:
        terms = [f"{c}*X^{k}" for k, c in enumerate(f.coefficients()) if c]
        print("f(X) = " + (" + ".join(terms) if terms else "0"))
    return 0


def _cmd_verify(args) -> int:
    from .reference import verify_all

    failures = 0
    for label, ok, detail in verify_all():
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
        failures += not ok
    return 0 if failures == 0 else 2


_COMMANDS = {
    "structure": _cmd_structure,
    "dlp": _cmd_dlp,
    "rank-bound": _cmd_rank_bound,
    "f-poly": _cmd_f_poly,
    "verify-paper-examples": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ZnecError as exc:
        print(f"znec {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
