"""Walk through the group-structure classifier on curves of every flavor.

Run with: python demos/group_structure_tour.py
"""

from znec import classify, new_curve

CURVES = [
    (7, 3, 169, "anomalous over F_13, lift stays cyclic"),
    (1, 6, 169, "anomalous over F_13, lift splits"),
    (1, 1, 35, "two good primes, plain CRT product"),
    (167707, 21664, 187187, "engineered 11-group of rank 5"),
    (63707931, 239467091, 659902243, "engineered 13-group of rank 8"),
    (3, 5, 25, "trace 1 mod 5 without being anomalous: E(F_5) has 10 points"),
    (3, 0, 25, "same base family, but the 5-Sylow splits"),
]


def main() -> None:
    for a, b, n, note in CURVES:
        structure = classify(new_curve(a, b, n))
        name = f"E_{{{a},{b}}}(Z/{n})"
        print(f"{name:45} = {structure.describe():30} # {note}")
        for loc in structure.local:
            parts = " + ".join(f"Z/{d}" for d in loc.factors) or "trivial"
            print(f"{'':8}p = {loc.p}, e = {loc.e}: {loc.case:14} |E(F_p)| = {loc.fp_order:6} local {parts}")


if __name__ == "__main__":
    main()
