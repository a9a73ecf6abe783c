"""
Point sequences and net certification
=====================================

Generates the three sequence families (van der Corput, Halton, digital over a
prime field), shows that their coordinates are exact rationals, and certifies
equidistribution block by block via exhaustive elementary-interval counting.
"""

import io

from lowdisc import (
    DigitalSequence,
    Halton,
    VanDerCorput,
    check_net,
    check_rank_condition,
    check_sequence_property,
    pascal_matrices,
    points,
)
from lowdisc.generators import int_coordinates, write_points_csv

# --- van der Corput in base 2: digit reversal across the radix point -------
vdc = VanDerCorput(2)
print("first 8 van der Corput points (base 2):")
print("  ", [str(p.coords[0].as_fraction()) for p in points(vdc, 8)])

# every aligned block of length 2^m hits each dyadic interval exactly once
for m in range(5):
    assert check_net(points(vdc, 2**m), b=2, t=0).ok
print("van der Corput blocks are (0,m,1)-nets for m <= 4: certified")

# --- Halton in co-prime bases: exact mixed-radix coordinates ----------------
halton = Halton((2, 3))
print("\nHalton(2,3) point #5:", halton.point(5).as_fractions())

# the Halton sequence is NOT a (0,2)-sequence in base 2; the checker
# reports the first elementary interval with the wrong count
res = check_sequence_property(halton, b=2, t=0, k_max=2, m_max=2)
print("Halton as a base-2 net sequence:", "ok" if res.ok else f"fails ({res.violation})")

# --- digital sequences: Pascal-matrix construction over F_3 -----------------
mats = pascal_matrices(3, 2, precision=12)
print("\nPascal generator matrices over F_3 (top-left 3x3):")
for i, m in enumerate(mats):
    print(f"  C_{i+1}:", [row[:3] for row in m.rows[:3]])
print("rank condition at depth m=3:", check_rank_condition(mats, t=0, m=3))

faure = DigitalSequence(3, tuple(mats), 12)
res = check_sequence_property(faure, b=3, t=0, k_max=4, m_max=2)
print("digital (0,2)-sequence block checks:", "all pass" if res.ok else "FAIL")

# --- exact point serialization ----------------------------------------------
buf = io.StringIO()
write_points_csv(buf, [int_coordinates(halton, range(4))])
print("\nexact CSV (float column advisory only):")
print(buf.getvalue())
