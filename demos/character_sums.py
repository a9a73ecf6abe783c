"""
b-adic character sums and the spectral discrepancy bound
========================================================

The Weyl sums T_k(N) = (1/N) sum e(s_q(n) phi_b(k)) factor over full blocks,
T_k(q^m) = T_k(q)^m, and decay geometrically in m.  Plugging them into the
rho-weighted character bound gives a fully computable discrepancy bound for
the digit-sum-indexed van der Corput sequence.

Phases are reduced mod 1 in exact integer arithmetic before the single
complex exponential per distinct phase; sums use exact compensated summation.
"""

import math

from lowdisc import (
    BRational,
    SumOfDigits,
    VanDerCorput,
    hellekalek_bound,
    hellekalek_resolution,
    hellekalek_star_bound,
    lemma_le1_bound,
    lemma_le2_bound,
    rho_weight,
    value_counts_below,
    weyl_sum,
)
from lowdisc.discrepancy import discrepancy

b, q = 2, 2

# full blocks factor: T_k(q^m) equals T_k(q) to the m-th power
t1 = weyl_sum(b, q, 1, q).value
print("block factorization |T_1(q^3) - T_1(q)^3| =",
      abs(weyl_sum(b, q, 1, q**3).value - t1**3))

print("\ngeometric decay of |T_1(q^m)| against its sine-based envelope:")
for m in range(0, 9, 2):
    lhs, rhs, holds, _ = lemma_le1_bound(b, q, 1, m)
    print(f"  m={m}:  |T| = {lhs:.6f}   envelope = {rhs:.6f}   holds = {holds}")

print("\ndigit-decomposition bound at ragged N:")
for n in (3, 100, 12345):
    lhs, rhs, holds, _ = lemma_le2_bound(b, q, 3, n)
    print(f"  N={n}: |T_3(N)| = {lhs:.6f} <= {rhs:.6f}  ({holds})")

print("\nrho weights decay with the digit length of k:")
print("  ", [round(rho_weight(2, k), 4) for k in range(1, 9)])

# the character bound vs the exact discrepancy of the indexed sequence
spec = VanDerCorput(b)
print("\ncharacter bound vs exact D_N for the digit-sum-indexed sequence:")
print(f"{'N':>8} {'g':>2} {'exact D_N':>10} {'bound':>8} {'D*sqrt(logN)':>13}")
for d in (6, 10, 14, 18):
    n = 2**d
    mult = value_counts_below(SumOfDigits(q), n)
    pts = [spec.point(k).coords[0] for k in mult]
    counts = list(mult.values())
    exact = float(discrepancy(pts, counts).value)
    g = hellekalek_resolution(b, n)
    bound = hellekalek_bound(b, g, pts, counts)
    print(f"{n:>8} {g:>2} {exact:>10.5f} {bound:>8.4f} {exact * math.sqrt(math.log(n)):>13.4f}")

# star vs extreme: the un-doubled display is a STAR-discrepancy bound and can
# be beaten by the extreme discrepancy
pts = [BRational(0, 2, 0)] * 3 + [BRational(3, 2, 2), BRational(13, 2, 4), BRational(7, 2, 3)]
print("\nstar/extreme gap on a worst-case multiset:")
print("  star D* =", discrepancy(pts, mode="star").value, "  extreme D =", discrepancy(pts).value)
print("  display =", round(hellekalek_star_bound(2, 1, pts), 4),
      "  doubled bound =", round(hellekalek_bound(2, 1, pts), 4))
