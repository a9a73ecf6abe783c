"""
Uniform (shift-invariant) discrepancy
=====================================

The uniform discrepancy takes the sup over every index shift of the block
discrepancy.  Exhausting all shifts is impossible, so the library reports a
certified lower estimate over a finite window, and brackets it from above by
the chained net bound (2b-1)(t b^t + sum_m Delta(m)) built from measured
per-block net discrepancies.
"""

from lowdisc import (
    VanDerCorput,
    halton_uniform_main_term,
    measured_delta_table,
    uniform_bound_ts,
    windowed_uniform_discrepancy,
)

spec = VanDerCorput(2)

# every aligned van der Corput block is a shifted grid, so its scaled
# discrepancy is exactly 1; that is the measured Delta table
delta = measured_delta_table(spec, b=2, t=0, m_max=10, blocks=8)
print("measured Delta(m) for the first blocks:", {m: round(v, 3) for m, v in list(delta.items())[:5]})

print(f"\n{'N':>6} {'shift*':>7} {'N*D (window)':>13} {'net bound':>10} {'main term':>10}")
for d in range(0, 11, 2):
    n = 2**d
    rep = windowed_uniform_discrepancy(spec, None, n, k_max=2**12)
    scaled = float(n * rep.value)
    bound = uniform_bound_ts(2, 0, n, delta)
    main = halton_uniform_main_term([2], n) if n >= 2 else 1.0
    print(f"{n:>6} {rep.shift:>7} {scaled:>13.4f} {bound:>10.1f} {main:>10.1f}")

print(
    "\nthe windowed value is a lower estimate of the true sup over all shifts;"
    "\nthe worst shifts live near high powers of the base, outside any finite window"
)
