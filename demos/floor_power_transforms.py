"""
Moderately increasing index maps: floor(n^alpha)
================================================

For f(n) = floor(n^(u/v)) with 0 < u/v < 1 every value k repeats
F(k) = ceil((k+1)^(v/u)) - ceil(k^(v/u)) ~ (v/u) k^(v/u - 1) times, so the
re-indexed sequence has discrepancy squeezed between F(f(N)-1)/N and a
(log N)^s / N^alpha envelope.  Everything on the lower side is an exact
rational comparison.
"""

from lowdisc import (
    FloorPower,
    VanDerCorput,
    fit_monotone_constant,
    monotone_hypotheses,
    monotone_lower,
    monotone_upper,
    multiplicity_F,
    transformed_discrepancy,
)

spec = VanDerCorput(2)

for u, v in ((1, 2), (2, 3)):
    t = FloorPower(u, v)
    alpha = u / v
    print(f"\n=== alpha = {u}/{v} ===")
    print("multiplicities F(k):", [multiplicity_F(t, k) for k in range(10)])
    hyp = monotone_hypotheses(t, n_max=2000, k_max=300)
    print("hypothesis flags:", hyp["F_monotonicity"], "(ceiling jitter is expected)")

    calibration = {2**d: transformed_discrepancy(spec, t, 2**d).value for d in range(1, 7)}
    fitted = fit_monotone_constant(t, 1, calibration)
    print(f"fitted envelope constant: {fitted:.4f}")
    print(f"{'N':>7} {'lower':>12} {'D_N':>12} {'upper':>10} {'D_N*N^a':>9}")
    for d in range(2, 15, 2):
        n = 2**d
        lower = monotone_lower(t, n)
        measured = transformed_discrepancy(spec, t, n).value
        upper = monotone_upper(t, n, 1, fitted)
        assert lower <= measured  # exact rational comparison
        print(
            f"{n:>7} {str(lower):>12} {float(measured):>12.6f} "
            f"{upper:>10.4f} {float(measured) * n**alpha:>9.4f}"
        )
