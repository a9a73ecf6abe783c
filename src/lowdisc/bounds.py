"""Bound formulas for index-transformed sequences and their empirical checks.

Conventions: every verdict is ``_util.bound_holds``.  `lower` values are
exact integers or rationals, compared with zero tolerance; `upper` values are
floats, given the slack UPPER_SLACK, built from envelopes with fitted
constants (the underlying theorems leave those constants unspecified, so the
artifact fits them on a calibration prefix and reports them).  All logs are
natural, absorbed by the fitted constants.  Every verification records the
hypothesis checks it performed and refuses to report success if one failed.
The general sandwich is computed only where it is exact: the digit-sum
transform on its q-adic chain, whose block profiles are all shifts of the
exact digit-sum distribution; floor powers take the monotone bounds.  The
discrepancies the checks measure come from ``discrepancy``
(``transformed_discrepancy`` and the windowed uniform discrepancy), so a
job that only measures, such as ``disc``, never loads this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from ._util import UnimodalityError, Value, _on_python_ints, bound_holds
from .digits import _digit_count
from .digitsum_dist import _block_levels, max_count
from .discrepancy import discrepancy, transformed_discrepancy, windowed_uniform_discrepancy
from .generators import SequenceSpec, coordinates, int_coordinates
from .transforms import FloorPower, IndexTransform, SumOfDigits, is_unimodal, multiplicity_F

# A measured envelope at N takes the worst of the shifts 0 <= k <= 4N.
ENVELOPE_WINDOW_FACTOR = 4

# F(k) * k^(1 - 1/alpha) is probed for boundedness on 1 <= k <= this.
ALPHA_PROBE_K = 1000


class Envelope(Value):
    """Non-decreasing f with N * (uniform discrepancy of the base sequence) <= f(N).

    Sources: a measured table (running max of windowed measurements, which
    are lower estimates of the true uniform discrepancy -- recorded as such,
    see measured_envelope) or a constant.
    """

    def __init__(self, source: str, _fn: Callable[[int], float], n_max: int | None = None):
        self._set(source=source, _fn=_fn, n_max=n_max)

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError("envelope argument must be >= 1")
        if self.n_max is not None and n > self.n_max:
            raise ValueError(f"envelope table only covers N <= {self.n_max}")
        return self._fn(n)

    @classmethod
    def constant(cls, c: float):
        return cls("constant", lambda n: c, None)


def measured_envelope(spec: SequenceSpec, n_max: int) -> Envelope:
    """Running max of N * (windowed uniform discrepancy) for 1 <= N <= n_max.

    The windowed sup is a lower estimate of the true uniform discrepancy, so
    the source tag records that this is a measured stand-in, not a proof.
    """
    running = [0.0]  # running[n] is the largest N * D for 1 <= N <= n
    for n in range(1, n_max + 1):
        rep = windowed_uniform_discrepancy(spec, None, n, ENVELOPE_WINDOW_FACTOR * n)
        running.append(max(running[-1], float(n * rep.value)))
    return Envelope("measured-windowed", lambda n: running[n], n_max)


def general_lower(transform: SumOfDigits, d: int) -> int:
    """max_k G_{0,d}(k): the exact multiplicity floor for N in [q^d, q^(d+1))."""
    return max_count(transform.q, d)[1]


class GeneralUpper(NamedTuple):
    value: float
    per_j: list[tuple[int, int, int, int, float, float]]  # j, ratio, G_j, v_j, f(v_j), term
    flags: dict


def general_upper(transform: SumOfDigits, envelope: Envelope, d: int) -> GeneralUpper:
    """sum_{j<=d} (N_{j+1}/N_j) G_j f(v_j) on the q-adic chain N_j = q^j.

    Every block profile G_{A,j} of the digit sum is the block-0 profile
    distribution(q, j).counts shifted by s_q(A), so G_j is its largest count
    and v_j = j(q-1)+1 its length, and one profile per level is exact.  The
    levels are walked upward once.  Raises UnimodalityError on the first
    non-unimodal profile.
    """
    q = transform.q
    per_j = []
    for j, profile in enumerate(_block_levels(q, d)):
        if not is_unimodal(profile):
            raise UnimodalityError(j)
        g_j, v_j = max(profile), len(profile)
        f_vj = envelope(v_j)
        per_j.append((j, q, g_j, v_j, f_vj, q * g_j * f_vj))
    flags = {"unimodality_verified": True, "envelope_source": envelope.source}
    return GeneralUpper(math.fsum(row[-1] for row in per_j), per_j, flags)


class BoundReport(NamedTuple):
    """One sandwich check: lower <= N * D_N <= upper, with provenance."""

    n: int
    lower: Fraction
    measured: Fraction  # N * D_N, exact
    upper: float
    per_j_terms: Sequence = ()
    hypothesis_flags: Mapping = MappingProxyType({})

    @property
    def holds(self) -> bool:
        return bound_holds(self.lower, self.measured, self.upper)


def general_sandwich(
    spec: SequenceSpec, transform: IndexTransform, d_max: int
) -> list[BoundReport]:
    """Per-level sandwich lower <= N_d * D_{N_d} <= upper at N_d = q^d, d <= d_max.

    The measured value is the exact extreme discrepancy, which the
    multiplicity floor bounds.  The envelope is measured from the base
    sequence's windowed uniform discrepancy up to the largest v_j needed.
    """
    if not isinstance(transform, SumOfDigits):
        raise ValueError("the sandwich driver currently covers the digit-sum transform")
    if d_max < 0:
        raise ValueError(f"need d_max >= 0 for a level to check, got {d_max}")
    q = transform.q
    envelope = measured_envelope(spec, d_max * (q - 1) + 1)
    reports = []
    for d in range(d_max + 1):
        n = q**d
        lower = Fraction(general_lower(transform, d))
        measured = n * transformed_discrepancy(spec, transform, n).value
        upper = general_upper(transform, envelope, d)
        reports.append(
            BoundReport(n, lower, measured, upper.value, upper.per_j, upper.flags)
        )
    return reports


class EnvelopeFitRow(NamedTuple):
    d: int
    n: int
    measured: float  # D_N as a float (exact value available upstream)
    scaled: float  # D_N * sqrt(log N)
    lower_fit: float  # c2 / sqrt(log N)
    upper_fit: float | None  # c3 (loglog N)^s / sqrt(log N); None if loglog <= 0
    holds: bool


def sod_envelope_check(
    spec: SequenceSpec,
    q: int,
    d_max: int,
    calibration_d: int | None = None,
    mode: str = "extreme",
) -> tuple[list[EnvelopeFitRow], dict]:
    """Fit and verify c2/sqrt(log N) <= D_N <= c3 (loglog N)^s / sqrt(log N).

    Constants are fitted on the calibration prefix d <= calibration_d and the
    sandwich is then checked on every level; rows where loglog N <= 0 only
    check the lower side (flagged trivial).
    """
    transform = SumOfDigits(q)
    s = spec.dimension
    if calibration_d is None:
        calibration_d = max(2, d_max // 2)
    levels = []
    for d in range(1, d_max + 1):
        n = q**d
        value = float(transformed_discrepancy(spec, transform, n, mode).value)
        levels.append((d, n, value))
    calibration = [(n, v) for d, n, v in levels if d <= calibration_d]
    uppers = [
        v * math.sqrt(math.log(n)) / math.log(math.log(n)) ** s
        for n, v in calibration
        if math.log(math.log(n)) > 0
    ]
    if not uppers:
        raise ValueError(
            f"calibration levels d <= {min(calibration_d, d_max)} have no N with "
            f"log log N > 0 to fit c3 on; calibrate on a longer prefix"
        )
    c2 = min(v * math.sqrt(math.log(n)) for n, v in calibration)
    c3 = max(uppers)
    rows = []
    for d, n, v in levels:
        lower_fit = c2 / math.sqrt(math.log(n))
        loglog = math.log(math.log(n)) if math.log(n) > 1 else 0.0
        upper_fit = c3 * loglog**s / math.sqrt(math.log(n)) if loglog > 0 else None
        ok = bound_holds(lower_fit, v, upper_fit)
        rows.append(EnvelopeFitRow(d, n, v, v * math.sqrt(math.log(n)), lower_fit, upper_fit, ok))
    fits = {"c2": c2, "c3": c3, "calibration_d": calibration_d, "s": s}
    return rows, fits


def monotone_lower(transform: IndexTransform, n: int) -> Fraction:
    """F(f(N) - 1) / N, the repeated-point floor for monotone transforms.

    Zero when f(N) equals f(0) (the degenerate branch of the theorem).
    """
    if not transform.monotone:
        raise ValueError("monotone_lower needs a monotone transform")
    f_n = transform.apply(n)
    if f_n == transform.apply(0):
        return Fraction(0)
    return Fraction(multiplicity_F(transform, f_n - 1), n)


def monotone_hypotheses(transform: IndexTransform, n_max: int, k_max: int) -> dict:
    """Record the theorem hypotheses on a scan window.

    f must be non-decreasing and surjective (steps of at most 1).  F is
    allowed unit jitter: exact ceiling counts of floor-power maps wobble by
    +-1 around a growing trend, so strict monotonicity fails infinitely often
    even though the asymptotic statement stands; the flag distinguishes
    'monotone', 'unit-jitter', and 'violated'.
    """
    steps_ok = True
    prev = transform.apply(0)
    for i in range(1, n_max + 1):
        cur = transform.apply(i)
        if cur < prev or cur - prev > 1:
            steps_ok = False
            break
        prev = cur
    f_values = [multiplicity_F(transform, k) for k in range(k_max + 1)]
    worst_drop = 0
    for a, b in zip(f_values, f_values[1:]):
        worst_drop = max(worst_drop, a - b)
    if worst_drop == 0:
        f_status = "monotone"
    elif worst_drop <= 1:
        f_status = "unit-jitter"
    else:
        f_status = "violated"
    return {
        "f_monotone_surjective": steps_ok,
        "F_monotonicity": f_status,
        "scan_n_max": n_max,
        "scan_k_max": k_max,
    }


def monotone_upper(transform: IndexTransform, n: int, s: int, fitted_c: float) -> float:
    """C * 2 F(f(N-1)+1) (log N)^s / N with a caller-fitted constant.

    The theorem's p^t factor for digital (t,s)-sequences is a constant, so
    the fitted C absorbs it.
    """
    if n < 2:
        raise ValueError("the upper-bound shape needs N >= 2")
    big_f = multiplicity_F(transform, transform.apply(n - 1) + 1)
    return fitted_c * 2 * big_f * math.log(n) ** s / n


def fit_monotone_constant(
    transform: IndexTransform, s: int, measured: Mapping[int, Fraction]
) -> float:
    """Smallest C making the upper-bound shape (monotone_upper at C = 1) dominate.

    ``measured`` maps each calibration N to its exact D_N.
    """
    if not measured:
        raise ValueError("no calibration level to fit C on; calibrate on a longer prefix")
    return max(float(d_n) / monotone_upper(transform, n, s, 1.0) for n, d_n in measured.items())


class AlphaRow(NamedTuple):
    n: int
    measured: float
    scaled: float  # D_N * N^alpha
    banded: float  # D_N * N^alpha / log N


def alpha_corollary_check(
    spec: SequenceSpec,
    transform: FloorPower,
    n_values: Sequence[int],
    mode: str = "extreme",
) -> tuple[list[AlphaRow], dict]:
    """Probe F(k) * k^(1 - 1/alpha) for boundedness, then the D_N sandwich scale.

    Returns per-N rows of D_N * N^alpha (and its log-normalized variant) plus
    the observed F-window; the caller asserts the band it expects.
    """
    if not n_values:
        raise ValueError("no N to check; give at least one level")
    alpha = transform.u / transform.v
    ratios = [
        multiplicity_F(transform, k) * k ** (1 - 1 / alpha)
        for k in range(1, ALPHA_PROBE_K + 1)
    ]
    stats = {
        "f_window_min": min(ratios),
        "f_window_max": max(ratios),
        "alpha": alpha,
    }

    def one(n: int) -> AlphaRow:
        measured = float(transformed_discrepancy(spec, transform, n, mode).value)
        scaled = measured * n**alpha
        return AlphaRow(n, measured, scaled, scaled / math.log(n) if n > 1 else scaled)

    return [one(n) for n in n_values], stats


def _check_base_and_t(b: int, t: int) -> None:
    if b < 2 or t < 0:
        raise ValueError(f"need a base b >= 2 and t >= 0, got b={b}, t={t}")


def uniform_bound_ts(b: int, t: int, n: int, delta_table: Mapping[int, float]) -> float:
    """(2b-1) (t b^t + sum_{m=t}^{floor(log_b N)} Delta_b(t,m,s)) on N * uniform D.

    For N < b^t the trivial bound N applies.  The delta table must cover
    every m up to floor(log_b N); each entry bounds b^m * D for the
    (t,m,s)-nets in play (measured or shape-fitted, per its provenance), so
    the dimension s enters only through the table.
    """
    _check_base_and_t(b, t)
    if n < b**t:
        return float(n)
    m_top = _digit_count(n, b) - 1  # floor(log_b N), N >= b^t >= 1
    missing = [m for m in range(t, m_top + 1) if m not in delta_table]
    if missing:
        raise ValueError(f"delta table is missing levels {missing}")
    return (2 * b - 1) * (
        t * b**t + math.fsum(delta_table[m] for m in range(t, m_top + 1))
    )


def measured_delta_table(
    spec: SequenceSpec, b: int, t: int, m_max: int, blocks: int = 8
) -> dict[int, float]:
    """Delta(m) = max over the first aligned blocks of b^m * (exact block D).

    The points come from one kernel call, on Python ints while
    ``_on_python_ints`` finds the largest level's blocks cheap enough.
    """
    _check_base_and_t(b, t)
    if blocks < 1:
        raise ValueError(f"need blocks >= 1 to measure Delta, got {blocks}")
    largest = b**m_max
    on_ints = _on_python_ints(largest, spec.dimension, "extreme", blocks)
    batch = (int_coordinates if on_ints else coordinates)(spec, range(blocks * largest))
    table = {}
    for m in range(t, m_max + 1):
        size = b**m
        worst = Fraction(0)
        for k in range(blocks):
            block = tuple(axis.take(slice(k * size, (k + 1) * size)) for axis in batch)
            worst = max(worst, discrepancy(block).value)
        table[m] = float(size * worst)
    return table


def halton_uniform_main_term(bases: Sequence[int], n: int) -> float:
    """(1/s!) prod_j (floor(b_j/2) log N / log b_j + s)."""
    if n < 2:
        raise ValueError("main term needs N >= 2")
    s = len(bases)
    prod = 1.0
    for b in bases:
        prod *= (b // 2) * math.log(n) / math.log(b) + s
    return prod / math.factorial(s)
