"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Exact comparisons are rational with zero tolerance; float comparisons carry
the stated slack only.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import lowdisc as ld
from lowdisc.cli import main as cli_main
from lowdisc.expsums import phi_fraction
from oracles import oracle_digit_sums, oracle_extreme_1d


@contextmanager
def report(line):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL {line}")
        raise
    print(f"PASS {line} [{time.time() - start:.1f}s]")


def test_c01_exact_oracle_equivalence():
    with report("criterion 1: 1d closed form == brute-force oracle, 500 random multisets"):
        rng = random.Random(987654321)
        for trial in range(500):
            base = rng.choice([2, 3, 5])
            n = rng.randint(1, 12)
            pts = []
            for _ in range(n):
                prec = rng.randint(0, 4)
                pts.append(ld.BRational(rng.randrange(base**prec), base, prec))
            closed = ld.extreme_discrepancy_1d(pts)
            assert closed.value == oracle_extreme_1d(pts), (trial, base, pts)
            assert ld.recount(pts, closed.witness) == closed.value


def test_c02_net_certification():
    with report("criterion 2: van der Corput and Faure digital net certification"):
        for b in (2, 3, 5):
            spec = ld.VanDerCorput(b)
            for m in range(0, 7):
                res = ld.check_net(ld.points(spec, b**m), b, t=0, m=m, s=1)
                assert res.ok, (b, m, res.violation)
        faure = ld.DigitalSequence(3, tuple(ld.pascal_matrices(3, 2, 12)), 12)
        res = ld.check_sequence_property(faure, b=3, t=0, s=2, k_max=8, m_max=3)
        assert res.ok, res


def test_c03_distribution_exactness():
    with report("criterion 3: digit-sum distribution == brute force; mass and symmetry"):
        for q in (2, 3, 4, 5):
            for j in range(0, 11):
                # independent oracle: vectorized digit sums of every n < q^j
                rem = np.arange(q**j, dtype=np.int64)
                sums = np.zeros(q**j, dtype=np.int64)
                while rem.any():
                    sums += rem % q
                    rem //= q
                brute = np.bincount(sums, minlength=j * (q - 1) + 1)
                assert tuple(int(x) for x in brute) == ld.distribution(q, j).counts
        for q in (2, 3, 5):
            for j in (16, 33, 64):
                counts = ld.distribution(q, j).counts
                assert sum(counts) == q**j
                assert counts == counts[::-1]


def test_c04_general_theorem_sandwich():
    with report("criterion 4: central binomial <= N*D_N <= chained envelope sum, d <= 14"):
        reports = ld.general_sandwich(ld.VanDerCorput(2), ld.SumOfDigits(2), d_max=14)
        for d, rep in enumerate(reports):
            assert rep.lower == math.comb(d, d // 2), d
            assert rep.lower <= rep.measured, d  # exact rational comparison
            assert float(rep.measured) <= rep.upper, d
            assert rep.holds


def test_c05_sqrt_log_band():
    with report("criterion 5: D_N sqrt(log N) band over d in [10, 22], max/median <= 3"):
        spec = ld.VanDerCorput(2)
        transform = ld.SumOfDigits(2)
        scaled = {}
        for d in range(10, 23):
            n = 2**d
            value = ld.transformed_discrepancy(spec, transform, n).value
            scaled[d] = float(value) * math.sqrt(math.log(n))
        values = sorted(scaled.values())
        median = values[len(values) // 2]
        assert max(values) / median <= 3.0
        assert max(values) <= 3.0 * scaled[10]


def test_c06_character_sum_lemmas():
    bs = (2, 3, 5, 10)
    qs = (2, 3, 5, 13)
    with report("criterion 6a: product identity and first lemma, full (b,q,k,m) sweep"):
        for b in bs:
            for q in qs:
                for k in range(1, 101):
                    for m in range(0, 13):
                        assert ld.product_identity_check(b, q, k, m, tol=1e-10), (b, q, k, m)
                        res = ld.lemma_le1_bound(b, q, k, m)
                        assert res.holds, (b, q, k, m, res)
    with report("criterion 6b: second lemma at every N <= 10^4 (scaled comparison)"):
        n_max = 10**4
        n_range = np.arange(1, n_max + 1, dtype=np.int64)
        for q in qs:
            sums = oracle_digit_sums(q, n_max)
            r_top = 0
            while q ** (r_top + 1) <= n_max:
                r_top += 1
            digit_matrix = np.stack(
                [(n_range // q**r) % q for r in range(r_top + 1)], axis=1
            ).astype(np.longdouble)
            for b in bs:
                for k in range(1, 101):
                    num, den = phi_fraction(b, k)
                    table = np.exp(
                        2j * math.pi * np.arange(den) / den
                    ).astype(np.clongdouble)
                    partial = np.cumsum(table[(sums * num) % den])
                    lhs_scaled = np.abs(partial)  # N |T_k(N)|
                    block_mags = np.array(
                        [abs(partial[q**r - 1]) for r in range(r_top + 1)],
                        dtype=np.longdouble,
                    )  # q^r |T_k(q^r)|
                    rhs_scaled = digit_matrix @ block_mags
                    ok = lhs_scaled <= rhs_scaled + 1e-12 * n_range
                    assert bool(ok.all()), (b, q, k, int(np.argmin(ok)) + 1)
        # tie the vectorized evaluation back to the reference implementation
        rng = random.Random(20230301)
        for _ in range(25):
            b, q = rng.choice(bs), rng.choice(qs)
            k, n = rng.randint(1, 100), rng.randint(1, n_max)
            res = ld.lemma_le2_bound(b, q, k, n)
            assert res.holds, (b, q, k, n)


def test_c07_hellekalek_bound_soundness():
    with report("criterion 7: character bound >= exact discrepancy, 200 random b-adic sets"):
        rng = random.Random(1234512345)
        for trial in range(200):
            b = rng.choice([2, 3])
            n = rng.randint(1, 64)
            pts = []
            for _ in range(n):
                prec = rng.randint(0, 4)
                pts.append(ld.BRational(rng.randrange(b**prec), b, prec))
            exact = float(ld.extreme_discrepancy_1d(pts).value)
            for g in range(1, 5):
                bound = ld.hellekalek_bound(b, g, pts)
                assert bound >= exact - 1e-12, (trial, b, g)


def _alpha_sweep_scaled(u, v, n_max):
    """Exact D_N of floor-power-indexed VdC(2) for every N <= n_max.

    Integer arithmetic over the common denominator N * 2**prec; returns
    Fractions.  Cross-checked against transformed_discrepancy below.
    """
    t = ld.FloorPower(u, v)
    k_top = t.apply(n_max - 1)
    cuts = np.array([t.inverse_ceil(k) for k in range(k_top + 2)], dtype=np.int64)
    prec = k_top.bit_length()
    den = 1 << prec
    nums = np.empty(k_top + 1, dtype=np.int64)
    for k in range(k_top + 1):
        r = ld.radical_inverse(k, 2)
        nums[k] = r.num << (prec - r.prec)
    order = np.argsort(nums, kind="stable")
    nums_sorted = nums[order]
    cuts_lo = cuts[:-1][order]
    cuts_hi = cuts[1:][order]
    out = {}
    for n in range(1, n_max + 1):
        counts = np.clip(np.minimum(n, cuts_hi) - cuts_lo, 0, None)
        mask = counts > 0
        c = counts[mask]
        y = nums_sorted[mask]
        cum = np.cumsum(c)
        d_plus = int(np.max(cum * den - y * n))
        d_minus = int(np.max(y * n - (cum - c) * den))
        out[n] = Fraction(d_plus + d_minus, n * den)
    return out


def test_c08_monotone_transform_bounds():
    spec = ld.VanDerCorput(2)
    n_max = 2**14
    for u, v in ((1, 2), (1, 3), (2, 3)):
        with report(f"criterion 8: floor-power alpha={u}/{v} lower bound and band, N <= 2^14"):
            t = ld.FloorPower(u, v)
            sweep = _alpha_sweep_scaled(u, v, n_max)
            # the fast sweep must agree exactly with the production operation
            probe = list(range(1, 25)) + [100, 321, 1000, 4096, 11111, n_max]
            for n in probe:
                assert sweep[n] == ld.transformed_discrepancy(spec, t, n).value, n
            # zero-tolerance lower bound at every N
            for n in range(1, n_max + 1):
                assert ld.monotone_lower(t, n) <= sweep[n], (u, v, n)
            # two-decade band for D_N N^alpha / log N
            alpha = u / v
            band = [float(sweep[n]) * n**alpha / math.log(n) for n in range(2, n_max + 1)]
            assert max(band) / min(band) <= 100.0, (u, v)


def test_c09_uniform_discrepancy_bound():
    with report("criterion 9: windowed N*D <= chained net bound and main term + slack"):
        spec = ld.VanDerCorput(2)
        delta = ld.measured_delta_table(spec, 2, 0, 1, m_max=10, blocks=8)
        k_window = 2**12
        ladder = [2**d for d in range(0, 11)]
        extras = [3, 23, 100, 321, 777]
        windowed = {}
        for n in ladder + extras:
            rep = ld.windowed_uniform_discrepancy(spec, None, n, k_window)
            windowed[n] = n * rep.value
            assert float(windowed[n]) <= ld.uniform_bound_ts(2, 0, 1, n, delta) * (
                1 + 1e-12
            ), n
        # main-term check: fit additive slack on d <= 5, verify through d = 10
        slack = max(
            0.0,
            max(
                float(windowed[2**d]) - ld.halton_uniform_main_term([2], 2**d)
                for d in range(1, 6)
            ),
        )
        for d in range(1, 11):
            n = 2**d
            main = ld.halton_uniform_main_term([2], n)
            assert float(windowed[n]) <= main + slack + 1e-9, (d, slack)


def test_c10_csv_determinism(tmp_path):
    with report("criterion 10: byte-identical CSVs across repeated runs"):
        jobs = [
            ["udisc", "--spec", "vdc:2", "--N", "64", "--kmax", "256"],
            ["genbound", "--spec", "vdc:2", "--q", "2", "--dmax", "8"],
            ["sodcheck", "--spec", "vdc:3", "--q", "2", "--dmax", "7"],
            ["dist", "--q", "3", "--j", "9"],
        ]
        for i, job in enumerate(jobs):
            outputs = []
            for run in range(2):
                out = tmp_path / f"job{i}_r{run}.csv"
                code = cli_main(job + ["--out", str(out)])
                assert code == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], job
