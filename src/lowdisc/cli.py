"""Command-line front end: deterministic CSV emission for every subcommand.

Exit codes: 0 when all requested verifications hold, 1 on a verification or
hypothesis failure (a machine-readable JSON record goes to stderr), 2 on
usage errors, including inputs whose exhaustive scan would exceed its
budget and files that cannot be read or written.  A run that stops with an
error leaves no output file.  Output bytes are identical across runs for a
fixed configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from ._util import BudgetExceededError, as_fraction
from .bounds import (
    bound_holds,
    fit_monotone_constant,
    general_sandwich,
    halton_uniform_main_term,
    measured_delta_table,
    monotone_hypotheses,
    monotone_lower,
    monotone_upper,
    sod_envelope_check,
    transformed_discrepancy,
    uniform_bound_ts,
)
from .digitsum_dist import distribution, gaussian_main_term
from .discrepancy import windowed_uniform_discrepancy
from .expsums import hellekalek_bound, hellekalek_resolution, weyl_sum
from .generators import (
    VanDerCorput,
    check_sequence_property,
    coordinates,
    parse_spec,
    write_points_csv,
)
from .transforms import SumOfDigits, FloorPower, parse_transform, value_counts_below


def _fail(record: dict) -> int:
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    return 1


@contextlib.contextmanager
def _output(path):
    """The file a command writes its rows to: stdout for None or "-".

    A file path is written through a temporary file in the same directory,
    renamed onto the path only when the block ends without an exception, so
    a failed run leaves no partial output behind.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    if os.path.exists(path) and not os.path.isfile(path):
        # a device or pipe (/dev/null, /dev/stdout) cannot be renamed onto
        with open(path, "w", newline="") as fh:
            yield fh
        return
    target = os.path.realpath(path)  # a symlink keeps pointing at the new file
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _need_level(name: str, value: int, least: int = 0) -> None:
    """A level argument below its least value is a usage error, not an empty run."""
    if value < least:
        raise ValueError(f"need --{name} >= {least}, got {value}")


def _frac_cols(x) -> list:
    f = as_fraction(x)
    return [f.numerator, f.denominator]


# Rows stream to the output in batches this long, so the peak memory of
# `gen` does not grow with --count.
GEN_CHUNK = 1024


def cmd_gen(args) -> int:
    spec = parse_spec(args.spec)
    indices = range(args.start, args.start + args.count)
    if indices:  # the extreme indices: fail before any row is written
        coordinates(spec, [indices[0], indices[-1]])
    chunks = (
        coordinates(spec, indices[i : i + GEN_CHUNK]) for i in range(0, len(indices), GEN_CHUNK)
    )
    with _output(args.out) as fh:
        write_points_csv(fh, chunks, args.start)
    return 0


def cmd_transform(args) -> int:
    transform = parse_transform(args.transform)
    with _output(args.out) as fh:
        w = _writer(fh)
        w.writerow(["n", "fn"])
        for n in range(args.start, args.start + args.count):
            w.writerow([n, transform.apply(n)])
    return 0


def cmd_dist(args) -> int:
    dist = distribution(args.q, args.j)
    with _output(args.out) as fh:
        w = _writer(fh)
        w.writerow(["q", "j", "k", "count", "gaussian_main"])
        for k, c in enumerate(dist.counts):
            gauss = repr(gaussian_main_term(args.q, args.j, k)) if args.j >= 1 else ""
            w.writerow([args.q, args.j, k, c, gauss])
    return 0


def cmd_disc(args) -> int:
    spec = parse_spec(args.spec)
    transform = parse_transform(args.transform) if args.transform else None
    rep = transformed_discrepancy(spec, transform, args.N, args.mode)
    with _output(args.out) as fh:
        w = _writer(fh)
        w.writerow(["N", "value_num", "value_den", "method", "witness"])
        w.writerow([args.N, *_frac_cols(rep.value), rep.method, str(rep.witness)])
    return 0


def cmd_udisc(args) -> int:
    spec = parse_spec(args.spec)
    transform = parse_transform(args.transform) if args.transform else None
    rep = windowed_uniform_discrepancy(spec, transform, args.N, args.kmax, args.mode)
    with _output(args.out) as fh:
        w = _writer(fh)
        w.writerow(["N", "value_num", "value_den", "method", "argmax_shift"])
        w.writerow([args.N, *_frac_cols(rep.value), rep.method, rep.shift])
    return 0


def _weyl_rows(fh, b: int, q: int, ks, n: int):
    """Header and one row per Weyl sum; returns the writer for further rows."""
    w = _writer(fh)
    w.writerow(["b", "q", "k", "N", "re", "im", "abs", "bound"])
    for k in ks:
        ws = weyl_sum(b, q, k, n)
        w.writerow([b, q, k, n, repr(ws.value.real), repr(ws.value.imag), repr(ws.abs), ""])
    return w


def cmd_expsum(args) -> int:
    with _output(args.out) as fh:
        _weyl_rows(fh, args.b, args.q, range(args.kmin, args.kmax + 1), args.N)
    return 0


def cmd_hkbound(args) -> int:
    b, q, n = args.b, args.q, args.N
    spec = VanDerCorput(b)  # checks the base before the resolution takes log b
    g = args.g if args.g else hellekalek_resolution(b, n)
    multiplicity = value_counts_below(SumOfDigits(q), n)
    (axis,) = coordinates(spec, list(multiplicity))
    bound = hellekalek_bound(b, g, axis.brationals(), list(multiplicity.values()))
    with _output(args.out) as fh:
        w = _weyl_rows(fh, b, q, range(1, b**g), n)
        w.writerow([b, q, "total", n, "", "", "", repr(bound)])
    return 0


def cmd_genbound(args) -> int:
    _need_level("dmax", args.dmax)
    spec = parse_spec(args.spec)
    reports = general_sandwich(spec, SumOfDigits(args.q), args.dmax)
    failures = []
    with _output(args.out) as fh:
        w = _writer(fh)
        w.writerow(
            [
                "d",
                "N",
                "lower",
                "measured_num",
                "measured_den",
                "measured_float",
                "upper",
                "holds",
            ]
        )
        for d, rep in enumerate(reports):
            ok = rep.holds
            if not ok:
                failures.append({"check": "genbound", "d": d, "N": rep.n})
            w.writerow(
                [
                    d,
                    rep.n,
                    rep.lower.numerator,
                    *_frac_cols(rep.measured),
                    repr(float(rep.measured)),
                    repr(rep.upper),
                    int(ok),
                ]
            )
    if failures:
        return _fail({"command": "genbound", "failures": failures})
    return 0


def cmd_sodcheck(args) -> int:
    spec = parse_spec(args.spec)
    rows, fits = sod_envelope_check(spec, args.q, args.dmax, args.cal, args.mode)
    failures = []
    with _output(args.out) as fh:
        w = _writer(fh)
        w.writerow(
            ["d", "N", "measured", "scaled", "lower_fit", "upper_fit", "c2", "c3", "holds"]
        )
        for row in rows:
            if not row.holds:
                failures.append({"check": "sodcheck", "d": row.d})
            w.writerow(
                [
                    row.d,
                    row.n,
                    repr(row.measured),
                    repr(row.scaled),
                    repr(row.lower_fit),
                    repr(row.upper_fit) if row.upper_fit is not None else "",
                    repr(fits["c2"]),
                    repr(fits["c3"]),
                    int(row.holds),
                ]
            )
    if failures:
        return _fail({"command": "sodcheck", "failures": failures})
    return 0


def cmd_monocheck(args) -> int:
    _need_level("dmax", args.dmax, 1)
    spec = parse_spec(args.spec)
    transform = FloorPower(args.u, args.v)
    n_values = [2**d for d in range(1, args.dmax + 1)]
    cal = [n for n in n_values if n <= 2**args.cal_dmax]
    fitted_c = fit_monotone_constant(spec, transform, cal, args.mode)
    hyp = monotone_hypotheses(transform, n_max=min(n_values[-1], 4096), k_max=1000)
    if not hyp["f_monotone_surjective"]:
        return _fail({"command": "monocheck", "failures": [{"check": "hypothesis", **hyp}]})
    failures = []
    with _output(args.out) as fh:
        w = _writer(fh)
        w.writerow(
            [
                "N",
                "lower_num",
                "lower_den",
                "measured_num",
                "measured_den",
                "measured_float",
                "upper",
                "fitted_c",
                "F_monotonicity",
                "holds",
            ]
        )
        for n in n_values:
            lower = monotone_lower(transform, n)
            if args.mode == "star":  # the floor is for the extreme value, at most 2^s * star
                lower /= 2**spec.dimension
            measured = transformed_discrepancy(spec, transform, n, args.mode).value
            upper = monotone_upper(transform, n, spec.dimension, fitted_c)
            ok = bound_holds(lower, measured, upper)
            if not ok:
                failures.append({"check": "monocheck", "N": n})
            w.writerow(
                [
                    n,
                    *_frac_cols(lower),
                    *_frac_cols(measured),
                    repr(float(measured)),
                    repr(upper),
                    repr(fitted_c),
                    hyp["F_monotonicity"],
                    int(ok),
                ]
            )
    if failures:
        return _fail({"command": "monocheck", "failures": failures})
    return 0


def cmd_ubound(args) -> int:
    _need_level("dmax", args.dmax)
    spec = parse_spec(args.spec)
    b, t, s = args.b, args.t, args.s
    m_top = max(args.dmax, t)
    delta = measured_delta_table(spec, b, t, s, m_top, blocks=args.blocks)
    failures = []
    with _output(args.out) as fh:
        w = _writer(fh)
        w.writerow(
            [
                "N",
                "windowed_num",
                "windowed_den",
                "windowed_float",
                "bound",
                "main_term",
                "holds",
            ]
        )
        for d in range(args.dmax + 1):
            n = b**d
            rep = windowed_uniform_discrepancy(spec, None, n, args.kmax)
            scaled = n * rep.value
            bound = uniform_bound_ts(b, t, s, n, delta)
            main = halton_uniform_main_term([b] * s, n) if n >= 2 else 1.0
            ok = bound_holds(None, scaled, bound)
            if not ok:
                failures.append({"check": "ubound", "N": n})
            w.writerow(
                [n, *_frac_cols(scaled), repr(float(scaled)), repr(bound), repr(main), int(ok)]
            )
    if failures:
        return _fail({"command": "ubound", "failures": failures})
    return 0


def cmd_netcheck(args) -> int:
    _need_level("mmax", args.mmax)
    spec = parse_spec(args.spec)
    res = check_sequence_property(spec, args.base, args.t, spec.dimension, args.kmax, args.mmax)
    with _output(args.out) as fh:
        w = _writer(fh)
        w.writerow(["base", "t", "s", "mmax", "kmax", "ok", "failed_m", "failed_block", "violation"])
        w.writerow(
            [
                args.base,
                args.t,
                spec.dimension,
                args.mmax,
                args.kmax,
                int(res.ok),
                res.failed_m if res.failed_m is not None else "",
                res.failed_block if res.failed_block is not None else "",
                str(res.violation) if res.violation else "",
            ]
        )
    if not res.ok:
        return _fail(
            {
                "command": "netcheck",
                "failures": [
                    {"m": res.failed_m, "block": res.failed_block, "violation": str(res.violation)}
                ],
            }
        )
    return 0


@dataclass
class RunConfig:
    curve: str
    spec: str
    q: int = 2
    u: int = 1
    v: int = 2
    dmax: int = 10
    mode: str = "extreme"
    out: str = "report"

    @classmethod
    def from_file(cls, path: str) -> RunConfig:
        known = {f.name for f in fields(cls)}
        raw = {}
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            raw[key] = value.strip()
        if "curve" not in raw or "spec" not in raw:
            raise ValueError("config needs at least curve= and spec=")
        cfg = cls(curve=raw.pop("curve"), spec=raw.pop("spec"))
        for key, value in raw.items():
            current = getattr(cfg, key)
            setattr(cfg, key, type(current)(value))
        return cfg

    def content_hash(self) -> str:
        blob = json.dumps(self.__dict__, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def cmd_report(args) -> int:
    cfg = RunConfig.from_file(args.config)
    spec = parse_spec(cfg.spec)
    if cfg.curve not in ("sod", "alpha", "bound"):
        raise ValueError(f"unknown curve {cfg.curve!r}")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []

    def emit(name: str, rows):
        with _output(out_dir / name) as fh:
            for x, y in rows:
                fh.write(f"{x!r} {y!r}\n")
        files.append(name)

    def measured(transform, n: int) -> float:
        return float(transformed_discrepancy(spec, transform, n, cfg.mode).value)

    if cfg.curve == "sod":
        sod = SumOfDigits(cfg.q)
        ns = [cfg.q**d for d in range(1, cfg.dmax + 1)]
        emit(f"sod_q{cfg.q}.dat", ((float(n), measured(sod, n) * math.sqrt(math.log(n))) for n in ns))
    elif cfg.curve == "alpha":
        power = FloorPower(cfg.u, cfg.v)
        alpha = cfg.u / cfg.v
        ns = [2**d for d in range(1, cfg.dmax + 1)]
        emit(f"alpha_{cfg.u}_{cfg.v}.dat", ((float(n), measured(power, n) * n**alpha) for n in ns))
    else:
        reports = general_sandwich(spec, SumOfDigits(cfg.q), cfg.dmax)
        emit(f"bound_measured_q{cfg.q}.dat", ((float(r.n), float(r.measured)) for r in reports))
        emit(f"bound_upper_q{cfg.q}.dat", ((float(r.n), r.upper) for r in reports))

    manifest = {
        "version": __version__,
        "config_hash": cfg.content_hash(),
        "config": cfg.__dict__,
        "files": files,
    }
    with _output(out_dir / "manifest.json") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowdisc",
        description="low-discrepancy sequence laboratory (exact arithmetic)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit sequence points as exact CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("transform", help="evaluate an index transform")
    p.add_argument("--transform", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("dist", help="digit-sum distribution on a block")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("disc", help="exact discrepancy of the first N points")
    p.add_argument("--spec", required=True)
    p.add_argument("--transform")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--mode", choices=["extreme", "star"], default="extreme")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_disc)

    p = sub.add_parser("udisc", help="windowed uniform discrepancy (lower estimate)")
    p.add_argument("--spec", required=True)
    p.add_argument("--transform")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--mode", choices=["extreme", "star"], default="extreme")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_udisc)

    p = sub.add_parser("expsum", help="Weyl sums over the digit-sum sequence")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--kmin", type=int, default=0)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_expsum)

    p = sub.add_parser("hkbound", help="character-sum discrepancy bound")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--g", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_hkbound)

    p = sub.add_parser("genbound", help="general sandwich along the q-adic chain")
    p.add_argument("--spec", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_genbound)

    p = sub.add_parser("sodcheck", help="sqrt(log N) envelope fit and verification")
    p.add_argument("--spec", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--cal", type=int, default=None)
    p.add_argument("--mode", choices=["extreme", "star"], default="extreme")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sodcheck)

    p = sub.add_parser("monocheck", help="floor-power transform bounds")
    p.add_argument("--spec", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--cal-dmax", type=int, default=6)
    p.add_argument("--mode", choices=["extreme", "star"], default="extreme")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_monocheck)

    p = sub.add_parser("ubound", help="uniform-discrepancy bound for (t,s)-sequences")
    p.add_argument("--spec", required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--blocks", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ubound)

    p = sub.add_parser("netcheck", help="verify the (t,s)-sequence block-net property")
    p.add_argument("--spec", required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_netcheck)

    p = sub.add_parser("report", help="emit plot-data files from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, BudgetExceededError, OSError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
