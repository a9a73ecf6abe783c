"""Command-line front end: deterministic CSV emission for every subcommand.

Exit codes: 0 when all requested verifications hold, 1 on a verification or
hypothesis failure (a machine-readable JSON record goes to stderr), 2 on
usage errors, including inputs whose exhaustive scan would exceed its
budget and files that cannot be read or written.  Every command computes
its rows before it writes any, so a run that stops with an error leaves no
output file, no row on stdout and no report directory.  Output bytes are
identical across runs for a fixed configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from pathlib import Path
from typing import NamedTuple

import lowdisc as ld

from ._util import BudgetExceededError

# Library names resolve through `ld`, the lazy package, when a command runs,
# so a job loads only the modules it uses: `dist`, `transform`, `expsum`,
# `hkbound` and `gen` never import numpy, nor does 1D `udisc`, whose window
# slides on Python ints at any size.  `disc`, `sodcheck`, `monocheck`,
# `genbound`, s >= 2 `udisc`, `netcheck` and `ubound` import none on inputs
# that _util._on_python_ints finds small (2^14 distinct indices in 1D, 63
# for the 2D extreme grid), or _util._net_on_python_ints for a net check's
# level: their points come from generators.int_coordinates, and
# discrepancy() and the net count read them as lists.
# Records are NamedTuples or plain classes on _util.Value, which keeps
# inspect out of a job without numpy; json loads only to write a failure
# record or a report, and `disc` and `udisc` never load the bound checks.


def _fail(record: dict) -> int:
    import json  # only a failed check writes JSON

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


def _table(args, header: str, rows, failure=None, holds: int = -1) -> int:
    """Write the header and the rows to the output at once; return the exit code.

    Callers build their rows before this opens the output (`transform`
    streams its rows, and checks its extreme indices first), so a run that
    stops with an error writes nothing.  With `failure`, each row whose
    `holds` cell is 0 gives the record failure(row); any record goes to
    stderr and makes the exit code 1.
    """
    with _output(args.out) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header.split(","))
        w.writerows(rows)
    failures = [failure(row) for row in rows if not row[holds]] if failure else []
    if failures:
        return _fail({"command": args.command, "failures": failures})
    return 0


def _need_level(name: str, value: int, least: int = 0) -> None:
    """A level argument below its least value is a usage error, not an empty run."""
    if value < least:
        raise ValueError(f"need --{name} >= {least}, got {value}")


def _frac_cols(x) -> list:
    return [x.numerator, x.denominator]


# Rows stream to the output in batches this long, so the peak memory of
# `gen` does not grow with --count.
GEN_CHUNK = 1024


def cmd_gen(args) -> int:
    spec = ld.parse_spec(args.spec)
    indices = range(args.start, args.start + args.count)
    if indices:  # the extreme indices: fail before any row is written
        ld.generators.int_coordinates(spec, [indices[0], indices[-1]])
    chunks = (
        ld.generators.int_coordinates(spec, indices[i : i + GEN_CHUNK])
        for i in range(0, len(indices), GEN_CHUNK)
    )
    with _output(args.out) as fh:
        ld.generators.write_points_csv(fh, chunks, args.start)
    return 0


def cmd_transform(args) -> int:
    _need_level("count", args.count, 1)
    transform = ld.parse_transform(args.transform)
    indices = range(args.start, args.start + args.count)
    for n in (indices[0], indices[-1]):  # fail before any row is written, as gen does
        transform.apply(n)
    return _table(args, "n,fn", ([n, transform.apply(n)] for n in indices))


def cmd_dist(args) -> int:
    q, j = args.q, args.j
    ld.digitsum_dist._block_levels(q, j)  # refuses past the budget before any count
    # the float column first: a main term past the float range stops the run before the counts
    mains = [repr(ld.gaussian_main_term(q, j, k)) if j else "" for k in range(j * (q - 1) + 1)]
    rows = [[q, j, k, c, main]
            for k, (c, main) in enumerate(zip(ld.distribution(q, j).counts, mains))]
    return _table(args, "q,j,k,count,gaussian_main", rows)


def cmd_disc(args) -> int:
    spec = ld.parse_spec(args.spec)
    transform = ld.parse_transform(args.transform) if args.transform else None
    rep = ld.transformed_discrepancy(spec, transform, args.N, args.mode)
    row = [args.N, *_frac_cols(rep.value), rep.method, str(rep.witness)]
    return _table(args, "N,value_num,value_den,method,witness", [row])


def cmd_udisc(args) -> int:
    spec = ld.parse_spec(args.spec)
    transform = ld.parse_transform(args.transform) if args.transform else None
    rep = ld.windowed_uniform_discrepancy(spec, transform, args.N, args.kmax, args.mode)
    row = [args.N, *_frac_cols(rep.value), rep.method, rep.shift]
    return _table(args, "N,value_num,value_den,method,argmax_shift", [row])


WEYL_HEADER = "b,q,k,N,re,im,abs,bound"


def _weyl_rows(b: int, q: int, ks, n: int) -> tuple[list, list[int]]:
    """One row per Weyl sum, with an empty bound column, and the digit-sum
    counts below N that the sums read, taken once for all of them."""
    sums, counts = ld.expsums.weyl_sums(b, q, ks, n)
    rows = [[b, q, ws.k, n, repr(ws.value.real), repr(ws.value.imag), repr(ws.abs), ""]
            for ws in sums]
    return rows, counts


def cmd_expsum(args) -> int:
    _need_level("kmax", args.kmax, args.kmin)
    rows, _ = _weyl_rows(args.b, args.q, range(args.kmin, args.kmax + 1), args.N)
    return _table(args, WEYL_HEADER, rows)


def cmd_hkbound(args) -> int:
    b, q, n = args.b, args.q, args.N
    g = ld.hellekalek_resolution(b, n) if args.g is None else args.g
    # weyl_sums checks N >= 1 first, and hellekalek_bound refuses g < 1
    rows, counts = _weyl_rows(b, q, range(1, b ** max(g, 0)), n)
    multiplicity = {k: c for k, c in enumerate(counts) if c}
    points = [ld.radical_inverse(k, b) for k in multiplicity]
    bound = ld.hellekalek_bound(b, g, points, list(multiplicity.values()))
    rows.append([b, q, "total", n, "", "", "", repr(bound)])
    return _table(args, WEYL_HEADER, rows)


def cmd_genbound(args) -> int:
    reports = ld.general_sandwich(ld.parse_spec(args.spec), ld.SumOfDigits(args.q), args.dmax)
    rows = [
        [d, r.n, r.lower.numerator, *_frac_cols(r.measured), repr(float(r.measured)),
         repr(r.upper), int(r.holds)]
        for d, r in enumerate(reports)
    ]
    header = "d,N,lower,measured_num,measured_den,measured_float,upper,holds"
    return _table(args, header, rows, lambda row: {"check": "genbound", "d": row[0], "N": row[1]})


def cmd_sodcheck(args) -> int:
    spec = ld.parse_spec(args.spec)
    fit_rows, fits = ld.sod_envelope_check(spec, args.q, args.dmax, args.cal, args.mode)
    rows = [
        [r.d, r.n, repr(r.measured), repr(r.scaled), repr(r.lower_fit),
         repr(r.upper_fit) if r.upper_fit is not None else "", repr(fits["c2"]),
         repr(fits["c3"]), int(r.holds)]
        for r in fit_rows
    ]
    header = "d,N,measured,scaled,lower_fit,upper_fit,c2,c3,holds"
    return _table(args, header, rows, lambda row: {"check": "sodcheck", "d": row[0]})


def cmd_monocheck(args) -> int:
    _need_level("dmax", args.dmax, 1)
    spec = ld.parse_spec(args.spec)
    transform = ld.FloorPower(args.u, args.v)
    measured = {
        2**d: ld.transformed_discrepancy(spec, transform, 2**d, args.mode).value
        for d in range(1, args.dmax + 1)
    }
    cal = {n: d_n for n, d_n in measured.items() if n <= 2**args.cal_dmax}
    fitted_c = ld.fit_monotone_constant(transform, spec.dimension, cal)
    hyp = ld.monotone_hypotheses(transform, n_max=min(2**args.dmax, 4096), k_max=1000)
    if not hyp["f_monotone_surjective"]:
        return _fail({"command": "monocheck", "failures": [{"check": "hypothesis", **hyp}]})
    rows = []
    for n, d_n in measured.items():
        lower = ld.monotone_lower(transform, n)
        if args.mode == "star":  # the floor is for the extreme value, at most 2^s * star
            lower /= 2**spec.dimension
        upper = ld.monotone_upper(transform, n, spec.dimension, fitted_c)
        rows.append(
            [n, *_frac_cols(lower), *_frac_cols(d_n), repr(float(d_n)), repr(upper),
             repr(fitted_c), hyp["F_monotonicity"], int(ld.bound_holds(lower, d_n, upper))]
        )
    header = (
        "N,lower_num,lower_den,measured_num,measured_den,measured_float,upper,fitted_c,"
        "F_monotonicity,holds"
    )
    return _table(args, header, rows, lambda row: {"check": "monocheck", "N": row[0]})


def cmd_ubound(args) -> int:
    _need_level("dmax", args.dmax)
    spec = ld.parse_spec(args.spec)
    b, t = args.b, args.t
    delta = ld.measured_delta_table(spec, b, t, max(args.dmax, t), blocks=args.blocks)
    rows = []
    for n in (b**d for d in range(args.dmax + 1)):
        scaled = n * ld.windowed_uniform_discrepancy(spec, None, n, args.kmax).value
        bound = ld.uniform_bound_ts(b, t, n, delta)
        main = ld.halton_uniform_main_term([b] * spec.dimension, n) if n >= 2 else 1.0
        rows.append(
            [n, *_frac_cols(scaled), repr(float(scaled)), repr(bound), repr(main),
             int(ld.bound_holds(None, scaled, bound))]
        )
    header = "N,windowed_num,windowed_den,windowed_float,bound,main_term,holds"
    return _table(args, header, rows, lambda row: {"check": "ubound", "N": row[0]})


def cmd_netcheck(args) -> int:
    spec = ld.parse_spec(args.spec)
    res = ld.check_sequence_property(spec, args.base, args.t, args.kmax, args.mmax)
    failed = ["", "", ""] if res.ok else [res.failed_m, res.failed_block, str(res.violation)]
    row = [args.base, args.t, spec.dimension, args.mmax, args.kmax, int(res.ok), *failed]
    header = "base,t,s,mmax,kmax,ok,failed_m,failed_block,violation"
    return _table(
        args, header, [row], lambda row: dict(zip(("m", "block", "violation"), row[6:])), holds=5
    )


class RunConfig(NamedTuple):
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
        raw = {}
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in cls._fields:
                raise ValueError(f"unknown config key {key!r}")
            raw[key] = value.strip()
        if "curve" not in raw or "spec" not in raw:
            raise ValueError("config needs at least curve= and spec=")
        curve, spec = raw.pop("curve"), raw.pop("spec")
        return cls(curve, spec, **{k: type(cls._field_defaults[k])(v) for k, v in raw.items()})

    def content_hash(self) -> str:
        import hashlib  # only `report` hashes, and hashlib adds 3.6 MiB to a process
        import json

        blob = json.dumps(self._asdict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def cmd_report(args) -> int:
    import json

    cfg = RunConfig.from_file(args.config)
    spec = ld.parse_spec(cfg.spec)
    if cfg.curve == "sod":
        rows, _ = ld.sod_envelope_check(spec, cfg.q, cfg.dmax, mode=cfg.mode)
        curves = {f"sod_q{cfg.q}.dat": [(float(r.n), r.scaled) for r in rows]}
    elif cfg.curve == "alpha":
        ns = [2**d for d in range(1, cfg.dmax + 1)]
        rows, _ = ld.alpha_corollary_check(spec, ld.FloorPower(cfg.u, cfg.v), ns, mode=cfg.mode)
        curves = {f"alpha_{cfg.u}_{cfg.v}.dat": [(float(r.n), r.scaled) for r in rows]}
    elif cfg.curve == "bound":
        if cfg.mode != "extreme":  # the sandwich's floor bounds the extreme value only
            raise ValueError(f"curve=bound measures mode=extreme, got mode={cfg.mode!r}")
        reports = ld.general_sandwich(spec, ld.SumOfDigits(cfg.q), cfg.dmax)
        curves = {
            f"bound_measured_q{cfg.q}.dat": [(float(r.n), float(r.measured)) for r in reports],
            f"bound_upper_q{cfg.q}.dat": [(float(r.n), r.upper) for r in reports],
        }
    else:
        raise ValueError(f"unknown curve {cfg.curve!r}")
    # every curve is built before the directory exists, so an error leaves none
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, points in curves.items():
        with _output(out_dir / name) as fh:
            fh.writelines(f"{x!r} {y!r}\n" for x, y in points)
    manifest = {
        "version": ld.__version__,
        "config_hash": cfg.content_hash(),
        "config": cfg._asdict(),
        "files": list(curves),
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
    parser.add_argument("--version", action="version", version=ld.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Each option is a flag and its add_argument keywords; every command but
    # report then takes --out.
    need = {"type": int, "required": True}
    zero = {"type": int, "default": 0}
    spec = ("--spec", {"required": True})
    transform = ("--transform", {})
    mode = ("--mode", {"choices": ["extreme", "star"], "default": "extreme"})
    commands = {
        "gen": (cmd_gen, "emit sequence points as exact CSV",
                [spec, ("--count", need), ("--start", zero)]),
        "transform": (cmd_transform, "evaluate an index transform",
                      [("--transform", {"required": True}), ("--count", need), ("--start", zero)]),
        "dist": (cmd_dist, "digit-sum distribution on a block", [("--q", need), ("--j", need)]),
        "disc": (cmd_disc, "exact discrepancy of the first N points",
                 [spec, transform, ("--N", need), mode]),
        "udisc": (cmd_udisc, "windowed uniform discrepancy (lower estimate)",
                  [spec, transform, ("--N", need), ("--kmax", need), mode]),
        "expsum": (cmd_expsum, "Weyl sums over the digit-sum sequence",
                   [("--b", need), ("--q", need), ("--kmin", zero), ("--kmax", need),
                    ("--N", need)]),
        "hkbound": (cmd_hkbound, "character-sum discrepancy bound",
                    [("--b", need), ("--q", need), ("--N", need), ("--g", {"type": int})]),
        "genbound": (cmd_genbound, "general sandwich along the q-adic chain",
                     [spec, ("--q", need), ("--dmax", need)]),
        "sodcheck": (cmd_sodcheck, "sqrt(log N) envelope fit and verification",
                     [spec, ("--q", need), ("--dmax", need), ("--cal", {"type": int}), mode]),
        "monocheck": (cmd_monocheck, "floor-power transform bounds",
                      [spec, ("--u", need), ("--v", need), ("--dmax", need),
                       ("--cal-dmax", {"type": int, "default": 6}), mode]),
        "ubound": (cmd_ubound, "uniform-discrepancy bound for (t,s)-sequences",
                   [spec, ("--b", need), ("--t", zero), ("--dmax", need), ("--kmax", need),
                    ("--blocks", {"type": int, "default": 8})]),
        "netcheck": (cmd_netcheck, "verify the (t,s)-sequence block-net property",
                     [spec, ("--base", need), ("--t", zero), ("--mmax", need), ("--kmax", need)]),
        "report": (cmd_report, "emit plot-data files from a config",
                   [("--config", {"required": True})]),
    }
    for name, (fn, help_text, options) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        if fn is not cmd_report:
            p.add_argument("--out")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, BudgetExceededError, OSError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (MemoryError, OverflowError) as exc:  # past the memory there is, or the float range
        sys.stderr.write(f"usage error: {str(exc) or 'out of memory'}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
