"""The benchmark's workloads: fixed lists of lowdisc CLI jobs.

A job is the argument list of one ``lowdisc`` invocation.  The seed picks one
of a workload's equal-work variants and the order of its jobs within a pass;
the program only ever sees the resulting command lines.
"""

from __future__ import annotations

import random

# Coprime Halton base pairs.  Each axis of the first N points has N distinct
# coordinates, so every pair gives the grid the same candidate-box count.
HALTON_PAIRS = ((2, 3), (3, 2), (2, 5), (5, 2))

# `gen --start` offsets.  Every offset keeps the indices within the same
# number of base-2 and base-3 digits, so point construction costs the same.
GEN_STARTS = (0, 1024, 2048, 3072)


def _grid(variant: int) -> list[list[str]]:
    halton = "halton:%d,%d" % HALTON_PAIRS[variant]
    return [
        ["disc", "--spec", halton, "--N", "18"],
        ["disc", "--spec", "pascal:3,2,12", "--N", "81", "--mode", "star"],
        ["udisc", "--spec", halton, "--N", "8", "--kmax", "16"],
        ["disc", "--spec", halton, "--transform", "sod:2", "--N", "65536"],
    ]


def _points(variant: int) -> list[list[str]]:
    start = str(GEN_STARTS[variant])
    return [
        ["gen", "--spec", "pascal:3,2", "--count", "20000", "--start", start],
        ["gen", "--spec", "vdc:2", "--count", "100000", "--start", start],
        ["netcheck", "--spec", "pascal:3,2", "--base", "3", "--mmax", "5", "--kmax", "8"],
        ["udisc", "--spec", "vdc:2", "--N", "1024", "--kmax", "4096"],
        ["udisc", "--spec", "vdc:2", "--transform", "sod:2", "--N", "256", "--kmax", "1024"],
        ["ubound", "--spec", "vdc:2", "--b", "2", "--dmax", "10", "--kmax", "2048"],
    ]


def _sweep(variant: int) -> list[list[str]]:
    jobs = []
    for q in ("2", "3", "5"):
        jobs += [
            ["genbound", "--spec", "vdc:2", "--q", q, "--dmax", "12"],
            ["sodcheck", "--spec", "vdc:2", "--q", q, "--dmax", "30"],
            ["dist", "--q", q, "--j", "64"],
            ["expsum", "--b", "2", "--q", q, "--kmax", "63", "--N", "50000"],
            ["hkbound", "--b", "2", "--q", q, "--N", "1000000"],
        ]
    for u, v in (("1", "2"), ("1", "3"), ("2", "3")):
        jobs += [
            ["monocheck", "--spec", "vdc:2", "--u", u, "--v", v, "--dmax", "16"],
            ["disc", "--spec", "vdc:3", "--transform", f"pow:{u}/{v}", "--N", "1000000"],
            ["transform", "--transform", f"pow:{u}/{v}", "--count", "5000"],
        ]
    jobs.append(["expsum", "--b", "2", "--q", "2", "--kmax", "255", "--N", "16384"])
    return jobs


# name -> (job-list builder, number of variants)
WORKLOADS = {
    "grid": (_grid, len(HALTON_PAIRS)),
    "points": (_points, len(GEN_STARTS)),
    "sweep": (_sweep, 1),
}


def jobs_for(workload: str, seed: int) -> tuple[int, list[list[str]]]:
    """The variant the seed selects and that variant's jobs in pass order."""
    build, variants = WORKLOADS[workload]
    variant = seed % variants
    jobs = build(variant)
    random.Random(seed).shuffle(jobs)
    return variant, jobs


def all_jobs(workload: str) -> list[list[str]]:
    """Every distinct job any seed can run, for recording the reference."""
    build, variants = WORKLOADS[workload]
    seen = {}
    for variant in range(variants):
        for job in build(variant):
            seen.setdefault(job_key(job), job)
    return list(seen.values())


def job_key(job: list[str]) -> str:
    return " ".join(job)
