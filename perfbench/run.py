"""lowdisc benchmark: run one workload's CLI jobs closed loop and report metrics.

usage:
  python3 perfbench/run.py --workload {grid,points,sweep} --seed N --seconds S --trace {0,1}
  python3 perfbench/run.py --record

Run from the root of a lowdisc source tree.  Each job is a fresh
``python3 perfbench/job.py`` process running ``lowdisc.cli.main`` on the
tree's ``src/``, one job at a time, with LOWDISC_THREADS removed from its
environment.  Passes over the workload's job list repeat until --seconds
have elapsed.  Every job's exit code and stdout SHA-256 are checked against
reference.json; a mismatch makes the run fail.

--trace 0 reports the end-to-end metrics.  With --trace 1 every job runs
untraced and then traced, back to back, and the run reports the per-layer
metrics plus the trace overhead.  The last line of stdout is the
JSON result; the full record, with per-job walls and machine facts, goes to
perfbench/out/.  --record rewrites reference.json from the current tree.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from layers import METRICS, PassTrace, metrics_for_pass
from workloads import WORKLOADS, all_jobs, job_key, jobs_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
HARD_LIMIT_S = 165.0  # every run must end well within 180 s


@dataclass
class JobRun:
    key: str
    rc: int
    sha256: str
    out_bytes: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    setup_s: float | None
    trace: dict | None
    ok: bool = True


def job_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LOWDISC_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_job(job: list[str], workdir: Path, traced: bool, deadline: float) -> JobRun:
    out, err, ready = workdir / "job.out", workdir / "job.err", workdir / "job.ready"
    trace = workdir / "job.trace.json"
    for path in (ready, trace):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "job.py"), str(ready), str(trace) if traced else "-", *job]
    with open(out, "wb") as fo, open(err, "wb") as fe:
        launch = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=job_env(), cwd=workdir)
        timer = threading.Timer(max(1.0, deadline - launch), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        end = time.monotonic()
    rc = os.waitstatus_to_exitcode(status)
    proc.returncode = rc
    setup = float(ready.read_text()) - launch if ready.exists() else None
    record = json.loads(trace.read_text()) if traced and trace.exists() else None
    return JobRun(
        key=job_key(job),
        rc=rc,
        sha256=sha256_file(out),
        out_bytes=out.stat().st_size,
        wall_s=end - launch,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,
        setup_s=setup,
        trace=record,
    )


def check(run: JobRun, reference: dict) -> None:
    """Mark the run failed unless its exit code and output bytes match the reference."""
    ref = reference.get(run.key)
    run.ok = ref is not None and run.rc == ref["rc"] and run.sha256 == ref["sha256"]
    if not run.ok:
        sys.stderr.write(f"mismatch: {run.key}: rc={run.rc} sha256={run.sha256}, expected {ref}\n")


def run_pass(jobs, workdir, deadline, reference, traced) -> tuple[list[JobRun], list[JobRun]]:
    """One pass untraced; with `traced`, each job runs again traced right after itself."""
    untraced, traced_runs = [], []
    for job in jobs:
        untraced.append(run_job(job, workdir, False, deadline))
        if traced:
            traced_runs.append(run_job(job, workdir, True, deadline))
    for run in untraced + traced_runs:
        check(run, reference)
    return untraced, traced_runs


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile with ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def end_to_end(passes: list[list[JobRun]]) -> dict[str, dict]:
    setups = [r.setup_s for runs in passes for r in runs if r.setup_s is not None]
    return {
        "wall_s": summary([sum(r.wall_s for r in runs) for runs in passes]),
        "cpu_s": summary([sum(r.cpu_s for r in runs) for runs in passes]),
        "setup_s": summary(setups) if setups else {"median": None, "n": 0},
        "peak_rss_mib": summary([max(r.rss_mib for r in runs) for runs in passes]),
    }


def per_layer(untraced, traced) -> tuple[dict, list, list]:
    """Median over traced passes of each per-layer metric, the missing ones, layer self times."""
    per_pass, missing, layer_self = [], set(), []
    for runs in traced:
        trace = PassTrace([r.trace for r in runs if r.trace is not None])
        values, absent = metrics_for_pass(
            trace,
            import_s=sum(r.setup_s or 0.0 for r in runs),
            out_bytes=sum(r.out_bytes for r in runs),
        )
        per_pass.append(values)
        missing.update(absent)
        layer_self.append(dict(trace.layer_self_s(), process=sum(r.setup_s or 0.0 for r in runs)))
    values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(sum(r.wall_s for r in runs) for runs in traced) - statistics.median(
        sum(r.wall_s for r in runs) for runs in untraced
    )
    return values, sorted(missing), layer_self


def per_job_walls(passes: list[list[JobRun]]) -> dict[str, dict]:
    walls: dict[str, list[float]] = {}
    for runs in passes:
        for r in runs:
            walls.setdefault(r.key, []).append(r.wall_s)
    return {key: summary(v) for key, v in walls.items()}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lowdisc").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, variant: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": commit(),
        "source_sha256": source_sha256(),
        "lowdisc_threads": "removed from job environment (default os.cpu_count())",
        "concurrency": "closed loop, one job at a time",
    }


def warm_up(workdir: Path) -> None:
    """Compile bytecode and fill the file cache once, untimed."""
    subprocess.run(
        [sys.executable, str(BENCH / "job.py"), str(workdir / "job.ready"), "-", "--version"],
        env=job_env(), cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60, check=True,
    )


def measure(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text())
    variant, jobs = jobs_for(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.d"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    warm_up(workdir)

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S

    untraced, traced = [], []
    while True:  # another pass only if it ends nearer to the target than stopping now
        t0 = time.monotonic()
        plain, tracing = run_pass(jobs, workdir, deadline, reference, bool(args.trace))
        untraced.append(plain)
        if tracing:
            traced.append(tracing)
        now = time.monotonic()
        if now + (now - t0) / 2 >= start + args.seconds or now + (now - t0) > deadline:
            break
    runs = [r for p in untraced + traced for r in p]
    failed = sum(not r.ok for r in runs)
    outputs = {}
    for r in runs:
        outputs.setdefault(r.key, set()).add((r.rc, r.sha256))
    identical = all(len(v) == 1 for v in outputs.values())

    e2e = end_to_end(untraced)
    result = {
        "environment": environment(args, variant),
        "jobs": [job_key(j) for j in jobs],
        "attempted": len(runs),
        "failed": failed,
        "fail_ratio": failed / len(runs),
        "outputs_identical_across_passes": identical,
        "end_to_end": e2e,
        "per_job_wall_s": per_job_walls(untraced),
    }
    if args.trace:
        layer_values, missing, layer_self = per_layer(untraced, traced)
        result.update(
            per_layer={name: {"value": layer_values[name], "unit": unit, "moves": moves}
                       for name, unit, _better, _source, moves in METRICS},
            missing_layers=missing,
            layer_self_s=layer_self,
            traced_per_job_wall_s=per_job_walls(traced),
        )
        if missing:
            sys.stderr.write(f"missing layers (reported as 0): {', '.join(missing)}\n")
        metrics = {m["name"]: {"value": layer_values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]]["median"], "unit": m["unit"]} for m in spec["end_to_end"]}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir)

    correct = failed == 0 and identical
    print(f"full record: {record.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def record_reference() -> int:
    workdir = OUT / "record.d"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reference = {}
    deadline = time.monotonic() + 3600
    for workload in WORKLOADS:
        for job in all_jobs(workload):
            run = run_job(job, workdir, False, deadline)
            reference[run.key] = {"rc": run.rc, "sha256": run.sha256, "bytes": run.out_bytes}
            print(f"{run.wall_s:7.2f}s rc={run.rc} {run.key}", flush=True)
    shutil.rmtree(workdir)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json from this tree")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # so the running job is killed
    if not (ROOT / "src" / "lowdisc" / "cli.py").is_file():
        sys.stderr.write(f"no lowdisc source tree under {ROOT}: src/lowdisc/cli.py is missing\n")
        return 2
    if args.record:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
