"""Per-layer metrics computed from the spans of one traced pass.

Each metric names the wrapped function it reads and the end-to-end metric
and workload it should move.  A metric whose function is no longer wrapped
(the library dropped or renamed it) is reported as missing with value 0.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import COUNT_ONLY

WINDOW = "discrepancy.windowed_uniform_discrepancy"
EVALUATORS = (
    "discrepancy.extreme_discrepancy_1d",
    "discrepancy.extreme_discrepancy_grid",
    "discrepancy.star_discrepancy",
)

# name, unit, better, source function (None: always available), what it should move
METRICS = [
    ("process.import_s", "s", "lower", None, "setup_s on grid, points and sweep; wall_s on sweep"),
    ("cli.self_s", "s", "lower", "cli.main", "wall_s on points"),
    ("cli.out_bytes", "bytes", "lower", None, "wall_s on points"),
    ("generators.points.s", "s", "lower", "generators.points", "wall_s and cpu_s on points"),
    ("generators.points.count", "count", "lower", "generators.points", "wall_s and cpu_s on points"),
    ("generators.point.calls", "count", "lower", "generators.point", "wall_s and cpu_s on points"),
    ("generators.check_sequence_property.s", "s", "lower", "generators.check_sequence_property", "wall_s and cpu_s on points"),
    ("generators.check_net.calls", "count", "lower", "generators.check_net", "wall_s and cpu_s on points"),
    ("generators.write_points_csv.s", "s", "lower", "generators.write_points_csv", "wall_s and cpu_s on points"),
    ("generators.parse_spec.s", "s", "lower", "generators.parse_spec", "wall_s and cpu_s on points"),
    ("digits.radical_inverse.calls", "count", "lower", "digits.radical_inverse", "wall_s on points"),
    ("transforms.value_counts_below.s", "s", "lower", "transforms.value_counts_below", "wall_s on sweep"),
    ("transforms.value_counts_below.distinct", "count", "lower", "transforms.value_counts_below", "wall_s on sweep"),
    ("transforms.block_counts.s", "s", "lower", "transforms.block_counts", "wall_s on sweep"),
    ("transforms.multiplicity_F.calls", "count", "lower", "transforms.multiplicity_F", "wall_s on sweep"),
    ("digitsum_dist.distribution.calls", "count", "lower", "digitsum_dist.distribution", "wall_s on sweep"),
    ("digitsum_dist.digit_sum_counts_below.s", "s", "lower", "digitsum_dist.digit_sum_counts_below", "wall_s on sweep"),
    ("digitsum_dist.convolution_cache_hit_ratio", "ratio", "higher", "digitsum_dist._convolution_counts", "wall_s on sweep"),
    ("discrepancy.extreme_discrepancy_grid.s", "s", "lower", "discrepancy.extreme_discrepancy_grid", "wall_s on grid"),
    ("discrepancy.extreme_discrepancy_grid.calls", "count", "lower", "discrepancy.extreme_discrepancy_grid", "wall_s on grid"),
    ("discrepancy.extreme_discrepancy_grid.boxes", "count", "lower", "discrepancy.extreme_discrepancy_grid", "wall_s on grid"),
    ("discrepancy.extreme_discrepancy_grid.box_point_evals", "count", "lower", "discrepancy.extreme_discrepancy_grid", "wall_s on grid"),
    ("discrepancy.star_discrepancy.s", "s", "lower", "discrepancy.star_discrepancy", "wall_s on grid"),
    ("discrepancy.star_discrepancy.corners", "count", "lower", "discrepancy.star_discrepancy", "wall_s on grid"),
    ("discrepancy.extreme_discrepancy_1d.s", "s", "lower", "discrepancy.extreme_discrepancy_1d", "wall_s and cpu_s on points"),
    ("discrepancy.extreme_discrepancy_1d.calls", "count", "lower", "discrepancy.extreme_discrepancy_1d", "wall_s and cpu_s on points"),
    ("discrepancy.extreme_discrepancy_1d.points", "count", "lower", "discrepancy.extreme_discrepancy_1d", "wall_s and cpu_s on points"),
    ("discrepancy.windowed_uniform_discrepancy.s", "s", "lower", WINDOW, "wall_s and cpu_s on points"),
    ("discrepancy.windowed_uniform_discrepancy.shifts", "count", "lower", WINDOW, "wall_s and cpu_s on points"),
    ("discrepancy.windowed_uniform_discrepancy.self_s", "s", "lower", WINDOW, "wall_s and cpu_s on points"),
    ("discrepancy.windowed_uniform_discrepancy.evals_per_shift", "ratio", "lower", WINDOW, "wall_s and cpu_s on points"),
    ("expsums.weyl_sum.s", "s", "lower", "expsums.weyl_sum", "wall_s on sweep"),
    ("expsums.weyl_sum.direct_calls", "count", "lower", "expsums.weyl_sum", "wall_s on sweep"),
    ("expsums.weyl_sum.grouped_calls", "count", "lower", "expsums.weyl_sum", "wall_s on sweep"),
    ("expsums.hellekalek_bound.s", "s", "lower", "expsums.hellekalek_bound", "wall_s on sweep"),
    ("bounds.transformed_discrepancy.s", "s", "lower", "bounds.transformed_discrepancy", "wall_s on sweep"),
    ("bounds.transformed_discrepancy.self_s", "s", "lower", "bounds.transformed_discrepancy", "wall_s on sweep"),
    ("bounds.general_sandwich.s", "s", "lower", "bounds.general_sandwich", "wall_s on sweep"),
    ("bounds.measured_envelope.s", "s", "lower", "bounds.measured_envelope", "wall_s on sweep"),
    ("bounds.sod_envelope_check.s", "s", "lower", "bounds.sod_envelope_check", "wall_s on sweep"),
    ("bounds.fit_monotone_constant.s", "s", "lower", "bounds.fit_monotone_constant", "wall_s on sweep"),
    ("bounds.monotone_hypotheses.s", "s", "lower", "bounds.monotone_hypotheses", "wall_s on sweep"),
    ("bounds.measured_delta_table.s", "s", "lower", "bounds.measured_delta_table", "wall_s on points"),
    ("_util.pmap.calls", "count", "lower", "_util.pmap", "cpu_s and wall_s on points and grid"),
    ("_util.pmap.items", "count", "lower", "_util.pmap", "cpu_s and wall_s on points and grid"),
    ("_util.pmap.s", "s", "lower", "_util.pmap", "cpu_s and wall_s on points and grid"),
    ("_util.pmap.cpu_s", "s", "lower", "_util.pmap", "cpu_s and wall_s on points and grid"),
    ("trace.overhead_s", "s", "lower", None, "nothing: traced wall_s minus untraced wall_s"),
]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class PassTrace:
    """The spans of every job in one traced pass, indexed for the metrics."""

    def __init__(self, records: list[dict]):
        self.records = records
        self.spans = []  # (job index, id, name, start, end, parent, work)
        for j, rec in enumerate(records):
            for sid, name, start, end, parent, work in rec["spans"]:
                self.spans.append((j, sid, name, start, end, parent, work))
        self.by_id = {(s[0], s[1]): s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[5] is not None:
                children[(s[0], s[5])].append(s)
        self.self_time = {}
        for s in self.spans:
            kids = [(max(k[3], s[3]), min(k[4], s[4])) for k in children[(s[0], s[1])]]
            self.self_time[(s[0], s[1])] = s[4] - s[3] - _covered([k for k in kids if k[1] > k[0]])
        self.wrapped = set()
        for rec in records:
            self.wrapped.update(rec["wrapped"])

    def ancestors(self, span):
        while span[5] is not None:
            span = self.by_id[(span[0], span[5])]
            yield span

    def named(self, name: str):
        return [s for s in self.spans if s[2] == name]

    def inclusive_s(self, name: str) -> float:
        """Time inside outermost spans of name (a recursive call counts once)."""
        return sum(
            s[4] - s[3]
            for s in self.named(name)
            if all(a[2] != name for a in self.ancestors(s))
        )

    def self_s(self, name: str) -> float:
        return sum(self.self_time[(s[0], s[1])] for s in self.named(name))

    def work(self, name: str, key: str) -> int:
        return sum(s[6].get(key, 0) for s in self.named(name))

    def count(self, name: str) -> int:
        return sum(rec["counts"].get(name, 0) for rec in self.records)

    def layer_self_s(self) -> dict[str, float]:
        out = defaultdict(float)
        for s in self.spans:
            out[s[2].split(".")[0]] += self.self_time[(s[0], s[1])]
        return dict(out)

    def available(self, source: str | None) -> bool:
        if source is None:
            return True
        if source == "generators.point":
            return any(w.startswith("generators.") and w.endswith(".point") for w in self.wrapped)
        if source == "digitsum_dist._convolution_counts":
            return all(rec["cache"] is not None for rec in self.records)
        return source in self.wrapped

    def evals_per_shift(self) -> float:
        shifts = self.work(WINDOW, "shifts")
        evals = sum(
            1
            for s in self.spans
            if s[2] in EVALUATORS and any(a[2] == WINDOW for a in self.ancestors(s))
        )
        return evals / shifts if shifts else 0.0

    def cache_hit_ratio(self) -> float:
        hits = sum(rec["cache"]["hits"] for rec in self.records)
        misses = sum(rec["cache"]["misses"] for rec in self.records)
        return hits / (hits + misses) if hits + misses else 0.0


def metrics_for_pass(trace: PassTrace, import_s: float, out_bytes: int) -> tuple[dict, list]:
    """All METRICS except trace.overhead_s for one pass, plus the missing ones."""
    special = {
        "process.import_s": lambda: import_s,
        "cli.out_bytes": lambda: out_bytes,
        "cli.self_s": lambda: sum(v for k, v in trace.self_time.items() if trace.by_id[k][2].startswith("cli.")),
        "generators.point.calls": lambda: trace.count("generators.point"),
        "digitsum_dist.convolution_cache_hit_ratio": trace.cache_hit_ratio,
        "discrepancy.windowed_uniform_discrepancy.evals_per_shift": trace.evals_per_shift,
        "expsums.weyl_sum.direct_calls": lambda: sum(s[6].get("method") == "direct" for s in trace.named("expsums.weyl_sum")),
        "expsums.weyl_sum.grouped_calls": lambda: sum(s[6].get("method") == "grouped" for s in trace.named("expsums.weyl_sum")),
    }
    values, missing = {}, []
    for name, _unit, _better, source, _moves in METRICS:
        if name == "trace.overhead_s":
            continue
        if not trace.available(source):
            missing.append(name)
            values[name] = 0
            continue
        if name in special:
            values[name] = special[name]()
            continue
        fn, _, stat = name.rpartition(".")
        if stat == "s":
            values[name] = trace.inclusive_s(fn)
        elif stat == "self_s":
            values[name] = trace.self_s(fn)
        elif stat == "calls":
            values[name] = trace.count(fn) if fn in COUNT_ONLY else len(trace.named(fn))
        elif stat == "cpu_s":
            values[name] = sum(s[6].get("cpu_s", 0.0) for s in trace.named(fn) if all(a[2] != fn for a in trace.ancestors(s)))
        else:
            values[name] = trace.work(fn, stat)
    return values, missing

