"""lowdisc: exact-arithmetic laboratory for low-discrepancy sequences.

Generates van der Corput, Halton, and digital sequences over prime fields;
applies index transforms (digit sums, floor powers, tables); measures exact
extreme/star discrepancy at desk scale; and evaluates the associated lower
and upper bound formulas, including character-sum bounds.

Names load lazily (PEP 562): ``import lowdisc`` imports no submodule, and
each name below imports its own submodule on first use, so a caller that
needs only the digit-sum tools never loads numpy.
"""

import importlib
import os

# lowdisc makes no BLAS call, so numpy's BLAS thread pool would only cost
# start-up time and CPU; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "_util": ("BudgetExceededError", "UnimodalityError"),
    "digits": (
        "BRational", "expand", "monna_plus", "radical_inverse", "sum_of_digits",
    ),
    "generators": (
        "DigitalSequence", "GeneratorMatrix", "Halton", "Point", "VanDerCorput", "check_net",
        "check_rank_condition", "check_sequence_property", "parse_spec", "pascal_matrices",
        "points",
    ),
    "transforms": (
        "FloorPower", "SumOfDigits", "TableTransform", "is_unimodal", "multiplicity_F",
        "parse_transform", "value_counts_below",
    ),
    "digitsum_dist": (
        "DigitSumDistribution", "digit_sum_counts_below", "distribution", "gaussian_main_term",
        "max_count", "unimodality_onset",
    ),
    "discrepancy": (
        "Box", "BoxSide", "DiscrepancyReport", "extreme_discrepancy_1d",
        "extreme_discrepancy_grid", "recount", "star_discrepancy", "transformed_discrepancy",
        "windowed_uniform_discrepancy",
    ),
    "expsums": (
        "WeylSum", "gamma_k", "hellekalek_bound", "hellekalek_resolution", "hellekalek_star_bound",
        "lemma_le1_bound", "lemma_le2_bound", "product_identity_check", "rho_weight", "weyl_sum",
    ),
    "bounds": (
        "BoundReport", "Envelope", "alpha_corollary_check", "bound_holds",
        "fit_monotone_constant", "general_lower", "general_sandwich", "general_upper",
        "halton_uniform_main_term", "measured_delta_table", "measured_envelope",
        "monotone_hypotheses", "monotone_lower", "monotone_upper", "sod_envelope_check",
        "uniform_bound_ts",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
