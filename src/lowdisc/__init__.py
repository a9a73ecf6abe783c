"""lowdisc: exact-arithmetic laboratory for low-discrepancy sequences.

Generates van der Corput, Halton, and digital sequences over prime fields;
applies index transforms (digit sums, floor powers, tables); measures exact
extreme/star discrepancy at desk scale; and evaluates the associated lower
and upper bound formulas, including character-sum bounds.
"""

import os

# lowdisc makes no BLAS call, so numpy's BLAS thread pool would only cost
# start-up time and CPU; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._util import BudgetExceededError, UnimodalityError
from .digits import (
    BRational,
    DigitVector,
    expand,
    monna_plus,
    nearest_int_distance,
    radical_inverse,
    sum_of_digits,
)
from .generators import (
    DigitalSequence,
    GeneratorMatrix,
    Halton,
    Point,
    VanDerCorput,
    check_net,
    check_rank_condition,
    check_sequence_property,
    parse_spec,
    pascal_matrices,
    points,
)
from .transforms import (
    FloorPower,
    SumOfDigits,
    TableTransform,
    block_counts,
    distinct_values,
    is_unimodal,
    multiplicity_F,
    parse_transform,
    value_counts_below,
)
from .digitsum_dist import (
    DigitSumDistribution,
    digit_sum_counts_below,
    distribution,
    gaussian_main_term,
    max_count,
    unimodality_onset,
)
from .discrepancy import (
    Box,
    BoxSide,
    DiscrepancyReport,
    extreme_discrepancy_1d,
    extreme_discrepancy_grid,
    recount,
    star_discrepancy,
    windowed_uniform_discrepancy,
)
from .expsums import (
    WeylSum,
    gamma_k,
    hellekalek_bound,
    hellekalek_resolution,
    hellekalek_star_bound,
    lemma_le1_bound,
    lemma_le2_bound,
    product_identity_check,
    rho_weight,
    weyl_sum,
)
from .bounds import (
    BoundReport,
    DivisibilityChain,
    Envelope,
    alpha_corollary_check,
    bound_holds,
    fit_monotone_constant,
    general_lower,
    general_sandwich,
    general_upper,
    halton_uniform_main_term,
    measured_delta_table,
    measured_envelope,
    monotone_hypotheses,
    monotone_lower,
    monotone_upper,
    sod_envelope_check,
    transformed_discrepancy,
    uniform_bound_ts,
)

__version__ = "0.1.0"
