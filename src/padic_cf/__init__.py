"""p-adic continued fraction algorithms with exact measures and ergodic statistics."""

from .errors import (
    DivisionByZeroAtPrecision,
    ExpansionTerminated,
    InsufficientData,
    InvalidDigit,
    NotHyperbolicError,
    PadicError,
    PrecisionExhausted,
    ShardProcessDied,
    WordTooShort,
)
from .padic_core import (
    INF,
    Ball,
    PadicApprox,
    PrimeCtx,
    ProductCylinder,
    digit_expand,
    format_rational,
    haar_sample,
    haar_sample_vector,
    integral_part,
    is_prime,
    measure,
    norm,
    parse_rational,
    valuation,
)
from .lft import (
    HyperbolicCert,
    LftParams,
    apply_inverse,
    certify_hyperbolic,
    iota,
    preimage_cylinder,
)
from .cfsystems import (
    Digit1D,
    DigitMD,
    Expansion,
    SystemSpec,
    branch_counts,
    branch_lft,
    convergent,
    convergents,
    digit_class,
    digit_values,
    enumerate_branches,
    expand,
    expansion_records,
    pivot_valuation,
    step,
)
from .ergodics import (
    MixingReport,
    StatReport,
    SymbolicCylinder,
    cylinder_measure,
    digit_mean_reports,
    invariance_mc,
    iota_sum,
    mixing_exact,
    random_cylinder,
    theoretical_digit_means,
)

__version__ = "0.1.0"
