"""Numerical certification of starlikeness criteria on the unit disk."""

from .series import (
    DEFAULT_TRUNC_ORDER,
    NonFiniteCoefficientError,
    NonUnitDivisorError,
    ResonantExponentError,
    SchlichtCandidate,
    Series,
    SeriesError,
    add,
    as_schlicht,
    builtin_candidate,
    derivative,
    div,
    exp_unit,
    integrate_offset,
    log_unit,
    make_series,
    mul,
    pow_unit,
    scale,
    schlicht_from_tail,
    shift,
    tail_estimate,
)
from .functionals import (
    FunctionalKind,
    ParameterError,
    centered_quotient,
    convex_quotient,
    identity_a_residual,
    identity_b_residual,
    identity_sweep,
    lhs_a,
    lhs_b,
    mocanu_functional,
    random_candidate,
    starlike_quotient,
    unit_part,
    w_func,
)
from .criteria import (
    CriterionKind,
    CriterionParams,
    CriterionSpec,
    build_spec,
)
from .extremals import (
    DegenerateExtremalError,
    ExtremalFamily,
    ExtremalParams,
    InadmissibleExtremalError,
    build_extremal,
    documented_grid,
    probe_identity_a,
    verify_identity_b,
)
from .oracle import (
    DegenerateSeriesError,
    Extremum,
    JackResult,
    SamplingConfig,
    Verdict,
    VerificationReport,
    check_criterion,
    jack_demo,
    min_real_on_disk,
    sup_on_disk,
)

__version__ = "0.1.0"
