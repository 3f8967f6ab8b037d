"""Exact norms and Green's-function bounds for modular polynomial values at CM points."""

from .numerics import (
    IntegerRecognitionError,
    PrecisionContext,
    PrecisionError,
    integer_recognize,
    legendre_P,
    legendre_Q,
    legendre_Q_num,
    mk_constant,
)
from .quadforms import (
    ClassGroup,
    Discriminant,
    QuadForm,
    QuadFormError,
    compose,
    enumerate_reduced,
    inverse,
    project_class,
    reduce_form,
)
from .modular import (
    classpoly,
    fd_reduce,
    hecke_cosets,
    j_eval,
    modpoly_eval,
    y1_distance,
)
from .greens import (
    G_k_m,
    G_s_sum,
    SingularityError,
    TailBudgetError,
    cosh_dist,
    g_s,
    graph_distance,
    tm_count,
)
from .cmcycles import (
    CMCycle,
    CyclePair,
    SingularCycleError,
    big_cm_cycle,
    build_cycle,
    cycle_case,
    cycle_log_norm,
    cycle_norm_integer,
    small_cm_cycle,
)
from .verify import (
    Factorization,
    VerificationReport,
    factor_norm,
    isogeny_witness,
    sweep,
    verify_chain,
    verify_lower_bound,
    verify_nonunit,
)

__version__ = "0.1.0"
