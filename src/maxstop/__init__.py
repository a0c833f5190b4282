"""maxstop: stop a random walk or Brownian motion close to its ultimate maximum.

Exact rational solvers, brute-force verification oracles, coupled Monte
Carlo, and quadrature checks for the bang-bang optimal prediction problem
sup_tau E[f(M_T - B_tau)] with nonincreasing convex rewards f.
"""

__version__ = "0.1.0"

from .rewards import (  # noqa: F401
    RewardFlags,
    RewardSpec,
    classify,
    evaluate,
    exp_decay_reward,
    exp_decay_table,
    geometric_reward,
    indicator_top_reward,
    linear_reward,
    negate,
    power_penalty_reward,
    custom_table_reward,
    reward_from_json,
    table_reward,
)
from .walkdist import (  # noqa: F401
    InequalityReport,
    JointLaw,
    WalkParams,
    check_corollary,
    check_key_inequality,
    d_value,
    g_value,
    joint_pmf,
    reflection_check,
    time_reversal_check,
)
from .dpsolver import (  # noqa: F401
    CONTINUE,
    NOT_UNIQUE,
    STOP,
    TIE,
    TIE_CLASS,
    UNIQUE_TAU0,
    UNIQUE_TAUN,
    UNKNOWN,
    PolicyTable,
    SolveReport,
    evaluate_policy,
    policy_stop_at_max,
    policy_tau0,
    policy_tauN,
    solve,
)
from .oracle import (  # noqa: F401
    HistoryRule,
    OracleResult,
    cross_validate,
    enumerate_optimum,
)
from .coupling import (  # noqa: F401
    CoupledPaths,
    McEstimate,
    mc_rule_value,
    mc_time_reversal_check,
    simulate,
)
from .brownian import (  # noqa: F401
    BmInequalityReport,
    BmModel,
    BmRule,
    McConfig,
    QuadConfig,
    check_bm_corollary,
    check_bm_key_inequality,
    d_bm,
    density_reflection_check,
    dtilde_bm,
    expect_joint,
    g_bm,
    joint_density,
    mc_bm_rule_value,
    mc_bm_rule_values,
    sample_max_endpoint,
)
