"""maxstop: stop a random walk or Brownian motion close to its ultimate maximum.

Exact rational solvers, brute-force verification oracles, seeded Monte
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
    power_penalty_reward,
    custom_table_reward,
    table_reward,
)
from .walkdist import (  # noqa: F401
    InequalityReport,
    WalkParams,
    check_corollary,
    check_key_inequality,
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
    OracleResult,
    enumerate_optimum,
)
from .coupling import (  # noqa: F401
    McEstimate,
    mc_rule_value,
)
from .brownian import (  # noqa: F401
    BmInequalityReport,
    BmModel,
    BmRule,
    McConfig,
    check_bm_corollary,
    check_bm_key_inequality,
    density_reflection_check,
    dtilde_bm,
    g_bm,
    joint_density,
    mc_bm_rule_values,
    sample_max_endpoint,
)
