"""Adaptive importance sampling for expectations of Gaussian functionals.

The package estimates E[f(G)] for a d-dimensional standard normal G by
tilting the sampling measure with a drift chosen automatically: a strongly
convex sample-average proxy of the estimator variance is minimized by a few
quasi-Newton steps over a configurable drift subspace, and the same stored
samples are reused in the final tilted Monte Carlo estimate with a
CLT-based confidence interval.
"""

from .drift import (
    DriftMap,
    dense_map,
    identity_map,
    load_dense_map,
    path_drift_multi,
)
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DegeneratePayoff,
    DimensionMismatch,
    IncompatibleClaim,
    InvalidCorrelation,
    InvalidGrid,
    NonFiniteEstimate,
    NonFiniteInput,
    NonFiniteObjective,
    RankDeficientDriftMap,
    SampleBudgetExceeded,
    TiltmcError,
)
from .estimate import (
    CoverageResult,
    EstimateReport,
    confidence_interval,
    coverage_experiment,
    run_pipeline,
    tilted_terms,
    variance_estimate,
)
from .gaussian import (
    RngStream,
    SampleBlock,
    cholesky_correlation,
    draw_samples,
    normal_draws,
)
from .optimize import (
    OptimResult,
    WeightTable,
    estimate_theta_covariance,
    newton_minimize,
    precompute_weights,
)
from .oracles import bs_call_price, bs_digital_price, bs_put_price
from .payoffs import (
    Basket,
    BestOf,
    BlackScholesMulti,
    ConstantVol,
    Digital,
    LocalVol1D,
    Payoff,
    PowerLawVol,
    TabulatedVol,
    build_payoff,
)

__version__ = "0.1.0"
