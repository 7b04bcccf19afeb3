"""Public-surface snapshot: the names ``import tiltmc`` exports.

An export added or removed shows up here, so every change to the public
surface is deliberate and visible in the diff.
"""

import tiltmc

PUBLIC_NAMES = [
    "BarrierBasketCall",
    "BarrierCall",
    "Basket",
    "BestOf",
    "BlackScholesMulti",
    "BracketFailure",
    "ConfigError",
    "ConstantVol",
    "ConvergenceFailure",
    "CoverageResult",
    "DegeneratePayoff",
    "Digital",
    "DimensionMismatch",
    "DriftMap",
    "EstimateReport",
    "IncompatibleClaim",
    "InvalidCorrelation",
    "InvalidGrid",
    "LocalVol1D",
    "NonFiniteEstimate",
    "NonFiniteInput",
    "NonFiniteObjective",
    "OptimResult",
    "Payoff",
    "PowerLawVol",
    "QuadratureSpec",
    "RankDeficientDriftMap",
    "RngStream",
    "SampleBlock",
    "SampleBudgetExceeded",
    "SingularHessian",
    "TabulatedVol",
    "TiltmcError",
    "VanillaCall",
    "VanillaPut",
    "WeightTable",
    "bs_call_price",
    "bs_digital_price",
    "bs_put_price",
    "build_payoff",
    "cholesky_correlation",
    "confidence_interval",
    "coverage_experiment",
    "dense_map",
    "draw_samples",
    "estimate_theta_covariance",
    "eval_un",
    "eval_un_derivatives",
    "eval_vn",
    "gaussian_expectation",
    "identity_map",
    "load_dense_map",
    "newton_minimize",
    "normal_draws",
    "path_drift_multi",
    "precompute_weights",
    "quadrature_theta_star",
    "run_pipeline",
    "tilted_terms",
    "variance_estimate",
]


def _exports():
    # Submodules bind as attributes on import; they are not exports.
    return sorted(
        name
        for name, value in vars(tiltmc).items()
        if not name.startswith("_") and type(value).__name__ != "module"
    )


def test_public_names_snapshot():
    assert _exports() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 60
