"""Exact and asymptotic performance of MIMO maximum-ratio combining in
doubly correlated Rayleigh fading."""

__version__ = "1.0.0"

from .correlation import (
    CorrelationPair,
    correlation_penalty,
    exp_correlation,
    load_matrix_csv,
    make_pair,
    save_matrix_csv,
)
from .eigdist import (
    EigDistModel,
    alpha_coefficient,
    asymptotic_cdf,
    asymptotic_pdf,
    build_model,
    cdf,
)
from .errors import NumericalError, QuadratureError, ValidationError
from .montecarlo import (
    McConfig,
    McResult,
    empirical_cdf,
    mc_outage,
    mc_ser,
    simulate_lambda_max,
)
from .performance import (
    MODULATIONS,
    HighSnrSer,
    Modulation,
    asymptotic_outage,
    exact_outage,
    exact_ser,
    high_snr_ser,
    modulation_preset,
    ser_asymptote_eval,
)

__all__ = [
    "CorrelationPair",
    "EigDistModel",
    "HighSnrSer",
    "MODULATIONS",
    "McConfig",
    "McResult",
    "Modulation",
    "NumericalError",
    "QuadratureError",
    "ValidationError",
    "__version__",
    "alpha_coefficient",
    "asymptotic_cdf",
    "asymptotic_outage",
    "asymptotic_pdf",
    "build_model",
    "cdf",
    "correlation_penalty",
    "empirical_cdf",
    "exact_outage",
    "exact_ser",
    "exp_correlation",
    "high_snr_ser",
    "load_matrix_csv",
    "make_pair",
    "mc_outage",
    "mc_ser",
    "modulation_preset",
    "save_matrix_csv",
    "ser_asymptote_eval",
    "simulate_lambda_max",
]
