"""The package's public surface, and the module attributes that the
benchmark's traced mode (``perfbench/tracing.py``) wraps by name."""

import importlib.util
import inspect
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import mimomrc
from mimomrc import cli, eigdist, linalg, montecarlo, performance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

PUBLIC = [
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

# The parameter names of every public callable, in order: an added,
# removed or renamed parameter is a change of the public surface. None
# marks an exception that keeps the constructor of the built-in one it
# extends.
SIGNATURES = {
    "CorrelationPair": ("rx_corr", "tx_corr", "n_min", "n_max", "minor_eigs", "major_eigs"),
    "EigDistModel": ("pair", "alpha", "log_alpha", "det_minor", "det_major", "crossover",
                     "saturation", "degenerate", "noise_floor", "eval_sets"),
    "HighSnrSer": ("diversity_order", "array_gain"),
    "McConfig": ("n_rx", "n_tx", "rho_rx", "rho_tx", "rx_corr", "tx_corr", "trials", "seed"),
    "McResult": ("estimate", "std_error", "trials"),
    "Modulation": ("name", "a", "b"),
    "NumericalError": None,
    "QuadratureError": ("message", "estimate", "error_bound"),
    "ValidationError": None,
    "alpha_coefficient": ("pair",),
    "asymptotic_cdf": ("model", "x"),
    "asymptotic_outage": ("model", "snr_db", "gamma_th"),
    "asymptotic_pdf": ("model", "x"),
    "build_model": ("pair",),
    "cdf": ("model", "x"),
    "correlation_penalty": ("pair",),
    "empirical_cdf": ("cfg", "grid"),
    "exact_outage": ("model", "snr_db", "gamma_th"),
    "exact_ser": ("model", "mod", "snr_db"),
    "exp_correlation": ("rho", "size"),
    "high_snr_ser": ("model", "mod"),
    "load_matrix_csv": ("path",),
    "make_pair": ("rx_corr", "tx_corr"),
    "mc_outage": ("cfg", "snr_db", "gamma_th"),
    "mc_ser": ("cfg", "mod", "snr_db"),
    "modulation_preset": ("name",),
    "save_matrix_csv": ("path", "matrix"),
    "ser_asymptote_eval": ("hs", "snr_db"),
    "simulate_lambda_max": ("cfg",),
}

# Second routes to a quantity the library computes one way: λmax
# (``montecarlo.lambda_max``), the channel draw (``simulate_lambda_max``),
# the c.d.f. (``cdf``), a config's matrices (``to_pair``) and the
# Monte-Carlo estimates over samples (``mc_ser``, ``mc_outage``).
# ``psi_matrix`` stays in ``eigdist`` only.
DELETED = [
    (montecarlo, "max_eig_snr"),
    (montecarlo, "draw_channel"),
    (linalg, "herm_sqrt"),
    (eigdist, "exact_cdf"),
    (montecarlo, "corr_matrices"),
    (montecarlo, "ser_estimate"),
    (montecarlo, "outage_estimate"),
]

# Every public callable that ``montecarlo`` defines itself: the estimators
# take a config, so no route over samples comes back unnoticed.
MONTECARLO_OWN = ["McConfig", "McResult", "empirical_cdf", "lambda_max", "mc_outage", "mc_ser",
                  "simulate_lambda_max", "to_pair"]


def test_all_is_pinned():
    assert mimomrc.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(mimomrc, name) is not None, name


def test_every_public_callable_has_a_pinned_signature():
    assert sorted(SIGNATURES) == sorted(n for n in PUBLIC if callable(getattr(mimomrc, n)))


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_public_signature_is_pinned(name):
    obj = getattr(mimomrc, name)
    if SIGNATURES[name] is None:
        base = obj.__mro__[1]
        assert base.__module__ == "builtins" and obj.__init__ is base.__init__
    else:
        assert tuple(inspect.signature(obj).parameters) == SIGNATURES[name]


@pytest.mark.parametrize("module, name", DELETED, ids=[f"{m.__name__}.{n}" for m, n in DELETED])
def test_deleted_route_is_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(mimomrc, name)


def test_montecarlo_defines_only_its_config_routes():
    own = [name for name, obj in vars(montecarlo).items()
           if callable(obj) and not name.startswith("_")
           and getattr(obj, "__module__", None) == montecarlo.__name__]
    assert sorted(own) == MONTECARLO_OWN


def test_cdf_has_one_package_name():
    # the module bindings the benchmark's tracer wraps stay, as cdf itself
    assert not hasattr(mimomrc, "exact_cdf_stable")
    assert eigdist.exact_cdf_stable is eigdist.cdf
    assert performance.exact_cdf_stable is eigdist.cdf


def test_psi_matrix_not_reexported():
    assert not hasattr(mimomrc, "psi_matrix")
    assert callable(eigdist.psi_matrix)


def test_model_knob_and_unread_fields_are_gone():
    model = mimomrc.build_model(
        mimomrc.make_pair(mimomrc.exp_correlation(0.5, 2), mimomrc.exp_correlation(0.0, 3))
    )
    for field in ("vand_minor", "vand_major"):
        assert not hasattr(model, field)
    hs = mimomrc.high_snr_ser(model, mimomrc.modulation_preset("qpsk"))
    assert not hasattr(hs, "model")
    with pytest.raises(TypeError):
        mimomrc.build_model(model.pair, degeneracy_tol=1e-3)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_wrapped_name_resolves(tracing):
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def run_summary():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["summary", "--nr", "2", "--nt", "3", "--rho-rx", "0.5", "--rho-tx", "0.3"])
    assert code == 0
    return buffer.getvalue()


def test_traced_summary_restores_every_original(tracing):
    originals = [getattr(module, attr) for module, attr, _ in tracing.WRAPPED]
    untraced = run_summary()
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.command(0):
            traced = run_summary()
    assert traced == untraced
    for (module, attr, _), fn in zip(tracing.WRAPPED, originals):
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr}"
    names = {span.name for span in tracer.spans()}
    assert {"cli.main", "eigdist.build_model", "correlation.make_pair"} <= names
