"""What ``import mimomrc`` costs: the package imports no module that its
commands do not need."""

import os
import subprocess
import sys
from pathlib import Path

import mimomrc

SRC = str(Path(mimomrc.__file__).parents[1])

# Loaded by none of the analytic paths: a thread pool (with logging and
# queue; only Monte-Carlo work on two or more workers imports it), exact
# rationals (with decimal), and numpy's polynomial classes (the
# Gauss-Legendre rule is written out).
UNNEEDED = ["concurrent.futures", "decimal", "fractions", "logging", "numpy.polynomial", "queue"]


def run_fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def loaded() -> str:
    return f"print(sorted(m for m in {UNNEEDED!r} if m in sys.modules))\n"


def test_import_loads_no_unneeded_module():
    assert run_fresh("import sys\nimport mimomrc\n" + loaded()) == "[]"


def test_commands_load_no_unneeded_module():
    # an SER sweep, an outage sweep and a one-worker draw in a fresh process;
    # a pooled draw then loads the thread pool, and equals the one-worker draw
    code = (
        "import sys\n"
        "import mimomrc as mm\n"
        "from mimomrc import montecarlo\n"
        "cfg = mm.McConfig(n_rx=2, n_tx=3, rho_rx=0.5, trials=2 * montecarlo._BATCH + 1, seed=5)\n"
        "model = mm.build_model(mm.make_pair(mm.exp_correlation(0.5, 2),"
        " mm.exp_correlation(0.5, 3)))\n"
        "mm.exact_ser(model, mm.modulation_preset('8psk'), [0.0, 10.0, 20.0])\n"
        "mm.exact_outage(model, 10.0, [1.0, 2.0])\n"
        "one = montecarlo._draw(cfg, 1)\n"
        + loaded()
        + "two = montecarlo._draw(cfg, 2)\n"
        "print(one.tobytes() == two.tobytes(), 'concurrent.futures' in sys.modules)\n"
    )
    assert run_fresh(code).splitlines() == ["[]", "True True"]
