import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import nsp_lab

PACKAGE = pathlib.Path(nsp_lab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_package_exports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert len(names) > 50
    assert [n for n in names if not hasattr(nsp_lab, n)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_all_entries_exist(module):
    mod = importlib.import_module(f"nsp_lab.{module}")
    exported = getattr(mod, "__all__", ())
    assert module == "config" or exported
    assert [n for n in exported if not hasattr(mod, n)] == []


COLD_RUN = """
import json, sys
import numpy as np
import nsp_lab, nsp_lab.cli
from nsp_lab import (CostFunction, ExperimentConfig, MeasurementMatrix, RecoveryProblem,
                     mc_probability, parse_measure, solve_noiseless, solve_noisy, width_mc)

mc_probability(ExperimentConfig(n=5, m=3, k=1, trials=2, seed=1))
width_mc(CostFunction(parse_measure("exp_ce1"), 5), 1, draws=20, seed=1)
# N(A) is the line through (1, 1, 1), so l1 recovers every 1-sparse x (theta = 1/2)
a = MeasurementMatrix(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]))
x_bar = np.array([0.0, 2.0, 0.0])
y = a.entries @ x_bar
for spec in ("l1", "lp(p=0.5)"):
    solve_noisy(RecoveryProblem(a, y, 0.1, CostFunction(parse_measure(spec), 3), 1), seed=1)
before = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
unused = sorted(name for name in sys.modules if name.split(".")[0] in ("concurrent", "decimal"))
res = solve_noiseless(RecoveryProblem(a, y, 0.0, CostFunction(parse_measure("l1"), 3), 1),
                      method="descent", seed=1)
print(json.dumps({"before": before, "unused": unused,
                  "optimize_after": "scipy.optimize" in sys.modules,
                  "error": float(np.abs(res.x_hat - x_bar).max())}))
"""


def test_only_the_powell_descent_loads_scipy():
    # a fresh interpreter: this test process has scipy loaded by other tests
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", COLD_RUN], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["before"] == []
    # nor do a serial mc run and the width and noisy solves load the
    # modules that only threaded mc runs and the suite's Decimal checks use
    assert got["unused"] == []
    assert got["optimize_after"]
    assert got["error"] <= 1e-6
