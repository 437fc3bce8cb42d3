"""Replay the library defects that are kept out of the benchmark workloads.

    python3 nspbench/defects.py

Run from the root of a source checkout.  A workload must be one on which no
operation fails, so the inputs below are not part of any workload; this
script keeps them reproducible.  It prints one line per defect saying
whether it still shows, and exits 0 either way.  README.md ("Library
defects kept out of the workloads") describes both.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from nsp_lab import experiments, solver, subspaces  # noqa: E402
from nsp_lab.measures import CostFunction, parse_measure  # noqa: E402

# The (7,4,1) l1 batch that mc_certify drew for seed 206 in round 23 before
# its mix dropped the dimension-3 config.
MC_BATCH = experiments.ExperimentConfig(n=7, m=4, k=1, measure="l1", trials=5,
                                        d_grid=(1e-3,), seed=2338313444)
IRLS_SEED = 0
IRLS_MATRICES = 20     # per shape, noisy_recovery's shapes
IRLS_SIGNALS = 15      # per matrix


def mc_assertion() -> str:
    try:
        experiments.mc_probability(MC_BATCH)
    except AssertionError as exc:
        return f"shows: mc_probability({MC_BATCH}) raised AssertionError: {exc}"
    return f"gone: mc_probability({MC_BATCH}) returned"


def irls_singular() -> str:
    rng = np.random.default_rng(IRLS_SEED)
    raised = tried = 0
    for n, m in ((6, 4), (8, 6), (5, 3)) * IRLS_MATRICES:
        a = subspaces.MeasurementMatrix(rng.standard_normal((m, n)) / math.sqrt(n))
        cost = CostFunction(parse_measure("lp(p=0.5)"), n)
        for _ in range(IRLS_SIGNALS):
            x = np.zeros(n)
            x[rng.integers(n)] = rng.standard_normal()
            tried += 1
            try:
                solver.solve_noiseless(solver.RecoveryProblem(a, a.entries @ x, 0.0, cost, 1),
                                       method="irls")
            except np.linalg.LinAlgError:
                raised += 1
    state = "shows" if raised else "gone"
    return (f"{state}: solve_noiseless(method='irls') raised LinAlgError on {raised} of "
            f"{tried} one-sparse signals (seed {IRLS_SEED})")


def main() -> int:
    print("mc_probability dimension-3 scan disagreement:", mc_assertion())
    print("irls singular system:", irls_singular())
    return 0


if __name__ == "__main__":
    sys.exit(main())
