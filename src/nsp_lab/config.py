"""Shared numeric tolerances and search defaults.

Every tolerance used by the library lives in this one record so that the
conventions (membership residuals, strict-inequality bands, feasibility
slack) are consistent across modules and visible in one place.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    orthonormality: float = 1e-10   # max |B^T B - I| for a subspace basis
    membership: float = 1e-10      # relative residual for "z lies in the subspace"
    boundary_margin: float = 1e-9  # trichotomy band on the normalized deficit
    property_rel: float = 1e-9     # relative slack in sampled property checks
    feasibility: float = 1e-9      # solver feasibility slack
    strict_shrink: float = 1e-9    # closed-ball shrink factor for strict constraints
    mc_boundary_band: float = 1e-6  # Monte Carlo boundary-trial counting band


TOL = Tolerances()

# Log-spaced amplitude grid used whenever a penalty is not homogeneous and a
# supremum over all nonzero multiples of a direction has to be searched.
SCALE_GRID_LO = 1e-6
SCALE_GRID_HI = 1e6
SCALE_GRID_POINTS = 61

# Penalty values per batched evaluation, which sets how many directions,
# subspaces or draws one batch holds.  16384 float64 values are 128 KiB,
# glibc malloc's default threshold for serving an allocation from fresh
# mmapped pages: a larger temporary is faulted in page by page on every
# call, which costs more than the batch saves in numpy's per-call overhead.
ELEMENT_BUDGET = 16384

# The one cap on explicit support enumeration; larger instances must supply
# their own support sampler rather than silently degrade.  Certificates and
# the generic (non-l1) widths count the C(n, k) supports of size k; the
# power-law (l0, lp, l1) certificates and the certified radius also count
# the C(n, l - 1) vertex lines of an l-dimensional null space, and past the
# cap fall back to the search (a lower bound, no certified radius); the
# ``enumerate`` solver counts every support of size at most k,
# sum_{s <= k} C(n, s).  The l1 width enumerates no supports.
SUPPORT_ENUMERATION_CAP = 100_000
