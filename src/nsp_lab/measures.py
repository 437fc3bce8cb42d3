"""Sparseness measures and the separable costs they induce.

A sparseness measure is a scalar penalty F on [0, inf) with F(0) = 0 and
F(t) > 0 for t > 0, applied coordinate-wise through the cost
J(x) = sum_k F(|x_k|).  Structural properties that the certificates in
:mod:`nsp_lab.nsp` rely on (monotonicity, subadditivity, homogeneity) are
declared as tri-state flags on the measure and can be probed numerically
with :func:`check_measure_properties`.  A clean report is sampling
evidence, never a proof, and always records the budget it was run with.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import TOL

Array = np.ndarray

__all__ = [
    "SparsenessMeasure",
    "CostFunction",
    "PropertyReport",
    "PropertyWitness",
    "ComparisonReport",
    "LimitEstimate",
    "builtin_measure",
    "parse_measure",
    "check_measure_properties",
    "compare_measures",
    "BUILTIN_MEASURES",
]


@dataclass(frozen=True)
class SparsenessMeasure:
    """An evaluable scalar penalty with declared structural flags.

    ``fn`` maps arrays of non-negative magnitudes to penalty values and must
    satisfy fn(0) = 0 exactly.  The tri-state flags record what is *claimed*
    about the measure (True / False / None for unknown); nothing in the
    constructor verifies them.  ``homogeneity_degree`` p, when set, declares
    F(t*x) = t**p * F(x) for t > 0.  ``ratio_nonincreasing`` declares F(t)/t
    non-increasing on t > 0; with ``non_decreasing`` it puts F under the
    dominance rule, so every radius certified robust for l1 is robust for F.
    """

    name: str
    fn: Callable[[Array], Array] = field(repr=False)
    params: dict = field(default_factory=dict)
    non_decreasing: bool | None = None
    ratio_nonincreasing: bool | None = None
    subadditive: bool | None = None
    homogeneity_degree: float | None = None
    continuous: bool = True

    def __call__(self, t):
        """Evaluate F(|t|) for a scalar or array argument."""
        arr = np.abs(np.asarray(t, dtype=float))
        out = self.fn(arr)
        if arr.ndim == 0:
            return float(out)
        return out

    @property
    def is_homogeneous(self) -> bool:
        return self.homogeneity_degree is not None

    @functools.cached_property
    def slope_at_zero(self) -> float | None:
        """The limit c of F(t)/t as t -> 0+ when it converges numerically
        to a finite c > 0, else None; worked out once per measure."""
        lim = _limit_at_zero(self, 1.0)
        ok = lim.status == "converged" and 0.0 < lim.value < math.inf
        return lim.value if ok else None

    def spec_string(self) -> str:
        """Round-trippable ``name(key=value,...)`` form used by the CLI."""
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class CostFunction:
    """Separable cost J(x) = sum_k F(|x_k|) on vectors of a fixed dimension."""

    measure: SparsenessMeasure
    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    def _check_vector(self, x) -> Array:
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 1 or arr.shape[0] != self.dimension:
            raise ValueError(
                f"expected a vector of length {self.dimension}, got shape {arr.shape}"
            )
        return arr

    def value(self, x, support: Iterable[int] | None = None) -> float:
        """Cost of ``x``, restricted to ``support`` (0-based indices) if given."""
        f = self.measure.fn(np.abs(self._check_vector(x)))
        if support is None:
            return float(f.sum())
        idx = _validate_support(support, self.dimension)
        return float(f[idx].sum())


def _validate_support(support: Iterable[int], n: int) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in support)), dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"support indices must lie in [0, {n}), got {idx.tolist()}")
    return idx


# ---------------------------------------------------------------------------
# Built-in measures
# ---------------------------------------------------------------------------

def _make_l0() -> SparsenessMeasure:
    return SparsenessMeasure(
        name="l0",
        fn=lambda t: (t > 0).astype(float),
        non_decreasing=True,
        subadditive=True,
        homogeneity_degree=0.0,
        continuous=False,
    )


def _make_lp(p: float) -> SparsenessMeasure:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"lp requires 0 < p <= 1, got p={p}")
    return SparsenessMeasure(
        name="l1" if p == 1.0 else "lp",
        fn=lambda t: np.power(t, p),
        params={} if p == 1.0 else {"p": p},
        non_decreasing=True,
        ratio_nonincreasing=True,
        subadditive=True,
        homogeneity_degree=p,
    )


def _make_exp_ce1() -> SparsenessMeasure:
    # t + 1 - exp(-t), evaluated as t - expm1(-t) to keep full relative
    # precision near t = 0 where the certificates probe it hardest.
    return SparsenessMeasure(
        name="exp_ce1",
        fn=lambda t: t - np.expm1(-t),
        non_decreasing=True,
        ratio_nonincreasing=True,
        subadditive=True,
    )


def _make_mcp_zap(alpha: float) -> SparsenessMeasure:
    if alpha <= 0:
        raise ValueError(f"mcp_zap requires alpha > 0, got {alpha}")

    def fn(t, _a=alpha):
        # u * (2 - u) is 1 at u = 1, so capping u caps the penalty; fmin
        # also maps a NaN u to 1, as the comparison u < 1 did
        u = np.fmin(_a * t, 1.0)
        return u * (2.0 - u)

    return SparsenessMeasure(
        name="mcp_zap",
        fn=fn,
        params={"alpha": alpha},
        non_decreasing=True,
        ratio_nonincreasing=True,
        subadditive=True,
    )


def _make_scad(lam: float, a: float) -> SparsenessMeasure:
    if lam <= 0 or a <= 1:
        raise ValueError(f"scad requires lam > 0 and a > 1, got lam={lam}, a={a}")

    def fn(t, _l=lam, _a=a):
        mid = (2 * _a * _l * t - t * t - _l * _l) / (2 * (_a - 1))
        return np.where(t <= _l, _l * t, np.where(t <= _a * _l, mid, _l * _l * (_a + 1) / 2))

    return SparsenessMeasure(
        name="scad",
        fn=fn,
        params={"lam": lam, "a": a},
        non_decreasing=True,
        ratio_nonincreasing=True,
        subadditive=True,
    )


# name -> (factory, parameter defaults); a parameter whose default is None
# is required.  Factories take the parameters as keywords.
_BUILTINS = {
    "l0": (_make_l0, {}),
    "l1": (lambda: _make_lp(1.0), {}),
    "lp": (_make_lp, {"p": None}),
    "exp_ce1": (_make_exp_ce1, {}),
    "mcp_zap": (_make_mcp_zap, {"alpha": None}),
    "scad": (_make_scad, {"lam": 1.0, "a": 3.7}),
}
BUILTIN_MEASURES = tuple(_BUILTINS)


def builtin_measure(name: str, params: dict | None = None, **kw) -> SparsenessMeasure:
    """Construct a built-in measure by name.

    ``l0`` counts nonzeros (flagged non-continuous; excluded from width
    estimation), ``lp`` is t**p for 0 < p <= 1 with ``l1`` as shorthand,
    ``exp_ce1`` is t + 1 - exp(-t), ``mcp_zap`` is the concave saturating
    penalty 2*alpha*t - (alpha*t)**2 capped at 1, and ``scad`` is the usual
    two-knee concave penalty with parameters (lam, a).
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown measure {name!r}; known: {', '.join(BUILTIN_MEASURES)}")
    factory, defaults = _BUILTINS[name]
    opts = {**(params or {}), **kw}
    if set(opts) - set(defaults) or any(v is None and k not in opts for k, v in defaults.items()):
        accepted = ", ".join(k if v is None else f"{k}={v:g}" for k, v in defaults.items())
        raise ValueError(f"{name} takes parameters ({accepted}), got ({', '.join(opts)})")
    return factory(**{k: float(opts.get(k, v)) for k, v in defaults.items()})


_MEASURE_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def parse_measure(text: str) -> SparsenessMeasure:
    """Parse a ``name(param=value,...)`` string, e.g. ``lp(p=0.5)``."""
    m = _MEASURE_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse measure spec {text!r}")
    name, body = m.group(1), m.group(2)
    params: dict = {}
    if body and body.strip():
        for item in body.split(","):
            if "=" not in item:
                raise ValueError(f"bad parameter {item!r} in {text!r}")
            key, val = item.split("=", 1)
            params[key.strip()] = float(val)
    return builtin_measure(name, params)


# ---------------------------------------------------------------------------
# Sampled property checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyWitness:
    """Worst offending sample of one property, with its excess."""

    point: tuple
    excess: float


@dataclass
class PropertyReport:
    measure: str
    sample_budget: int
    domain_cap: float
    inconclusive: bool
    subadditivity_violations: int = 0
    monotonicity_violations: int = 0
    ratio_violations: dict = field(default_factory=dict)  # power -> count
    worst: dict = field(default_factory=dict)             # kind -> PropertyWitness

    @property
    def clean(self) -> bool:
        return (
            not self.inconclusive
            and self.subadditivity_violations == 0
            and self.monotonicity_violations == 0
            and all(v == 0 for v in self.ratio_violations.values())
        )


def _sample_points(rng, budget, cap):
    # Random pairs plus a structured sliver of the domain so that grid
    # corners and equal arguments are always exercised.
    u = rng.uniform(0.0, cap, size=(budget, 2))
    extra = np.geomspace(max(cap * 1e-9, 1e-12), cap, num=32)
    grid = np.column_stack([extra, extra])
    return np.vstack([u, grid])


def check_measure_properties(
    measure: SparsenessMeasure,
    sample_budget: int = 100_000,
    domain_cap: float = 1e3,
    powers: Sequence[float] = (1.0,),
    seed: int = 0,
) -> PropertyReport:
    """Probe subadditivity, monotonicity and F(t)/t**p monotonicity by sampling.

    Returns counts of violations with worst-case witnesses.  A degenerate
    budget produces an empty report flagged inconclusive rather than an
    error.  Zero violations certify nothing beyond the samples drawn; the
    report keeps the budget for that reason.
    """
    if sample_budget < 1 or domain_cap <= 0:
        return PropertyReport(measure.name, sample_budget, domain_cap, inconclusive=True)

    rng = np.random.default_rng(seed)
    pts = _sample_points(rng, sample_budget, domain_cap)
    x, y = pts[:, 0], pts[:, 1]
    fx, fy, fxy = measure.fn(x), measure.fn(y), measure.fn(x + y)

    report = PropertyReport(measure.name, sample_budget, domain_cap, inconclusive=False)

    slack = TOL.property_rel * np.maximum(1.0, np.abs(fxy))
    excess = fxy - (fx + fy) - slack
    bad = excess > 0
    report.subadditivity_violations = int(bad.sum())
    if bad.any():
        i = int(np.argmax(excess))
        report.worst["subadditivity"] = PropertyWitness((float(x[i]), float(y[i])), float(excess[i]))

    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    flo, fhi = measure.fn(lo), measure.fn(hi)
    mono_excess = flo - fhi - TOL.property_rel * np.maximum(1.0, np.abs(flo))
    bad = mono_excess > 0
    report.monotonicity_violations = int(bad.sum())
    if bad.any():
        i = int(np.argmax(mono_excess))
        report.worst["monotonicity"] = PropertyWitness((float(lo[i]), float(hi[i])), float(mono_excess[i]))

    pos = lo > 0
    for p in powers:
        # F(t)/t**p non-increasing: the value at the larger argument may not
        # exceed the value at the smaller one.
        rlo = flo[pos] / lo[pos] ** p
        rhi = fhi[pos] / hi[pos] ** p
        r_excess = rhi - rlo - TOL.property_rel * np.maximum(1.0, np.abs(rlo))
        strict = (hi[pos] > lo[pos]) & (r_excess > 0)
        report.ratio_violations[float(p)] = int(strict.sum())
        if strict.any():
            j = int(np.argmax(np.where(strict, r_excess, -np.inf)))
            report.worst[f"ratio_p={p:g}"] = PropertyWitness(
                (float(lo[pos][j]), float(hi[pos][j])), float(r_excess[j])
            )
    return report


# ---------------------------------------------------------------------------
# Comparison of two measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitEstimate:
    value: float | None
    status: str  # "converged" | "diverged" | "inconclusive"


@dataclass
class ComparisonReport:
    """Numeric evidence for the penalty-comparison rules.

    ``ratio_nonincreasing`` (with both measures non-decreasing) supports the
    dominance rule: every null space recovered under G is recovered under F.
    A finite positive limit of F(x)/x**p at 0+ or at infinity supports the
    measure-match rule against the power law of exponent p: F cannot occupy
    more Haar measure than that power law does.
    """

    f_name: str
    g_name: str
    power: float | None
    ratio_nonincreasing: bool
    ratio_worst: PropertyWitness | None
    limit_zero: LimitEstimate
    limit_inf: LimitEstimate
    supported_rules: list = field(default_factory=list)


def _limit_from_sequence(vals: np.ndarray) -> LimitEstimate:
    """Estimate the limit of a sequence ordered toward its limit point."""
    vals = vals[np.isfinite(vals)]
    if vals.size < 4:
        return LimitEstimate(None, "inconclusive")
    v = vals[-4:]
    scale = max(1.0, abs(v[-1]))
    d1, d2 = v[-2] - v[-3], v[-1] - v[-2]
    if abs(d2) <= 1e-13 * scale:
        tail = float(v[-1])
        if abs(tail) <= 1e-12 * scale:
            tail = 0.0
        return LimitEstimate(tail, "converged")
    if abs(d1) > 0:
        r = d2 / d1
        if 0 < r < 0.9:
            # geometric tail: one Richardson step; values within float noise
            # of zero are reported as exactly zero
            lim = v[-1] + d2 * r / (1 - r)
            if abs(lim) <= 1e-12 * scale:
                lim = 0.0
            return LimitEstimate(float(lim), "converged")
        if r >= 1.02 and abs(v[-1]) > 1e3:
            return LimitEstimate(None, "diverged")
    return LimitEstimate(None, "inconclusive")


def _limit_at_zero(measure: SparsenessMeasure, p: float) -> LimitEstimate:
    # arguments decrease toward 0, so the sequence is already ordered
    # toward the limit point
    x = 2.0 ** -np.arange(8, 44, dtype=float)
    with np.errstate(all="ignore"):
        vals = measure.fn(x) / x**p
    return _limit_from_sequence(vals)


def _limit_at_inf(measure: SparsenessMeasure, p: float) -> LimitEstimate:
    x = 2.0 ** np.arange(4, 160, 4, dtype=float)
    with np.errstate(all="ignore"):
        vals = measure.fn(x) / x**p
    finite = np.isfinite(vals)
    if not finite.all():
        vals = vals[: int(np.argmin(finite))]
        if vals.size < 4:
            return LimitEstimate(None, "inconclusive")
    return _limit_from_sequence(np.asarray(vals))


def compare_measures(f: SparsenessMeasure, g: SparsenessMeasure) -> ComparisonReport:
    """Test comparison rules between two measures on geometric grids.

    The ratio F/G is checked on 4096 points of [1e-8, 1e3].  The limit rules
    apply when ``g`` is a power law, and use its homogeneity degree.
    """
    power = g.homogeneity_degree
    grid = np.geomspace(1e-8, 1e3, num=4096)
    with np.errstate(all="ignore"):
        ratio = f.fn(grid) / g.fn(grid)
    ok = np.isfinite(ratio)
    grid_ok, ratio_ok = grid[ok], ratio[ok]
    worst = None
    increases = ratio_ok[1:] - ratio_ok[:-1] - 1e-9 * np.maximum(1.0, np.abs(ratio_ok[:-1]))
    nonincreasing = bool((increases <= 0).all())
    if not nonincreasing:
        i = int(np.argmax(increases))
        worst = PropertyWitness((float(grid_ok[i]), float(grid_ok[i + 1])), float(increases[i]))

    if power is not None:
        lim0 = _limit_at_zero(f, power)
        liminf = _limit_at_inf(f, power)
    else:
        lim0 = liminf = LimitEstimate(None, "inconclusive")

    report = ComparisonReport(
        f_name=f.spec_string(),
        g_name=g.spec_string(),
        power=power,
        ratio_nonincreasing=nonincreasing,
        ratio_worst=worst,
        limit_zero=lim0,
        limit_inf=liminf,
    )
    if nonincreasing and f.non_decreasing and g.non_decreasing:
        report.supported_rules.append("dominance")          # F at least as good as G
        if power is not None:
            report.supported_rules.append("dominates_power_law")
    for lim in (lim0, liminf):
        if lim.status == "converged" and lim.value is not None and lim.value > 0:
            report.supported_rules.append("measure_matched_to_power_law")
            break
    return report
