"""Posterior inference for the relative angle from outcome-product counts.

With a flat prior over both measurement directions, the posterior for the
pair (x, y) given a batch of outcomes depends only on the sign counts
(n_plus, n_minus) of the products a_j*b_j and on c = cos(angle(x, y)):

    p(c) = (1 - c)^n_plus * (1 + c)^n_minus / (8 pi^2 * d)
    d    = integral_{-1}^{1} (1 - g)^n_plus * (1 + g)^n_minus dg
         = 2^(n_plus + n_minus + 1) * B(n_plus + 1, n_minus + 1)

All density arithmetic runs in log space: the power terms underflow for
batches beyond a few thousand pairs.  The Beta closed form for d is
verified against adaptive quadrature (and the equivalent hypergeometric
expression) in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import INT64_MAX, LN2, Direction, DomainError, _checked_cos, _checked_cos_array, _checked_instance
from .core import _checked_int, _checked_outcomes, _float_array, _shaped, cos_angle
from .sampler import OutcomeRecord

__all__ = [
    "SignTally",
    "PosteriorSummary",
    "sign_tally",
    "sign_tally_from_arrays",
    "log_likelihood",
    "log_normalization_d",
    "posterior_density",
    "posterior_theta_density",
    "posterior_peak",
    "conditional_direction_density",
    "credible_interval",
    "posterior_summary",
]

LOG_8PI2 = math.log(8.0 * math.pi**2)
# half-width of the credible-interval grid window, in posterior standard deviations of c
CI_WINDOW_SDS = 40.0
# points of the credible-interval grid laid over that window
CI_GRID_SIZE = 8193
# largest tally N given a credible interval: up to it a scipy sweep kept the mass of one- and two-sided
# tallies' 95% intervals within 1e-3 of the level; from about 1e11 the float grid is too coarse for that
CI_MAX_TALLY = 9 * 10**10


@dataclass(frozen=True)
class SignTally:
    """Counts of outcome products: n_plus pairs with a*b = +1, n_minus with -1."""

    n_plus: int
    n_minus: int

    def __post_init__(self):
        _checked_int(self.n_plus, "n_plus", 0, INT64_MAX)
        _checked_int(self.n_minus, "n_minus", 0, INT64_MAX)

    @property
    def n_total(self) -> int:
        return self.n_plus + self.n_minus


@dataclass(frozen=True)
class PosteriorSummary:
    """MAP point, sign-symmetric angle pair, and credible interval in cos."""

    n_plus: int
    n_minus: int
    map_cos_theta: float
    map_theta_pair: tuple[float, float]
    credible_interval_cos: tuple[float, float]
    credible_level: float
    log_normalization: float

    def __post_init__(self):
        lo, hi = self.credible_interval_cos
        if not -1.0 <= self.map_cos_theta <= 1.0:
            raise ValueError("map_cos_theta must lie in [-1, 1]")
        if not lo <= self.map_cos_theta <= hi:
            raise ValueError("credible interval must contain the MAP point")

    def to_dict(self) -> dict:
        return asdict(self)


def sign_tally_from_arrays(a, b) -> SignTally:
    """Sign counts of elementwise products of two +/-1 arrays."""
    av = _checked_outcomes(a)
    bv = _checked_outcomes(b)
    if av.shape != bv.shape or av.ndim != 1 or av.size == 0:
        raise ValueError("outcome arrays must be 1-d, nonempty, and of equal length")
    n_plus = int(np.count_nonzero(av == bv))
    return SignTally(n_plus=n_plus, n_minus=int(av.size - n_plus))


def sign_tally(record: OutcomeRecord) -> SignTally:
    """Sign counts of the outcome products of one record."""
    _checked_instance(record, OutcomeRecord, "record")
    return sign_tally_from_arrays(record.a, record.b)


def log_likelihood(tally: SignTally, cos_theta: float) -> float:
    """Log probability of the data at a given relative-angle cosine: the posterior's log kernel less 2 N ln 2.

    Returns -inf when a zero-probability factor is hit (|cos| = 1 with a
    count on the forbidden side); an empty tally gives 0.
    """
    _checked_instance(tally, SignTally, "tally")
    with np.errstate(divide="ignore"):
        return float(_log_density_1d(_checked_cos(cos_theta), tally, -2 * tally.n_total * LN2))


def log_normalization_d(tally: SignTally) -> float:
    """log of d(n_plus, n_minus), via the Beta closed form."""
    _checked_instance(tally, SignTally, "tally")
    n1, n2 = tally.n_plus, tally.n_minus
    log_beta = math.lgamma(n1 + 1) + math.lgamma(n2 + 1) - math.lgamma(n1 + n2 + 2)
    return (n1 + n2 + 1) * LN2 + log_beta


def posterior_density(cos_theta, tally: SignTally):
    """Posterior density per double solid angle at a relative-angle cosine.

    Accepts a scalar or an array.  Finite everywhere, including the
    endpoints when the corresponding count is zero.
    """
    c = _checked_cos_array(cos_theta)
    with np.errstate(divide="ignore"):
        logp = _log_density_1d(c, tally, -LOG_8PI2 - log_normalization_d(tally))
    return _shaped(np.exp(logp), cos_theta)


def posterior_theta_density(theta, tally: SignTally):
    """The same posterior density written in the relative angle itself.

    Uses the half-angle form 2^N sin(t/2)^(2 n_plus) cos(t/2)^(2 n_minus),
    so it is exactly even in theta.  Accepts a scalar or an array of
    finite angles; a NaN or infinite one is a DomainError.
    """
    t = _float_array(theta, "angle must be finite")
    if not np.isfinite(t).all():
        raise DomainError("angle must be finite")
    n = _checked_instance(tally, SignTally, "tally").n_total
    logp = np.full(t.shape, n * LN2 - LOG_8PI2 - log_normalization_d(tally))
    with np.errstate(divide="ignore"):
        if tally.n_plus:
            logp += tally.n_plus * np.log(np.sin(t / 2.0) ** 2)
        if tally.n_minus:
            logp += tally.n_minus * np.log(np.cos(t / 2.0) ** 2)
    return _shaped(np.exp(logp), theta)


def posterior_peak(tally: SignTally) -> float:
    """MAP cosine of the relative angle: (n_minus - n_plus) / N."""
    if _checked_instance(tally, SignTally, "tally").n_total < 1:
        raise ValueError("posterior peak is undefined for an empty tally (flat posterior)")
    return (tally.n_minus - tally.n_plus) / tally.n_total


def conditional_direction_density(x: Direction, tally: SignTally, y: Direction) -> float:
    """Density per solid angle for one party's direction given the other's.

    With a flat prior on the conditioned direction this is 4*pi times the
    joint posterior density; it integrates to 1 over the sphere of ``x``.
    """
    return 4.0 * math.pi * posterior_density(cos_angle(x, y), tally)


def _log_density_1d(c, tally: SignTally, offset: float):
    """``offset`` plus the log of the unnormalized density in cos: n_plus*log(1 - c) + n_minus*log(1 + c).

    With offset -log(d) it integrates to 1 on [-1, 1]; with -log(8 pi^2 d) it is
    the density per double solid angle.  ``c`` is a float64 scalar or an array,
    and the result is of the same kind.  At c = +/-1 a log is -inf with a divide
    warning, so a caller that can pass an end point enters
    ``np.errstate(divide="ignore")`` once around its calls.
    """
    if not tally.n_total:
        return np.full(np.shape(c), offset)
    logp = offset
    if tally.n_plus:
        logp = logp + tally.n_plus * np.log1p(-c)
    if tally.n_minus:
        logp = logp + tally.n_minus * np.log1p(c)
    return logp


def _posterior_window(tally: SignTally) -> tuple[float, float]:
    """MAP cosine +/- CI_WINDOW_SDS posterior standard deviations, clipped to [-1, 1].

    u = (1 - c)/2 follows Beta(n_plus + 1, n_minus + 1), so the window
    holds all but a negligible share of the mass at any N.
    """
    alpha, beta = tally.n_plus + 1, tally.n_minus + 1
    total = alpha + beta
    sd_c = 2.0 * math.sqrt(alpha * beta / (total * total * (total + 1)))
    peak = posterior_peak(tally)
    return max(-1.0, peak - CI_WINDOW_SDS * sd_c), min(1.0, peak + CI_WINDOW_SDS * sd_c)


def credible_interval(tally: SignTally, level: float) -> tuple[float, float]:
    """Highest-density interval of the 1-d cosine posterior.

    The threshold is located on a uniform grid over the posterior window
    (so a posterior narrowed by a large N still spans thousands of grid
    steps), and the interval endpoints are then refined by bisection on
    the (unimodal) density, so the mass matches ``level`` to grid
    accuracy.  Always contains the MAP point.

    The bisection evaluates the density on float64 scalars and stops at
    its float fixed point, where the midpoint equals an end: every later
    step would keep both ends, so the edge is that of 60 full steps.
    """
    _checked_instance(tally, SignTally, "tally")
    if not isinstance(level, float) or not 0.0 < level < 1.0:
        raise ValueError(f"credible level must lie strictly in (0, 1), got {level!r}")
    if tally.n_total < 1:
        raise ValueError("credible interval is undefined for an empty tally")
    if tally.n_total > CI_MAX_TALLY:
        raise DomainError(f"credible interval needs a tally of at most {CI_MAX_TALLY} pairs, got {tally.n_total}")
    offset = -log_normalization_d(tally)
    window_lo, window_hi = _posterior_window(tally)
    grid = np.linspace(window_lo, window_hi, CI_GRID_SIZE)
    with np.errstate(divide="ignore"):
        dens = np.exp(_log_density_1d(grid, tally, offset))
    step = grid[1] - grid[0]
    weights = np.full(CI_GRID_SIZE, step)
    weights[0] = weights[-1] = step / 2.0  # trapezoid ends, exact for boundary-peaked tallies

    order = np.argsort(dens)[::-1]
    mass = np.cumsum((dens * weights)[order])
    idx = int(np.searchsorted(mass, level))
    idx = min(idx, CI_GRID_SIZE - 1)
    threshold = dens[order[idx]]

    included = np.nonzero(dens >= threshold)[0]
    lo_i, hi_i = int(included[0]), int(included[-1])

    def density(c: float) -> float:
        return float(np.exp(_log_density_1d(np.float64(c), tally, offset)))

    def bisect_edge(inside: float, outside: float) -> float:
        # density is monotone between an included point and its excluded neighbor; a midpoint equal to
        # an end means no float lies between the ends, so every later step would keep both
        for _ in range(60):
            mid = 0.5 * (inside + outside)
            if mid == inside or mid == outside:
                break
            if density(mid) >= threshold:
                inside = mid
            else:
                outside = mid
        return inside

    lo = window_lo if lo_i == 0 else bisect_edge(float(grid[lo_i]), float(grid[lo_i - 1]))
    hi = window_hi if hi_i == CI_GRID_SIZE - 1 else bisect_edge(float(grid[hi_i]), float(grid[hi_i + 1]))
    return (float(lo), float(hi))


def posterior_summary(tally: SignTally, level: float = 0.95) -> PosteriorSummary:
    """MAP point, +/- angle pair, credible interval, and log normalization."""
    peak = posterior_peak(tally)
    theta_star = math.acos(min(1.0, max(-1.0, peak)))
    return PosteriorSummary(
        n_plus=tally.n_plus,
        n_minus=tally.n_minus,
        map_cos_theta=peak,
        map_theta_pair=(-theta_star, theta_star),
        credible_interval_cos=credible_interval(tally, level),
        credible_level=level,
        log_normalization=log_normalization_d(tally),
    )
