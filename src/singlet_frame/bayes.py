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
# largest tally N given a credible interval: one float step of c next to +/-1 holds about N * 5.5e-17 of a
# one-sided posterior's mass, so a scipy sweep found the mass within 6e-6 of the level up to it and 2e-4 at 1e13
CI_MAX_TALLY = 9 * 10**10
# the credible interval's 48-point Gauss-Legendre rule, by Golub-Welsch (numpy.polynomial's leggauss would add 0.7 MB
# more to the import); its density points, as fractions of the interval's width, are both edges, then the rule's nodes
_CI_NODES, _CI_VECTORS = np.linalg.eigh(np.diag([k / math.sqrt(4.0 * k * k - 1.0) for k in range(1, 48)], -1))
_CI_POINTS, _CI_WEIGHTS = np.concatenate(([0.0, 1.0], (1.0 + _CI_NODES) / 2.0)), 2.0 * _CI_VECTORS[0] ** 2
_CI_MAX_STEPS = 60  # the interval's Newton steps at most: levels 0.05 to 0.99 took 2 to 10, a few next to 1 all 60


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
        if not (-1.0 <= lo and hi <= 1.0):
            raise ValueError("credible interval must lie in [-1, 1]")
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
        return float(_log_kernel(tally, -2 * tally.n_total * LN2)(_checked_cos(cos_theta)))


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
        logp = _log_kernel(tally, -LOG_8PI2 - log_normalization_d(tally))(c)
    return _shaped(np.exp(logp), cos_theta)


def posterior_theta_density(theta, tally: SignTally):
    """The same posterior density written in the relative angle itself.

    Uses the half-angle form 2^N sin(t/2)^(2 n_plus) cos(t/2)^(2 n_minus),
    so it is exactly even in theta.  Accepts a scalar or an array of
    finite angles; a NaN or infinite one is a DomainError.
    """
    t = _float_array(theta, "angles")
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


def _log_kernel(tally: SignTally, offset: float, peak: float = 0.0):
    """``logp(x)``: ``offset`` plus the log of the unnormalized density in cos at c = peak + x, less its log at peak.

    That is offset + n_plus*log1p(-x/(1 - peak)) + n_minus*log1p(x/(1 + peak)): with peak 0 and offset -log(d)
    it integrates to 1 on [-1, 1], with -log(8 pi^2 d) it is the density per double solid angle, and centred on
    the MAP it keeps the fall near the peak that rounding takes from the large terms at peak 0.  ``x`` is a float64
    scalar or an array, like the result.  At c = +/-1 a log is -inf with a divide warning (use ``np.errstate``).
    """
    n_plus, n_minus, log1p = tally.n_plus, tally.n_minus, np.log1p
    if not n_plus + n_minus:
        return lambda x: np.full(np.shape(x), offset)
    above, below = 1.0 - peak, 1.0 + peak

    def logp(x):
        out = offset
        if n_plus:
            out = out + n_plus * log1p(-x / above)
        if n_minus:
            out = out + n_minus * log1p(x / below)
        return out

    return logp


def _log_peak_density(tally: SignTally) -> float:
    """log of the normalized density in cos at the MAP of a tally with both counts positive.

    -log(d) + n_plus*log(1 - MAP) + n_minus*log(1 + MAP), with Stirling's form taken out of each log-factorial,
    so that the terms of order N cancel exactly rather than leave N times 1e-16 of rounding.
    """

    def remainder(k):  # log(k!) less (k + 1/2) log(k) - k + log(2 pi)/2, to about 1e-13: exact, then two series terms
        exact = math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2.0 * math.pi)
        return exact if k < 100 else (1.0 - 1.0 / (30.0 * k * k)) / (12.0 * k)

    n_plus, n_minus, n = tally.n_plus, tally.n_minus, tally.n_total
    remainders = remainder(n) - remainder(n_plus) - remainder(n_minus)
    return math.log((n + 1) / 2.0) + 0.5 * math.log(n / (2.0 * math.pi * n_plus * n_minus)) + remainders


def credible_interval(tally: SignTally, level: float) -> tuple[float, float]:
    """Highest-density interval of the 1-d cosine posterior; it always contains the MAP point.

    A one-sided tally's density (1 -/+ c)^N is monotone, so its interval is the tail at its peak, in closed
    form.  Otherwise the log-density is concave, and Newton solves for the edges c1 < MAP < c2: the mass
    between them, one Gauss-Legendre rule, is ``level``, and their log-densities (``_log_kernel`` centred on
    the MAP) are equal.  A step keeps each edge within half to twice its distance from the MAP and half way
    to the end of [-1, 1] behind it.  Newton stops when both equations hold to rounding, when a step moves
    the edges by less than 1e-9 of the width, or when rounding puts the level out of reach: the mass rounds
    to 1, or the edges hold no density.
    """
    _checked_instance(tally, SignTally, "tally")
    if not isinstance(level, float) or not 0.0 < level < 1.0:
        raise ValueError(f"credible level must be a float strictly inside (0, 1), got {level!r}")
    if tally.n_total < 1:
        raise ValueError("credible interval is undefined for an empty tally")
    if tally.n_total > CI_MAX_TALLY:
        raise DomainError(f"credible interval needs a tally of at most {CI_MAX_TALLY} pairs, got {tally.n_total}")
    peak, n = posterior_peak(tally), tally.n_total
    if not tally.n_plus or not tally.n_minus:
        edge = 1.0 + 2.0 * math.expm1(math.log1p(-level) / (n + 1))  # [edge, 1] holds level of (1 + c)^N
        lo, hi = (edge, 1.0) if tally.n_minus else (-1.0, -edge)
    else:
        below, above = 1.0 + peak, 1.0 - peak  # distances from the MAP to c = -1 and c = 1
        logp = _log_kernel(tally, _log_peak_density(tally), peak)
        # y1, y2: the edges' distances below and above the MAP, from a normal start (Winitzki's erfinv, within 0.2%)
        log_tail, sd = math.log1p(-level * level), 2.0 * math.sqrt(tally.n_plus * tally.n_minus / n**3)
        middle = 2.0 / (math.pi * 0.147) + log_tail / 2.0
        normal_edge = sd * math.sqrt(2.0 * -log_tail / 0.147 / (math.sqrt(middle**2 - log_tail / 0.147) + middle))
        y1, y2 = min(normal_edge, below / 2.0), min(normal_edge, above / 2.0)
        for _ in range(_CI_MAX_STEPS):
            points = _CI_POINTS * (y1 + y2) - y1
            points[1] = y2  # the sum above can round past the upper edge, and so past c = 1
            log_f = logp(points)
            f = np.exp(log_f)
            f1, f2, mass = float(f[0]), float(f[1]), (y1 + y2) / 2.0 * float(_CI_WEIGHTS @ f[2:])
            if mass >= 1.0 or f1 * y1 + f2 * y2 < 1e-16:  # rounding leaves no mass to gain or to lose
                break
            g1, g2 = n * y1 / ((below - y1) * (above + y1)), n * y2 / ((above - y2) * (below + y2))  # |d log f/dc|
            # log(1 - mass) against log(1 - level), scaled to mass - level near it: near linear in a tail for Newton
            miss = (1.0 - mass) * math.log((1.0 - level) / (1.0 - mass))
            gap = float(log_f[0] - log_f[1])
            gap = 0.0 if abs(gap) <= 1e-9 + 1e-15 * (g1 * y1 + g2 * y2) else gap  # 1e-9, or the edges' rounding
            if abs(miss) <= 1e-12 and not gap:
                break
            det = f1 * g2 + f2 * g1
            step1, step2 = (gap * f2 - miss * g2) / det, -(gap * f1 + miss * g1) / det
            new1 = min(max(y1 + step1, y1 / 2.0), 2.0 * y1, math.nextafter((y1 + below) / 2.0, 0.0))
            new2 = min(max(y2 + step2, y2 / 2.0), 2.0 * y2, math.nextafter((y2 + above) / 2.0, 0.0))
            y1, y2, moved = new1, new2, abs(new1 - y1) + abs(new2 - y2)
            if moved <= 1e-9 * (y1 + y2):
                break
        lo, hi = peak - y1, peak + y2
    # an interval narrower than the floats next to the MAP is widened to them
    return float(min(lo, np.nextafter(peak, -1.0))), float(max(hi, np.nextafter(peak, 1.0)))


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
