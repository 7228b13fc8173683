"""Independent references the benchmark checks the program against.

Both are written from the model, not from the library's code, so a defect
in the library cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np

# Gauss-Legendre rule applied on every panel of the composite quadrature
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

# half-width of the integration window around the mode, in Beta standard
# deviations; the mass outside is far below any tolerance used here
_WINDOW_SD = 40.0

# panel width in Beta standard deviations; 20-point rules on panels this
# narrow integrate the (locally Gaussian) density to double precision
_PANEL_SD = 0.25


def _log_kernel(u: np.ndarray, n_plus: int, n_minus: int) -> np.ndarray:
    """Unnormalized log density of Beta(n_plus + 1, n_minus + 1) at ``u``."""
    out = np.zeros_like(u)
    if n_plus:
        out += n_plus * np.log(u)
    if n_minus:
        out += n_minus * np.log1p(-u)
    return out


def _integrate(lo: float, hi: float, n_plus: int, n_minus: int, log_peak: float, sd: float) -> float:
    if hi <= lo:
        return 0.0
    panels = int(min(4000, max(4, math.ceil((hi - lo) / (_PANEL_SD * sd)))))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    f = np.exp(_log_kernel(u, n_plus, n_minus) - log_peak)
    return float(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * f))


def cos_interval_mass(n_plus: int, n_minus: int, lo_cos: float, hi_cos: float) -> float:
    """Posterior mass of the cosine interval [lo_cos, hi_cos].

    With a flat prior the posterior of c = cos(angle) given the sign tally
    is proportional to (1 - c)^n_plus (1 + c)^n_minus, so u = (1 - c) / 2
    follows Beta(n_plus + 1, n_minus + 1).  The mass is the ratio of two
    composite Gauss-Legendre integrals of the Beta kernel over a window of
    +/-40 standard deviations around the mode, which keeps the quadrature
    accurate from N = 1 to N = 1e8 and for one-sided tallies.
    """
    n = n_plus + n_minus
    a, b = n_plus + 1.0, n_minus + 1.0
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    mode = n_plus / n if n else 0.5
    w_lo = max(0.0, mode - _WINDOW_SD * sd)
    w_hi = min(1.0, mode + _WINDOW_SD * sd)
    log_peak = float(_log_kernel(np.array([min(max(mode, 1e-300), 1.0 - 1e-16)]), n_plus, n_minus)[0])
    u_lo = max(w_lo, (1.0 - hi_cos) / 2.0)
    u_hi = min(w_hi, (1.0 - lo_cos) / 2.0)
    total = _integrate(w_lo, w_hi, n_plus, n_minus, log_peak, sd)
    return _integrate(u_lo, u_hi, n_plus, n_minus, log_peak, sd) / total


def lsq_direction(trial_directions: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Least-squares direction fit from per-trial joint counts.

    ``counts`` rows are (m_pp, m_pm, m_mp, m_mm).  For a singlet the mean
    outcome product at settings (x, y) is E[ab] = -x.y, so the observed
    means give the linear system  Y x = -mean(ab)  in the unknown x, sign
    included.  Returns the unit-normalized solution.
    """
    counts = np.asarray(counts, dtype=float)
    mean_product = (counts[:, 0] + counts[:, 3] - counts[:, 1] - counts[:, 2]) / counts.sum(axis=1)
    x, *_ = np.linalg.lstsq(np.asarray(trial_directions, dtype=float), -mean_product, rcond=None)
    return x / np.linalg.norm(x)
