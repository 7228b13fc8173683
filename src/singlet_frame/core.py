"""Closed-form singlet correlations, mutual information, and sphere geometry.

Two parties measure spin along unit vectors ``x`` and ``y``; each obtains
an outcome in {-1, +1}.  For a shared singlet pair the joint outcome
probability is

    p(a, b) = (1 - a*b*cos(angle(x, y))) / 4

so every quantity here depends on the settings only through the cosine of
the relative angle.  A 2x2 outcome table is held as probabilities
(``JointDistribution2x2``) or as one batch's counts (``CountTable``), and
one plug-in mutual information, with no bias correction, scores both.
All information values are in bits (base-2 logs).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "DistributionError",
    "Direction",
    "JointDistribution2x2",
    "CountTable",
    "direction_from_polar",
    "cos_angle",
    "singlet_joint_distribution",
    "mutual_information_from_joint",
    "estimate_mutual_information",
    "analytic_mutual_information",
]

LN2 = math.log(2.0)

# slack accepted on |cos| before an argument is rejected outright
COS_DOMAIN_TOL = 1e-12
_COS_LIMIT = 1.0 + COS_DOMAIN_TOL

# |v| <= FLOAT_MAX holds exactly for finite floats and for ints that fit a float, and fails for NaN
_FLOAT_MAX = sys.float_info.max

# values float() takes that are no real number: it parses text and drops a numpy imaginary part
_NOT_REAL = (str, bytes, bytearray, np.complexfloating)
# numpy dtype kinds of real numbers: bool, signed and unsigned int, float
_REAL_KINDS = "biuf"

# tolerance for "is a probability distribution" checks
DISTRIBUTION_TOL = 1e-12

# largest |dot| accepted between two axes of an orthonormal frame
FRAME_TOL = 1e-10

UINT64_MAX = (1 << 64) - 1
# the largest int64: numpy's multinomial draws no larger count, and a sign tally holds none
INT64_MAX = (1 << 63) - 1


class DomainError(ValueError):
    """An argument lies outside its mathematical domain."""


class DistributionError(ValueError):
    """A 2x2 joint table is not a valid probability distribution."""


def _checked_int(value, name: str, low: int = 0, high: int | None = None) -> int:
    """Return ``value`` if it is an int (not a bool) in [low, high]; no ``high`` means no upper bound."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in [{low}, {'2**64 - 1' if high == UINT64_MAX else high}]"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")
    return value


def _real(value, what: str, error: type = DomainError) -> float:
    """``value`` as a Python float if it is a real number, else ``error`` naming ``what`` and the value.

    Text, bytes, numpy complex values and arrays other than 0-d real ones are
    rejected before ``float()``, which would parse the text, drop the imaginary
    part or take a one-entry array's entry; None, Python complex values and
    containers fail in ``float()`` itself.  An int too large for a float is
    +/-inf, which each caller's finiteness test rejects.
    """
    if type(value) is float:
        return value
    if not isinstance(value, _NOT_REAL) and not (
            isinstance(value, np.ndarray) and (value.ndim or value.dtype.kind not in _REAL_KINDS)):
        try:
            return float(value)
        except OverflowError:  # an int too large for a float
            return math.inf if value > 0 else -math.inf
        except TypeError:
            pass
    raise error(f"{what} must be real numbers, got {value!r}")


def _checked_cos(value: float) -> float:
    """Validate a cosine argument and clamp float drift into [-1, 1]."""
    c = value if type(value) is float else _real(value, "cosines")
    # NaN fails every comparison, so this one test also rejects NaN and inf
    if not abs(c) <= _COS_LIMIT:
        raise DomainError(f"cosine of an angle must lie in [-1, 1], got {c!r}")
    return 1.0 if c > 1.0 else -1.0 if c < -1.0 else c


def _float_array(values, what: str) -> np.ndarray:
    """``values``, a real number or an array of them by ``_real``'s rule, as a float array of ndim >= 1."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "O":  # ints beyond int64, None or text among numbers, ...: each entry by the scalar rule
        arr = np.array([_real(v, what) for v in arr.flat]).reshape(arr.shape)
    elif kind not in _REAL_KINDS:
        raise DomainError(f"{what} must be real numbers, got {values!r}")
    return np.atleast_1d(np.asarray(arr, dtype=float))


def _checked_cos_array(cos_theta) -> np.ndarray:
    """Array form of ``_checked_cos``: a scalar or array in, the clipped values as an array of ndim >= 1 out."""
    arr = _float_array(cos_theta, "cosines")
    if not (np.abs(arr) <= _COS_LIMIT).all():
        raise DomainError("cosine of an angle must lie in [-1, 1]")
    return np.minimum(np.maximum(arr, -1.0), 1.0)


def _dots(x: "Direction", rows) -> list[float]:
    """``x.dot(y)`` for each (y.x, y.y, y.z) row of ``rows``, formed in ``Direction.dot``'s order."""
    ax, ay, az = x.x, x.y, x.z
    return [ax * a + ay * b + az * c for a, b, c in rows]


def _singlet_cells(cosines) -> list[tuple[float, float, float, float]]:
    """The singlet's (p_pp, p_pm, p_mp, p_mm) at each cosine, in one loop.

    Only a cosine that is not a float in [-1, 1] goes through ``_checked_cos``,
    which rejects it or clamps its drift; the cells are those of the clamped value.
    """
    cells = []
    for c in cosines:
        if type(c) is not float or not -1.0 <= c <= 1.0:
            c = _checked_cos(c)
        same, anti = (1.0 - c) / 4.0, (1.0 + c) / 4.0
        cells.append((same, anti, anti, same))
    return cells


def _shaped(out: np.ndarray, like):
    """``out`` as a float when ``like`` is a scalar, else reshaped to ``like``'s shape."""
    if np.ndim(like) == 0:
        return float(out[0])
    return out.reshape(np.shape(like))


def _checked_instance(value, cls, name: str):
    """Return ``value`` if it is an instance of ``cls``, a class or a tuple of them (``type(None)`` admits None)."""
    if not isinstance(value, cls):
        kinds = [c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,))]
        text = " or ".join("None" if k == "NoneType" else "a " + k for k in kinds)
        raise ValueError(f"{name} must be {text}, got {value!r}")
    return value


def _check_orthonormal(axes, name: str) -> None:
    """Raise ValueError unless ``axes`` are three pairwise orthogonal Directions (unit by construction)."""
    if (len(axes) != 3 or not all(isinstance(a, Direction) for a in axes)
            or any(abs(axes[i].dot(axes[j])) > FRAME_TOL for i, j in ((0, 1), (0, 2), (1, 2)))):
        raise ValueError(f"{name} must be three orthonormal Directions within {FRAME_TOL}")


def _checked_outcome(value: int, name: str) -> int:
    if value not in (-1, 1):
        raise DomainError(f"{name} must be -1 or +1, got {value!r}")
    return int(value)


def _checked_outcomes(values) -> np.ndarray:
    """``values`` as an int8 array, once every entry is checked to equal -1 or +1 (nothing is truncated)."""
    arr = np.asarray(values)
    if not np.all((arr == 1) | (arr == -1)):
        raise ValueError("outcomes must all be -1 or +1")
    return arr.astype(np.int8, copy=False)


@dataclass(frozen=True)
class Direction:
    """Unit vector on the sphere.  Construction rescales to unit length."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = self.x, self.y, self.z
        # a unit vector of Python floats is kept as given, which is what the converting path below stores
        if type(x) is float and type(y) is float and type(z) is float:
            if abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-12:
                return
        # Python floats square silently where numpy floats warn on overflow
        what = "direction components"
        x, y, z = _real(x, what), _real(y, what), _real(z, what)
        n = math.sqrt(x * x + y * y + z * z)
        if not math.isfinite(n) or n == 0.0:
            # the squared norm of a tiny or huge finite vector under- or overflows: scale by its largest entry
            scale = max(abs(x), abs(y), abs(z)) if all(abs(t) <= _FLOAT_MAX for t in (x, y, z)) else 0.0
            if scale == 0.0:
                raise DomainError(f"direction must be a nonzero finite vector, got {(x, y, z)}")
            x, y, z = x / scale, y / scale, z / scale
            n = math.sqrt(x * x + y * y + z * z)
        elif abs(n - 1.0) <= 1e-12:
            # leave already-unit components unscaled so that negating a
            # Direction is exact (the invariant tolerance is 1e-12 anyway)
            n = 1.0
        object.__setattr__(self, "x", x / n)
        object.__setattr__(self, "y", y / n)
        object.__setattr__(self, "z", z / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self) -> "Direction":
        return Direction(-self.x, -self.y, -self.z)


def direction_from_polar(theta: float, phi: float) -> Direction:
    """Unit vector (sin t cos p, sin t sin p, cos t) from polar angles in radians; both must be finite."""
    theta, phi = _real(theta, "polar angles"), _real(phi, "polar angles")
    if not (abs(theta) <= _FLOAT_MAX and abs(phi) <= _FLOAT_MAX):
        raise DomainError(f"polar angles must be finite, got theta={theta!r}, phi={phi!r}")
    st = math.sin(theta)
    return Direction(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def cos_angle(u: Direction, v: Direction) -> float:
    """Cosine of the angle between two unit vectors; float drift is clamped, NaN is a DomainError."""
    return _checked_cos(_checked_instance(u, Direction, "u").dot(_checked_instance(v, Direction, "v")))


@dataclass(frozen=True)
class JointDistribution2x2:
    """Joint distribution of a pair of {-1,+1} outcomes.

    Field suffixes give the (a, b) signs: ``p_pm`` is p(a=+1, b=-1).
    """

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self):
        entries = tuple(_real(p, "probabilities", DistributionError)
                        for p in (self.p_pp, self.p_pm, self.p_mp, self.p_mm))
        if any(not abs(p) <= _FLOAT_MAX for p in entries):
            raise DistributionError(f"non-finite probability in {entries}")
        if any(p < 0.0 for p in entries):
            raise DistributionError(f"negative probability in {entries}")
        total = self.p_pp + self.p_pm + self.p_mp + self.p_mm
        if abs(total - 1.0) > DISTRIBUTION_TOL:
            raise DistributionError(f"probabilities sum to {total!r}, expected 1")

    def prob(self, a: int, b: int) -> float:
        key = (_checked_outcome(a, "a"), _checked_outcome(b, "b"))
        return {
            (1, 1): self.p_pp,
            (1, -1): self.p_pm,
            (-1, 1): self.p_mp,
            (-1, -1): self.p_mm,
        }[key]

    def marginal_a(self) -> tuple[float, float]:
        """(p(a=+1), p(a=-1)) from row sums."""
        return (self.p_pp + self.p_pm, self.p_mp + self.p_mm)

    def marginal_b(self) -> tuple[float, float]:
        """(p(b=+1), p(b=-1)) from column sums."""
        return (self.p_pp + self.p_mp, self.p_pm + self.p_mm)


@dataclass(frozen=True)
class CountTable:
    """The four joint outcome counts of one batch.

    Suffixes name the (a, b) signs: ``m_pm`` counts pairs with a=+1, b=-1.
    The marginal counts and the total are derived from the joint ones.
    """

    m_pp: int
    m_pm: int
    m_mp: int
    m_mm: int

    def __post_init__(self):
        counts = (self.m_pp, self.m_pm, self.m_mp, self.m_mm)
        if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in counts):
            raise ValueError("counts must be nonnegative integers")
        if sum(counts) < 1:
            raise ValueError("count table must cover at least one pair")

    @property
    def m_a_plus(self) -> int:
        return self.m_pp + self.m_pm

    @property
    def m_a_minus(self) -> int:
        return self.m_mp + self.m_mm

    @property
    def m_b_plus(self) -> int:
        return self.m_pp + self.m_mp

    @property
    def m_b_minus(self) -> int:
        return self.m_pm + self.m_mm

    @property
    def total(self) -> int:
        return self.m_pp + self.m_pm + self.m_mp + self.m_mm

    def to_dict(self) -> dict:
        return {
            "m_joint": {"pp": self.m_pp, "pm": self.m_pm, "mp": self.m_mp, "mm": self.m_mm},
            "m_a_plus": self.m_a_plus,
            "m_a_minus": self.m_a_minus,
            "m_b_plus": self.m_b_plus,
            "m_b_minus": self.m_b_minus,
            "total": self.total,
        }


def singlet_joint_distribution(cos_theta: float) -> JointDistribution2x2:
    """The four joint outcome probabilities at a given relative-angle cosine."""
    return JointDistribution2x2(*_singlet_cells((cos_theta,))[0])


def _plug_in_mi(pp, pm, mp, mm, total) -> float:
    """Plug-in mutual information (bits) of a 2x2 table of cell weights summing to ``total``.

    Each nonzero cell w adds (w/total) * log2(w*total / (w_a*w_b)), with
    w_a and w_b its row and column sums; for counts the ratio is formed
    from exact integer products, so a table whose cells factorize into its
    marginals gives exactly 0.  Empty cells add nothing (continuity
    convention), and float drift is clamped into [0, 1].
    """
    a_plus, a_minus, b_plus, b_minus = pp + pm, mp + mm, pp + mp, pm + mm
    out = 0.0
    if pp:
        out += (pp / total) * math.log2(pp * total / (a_plus * b_plus))
    if pm:
        out += (pm / total) * math.log2(pm * total / (a_plus * b_minus))
    if mp:
        out += (mp / total) * math.log2(mp * total / (a_minus * b_plus))
    if mm:
        out += (mm / total) * math.log2(mm * total / (a_minus * b_minus))
    # min(1.0, max(0.0, out)) by comparisons, which skips two calls per table
    return 1.0 if out > 1.0 else out if out > 0.0 else 0.0


def mutual_information_from_joint(joint: JointDistribution2x2) -> float:
    """Shannon mutual information (bits) of a 2x2 joint distribution.

    Marginals are taken from row/column sums; cells with p = 0 contribute
    nothing (continuity convention).
    """
    return _plug_in_mi(joint.p_pp, joint.p_pm, joint.p_mp, joint.p_mm, 1)


def estimate_mutual_information(counts: CountTable) -> float:
    """Plug-in mutual information (bits) of a count table; see ``_plug_in_mi``."""
    return _plug_in_mi(counts.m_pp, counts.m_pm, counts.m_mp, counts.m_mm, counts.total)


def analytic_mutual_information(cos_theta):
    """Mutual information (bits) between singlet outcomes, in closed form.

    Equals ((1-c)*ln(1-c) + (1+c)*ln(1+c)) / (2 ln 2) with c = cos_theta,
    which is even in c, zero at c = 0 and 1 at c = +/-1 (the limit value is
    returned exactly at the endpoints).  Accepts a scalar or an array.
    """
    c = _checked_cos_array(cos_theta)
    out = np.ones(c.shape)
    interior = np.abs(c) < 1.0
    ci = c[interior]
    out[interior] = ((1.0 - ci) * np.log1p(-ci) + (1.0 + ci) * np.log1p(ci)) / (2.0 * LN2)
    return _shaped(out, cos_theta)
