"""Count tables and plug-in estimation from outcome sequences.

The receiving party counts joint and marginal outcomes, divides by the
batch size to estimate the distributions, and plugs those estimates into
the mutual-information formula.  No bias correction is applied: the
plug-in estimator's small positive bias at finite batch size is measured
in the tests rather than corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import JointDistribution2x2
from .sampler import OutcomeRecord

__all__ = [
    "CountTable",
    "tally",
    "estimate_marginals",
    "estimate_joint",
    "estimate_mutual_information",
]


@dataclass(frozen=True)
class CountTable:
    """Joint and marginal outcome counts for one batch.

    Suffixes name the (a, b) signs: ``m_pm`` counts pairs with a=+1, b=-1.
    Marginal counts are redundant with the joint ones and are validated
    against them at construction.
    """

    m_pp: int
    m_pm: int
    m_mp: int
    m_mm: int
    m_a_plus: int
    m_a_minus: int
    m_b_plus: int
    m_b_minus: int
    total: int

    def __post_init__(self):
        m_pp, m_pm, m_mp, m_mm = self.m_pp, self.m_pm, self.m_mp, self.m_mm
        fields = (m_pp, m_pm, m_mp, m_mm, self.m_a_plus, self.m_a_minus, self.m_b_plus, self.m_b_minus, self.total)
        for v in fields:
            # a plain int passes on the first test; int subclasses other than bool are ints too
            if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
                raise ValueError("counts must be nonnegative integers")
        if min(fields) < 0:
            raise ValueError("counts must be nonnegative integers")
        if self.total < 1:
            raise ValueError("count table must cover at least one pair")
        if (
            m_pp + m_pm + m_mp + m_mm != self.total
            or self.m_a_plus != m_pp + m_pm
            or self.m_a_minus != m_mp + m_mm
            or self.m_b_plus != m_pp + m_mp
            or self.m_b_minus != m_pm + m_mm
        ):
            raise ValueError("marginal counts inconsistent with joint counts")

    @classmethod
    def from_joint_counts(cls, m_pp: int, m_pm: int, m_mp: int, m_mm: int) -> "CountTable":
        """Build a table from the four joint counts, deriving the marginals."""
        return cls(m_pp, m_pm, m_mp, m_mm, m_pp + m_pm, m_mp + m_mm, m_pp + m_mp, m_pm + m_mm, m_pp + m_pm + m_mp + m_mm)

    def joint_count(self, a: int, b: int) -> int:
        return {(1, 1): self.m_pp, (1, -1): self.m_pm, (-1, 1): self.m_mp, (-1, -1): self.m_mm}[(a, b)]

    def __add__(self, other: "CountTable") -> "CountTable":
        """Merge two partial tables (entrywise sum), for parallel reduction."""
        if not isinstance(other, CountTable):
            return NotImplemented
        return CountTable.from_joint_counts(
            self.m_pp + other.m_pp,
            self.m_pm + other.m_pm,
            self.m_mp + other.m_mp,
            self.m_mm + other.m_mm,
        )

    def to_dict(self) -> dict:
        return {
            "m_joint": {"pp": self.m_pp, "pm": self.m_pm, "mp": self.m_mp, "mm": self.m_mm},
            "m_a_plus": self.m_a_plus,
            "m_a_minus": self.m_a_minus,
            "m_b_plus": self.m_b_plus,
            "m_b_minus": self.m_b_minus,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CountTable":
        j = data["m_joint"]
        return cls(
            m_pp=j["pp"], m_pm=j["pm"], m_mp=j["mp"], m_mm=j["mm"],
            m_a_plus=data["m_a_plus"], m_a_minus=data["m_a_minus"],
            m_b_plus=data["m_b_plus"], m_b_minus=data["m_b_minus"],
            total=data["total"],
        )


def tally(record: OutcomeRecord) -> CountTable:
    """Exact joint and marginal counts of one outcome record."""
    a_plus = record.a == 1
    b_plus = record.b == 1
    return CountTable.from_joint_counts(
        m_pp=int(np.count_nonzero(a_plus & b_plus)),
        m_pm=int(np.count_nonzero(a_plus & ~b_plus)),
        m_mp=int(np.count_nonzero(~a_plus & b_plus)),
        m_mm=int(np.count_nonzero(~a_plus & ~b_plus)),
    )


def estimate_marginals(counts: CountTable) -> tuple[float, float, float, float]:
    """(p(a=+1), p(a=-1), p(b=+1), p(b=-1)) estimated as count/total."""
    t = counts.total
    return (counts.m_a_plus / t, counts.m_a_minus / t, counts.m_b_plus / t, counts.m_b_minus / t)


def estimate_joint(counts: CountTable) -> JointDistribution2x2:
    """Joint distribution estimated as joint count / total."""
    t = counts.total
    return JointDistribution2x2(
        p_pp=counts.m_pp / t, p_pm=counts.m_pm / t, p_mp=counts.m_mp / t, p_mm=counts.m_mm / t,
    )


def estimate_mutual_information(counts: CountTable) -> float:
    """Plug-in mutual information (bits) of a count table.

    Each cell contributes (m/M) * log2(m*M / (m_a*m_b)); the ratio is formed
    from exact integer products, so a table whose joint counts factorize
    into its marginals yields exactly 0.  Empty cells contribute 0.
    """
    t = counts.total
    cells = (
        (counts.m_pp, counts.m_a_plus, counts.m_b_plus),
        (counts.m_pm, counts.m_a_plus, counts.m_b_minus),
        (counts.m_mp, counts.m_a_minus, counts.m_b_plus),
        (counts.m_mm, counts.m_a_minus, counts.m_b_minus),
    )
    total = 0.0
    for m, ma, mb in cells:
        if m:
            total += (m / t) * math.log2(m * t / (ma * mb))
    return min(1.0, max(0.0, total))
