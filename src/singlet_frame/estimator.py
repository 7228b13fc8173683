"""Count tables and plug-in estimation from outcome sequences.

The receiving party counts joint and marginal outcomes, divides by the
batch size to estimate the distributions, and plugs those estimates into
the mutual-information formula.  No bias correction is applied: the
plug-in estimator's small positive bias at finite batch size is measured
in the tests rather than corrected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import JointDistribution2x2, _plug_in_mi
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
        for v in counts:
            # a plain int passes on the first test; int subclasses other than bool are ints too
            if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
                raise ValueError("counts must be nonnegative integers")
        if min(counts) < 0:
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

    @classmethod
    def from_joint_counts(cls, m_pp: int, m_pm: int, m_mp: int, m_mm: int) -> "CountTable":
        """Build a table from the four joint counts."""
        return cls(m_pp, m_pm, m_mp, m_mm)

    def __add__(self, other: "CountTable") -> "CountTable":
        """Merge two partial tables (entrywise sum), for parallel reduction."""
        if not isinstance(other, CountTable):
            return NotImplemented
        return CountTable(
            self.m_pp + other.m_pp, self.m_pm + other.m_pm, self.m_mp + other.m_mp, self.m_mm + other.m_mm,
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
        """Read ``to_dict``'s form; its redundant marginal and total entries must be the derived ints."""
        j = data["m_joint"]
        table = cls(j["pp"], j["pm"], j["mp"], j["mm"])
        for key in ("m_a_plus", "m_a_minus", "m_b_plus", "m_b_minus", "total"):
            v = data[key]
            if not isinstance(v, int) or isinstance(v, bool) or v != getattr(table, key):
                raise ValueError("marginal counts inconsistent with joint counts")
        return table


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
    """Plug-in mutual information (bits) of a count table; see ``core._plug_in_mi``."""
    return _plug_in_mi(counts.m_pp, counts.m_pm, counts.m_mp, counts.m_mm, counts.total)
