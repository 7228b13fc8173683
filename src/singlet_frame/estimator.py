"""Count tables and plug-in estimation from outcome sequences.

The receiving party counts the four joint outcomes of a batch and plugs
their frequencies into the mutual-information formula.  No bias
correction is applied: the plug-in estimator's small positive bias at
finite batch size is measured in the tests rather than corrected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _plug_in_mi
from .sampler import OutcomeRecord

__all__ = [
    "CountTable",
    "tally",
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

    def to_dict(self) -> dict:
        return {
            "m_joint": {"pp": self.m_pp, "pm": self.m_pm, "mp": self.m_mp, "mm": self.m_mm},
            "m_a_plus": self.m_a_plus,
            "m_a_minus": self.m_a_minus,
            "m_b_plus": self.m_b_plus,
            "m_b_minus": self.m_b_minus,
            "total": self.total,
        }


def tally(record: OutcomeRecord) -> CountTable:
    """Exact joint and marginal counts of one outcome record."""
    a_plus = record.a == 1
    b_plus = record.b == 1
    return CountTable(
        m_pp=int(np.count_nonzero(a_plus & b_plus)),
        m_pm=int(np.count_nonzero(a_plus & ~b_plus)),
        m_mp=int(np.count_nonzero(~a_plus & b_plus)),
        m_mm=int(np.count_nonzero(~a_plus & ~b_plus)),
    )


def estimate_mutual_information(counts: CountTable) -> float:
    """Plug-in mutual information (bits) of a count table; see ``core._plug_in_mi``."""
    return _plug_in_mi(counts.m_pp, counts.m_pm, counts.m_mp, counts.m_mm, counts.total)
