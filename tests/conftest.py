import math

import numpy as np
import pytest

from singlet_frame import Direction


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_direction(rng) -> Direction:
    v = rng.normal(size=3)
    return Direction(*(v / np.linalg.norm(v)))


def orthonormal_tangents(d: Direction) -> tuple[np.ndarray, np.ndarray]:
    v = d.as_array()
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(v)))] = 1.0
    e1 = np.cross(v, helper)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(v, e1)


def tilted_pole(truth: Direction, rng, lo_deg: float = 5.0, hi_deg: float = 60.0) -> Direction:
    """A hemisphere pole containing ``truth`` with a healthy margin.

    Tilting the pole keeps the prior honest: the searched direction must
    not coincide with the first point of the pole-centered trial layout.
    """
    tilt = math.radians(rng.uniform(lo_deg, hi_deg))
    az = rng.uniform(0.0, 2.0 * math.pi)
    e1, e2 = orthonormal_tangents(truth)
    v = math.cos(tilt) * truth.as_array() + math.sin(tilt) * (math.cos(az) * e1 + math.sin(az) * e2)
    return Direction(*v)


def first_difference(got: str, want: str):
    """None when equal, else (line number, got line, wanted line) at the first difference.

    Asserting ``got == want`` instead makes pytest diff the two whole texts,
    which for a 2000-row record runs for minutes.
    """
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w), min(len(got_lines), len(want_lines)))
    return i + 1, got_lines[i:i + 1], want_lines[i:i + 1]


def reference_trials(rows, include_counts: bool) -> list[dict]:
    """A report's ``trials`` list as dicts, one per ``(direction, score, counts)`` row, counts under ``m_joint``."""
    return [
        {
            "trial_index": i,
            "direction": list(d),
            "mi_estimate": s,
            "counts": (
                {"m_joint": dict(zip(("pp", "pm", "mp", "mm"), c))} if (include_counts and c is not None) else None
            ),
        }
        for i, (d, s, c) in enumerate(rows)
    ]
