"""Simulation and estimation library for singlet-based direction transfer."""

__version__ = "0.1.0"

from . import bayes, core, protocol, sampler
from .bayes import *  # noqa: F403
from .core import *  # noqa: F403
from .protocol import *  # noqa: F403
from .sampler import *  # noqa: F403

__all__ = ["__version__", *core.__all__, *sampler.__all__, *protocol.__all__, *bayes.__all__]
