"""Declarative experiment configuration: JSON schema, validation, canonical form.

A config file is a single JSON object.  Required keys: ``mode`` ("exact"
or "sampled"), exactly one of ``alice_direction`` / ``alice_frame``
(polar angles, radians), ``trials``, ``batch``.  Optional:
``refine_rounds`` (default 3), ``prior`` (default disabled), ``seed``
(required in sampled mode), ``stream`` (default 0), ``jitter_seed``,
``orthonormalize`` (frame runs only), ``out``.

Angles: {"theta": t, "phi": p}.  Prior: {"enabled": bool, "pole": angle}
or, for frame runs, {"enabled": bool, "poles": [angle, angle, angle]}.  A
disabled prior's pole or poles are checked like an enabled one's, then
dropped.

``canonical_dict`` materializes defaults; parsing its output yields an
equal config (round-trip stability).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import UINT64_MAX, Direction, _check_orthonormal, _checked_int, direction_from_polar
from .protocol import HemispherePrior, ProtocolParams
from .sampler import SamplerConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config", "canonical_dict"]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    alice_direction: tuple[float, float] | None
    alice_frame: tuple[tuple[float, float], ...] | None
    trials: int
    batch: int
    refine_rounds: int
    prior_poles: tuple[tuple[float, float], ...] | None  # None: the prior is disabled
    seed: int | None
    stream: int
    jitter_seed: int | None
    orthonormalize: bool
    out: str | None

    @property
    def is_frame(self) -> bool:
        return self.alice_frame is not None

    def truth_direction(self) -> Direction:
        return direction_from_polar(*self.alice_direction)

    def truth_frame(self) -> tuple[Direction, Direction, Direction]:
        return tuple(direction_from_polar(t, p) for t, p in self.alice_frame)

    def priors(self) -> tuple[HemispherePrior, ...]:
        """One prior per target axis (a single one for direction runs)."""
        n = 3 if self.is_frame else 1
        if self.prior_poles is None:
            return (HemispherePrior.none(),) * n
        poles = self.prior_poles
        if len(poles) == 1:
            poles = poles * n
        return tuple(HemispherePrior.around(direction_from_polar(t, p)) for t, p in poles)

    def protocol_params(self) -> ProtocolParams:
        return ProtocolParams(
            n_trials=self.trials,
            batch_size=self.batch,
            refine_rounds=self.refine_rounds,
            prior=self.priors()[0],
            config=SamplerConfig(self.seed, self.stream) if self.mode == "sampled" else None,
            mode=self.mode,
            jitter_seed=self.jitter_seed,
        )


def _angle_pair(value, field: str) -> tuple[float, float]:
    if not isinstance(value, dict) or set(value) != {"theta", "phi"}:
        raise ConfigError(f"field '{field}': expected an object with keys 'theta' and 'phi'")
    out = []
    for key in ("theta", "phi"):
        v = value[key]
        # an exact comparison, so NaN and ints too large for a float fail it too
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
            raise ConfigError(f"field '{field}.{key}': must be a finite number")
        out.append(float(v))
    return tuple(out)


def _field(check, value, field: str, *args):
    """``check(value, name, *args)`` for a core rule, its ValueError re-raised as a ConfigError naming ``field``."""
    try:
        return check(value, f"field '{field}':", *args)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"field '{field}': must be true or false")
    return value


_KNOWN_KEYS = {
    "mode", "alice_direction", "alice_frame", "trials", "batch", "refine_rounds",
    "prior", "seed", "stream", "jitter_seed", "orthonormalize", "out",
}


def parse_config(data) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root: must be a JSON object")
    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"field '{unknown[0]}': unknown key")

    mode = data.get("mode")
    if mode not in ("exact", "sampled"):
        raise ConfigError("field 'mode': must be 'exact' or 'sampled'")

    has_dir = "alice_direction" in data
    has_frame = "alice_frame" in data
    if has_dir == has_frame:
        raise ConfigError("field 'alice_direction': exactly one of 'alice_direction'/'alice_frame' is required")

    alice_direction = _angle_pair(data["alice_direction"], "alice_direction") if has_dir else None
    alice_frame = None
    if has_frame:
        raw = data["alice_frame"]
        if not isinstance(raw, list) or len(raw) != 3:
            raise ConfigError("field 'alice_frame': must be a list of three angle pairs")
        alice_frame = tuple(_angle_pair(v, f"alice_frame[{i}]") for i, v in enumerate(raw))
        _field(_check_orthonormal, [direction_from_polar(t, p) for t, p in alice_frame], "alice_frame")

    for key in ("trials", "batch"):
        if key not in data:
            raise ConfigError(f"field '{key}': required")
    trials = _field(_checked_int, data["trials"], "trials", 1)
    batch = _field(_checked_int, data["batch"], "batch", 1)
    refine_rounds = _field(_checked_int, data.get("refine_rounds", 3), "refine_rounds")

    prior_poles = None
    if "prior" in data:
        prior = data["prior"]
        if not isinstance(prior, dict):
            raise ConfigError("field 'prior': must be an object")
        unknown = sorted(set(prior) - {"enabled", "pole", "poles"})
        if unknown:
            raise ConfigError(f"field 'prior.{unknown[0]}': unknown key")
        enabled = _bool(prior.get("enabled", False), "prior.enabled")
        if "pole" in prior and "poles" in prior:
            raise ConfigError("field 'prior.pole': give either 'pole' or 'poles', not both")
        if "pole" in prior:
            prior_poles = (_angle_pair(prior["pole"], "prior.pole"),)
        elif "poles" in prior:
            raw = prior["poles"]
            if not isinstance(raw, list) or len(raw) != 3:
                raise ConfigError("field 'prior.poles': must be a list of three angle pairs")
            prior_poles = tuple(_angle_pair(v, f"prior.poles[{i}]") for i, v in enumerate(raw))
            if not has_frame:
                raise ConfigError("field 'prior.poles': only valid with 'alice_frame'")
        elif enabled:
            raise ConfigError("field 'prior.pole': required when the prior is enabled")
        if not enabled:  # checked above, then dropped
            prior_poles = None

    seed = data.get("seed")
    if seed is not None:
        seed = _field(_checked_int, seed, "seed", 0, UINT64_MAX)
    elif mode == "sampled":
        raise ConfigError("field 'seed': required when mode='sampled'")

    stream = _field(_checked_int, data.get("stream", 0), "stream", 0, UINT64_MAX)

    jitter_seed = data.get("jitter_seed")
    if jitter_seed is not None:
        jitter_seed = _field(_checked_int, jitter_seed, "jitter_seed", 0, UINT64_MAX)

    orthonormalize = _bool(data.get("orthonormalize", False), "orthonormalize")
    if orthonormalize and not has_frame:
        raise ConfigError("field 'orthonormalize': only valid with 'alice_frame'")

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("field 'out': must be a string path")

    # every local above is named as its field, in field order
    return ExperimentConfig(
        mode, alice_direction, alice_frame, trials, batch, refine_rounds, prior_poles,
        seed, stream, jitter_seed, orthonormalize, out,
    )


def load_config(path) -> ExperimentConfig:
    """Read and parse a config file; a file that cannot be read raises its OSError, which names the file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path}: line {e.lineno}: {e.msg}") from None
    return parse_config(data)


def _angle_dict(pair: tuple[float, float]) -> dict:
    return {"theta": pair[0], "phi": pair[1]}


def canonical_dict(cfg: ExperimentConfig) -> dict:
    """Config as a plain dict with all defaults materialized."""
    out: dict = {"mode": cfg.mode}
    if cfg.alice_direction is not None:
        out["alice_direction"] = _angle_dict(cfg.alice_direction)
    else:
        out["alice_frame"] = [_angle_dict(p) for p in cfg.alice_frame]
    out["trials"] = cfg.trials
    out["batch"] = cfg.batch
    out["refine_rounds"] = cfg.refine_rounds
    prior: dict = {"enabled": cfg.prior_poles is not None}
    if cfg.prior_poles is not None:
        if len(cfg.prior_poles) == 1:
            prior["pole"] = _angle_dict(cfg.prior_poles[0])
        else:
            prior["poles"] = [_angle_dict(p) for p in cfg.prior_poles]
    out["prior"] = prior
    if cfg.seed is not None:
        out["seed"] = cfg.seed
    out["stream"] = cfg.stream
    if cfg.jitter_seed is not None:
        out["jitter_seed"] = cfg.jitter_seed
    out["orthonormalize"] = cfg.orthonormalize
    if cfg.out is not None:
        out["out"] = cfg.out
    return out
