"""Declarative experiment configuration: JSON schema, validation, canonical form.

A config file is a single JSON object.  Required keys: ``mode`` ("exact"
or "sampled"), exactly one of ``alice_direction`` / ``alice_frame``
(polar angles, radians), ``trials``, ``batch``.  Optional:
``refine_rounds`` (default 3), ``prior`` (default disabled), ``seed``
(required in sampled mode), ``stream`` (default 0), ``jitter_seed``,
``orthonormalize`` (default false; frame runs only), ``out``.

Angles: {"theta": t, "phi": p}.  Prior: {"enabled": bool, "pole": angle}
or, for frame runs, {"enabled": bool, "poles": [angle, angle, angle]}.  A
disabled prior's pole or poles are checked like an enabled one's, then
dropped.

``parse_config`` returns the config as a new dict in canonical form, the
form a run report echoes.  ``target_axes``, ``axis_priors`` and
``protocol_params`` read the run's inputs from that dict.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .core import UINT64_MAX, Direction, _check_orthonormal, _checked_int, direction_from_polar
from .protocol import HemispherePrior, ProtocolParams
from .sampler import SamplerConfig

__all__ = ["ConfigError", "parse_config", "load_config", "target_axes", "axis_priors", "protocol_params"]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _angle(value, field: str) -> dict:
    if not isinstance(value, dict) or set(value) != {"theta", "phi"}:
        raise ConfigError(f"field '{field}': expected an object with keys 'theta' and 'phi'")
    out = {}
    for key in ("theta", "phi"):
        v = value[key]
        # an exact comparison, so NaN and ints too large for a float fail it too
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
            raise ConfigError(f"field '{field}.{key}': must be a finite number")
        out[key] = float(v)
    return out


def _direction(angle: dict) -> Direction:
    return direction_from_polar(angle["theta"], angle["phi"])


def _angles(value, field: str) -> list[dict]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"field '{field}': must be a list of three angle pairs")
    return [_angle(v, f"{field}[{i}]") for i, v in enumerate(value)]


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


def parse_config(data) -> dict:
    """Validate a config and return it in canonical form, as a new dict that shares no dict or list with ``data``.

    Every default is filled in, null or absent optional keys are left out,
    angles are {"theta", "phi"} floats and a disabled prior is
    {"enabled": false}; parsing the result again gives an equal dict.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root: must be a JSON object")
    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"field '{unknown[0]}': unknown key")

    mode = data.get("mode")
    if mode not in ("exact", "sampled"):
        raise ConfigError("field 'mode': must be 'exact' or 'sampled'")
    cfg = {"mode": mode}

    is_frame = "alice_frame" in data
    if is_frame == ("alice_direction" in data):
        raise ConfigError("field 'alice_direction': exactly one of 'alice_direction'/'alice_frame' is required")
    if is_frame:
        cfg["alice_frame"] = _angles(data["alice_frame"], "alice_frame")
        _field(_check_orthonormal, target_axes(cfg), "alice_frame")
    else:
        cfg["alice_direction"] = _angle(data["alice_direction"], "alice_direction")

    for key in ("trials", "batch"):
        if key not in data:
            raise ConfigError(f"field '{key}': required")
    cfg["trials"] = _field(_checked_int, data["trials"], "trials", 1)
    cfg["batch"] = _field(_checked_int, data["batch"], "batch", 1)
    cfg["refine_rounds"] = _field(_checked_int, data.get("refine_rounds", 3), "refine_rounds")

    cfg["prior"] = {"enabled": False}
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
            key, poles = "pole", _angle(prior["pole"], "prior.pole")
        elif "poles" in prior:
            key, poles = "poles", _angles(prior["poles"], "prior.poles")
            if not is_frame:
                raise ConfigError("field 'prior.poles': only valid with 'alice_frame'")
        elif enabled:
            raise ConfigError("field 'prior.pole': required when the prior is enabled")
        if enabled:  # a disabled prior's poles are checked above, then dropped
            cfg["prior"] = {"enabled": True, key: poles}

    if data.get("seed") is not None:
        cfg["seed"] = _field(_checked_int, data["seed"], "seed", 0, UINT64_MAX)
    elif mode == "sampled":
        raise ConfigError("field 'seed': required when mode='sampled'")

    cfg["stream"] = _field(_checked_int, data.get("stream", 0), "stream", 0, UINT64_MAX)

    if data.get("jitter_seed") is not None:
        cfg["jitter_seed"] = _field(_checked_int, data["jitter_seed"], "jitter_seed", 0, UINT64_MAX)

    cfg["orthonormalize"] = _bool(data.get("orthonormalize", False), "orthonormalize")
    if cfg["orthonormalize"] and not is_frame:
        raise ConfigError("field 'orthonormalize': only valid with 'alice_frame'")

    out = data.get("out")
    if out is not None:
        if not isinstance(out, str):
            raise ConfigError("field 'out': must be a string path")
        if not out:
            raise ConfigError("field 'out': must not be empty")
        cfg["out"] = out
    return cfg


def load_config(path) -> dict:
    """Read and parse a config file; a file that cannot be read raises its OSError, which names the file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path}: line {e.lineno}: {e.msg}") from None
    return parse_config(data)


def target_axes(cfg: dict) -> tuple[Direction, ...]:
    """The axes a parsed config transfers: ``alice_direction``, or the three of ``alice_frame``."""
    if "alice_frame" in cfg:
        return tuple(map(_direction, cfg["alice_frame"]))
    return (_direction(cfg["alice_direction"]),)


def axis_priors(cfg: dict) -> tuple[HemispherePrior, ...]:
    """One prior per target axis of a parsed config."""
    prior = cfg["prior"]
    n = 3 if "alice_frame" in cfg else 1
    if not prior["enabled"]:
        return (HemispherePrior(None),) * n
    poles = prior["poles"] if "poles" in prior else (prior["pole"],) * n
    return tuple(HemispherePrior(_direction(p)) for p in poles)


def protocol_params(cfg: dict) -> ProtocolParams:
    """The transfer knobs of a parsed config, with the first axis's prior."""
    return ProtocolParams(
        cfg["trials"], cfg["batch"], cfg["refine_rounds"], axis_priors(cfg)[0],
        config=SamplerConfig(cfg["seed"], cfg["stream"]) if cfg["mode"] == "sampled" else None,
        mode=cfg["mode"], jitter_seed=cfg.get("jitter_seed"),
    )
