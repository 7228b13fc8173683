"""Command-line harness: figure data, protocol runs, posterior summaries.

Subcommands
-----------
mi-curve          closed-form mutual information vs relative angle, CSV
mi-surface        mutual information over one party's polar angles, CSV
posterior-family  angle-form posterior curves for a list of sign tallies, CSV
run               execute a direction/frame transfer from a config file, JSON report
bayes             posterior summary for a tally or a recorded outcome file, JSON

Exit codes: 0 success, 1 validation, 2 runtime, 3 I/O.  Reports carry no
timestamps (timing goes to a ``.log`` sidecar) so identical inputs yield
byte-identical outputs.  When ``--out`` is omitted, files land in
``$SINGLET_FRAME_OUT_DIR`` (default: current directory) under a
per-command default name.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import SignTally, posterior_summary, posterior_theta_density, sign_tally_from_arrays
from .config import ConfigError, ExperimentConfig, canonical_dict, load_config
from .core import analytic_mutual_information, cos_angle
from .protocol import FrameEstimate, TransferResult, transfer_direction, transfer_frame
from .serialize import format_float, read_record_arrays_csv, write_csv_atomic, write_json_atomic

OUT_DIR_ENV = "SINGLET_FRAME_OUT_DIR"

_DEFAULT_OUT = {
    "mi-curve": "mi_curve.csv",
    "mi-surface": "mi_surface.csv",
    "posterior-family": "posterior_family.csv",
    "run": "run_report.json",
    "bayes": "posterior_summary.json",
}


@dataclass(frozen=True)
class RunReport:
    """Everything a transfer run produced.  ``wall_time_s`` is excluded from
    the serialized report (it goes to the sidecar log) so reports are
    byte-identical across reruns."""

    config_echo: dict
    result: dict
    budget: dict
    wall_time_s: float

    def report_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "result": self.result,
            "budget": self.budget,
            "version": __version__,
        }


def cmd_mi_curve(resolution: int, out_path) -> None:
    """CSV of (theta, mi_bits) over [0, pi], endpoints included."""
    if resolution < 2:
        raise ConfigError("field 'resolution': must be >= 2")
    thetas = np.linspace(0.0, math.pi, resolution)
    values = analytic_mutual_information(np.cos(thetas))
    rows = ((format_float(t), format_float(v)) for t, v in zip(thetas, values))
    write_csv_atomic(out_path, ["theta", "mi_bits"], rows)


def cmd_mi_surface(theta_x: float, phi_x: float, resolution: int, out_path) -> None:
    """CSV of (theta_y, phi_y, mi_bits) over the sphere of the searching party.

    ``resolution`` polar rows on [0, pi] and twice as many azimuth columns
    on [0, 2*pi).  The cosine is formed from the polar-angle expansion and
    the two maxima sit at the fixed direction and its antipode.
    """
    if resolution < 2:
        raise ConfigError("field 'resolution': must be >= 2")
    thetas = np.linspace(0.0, math.pi, resolution)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
    st, ct = np.sin(thetas), np.cos(thetas)
    sp, cp = np.sin(phis), np.cos(phis)
    sx, cx = math.sin(theta_x), math.cos(theta_x)
    spx, cpx = math.sin(phi_x), math.cos(phi_x)
    # cos(angle) = sin tx cos px sin ty cos py + sin tx sin px sin ty sin py + cos tx cos ty
    cosines = (
        sx * cpx * np.outer(st, cp)
        + sx * spx * np.outer(st, sp)
        + cx * ct[:, None]
    )
    values = analytic_mutual_information(cosines)
    rows = (
        (format_float(thetas[i]), format_float(phis[j]), format_float(values[i, j]))
        for i in range(thetas.size)
        for j in range(phis.size)
    )
    write_csv_atomic(out_path, ["theta_y", "phi_y", "mi_bits"], rows)


def cmd_posterior_family(tallies: list[SignTally], out_path, resolution: int = 2001) -> None:
    """CSV of angle-form posterior curves, one block of rows per tally."""
    if not tallies:
        raise ConfigError("field 'tally': at least one tally is required")
    if resolution < 2:
        raise ConfigError("field 'resolution': must be >= 2")
    thetas = np.linspace(-math.pi, math.pi, resolution)

    def rows():
        for t in tallies:
            dens = posterior_theta_density(thetas, t)
            for th, d in zip(thetas, dens):
                yield (t.n_plus, t.n_minus, format_float(th), format_float(d))

    write_csv_atomic(out_path, ["n_plus", "n_minus", "theta", "density"], rows())


def _direction_result(res: TransferResult, truth, include_counts: bool) -> dict:
    est = res.direction
    dot = cos_angle(est, truth)
    out = {
        "direction": [est.x, est.y, est.z],
        "mi_score": res.mi_score,
        "sign_resolved": res.sign_resolved,
        "error": {
            "angle_to_truth_rad": math.acos(dot),
            "angle_up_to_sign_rad": math.acos(abs(dot)),
        },
        "trials": [
            {
                "trial_index": t.trial_index,
                "direction": [t.direction.x, t.direction.y, t.direction.z],
                "mi_estimate": t.mi_estimate,
                "counts": t.counts.to_dict() if (include_counts and t.counts is not None) else None,
            }
            for t in res.trials
        ],
        "refine_evaluations": res.refine_evaluations,
        "singlets_used": res.singlets_used,
    }
    return out


def cmd_run(cfg: ExperimentConfig, out_path, include_counts: bool = True) -> RunReport:
    """Execute the configured transfer and write the JSON report."""
    started = time.perf_counter()
    params = cfg.protocol_params()
    if cfg.is_frame:
        frame: FrameEstimate = transfer_frame(
            cfg.truth_frame(), params,
            orthonormalize=cfg.orthonormalize, priors=cfg.priors(),
        )
        truth = cfg.truth_frame()
        result = {
            "kind": "frame",
            "orthonormalized": frame.orthonormalized,
            "axes": [
                {
                    **_direction_result(frame.axis_results[k], truth[k], include_counts),
                    "direction": [frame.axes[k].x, frame.axes[k].y, frame.axes[k].z],
                    "axis_index": k,
                }
                for k in range(3)
            ],
        }
        singlets = sum(r.singlets_used for r in frame.axis_results)
    else:
        res = transfer_direction(cfg.truth_direction(), params)
        result = {"kind": "direction", **_direction_result(res, cfg.truth_direction(), include_counts)}
        singlets = res.singlets_used
    report = RunReport(
        config_echo=canonical_dict(cfg),
        result=result,
        budget={"singlets_used": singlets, "batch_size": cfg.batch, "coarse_trials": cfg.trials},
        wall_time_s=time.perf_counter() - started,
    )
    write_json_atomic(out_path, report.report_dict())
    sidecar = Path(str(out_path) + ".log")
    sidecar.write_text(f"wall_time_s: {report.wall_time_s:.6f}\n", encoding="utf-8")
    return report


def cmd_bayes(tally: SignTally, level: float, out_path) -> None:
    """Write the posterior summary JSON for a sign tally."""
    if not 0.0 < level < 1.0:
        raise ConfigError("field 'level': must lie strictly in (0, 1)")
    summary = posterior_summary(tally, level=level)
    write_json_atomic(out_path, summary.to_dict())


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _parse_tally(text: str) -> SignTally:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"field 'tally': expected 'N_PLUS,N_MINUS', got {text!r}")
    try:
        n_plus, n_minus = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"field 'tally': counts must be integers, got {text!r}") from None
    try:
        return SignTally(n_plus, n_minus)
    except ValueError as e:
        raise ConfigError(f"field 'tally': {e}") from None


def _resolve_out(arg_out, command: str) -> Path:
    if arg_out is not None:
        return Path(arg_out)
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / _DEFAULT_OUT[command]


def build_parser() -> _Parser:
    parser = _Parser(prog="singlet-frame", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mi-curve", help="mutual information vs relative angle (CSV)")
    p.add_argument("--resolution", type=int, default=1801, help="number of rows incl. endpoints")
    p.add_argument("--out", default=None, help="output CSV path")

    p = sub.add_parser("mi-surface", help="mutual information over the search sphere (CSV)")
    p.add_argument("--theta-x", type=float, default=1.5, help="fixed direction polar angle")
    p.add_argument("--phi-x", type=float, default=2.1, help="fixed direction azimuth")
    p.add_argument("--resolution", type=int, default=181, help="polar rows (azimuth columns = 2x)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("posterior-family", help="angle-form posterior curves (CSV)")
    p.add_argument("--tally", action="append", required=True, metavar="N_PLUS,N_MINUS")
    p.add_argument("--resolution", type=int, default=2001, help="angle grid points on [-pi, pi]")
    p.add_argument("--out", default=None)

    p = sub.add_parser("run", help="execute a transfer described by a config file")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--mode", choices=("exact", "sampled"), default=None, help="override the config mode")
    p.add_argument("--out", default=None, help="report path (overrides config 'out')")
    p.add_argument("--no-counts", action="store_true", help="omit per-trial count tables from the report")

    p = sub.add_parser("bayes", help="posterior summary for a tally or record file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--tally", metavar="N_PLUS,N_MINUS")
    g.add_argument("--record", help="outcome CSV (header index,a,b)")
    p.add_argument("--level", type=float, default=0.95, help="credible level in (0, 1)")
    p.add_argument("--out", default=None)

    return parser


def _dispatch(args) -> int:
    if args.command == "mi-curve":
        cmd_mi_curve(args.resolution, _resolve_out(args.out, "mi-curve"))
    elif args.command == "mi-surface":
        cmd_mi_surface(args.theta_x, args.phi_x, args.resolution, _resolve_out(args.out, "mi-surface"))
    elif args.command == "posterior-family":
        tallies = [_parse_tally(t) for t in args.tally]
        cmd_posterior_family(tallies, _resolve_out(args.out, "posterior-family"), args.resolution)
    elif args.command == "run":
        cfg = load_config(args.config)
        overrides = {}
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("field 'seed': must be an integer in [0, 2**64)")
            overrides["seed"] = args.seed
        if args.mode is not None:
            overrides["mode"] = args.mode
        if overrides:
            cfg = replace(cfg, **overrides)
            if cfg.mode == "sampled" and cfg.seed is None:
                raise ConfigError("field 'seed': required when mode='sampled'")
        out = Path(args.out) if args.out else (Path(cfg.out) if cfg.out else _resolve_out(None, "run"))
        cmd_run(cfg, out, include_counts=not args.no_counts)
    elif args.command == "bayes":
        if args.tally is not None:
            tally = _parse_tally(args.tally)
        else:
            a, b = read_record_arrays_csv(args.record)
            tally = sign_tally_from_arrays(a, b)
        cmd_bayes(tally, args.level, _resolve_out(args.out, "bayes"))
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigError(f"unknown command {args.command!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except ValueError as e:  # ConfigError, ParseError and the library's DomainError included
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
