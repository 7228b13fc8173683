"""Command-line harness: figure data, protocol runs, posterior summaries.

``mi-curve``, ``mi-surface`` and ``posterior-family`` write the paper's
figure data as CSV, ``run`` a transfer's JSON report and ``bayes`` a
posterior summary as JSON.  Each subcommand is declared once, on its
subparser in ``build_parser``: its options, its default file name and
its handler, which looks its ``cmd_*`` function up when it runs.

Exit codes: 0 success, 1 validation, 2 runtime, 3 I/O.  Reports carry no
timestamps (timing goes to a ``.log`` sidecar) so identical inputs yield
byte-identical outputs.  When ``--out`` is omitted, files land in
``$SINGLET_FRAME_OUT_DIR`` (default: current directory) under the
command's default name; ``run`` first takes the config's ``out``.  An
empty path is a validation error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import SignTally, posterior_summary, posterior_theta_density, sign_tally_from_arrays
from .config import ConfigError, _field, axis_priors, load_config, parse_config, protocol_params, target_axes
from .core import _checked_int, analytic_mutual_information, cos_angle, direction_from_polar
from .protocol import TransferResult, transfer_direction, transfer_frame
from .serialize import format_float, read_record_arrays_csv, write_csv_atomic, write_json_atomic, write_text_atomic

OUT_DIR_ENV = "SINGLET_FRAME_OUT_DIR"


def _write_float_columns(out_path, header: list[str], *columns) -> None:
    """CSV of equal-size float arrays, one column each, every array read in C order."""
    rows = zip(*(np.ravel(c).tolist() for c in columns))
    write_csv_atomic(out_path, header, (tuple(map(format_float, row)) for row in rows))


def cmd_mi_curve(resolution: int, out_path) -> None:
    """CSV of (theta, mi_bits) over [0, pi], endpoints included."""
    _field(_checked_int, resolution, "resolution", 2)
    thetas = np.linspace(0.0, math.pi, resolution)
    _write_float_columns(out_path, ["theta", "mi_bits"], thetas, analytic_mutual_information(np.cos(thetas)))


def cmd_mi_surface(theta_x: float, phi_x: float, resolution: int, out_path) -> None:
    """CSV of (theta_y, phi_y, mi_bits) over the sphere of the searching party.

    ``resolution`` polar rows on [0, pi] and twice as many azimuth columns
    on [0, 2*pi).  The fixed direction is ``direction_from_polar(theta_x,
    phi_x)``; the two maxima sit at it and at its antipode.
    """
    _field(_checked_int, resolution, "resolution", 2)
    thetas = np.linspace(0.0, math.pi, resolution)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
    st, ct = np.sin(thetas), np.cos(thetas)
    sp, cp = np.sin(phis), np.cos(phis)
    x = direction_from_polar(theta_x, phi_x)
    # cos(angle) = x . (sin ty cos py, sin ty sin py, cos ty)
    cosines = x.x * np.outer(st, cp) + x.y * np.outer(st, sp) + x.z * ct[:, None]
    grid = np.meshgrid(thetas, phis, indexing="ij")
    _write_float_columns(out_path, ["theta_y", "phi_y", "mi_bits"], *grid, analytic_mutual_information(cosines))


def cmd_posterior_family(tallies: list[SignTally], out_path, resolution: int = 2001) -> None:
    """CSV of angle-form posterior curves, one block of rows per tally."""
    if not tallies:
        raise ConfigError("field 'tally': at least one tally is required")
    _field(_checked_int, resolution, "resolution", 2)
    thetas = np.linspace(-math.pi, math.pi, resolution)
    rows = (
        (t.n_plus, t.n_minus, format_float(th), format_float(d))
        for t in tallies
        for th, d in zip(thetas.tolist(), posterior_theta_density(thetas, t).tolist())
    )
    write_csv_atomic(out_path, ["n_plus", "n_minus", "theta", "density"], rows)


def _direction_result(res: TransferResult, est, truth) -> dict:
    """One transfer's part of the report, with ``est`` as its reported direction and the error measured on it.

    ``write_json_atomic`` fills ``trials`` from the transfer's coarse rows.
    """
    dot = cos_angle(est, truth)
    return {
        "direction": [est.x, est.y, est.z],
        "mi_score": res.mi_score,
        "sign_resolved": res.sign_resolved,
        "error": {
            "angle_to_truth_rad": math.acos(dot),
            "angle_up_to_sign_rad": math.acos(abs(dot)),
        },
        "trials": None,
        "refine_evaluations": res.refine_evaluations,
        "singlets_used": res.singlets_used,
    }


def cmd_run(cfg: dict, out_path, include_counts: bool = True) -> None:
    """Execute the transfer of a parsed config (``parse_config``) and write the JSON report.

    The wall time goes to the ``.log`` sidecar, not the report, so reports
    are byte-identical across reruns.
    """
    started = time.perf_counter()
    params = protocol_params(cfg)
    truth = target_axes(cfg)
    if "alice_frame" in cfg:
        frame = transfer_frame(truth, params, orthonormalize=cfg["orthonormalize"], priors=axis_priors(cfg))
        transfers = frame.axis_results
        result = {
            "kind": "frame",
            "orthonormalized": frame.orthonormalized,
            "axes": [{**_direction_result(transfers[k], frame.axes[k], truth[k]), "axis_index": k} for k in range(3)],
        }
    else:
        transfers = (transfer_direction(truth[0], params),)
        result = {"kind": "direction", **_direction_result(transfers[0], transfers[0].direction, truth[0])}
    report = {
        "config": cfg,
        "result": result,
        "budget": {
            "singlets_used": sum(r.singlets_used for r in transfers),
            "batch_size": cfg["batch"],
            "coarse_trials": cfg["trials"],
        },
        "version": __version__,
    }
    wall_time_s = time.perf_counter() - started
    # the "trials" entries are written in axis order
    write_json_atomic(
        out_path, report, [(r.coarse_rows(), include_counts and r.counts is not None) for r in transfers],
    )
    write_text_atomic(str(out_path) + ".log", f"wall_time_s: {wall_time_s:.6f}\n")


def cmd_bayes(tally: SignTally, level: float, out_path) -> None:
    """Write the posterior summary JSON for a sign tally; ``credible_interval`` checks ``level``."""
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


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parse_args keeps no state in it."""
    parser = _Parser(prog="singlet-frame", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (for run, overrides the config's 'out')")

    p = sub.add_parser("mi-curve", parents=[common], help="mutual information vs relative angle (CSV)")
    p.add_argument("--resolution", type=int, default=1801, help="number of rows incl. endpoints")
    p.set_defaults(default_out="mi_curve.csv", handler=lambda a, cfg, out: cmd_mi_curve(a.resolution, out))

    p = sub.add_parser("mi-surface", parents=[common], help="mutual information over the search sphere (CSV)")
    p.add_argument("--theta-x", type=float, default=1.5, help="fixed direction polar angle")
    p.add_argument("--phi-x", type=float, default=2.1, help="fixed direction azimuth")
    p.add_argument("--resolution", type=int, default=181, help="polar rows (azimuth columns = 2x)")
    p.set_defaults(default_out="mi_surface.csv", handler=lambda a, cfg, out: cmd_mi_surface(
        a.theta_x, a.phi_x, a.resolution, out))

    p = sub.add_parser("posterior-family", parents=[common], help="angle-form posterior curves (CSV)")
    p.add_argument("--tally", action="append", required=True, metavar="N_PLUS,N_MINUS")
    p.add_argument("--resolution", type=int, default=2001, help="angle grid points on [-pi, pi]")
    p.set_defaults(default_out="posterior_family.csv", handler=lambda a, cfg, out: cmd_posterior_family(
        [_parse_tally(t) for t in a.tally], out, a.resolution))

    p = sub.add_parser("run", parents=[common], help="execute a transfer described by a config file")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--mode", choices=("exact", "sampled"), default=None, help="override the config mode")
    p.add_argument("--no-counts", action="store_true", help="omit per-trial count tables from the report")
    p.set_defaults(default_out="run_report.json", handler=lambda a, cfg, out: cmd_run(
        cfg, out, include_counts=not a.no_counts))

    p = sub.add_parser("bayes", parents=[common], help="posterior summary for a tally or record file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--tally", metavar="N_PLUS,N_MINUS")
    g.add_argument("--record", help="outcome CSV (header a,b)")
    p.add_argument("--level", type=float, default=0.95, help="credible level in (0, 1)")
    p.set_defaults(default_out="posterior_summary.json", handler=lambda a, cfg, out: cmd_bayes(
        _parse_tally(a.tally) if a.tally is not None else sign_tally_from_arrays(*read_record_arrays_csv(a.record)),
        a.level, out))

    return parser


def _dispatch(args) -> int:
    cfg = {}
    if args.command == "run":
        cfg = load_config(args.config)
        overrides = {k: v for k, v in (("seed", args.seed), ("mode", args.mode)) if v is not None}
        if overrides:
            cfg = parse_config({**cfg, **overrides})
    out = args.out if args.out is not None else cfg.get("out")
    if out == "":
        raise ConfigError("field 'out': must not be empty")
    out = Path(os.environ.get(OUT_DIR_ENV, ".")) / args.default_out if out is None else Path(out)
    args.handler(args, cfg, out)
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
