"""The four benchmark workloads.

Each workload generates its inputs from the workload seed at set-up, then
serves them one operation at a time:

- ``prepare(i)`` turns input ``i`` into the arguments of one operation
  (untimed; for CLI workloads this writes the config file);
- ``op(*args)`` is the user action that is timed;
- ``check(i, output)`` verifies the output and returns an ``Outcome``
  (untimed).

Operations call the package through module attributes (``protocol.
transfer_direction``, ``cli.main``, ...) so that the tracer's wrappers,
installed at those attributes, see them.  Input pools hold
``max_rate * seconds`` operations, so a program many times faster than
today's still finds fresh inputs for a whole run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import singlet_frame as sf
from singlet_frame import bayes, cli, protocol, sampler, serialize

from .oracles import cos_interval_mass, lsq_direction

LEVEL = 0.95

# |mass - LEVEL| allowed for a credible interval against the Beta oracle:
# a 95% interval must hold between 94.9% and 95.1% of the posterior
MASS_TOL = 1e-3

# poles are tilted off the truth by an angle in this range, so the truth
# lies well inside the prior hemisphere (as in the package's own tests)
POLE_TILT_DEG = (5.0, 60.0)

UNIT_TOL = 1e-12
ORTHONORMAL_TOL = 1e-9


@dataclass
class Outcome:
    """What one checked operation contributes to the run.

    ``invariant_errors`` are properties the output must have exactly; any
    of them fails the op.  ``mass_ok`` holds, per scored credible interval,
    whether its posterior mass agrees with the independent Beta quadrature
    within MASS_TOL; ``oracle_errors`` describes each disagreement.  These
    are accuracy samples like ``angle_errors_deg``, not op failures.
    """

    invariant_errors: list[str] = field(default_factory=list)
    oracle_errors: list[str] = field(default_factory=list)
    angle_errors_deg: list[float] = field(default_factory=list)
    covered: list[bool] = field(default_factory=list)
    mass_ok: list[bool] = field(default_factory=list)
    lsq_errors_deg: list[float] = field(default_factory=list)
    singlets: int = 0
    fingerprint: str = ""


def _angle_deg(u, v) -> float:
    return math.degrees(math.acos(min(1.0, max(-1.0, float(np.dot(u, v))))))


def _relative_angle_error_deg(map_cos: float, c_true: float) -> float:
    return abs(math.degrees(math.acos(min(1.0, max(-1.0, map_cos))) - math.acos(c_true)))


def _unit_vectors(rng, n) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _tangents(rng, v) -> np.ndarray:
    """Random unit vectors perpendicular to the rows of ``v``."""
    t = rng.normal(size=v.shape)
    t -= np.sum(t * v, axis=-1, keepdims=True) * v
    return t / np.linalg.norm(t, axis=-1, keepdims=True)


def _tilted(rng, v) -> np.ndarray:
    """Poles tilted off each row of ``v`` by an angle drawn from POLE_TILT_DEG."""
    tilt = np.radians(rng.uniform(*POLE_TILT_DEG, size=v.shape[:-1]))[..., None]
    return np.cos(tilt) * v + np.sin(tilt) * _tangents(rng, v)


def _polar(v) -> dict:
    return {"theta": math.acos(max(-1.0, min(1.0, float(v[2])))), "phi": math.atan2(float(v[1]), float(v[0]))}


def _seeds(rng, n) -> np.ndarray:
    return rng.integers(0, 2**63, size=n, dtype=np.uint64)


def _score_interval(out: Outcome, n_plus: int, n_minus: int, interval, c_true: float) -> None:
    """Score a 95% interval of a sign tally: coverage of the truth and posterior mass."""
    lo, hi = interval
    out.covered.append(lo <= c_true <= hi)
    mass = cos_interval_mass(n_plus, n_minus, lo, hi)
    out.mass_ok.append(abs(mass - LEVEL) <= MASS_TOL)
    if not out.mass_ok[-1]:
        out.oracle_errors.append(
            f"interval mass off level by more than {MASS_TOL} "
            f"(n_plus={n_plus}, n_minus={n_minus}, interval=({lo!r}, {hi!r}), mass={mass:.6g})"
        )


def _score_tally(out: Outcome, n_plus: int, n_minus: int, c_true: float) -> None:
    """Score the 95% interval the package gives for a sign tally."""
    summary = bayes.posterior_summary(sf.SignTally(n_plus, n_minus), LEVEL)
    _score_interval(out, n_plus, n_minus, summary.credible_interval_cos, c_true)


def _check_transfer(out: Outcome, label: str, *, trials: int, n_trials: int, evaluations: int,
                    rounds: int, singlets: int, batch: int, direction, pole, score: float) -> None:
    errs = out.invariant_errors
    if trials != n_trials:
        errs.append(f"{label}coarse trial count != trials")
    if evaluations != (protocol.RING_SIZE + 1) * rounds:
        errs.append(f"{label}refine_evaluations != 9 * refine_rounds")
    if singlets != (trials + evaluations) * batch:
        errs.append(f"{label}singlets_used != (trials + refine_evaluations) * batch")
    if abs(float(np.linalg.norm(direction)) - 1.0) > UNIT_TOL:
        errs.append(f"{label}direction not unit length")
    if float(np.dot(direction, pole)) < 0.0:
        errs.append(f"{label}direction outside the prior hemisphere")
    if not 0.0 <= score <= 1.0:
        errs.append(f"{label}score outside [0, 1]")


class Workload:
    name = ""
    max_rate = 1.0  # operations per second the input pool allows for

    def __init__(self, seed: int, seconds: float, work_dir: Path, index: int):
        self.rng = np.random.default_rng([seed, index])
        self.pool = int(self.max_rate * seconds) + 4
        self.work_dir = Path(work_dir)

    def accuracy_panel(self) -> list[Outcome]:
        """Extra untimed accuracy samples; none unless a workload needs them."""
        return []


class DirectionWorkload(Workload):
    """Sampled transfer_direction at batch 1e5: per-pair sampling and tallying dominate."""

    name = "direction-1e5"
    max_rate = 200.0

    def __init__(self, seed, seconds, work_dir, trials=50, refine_rounds=3, batch=100_000):
        super().__init__(seed, seconds, work_dir, 1)
        self.trials, self.rounds, self.batch = trials, refine_rounds, batch
        self.truth = _unit_vectors(self.rng, self.pool)
        self.pole = _tilted(self.rng, self.truth)
        self.seeds = _seeds(self.rng, self.pool)

    def prepare(self, i):
        params = sf.ProtocolParams(
            n_trials=self.trials, batch_size=self.batch, refine_rounds=self.rounds,
            prior=sf.HemispherePrior.around(sf.Direction(*self.pole[i])),
            config=sf.SamplerConfig(int(self.seeds[i])), mode="sampled",
        )
        return sf.Direction(*self.truth[i]), params

    def op(self, truth, params):
        return protocol.transfer_direction(truth, params)

    def check(self, i, res) -> Outcome:
        out = Outcome(singlets=res.singlets_used)
        d = res.direction.as_array()
        _check_transfer(out, "", trials=len(res.trials), n_trials=self.trials,
                        evaluations=res.refine_evaluations, rounds=self.rounds,
                        singlets=res.singlets_used, batch=self.batch,
                        direction=d, pole=self.pole[i], score=res.mi_score)
        truth = self.truth[i]
        out.angle_errors_deg.append(_angle_deg(d, truth))
        dirs = np.array([t.direction.as_array() for t in res.trials])
        counts = np.array([[t.counts.m_pp, t.counts.m_pm, t.counts.m_mp, t.counts.m_mm] for t in res.trials])
        out.lsq_errors_deg.append(_angle_deg(lsq_direction(dirs, counts), truth))
        # every coarse trial's tally is scored: one op holds too few
        # intervals for a steady ci_mass_ok_frac otherwise
        for j in range(len(counts)):
            pp, pm, mp, mm = (int(c) for c in counts[j])
            _score_tally(out, pp + mm, pm + mp, float(np.dot(dirs[j], truth)))
        out.fingerprint = repr((tuple(d), res.mi_score, res.singlets_used, res.sign_resolved))
        return out


class FrameWorkload(Workload):
    """`singlet-frame run` of an orthonormalized frame at batch 100, in-process."""

    name = "frame-1e2"
    max_rate = 1000.0

    def __init__(self, seed, seconds, work_dir, trials=50, refine_rounds=3, batch=100):
        super().__init__(seed, seconds, work_dir, 2)
        self.trials, self.rounds, self.batch = trials, refine_rounds, batch
        q, r = np.linalg.qr(self.rng.normal(size=(self.pool, 3, 3)))
        # rows of each frame are its axes; the sign fix makes the draw uniform
        self.frames = np.swapaxes(q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :], 1, 2)
        self.poles = _tilted(self.rng, self.frames)
        self.seeds = _seeds(self.rng, self.pool)
        self.picks = np.column_stack([self.rng.integers(0, 3, self.pool), self.rng.integers(0, trials, self.pool)])
        self.config_path = self.work_dir / "frame_config.json"
        self.report_path = self.work_dir / "frame_report.json"

    def prepare(self, i):
        config = {
            "mode": "sampled",
            "alice_frame": [_polar(axis) for axis in self.frames[i]],
            "trials": self.trials,
            "batch": self.batch,
            "refine_rounds": self.rounds,
            "prior": {"enabled": True, "poles": [_polar(p) for p in self.poles[i]]},
            "seed": int(self.seeds[i]),
            "orthonormalize": True,
        }
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        return (["run", "--config", str(self.config_path), "--out", str(self.report_path)],)

    def op(self, argv):
        return cli.main(argv)

    def check(self, i, code) -> Outcome:
        out = Outcome()
        if code != 0:
            out.invariant_errors.append(f"cli exit code {code}")
            return out
        raw = self.report_path.read_bytes()
        report = json.loads(raw)
        axes = report["result"]["axes"]
        est = np.array([a["direction"] for a in axes])
        if np.max(np.abs(est @ est.T - np.eye(3))) > ORTHONORMAL_TOL:
            out.invariant_errors.append("frame axes not orthonormal within 1e-9")
        for k, axis in enumerate(axes):
            _check_transfer(out, f"axis {k}: ", trials=len(axis["trials"]), n_trials=self.trials,
                            evaluations=axis["refine_evaluations"], rounds=self.rounds,
                            singlets=axis["singlets_used"], batch=self.batch,
                            direction=est[k], pole=self.poles[i][k], score=axis["mi_score"])
            out.singlets += axis["singlets_used"]
            truth = self.frames[i][k]
            out.angle_errors_deg.append(_angle_deg(est[k], truth))
            dirs = np.array([t["direction"] for t in axis["trials"]])
            counts = np.array([[t["counts"]["m_joint"][s] for s in ("pp", "pm", "mp", "mm")] for t in axis["trials"]])
            out.lsq_errors_deg.append(_angle_deg(lsq_direction(dirs, counts), truth))
            if k == self.picks[i][0]:
                pp, pm, mp, mm = (int(c) for c in counts[self.picks[i][1]])
                _score_tally(out, pp + mm, pm + mp, float(np.dot(dirs[self.picks[i][1]], truth)))
        if report["budget"]["singlets_used"] != out.singlets:
            out.invariant_errors.append("budget singlets_used != sum over axes")
        out.fingerprint = hashlib.sha256(raw).hexdigest()
        return out


def _settings_at_cosines(rng, cosines) -> tuple[np.ndarray, np.ndarray]:
    """Setting pairs (x, y) whose relative-angle cosines are ``cosines``."""
    x = _unit_vectors(rng, len(cosines))
    c = cosines[:, None]
    return x, c * x + np.sqrt(1.0 - c * c) * _tangents(rng, x)


class RecordWorkload(Workload):
    """Draw a record, write it as CSV, then `singlet-frame bayes --record` in-process."""

    name = "record-1e5"
    max_rate = 100.0

    def __init__(self, seed, seconds, work_dir, batch=100_000, panel_size=1000):
        super().__init__(seed, seconds, work_dir, 3)
        self.batch = batch
        # untimed in-memory records that join the timed ops in the accuracy
        # metrics: one op yields one angle error, and a run holds too few
        # ops for a steady median of a half-normal error
        self.panel_size = panel_size
        self.cosines = self.rng.uniform(-1.0, 1.0, self.pool)
        self.x, self.y = _settings_at_cosines(self.rng, self.cosines)
        self.seeds = _seeds(self.rng, self.pool)
        self.panel_cosines = self.rng.uniform(-1.0, 1.0, self.panel_size)
        self.panel_x, self.panel_y = _settings_at_cosines(self.rng, self.panel_cosines)
        self.panel_seeds = _seeds(self.rng, self.panel_size)
        self.csv_path = self.work_dir / "record.csv"
        self.summary_path = self.work_dir / "record_summary.json"

    def prepare(self, i):
        return sf.Direction(*self.x[i]), sf.Direction(*self.y[i]), sf.SamplerConfig(int(self.seeds[i]))

    def op(self, x, y, config):
        record = sampler.run_measurement_batch(x, y, self.batch, config)
        serialize.record_to_csv(record, self.csv_path)
        return record, cli.main(["bayes", "--record", str(self.csv_path), "--out", str(self.summary_path)])

    def check(self, i, output) -> Outcome:
        record, code = output
        out = Outcome(singlets=len(record))
        if code != 0:
            out.invariant_errors.append(f"cli exit code {code}")
            return out
        raw = self.summary_path.read_bytes()
        summary = json.loads(raw)
        products = record.a.astype(np.int16) * record.b.astype(np.int16)
        n_plus = int(np.count_nonzero(products == 1))
        if (summary["n_plus"], summary["n_minus"]) != (n_plus, len(record) - n_plus):
            out.invariant_errors.append("summary n_plus/n_minus != in-memory sign tally")
        lo, hi = summary["credible_interval_cos"]
        if not lo <= summary["map_cos_theta"] <= hi:
            out.invariant_errors.append("credible interval does not contain the MAP point")
        c_true = float(self.cosines[i])
        out.angle_errors_deg.append(_relative_angle_error_deg(summary["map_cos_theta"], c_true))
        _score_interval(out, n_plus, len(record) - n_plus, (lo, hi), c_true)
        out.fingerprint = hashlib.sha256(self.csv_path.read_bytes() + raw).hexdigest()
        return out

    def accuracy_panel(self) -> list[Outcome]:
        outcomes = []
        for j in range(self.panel_size):
            x, y = sf.Direction(*self.panel_x[j]), sf.Direction(*self.panel_y[j])
            record = sampler.run_measurement_batch(x, y, self.batch, sf.SamplerConfig(int(self.panel_seeds[j])))
            tally = bayes.sign_tally(record)
            summary = bayes.posterior_summary(tally, LEVEL)
            c_true = float(self.panel_cosines[j])
            out = Outcome(angle_errors_deg=[_relative_angle_error_deg(summary.map_cos_theta, c_true)])
            _score_interval(out, tally.n_plus, tally.n_minus, summary.credible_interval_cos, c_true)
            outcomes.append(out)
        return outcomes


class PosteriorSweepWorkload(Workload):
    """posterior_summary on sign tallies with N log-uniform in [1e1, 1e8]."""

    name = "posterior-sweep"
    max_rate = 5000.0
    # share of tallies drawn at a true cosine of exactly -1 or +1, which
    # makes them one-sided
    one_sided_share = 0.1

    def __init__(self, seed, seconds, work_dir, log10_n=(1.0, 8.0)):
        super().__init__(seed, seconds, work_dir, 4)
        self.n = np.floor(10.0 ** self.rng.uniform(*log10_n, self.pool)).astype(np.int64)
        self.cosines = self.rng.uniform(-1.0, 1.0, self.pool)
        edge = self.rng.random(self.pool) < self.one_sided_share
        self.cosines[edge] = self.rng.choice([-1.0, 1.0], size=int(edge.sum()))
        # a*b = +1 with probability (1 - c) / 2
        self.n_plus = self.rng.binomial(self.n, (1.0 - self.cosines) / 2.0)

    def prepare(self, i):
        n_plus = int(self.n_plus[i])
        return (sf.SignTally(n_plus, int(self.n[i]) - n_plus),)

    def op(self, tally):
        return bayes.posterior_summary(tally, LEVEL)

    def check(self, i, summary) -> Outcome:
        n_plus = int(self.n_plus[i])
        n_minus = int(self.n[i]) - n_plus
        out = Outcome(singlets=int(self.n[i]))
        lo, hi = summary.credible_interval_cos
        if (summary.n_plus, summary.n_minus) != (n_plus, n_minus):
            out.invariant_errors.append("summary counts != input tally")
        if not -1.0 <= lo <= summary.map_cos_theta <= hi <= 1.0:
            out.invariant_errors.append("interval not within [-1, 1] around the MAP point")
        c_true = float(self.cosines[i])
        out.angle_errors_deg.append(_relative_angle_error_deg(summary.map_cos_theta, c_true))
        _score_interval(out, n_plus, n_minus, (lo, hi), c_true)
        out.fingerprint = repr(summary.to_dict())
        return out


WORKLOADS = {w.name: w for w in (DirectionWorkload, FrameWorkload, RecordWorkload, PosteriorSweepWorkload)}
