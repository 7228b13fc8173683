import csv
import hashlib
import inspect
import itertools
import json
import math

import numpy as np
import pytest

from conftest import first_difference, reference_trials
from singlet_frame import Direction, __version__, cos_angle, transfer_direction, transfer_frame
from singlet_frame import cli
from singlet_frame.cli import build_parser, main
from singlet_frame.bayes import SignTally
from singlet_frame.config import axis_priors, load_config, parse_config, protocol_params, target_axes
from singlet_frame.core import CountTable

TRUTH_THETA, TRUTH_PHI = 1.5, 2.1


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    return header, rows


def _run(argv):
    return main(argv)


class TestMiCurve:
    def test_endpoints_and_midpoint(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert _run(["mi-curve", "--resolution", "1801", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["theta", "mi_bits"]
        assert len(rows) == 1801
        assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 1.0
        assert float(rows[-1][0]) == pytest.approx(math.pi) and float(rows[-1][1]) == 1.0
        mid = rows[900]
        assert float(mid[0]) == pytest.approx(math.pi / 2.0)
        assert abs(float(mid[1])) < 1e-16

    def test_symmetric_about_midpoint(self, tmp_path):
        out = tmp_path / "curve.csv"
        _run(["mi-curve", "--resolution", "401", "--out", str(out)])
        _, rows = _read_csv(out)
        vals = [float(r[1]) for r in rows]
        for i in range(len(vals)):
            assert vals[i] == pytest.approx(vals[-1 - i], abs=1e-12)

    def test_rerun_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(["mi-curve", "--resolution", "101", "--out", str(p1)])
        _run(["mi-curve", "--resolution", "101", "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_resolution_exits_1(self, tmp_path, capsys):
        assert _run(["mi-curve", "--resolution", "1", "--out", str(tmp_path / "x.csv")]) == 1
        assert "resolution" in capsys.readouterr().err

    def test_default_curve_pinned(self, tmp_path):
        # regression pin for the bytes of the curve at its default resolution
        out = tmp_path / "curve.csv"
        assert _run(["mi-curve", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "c135ba168d0431ae25808c0d97017aaed9f68e9324e9d477f144ef4fde676551"


@pytest.fixture(scope="module")
def surface(tmp_path_factory):
    out = tmp_path_factory.mktemp("surf") / "surface.csv"
    assert _run(["mi-surface", "--resolution", "121", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["theta_y", "phi_y", "mi_bits"]
    thetas = sorted({float(r[0]) for r in rows})
    phis = sorted({float(r[1]) for r in rows})
    vals = np.array([float(r[2]) for r in rows]).reshape(len(thetas), len(phis))
    return np.array(thetas), np.array(phis), vals, rows


class TestMiSurface:
    def test_peak_value_near_one(self, surface):
        _, _, vals, _ = surface
        assert vals.max() > 0.99

    def test_exactly_two_local_maxima_at_antipodal_pair(self, surface):
        thetas, phis, vals, _ = surface
        n_t, n_p = vals.shape
        maxima = []
        for i in range(n_t):
            for j in range(n_p):
                v = vals[i, j]
                neighbors = []
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        if di == 0 and dj == 0:
                            continue
                        ii = i + di
                        if ii < 0 or ii >= n_t:
                            continue
                        neighbors.append(vals[ii, (j + dj) % n_p])
                if all(v > nb for nb in neighbors):
                    maxima.append((thetas[i], phis[j]))
        assert len(maxima) == 2
        expected = {
            (TRUTH_THETA, TRUTH_PHI),
            (math.pi - TRUTH_THETA, (TRUTH_PHI + math.pi) % (2.0 * math.pi)),
        }
        step_t = thetas[1] - thetas[0]
        step_p = phis[1] - phis[0]
        for exp_t, exp_p in expected:
            assert any(
                abs(mt - exp_t) <= 1.5 * step_t and abs(mp - exp_p) <= 1.5 * step_p
                for mt, mp in maxima
            )

    def test_rows_match_direct_evaluation(self, surface, rng):
        from singlet_frame import analytic_mutual_information, cos_angle, direction_from_polar

        _, _, _, rows = surface
        x0 = direction_from_polar(TRUTH_THETA, TRUTH_PHI)
        for idx in rng.choice(len(rows), size=100, replace=False):
            t, p, v = (float(s) for s in rows[idx])
            expected = analytic_mutual_information(cos_angle(x0, direction_from_polar(t, p)))
            assert v == pytest.approx(expected, abs=1e-12)

    def test_nan_angle_exits_1(self, tmp_path, capsys):
        # the library's DomainError is a validation error, not a runtime error
        assert _run(["mi-surface", "--theta-x", "nan", "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("angle, phi", [("inf", "2.1"), ("nan", "2.1"), ("1.5", "-inf")])
    def test_non_finite_angle_names_both_angles(self, tmp_path, capsys, angle, phi):
        out = tmp_path / "s.csv"
        assert _run(["mi-surface", f"--theta-x={angle}", f"--phi-x={phi}", "--out", str(out)]) == 1
        theta_text, phi_text = repr(float(angle)), repr(float(phi))
        err = capsys.readouterr().err
        assert err == f"error: polar angles must be finite, got theta={theta_text}, phi={phi_text}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "angles, digest",
        [
            ([], "262faa15a1bddd97319b01f34f7ffc9aa3d290d9bd4af87bc0c66c88a1b5cf77"),
            (["--theta-x=0.3", "--phi-x=-4.0"], "85803b9c31a743b0954aa79c804af86fbff53f146429f0b3f11d8ebbd2ab2b53"),
            (["--theta-x=3.1", "--phi-x=5.5"], "e1ae1061868f4631d81d30cd02200317f35d407d62aed80e8769502ab71b2f5e"),
            (["--theta-x=0", "--phi-x=0"], "1148b64005780240997006ba6158f5ae7ccbf9c4803dea183775ab6d10f02c26"),
        ],
    )
    def test_surface_pinned(self, tmp_path, angles, digest):
        # regression pin for the surface's bytes at four fixed directions
        out = tmp_path / "s.csv"
        assert _run(["mi-surface", *angles, "--resolution", "61", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def family(tmp_path_factory):
    out = tmp_path_factory.mktemp("fam") / "family.csv"
    code = _run([
        "posterior-family",
        "--tally", "5,6", "--tally", "10,12", "--tally", "20,24", "--tally", "40,48",
        "--resolution", "4001",
        "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["n_plus", "n_minus", "theta", "density"]
    curves = {}
    for npl, nmi, theta, dens in rows:
        curves.setdefault((int(npl), int(nmi)), []).append((float(theta), float(dens)))
    return curves


class TestPosteriorFamily:
    def _fwhm(self, curve):
        thetas = np.array([t for t, _ in curve])
        dens = np.array([d for _, d in curve])
        pos = thetas > 0
        t_pos, d_pos = thetas[pos], dens[pos]
        peak = int(np.argmax(d_pos))
        half = d_pos[peak] / 2.0
        left = peak
        while left > 0 and d_pos[left] >= half:
            left -= 1
        right = peak
        while right < len(d_pos) - 1 and d_pos[right] >= half:
            right += 1
        return t_pos[right] - t_pos[left], d_pos[peak], t_pos[peak]

    def test_heights_increase_and_widths_shrink(self, family):
        order = [(5, 6), (10, 12), (20, 24), (40, 48)]
        stats = [self._fwhm(family[key]) for key in order]
        widths = [s[0] for s in stats]
        heights = [s[1] for s in stats]
        assert widths == sorted(widths, reverse=True) and len(set(widths)) == 4
        assert heights == sorted(heights) and len(set(heights)) == 4

    def test_peaks_at_reference_angle(self, family):
        target = math.acos(1.0 / 11.0)
        step = 2.0 * math.pi / 4000
        for key, curve in family.items():
            _, _, t_peak = self._fwhm(curve)
            assert abs(t_peak - target) <= step
            neg = [(t, d) for t, d in curve if t < 0]
            t_neg = min(neg, key=lambda td: -td[1])[0]
            assert abs(t_neg + target) <= step

    def test_curves_even(self, family):
        # the theta grid is index-symmetric about 0
        for curve in family.values():
            for (t, d), (t2, d2) in zip(curve, reversed(curve)):
                assert t == pytest.approx(-t2, abs=1e-12)
                assert d == pytest.approx(d2, rel=1e-9, abs=1e-300)

    def test_bad_tally_exits_1(self, tmp_path, capsys):
        assert _run(["posterior-family", "--tally", "5", "--out", str(tmp_path / "x.csv")]) == 1
        assert "tally" in capsys.readouterr().err

    def test_family_pinned(self, tmp_path):
        # regression pin for the bytes of three curves; the counts of the
        # 1e17 tally are written as integers, not in the floats' %.17g form
        out = tmp_path / "family.csv"
        tallies = ["--tally", "5,6", "--tally", "0,100", "--tally", "100000000000000000,3"]
        assert _run(["posterior-family", *tallies, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1].startswith("100000000000000000,3,")
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "8974b53174658dfb79e274744645fe0ef35f84e57c5ed2eeaf60c3c72cc98b40"


class TestBayesCommand:
    def test_inline_tally_reference(self, tmp_path):
        out = tmp_path / "s.json"
        assert _run(["bayes", "--tally", "5,6", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["map_cos_theta"] == 1.0 / 11.0
        assert data["credible_level"] == 0.95
        lo, hi = data["credible_interval_cos"]
        assert lo <= data["map_cos_theta"] <= hi
        assert data["map_theta_pair"][1] == pytest.approx(math.acos(1.0 / 11.0))

    def test_symmetric_tally(self, tmp_path):
        out = tmp_path / "s.json"
        assert _run(["bayes", "--tally", "7,7", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["map_cos_theta"] == 0.0

    def test_record_file_anticorrelated(self, tmp_path):
        rec = tmp_path / "rec.csv"
        lines = ["index,a,b"] + [f"{i},1,-1" for i in range(40)]
        rec.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s.json"
        assert _run(["bayes", "--record", str(rec), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["map_cos_theta"] == 1.0  # peak at relative angle 0
        assert data["map_theta_pair"] == [0.0, 0.0]

    def test_record_parse_error_line_number(self, tmp_path, capsys):
        rec = tmp_path / "rec.csv"
        rec.write_text("index,a,b\n0,1,-1\n1,3,1\n")
        assert _run(["bayes", "--record", str(rec), "--out", str(tmp_path / "s.json")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_record_non_utf8_byte_exits_1(self, tmp_path, capsys):
        rec = tmp_path / "rec.csv"
        rec.write_bytes(b"index,a,b\n0,1,-1\n1,\xff1,1\n")
        assert _run(["bayes", "--record", str(rec), "--out", str(tmp_path / "s.json")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_record_non_utf8_byte_names_the_file(self, tmp_path, capsys):
        rec = tmp_path / "rec.csv"
        rec.write_bytes(b"index,a,b\n0,1,\xff1\n")
        assert _run(["bayes", "--record", str(rec), "--out", str(tmp_path / "s.json")]) == 1
        assert capsys.readouterr().err == f"error: {rec}: not a UTF-8 text file\n"

    def test_record_oversized_field_exits_1(self, tmp_path, capsys):
        # a field over csv's 131072-character limit raises csv.Error, which is not a ValueError
        rec = tmp_path / "rec.csv"
        rec.write_text("index,a,b\n0,1,-1\n1," + "1" * 140_000 + ",1\n")
        assert _run(["bayes", "--record", str(rec), "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 3" in err and "field larger than field limit" in err

    @pytest.mark.parametrize("level", ["1.5", "0", "1.0", "nan"])
    def test_bad_level_exits_1(self, tmp_path, capsys, level):
        assert _run(["bayes", "--tally", "1,1", "--level", level, "--out", str(tmp_path / "s.json")]) == 1
        assert "level" in capsys.readouterr().err

    def test_empty_tally_exits_1(self, tmp_path, capsys):
        assert _run(["bayes", "--tally", "0,0", "--out", str(tmp_path / "s.json")]) == 1
        assert "empty tally" in capsys.readouterr().err

    def test_missing_record_exits_3(self, tmp_path, capsys):
        assert _run(["bayes", "--record", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "s.json")]) == 3
        assert capsys.readouterr().err.startswith("io error: ")

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--tally", "5000,6000"], "4de3e5a09a573b4f4f971a0dc014868bc3f161bd31bda06849d7ef4a8ebcbb9e"),
            (
                ["--tally", "10000000,0", "--level", "0.99"],
                "d358c8c543f4f92791c55474fab2ea4827df19a189d2449b2d90d43ddfe5a21c",
            ),
        ],
    )
    def test_tally_summary_pinned(self, tmp_path, argv, digest):
        out = tmp_path / "s.json"
        assert _run(["bayes", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _exact_config(tmp_path, **overrides):
    data = {
        "mode": "exact",
        "alice_direction": {"theta": 1.1, "phi": 0.4},
        "trials": 50,
        "batch": 1,
        "refine_rounds": 6,
        "prior": {"enabled": True, "pole": {"theta": 0.8, "phi": 0.9}},
    }
    data.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def _sampled_config(tmp_path, **overrides):
    data = {
        "mode": "sampled",
        "alice_direction": {"theta": 1.1, "phi": 0.4},
        "trials": 12,
        "batch": 400,
        "refine_rounds": 2,
        "prior": {"enabled": True, "pole": {"theta": 0.8, "phi": 0.9}},
        "seed": 31,
    }
    data.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


FRAME = [
    {"theta": math.pi / 2, "phi": 0.7},
    {"theta": math.pi / 2, "phi": 0.7 + math.pi / 2},
    {"theta": 0.0, "phi": 0.0},
]
FRAME_POLES = [{"theta": 1.3, "phi": 0.9}, {"theta": 1.2, "phi": 2.0}, {"theta": 0.4, "phi": 2.5}]


def _frame_config(tmp_path, mode, **overrides):
    """A rotated frame with tilted per-axis poles, orthonormalized."""
    data = {
        "mode": mode,
        "alice_frame": FRAME,
        "trials": 50,
        "batch": 100,
        "refine_rounds": 3,
        "prior": {"enabled": True, "poles": FRAME_POLES},
        "orthonormalize": True,
    }
    data.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


class TestRunCommand:
    def test_exact_run_report(self, tmp_path):
        cfg = _exact_config(tmp_path)
        out = tmp_path / "report.json"
        assert _run(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["kind"] == "direction"
        resolution = protocol_params(parse_config(json.loads(cfg.read_text()))).resolution()
        assert report["result"]["error"]["angle_to_truth_rad"] <= resolution
        assert report["budget"]["singlets_used"] == 0
        assert report["config"]["mode"] == "exact"
        assert (tmp_path / "report.json.log").exists()

    def test_sampled_run_byte_identical(self, tmp_path):
        cfg = _sampled_config(tmp_path)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert _run(["run", "--config", str(cfg), "--out", str(r1)]) == 0
        assert _run(["run", "--config", str(cfg), "--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_sampled_budget_recorded(self, tmp_path):
        cfg = _sampled_config(tmp_path)
        out = tmp_path / "r.json"
        _run(["run", "--config", str(cfg), "--out", str(out)])
        report = json.loads(out.read_text())
        evals = report["result"]["refine_evaluations"]
        assert report["budget"]["singlets_used"] == (12 + evals) * 400
        assert len(report["result"]["trials"]) == 12
        assert report["result"]["trials"][0]["counts"]["total"] == 400

    def test_no_counts_flag(self, tmp_path):
        cfg = _sampled_config(tmp_path)
        out = tmp_path / "r.json"
        _run(["run", "--config", str(cfg), "--out", str(out), "--no-counts"])
        report = json.loads(out.read_text())
        assert report["result"]["trials"][0]["counts"] is None

    def test_missing_seed_names_field(self, tmp_path, capsys):
        cfg = _sampled_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["seed"]
        cfg.write_text(json.dumps(data))
        assert _run(["run", "--config", str(cfg)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_mode_override_requires_seed(self, tmp_path, capsys):
        cfg = _exact_config(tmp_path)
        assert _run(["run", "--config", str(cfg), "--mode", "sampled"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_negative_seed_override_exits_1(self, tmp_path, capsys):
        cfg = _sampled_config(tmp_path)
        assert _run(["run", "--config", str(cfg), "--seed", "-3"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_seed_override_above_uint64_exits_1(self, tmp_path, capsys):
        cfg = _sampled_config(tmp_path)
        assert _run(["run", "--config", str(cfg), "--seed", str(2**64)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_sampled_batch_above_int64_exits_1(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert _run(["run", "--config", str(_sampled_config(tmp_path, batch=2**63 - 1)), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["trials"][0]["counts"]["total"] == 2**63 - 1
        assert _run(["run", "--config", str(_sampled_config(tmp_path, batch=2**63)), "--out", str(out)]) == 1
        assert "batch_size" in capsys.readouterr().err
        # exact mode never samples, so its batch has no bound
        assert _run(["run", "--config", str(_exact_config(tmp_path, batch=2**63)), "--out", str(out)]) == 0

    def test_seed_override_changes_report(self, tmp_path):
        cfg = _sampled_config(tmp_path)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        _run(["run", "--config", str(cfg), "--out", str(r1)])
        _run(["run", "--config", str(cfg), "--out", str(r2), "--seed", "99"])
        a = json.loads(r1.read_text())
        b = json.loads(r2.read_text())
        assert a["config"]["seed"] == 31 and b["config"]["seed"] == 99
        assert a["result"]["trials"] != b["result"]["trials"]

    def test_frame_run(self, tmp_path):
        frame = [
            {"theta": math.pi / 2, "phi": 0.0},
            {"theta": math.pi / 2, "phi": math.pi / 2},
            {"theta": 0.0, "phi": 0.0},
        ]
        cfg = _sampled_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["alice_direction"]
        data["alice_frame"] = frame
        data["prior"] = {"enabled": True, "poles": frame}
        data["orthonormalize"] = True
        cfg.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert _run(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["kind"] == "frame"
        assert report["result"]["orthonormalized"] is True
        assert len(report["result"]["axes"]) == 3

    def test_sampled_frame_report_pinned(self, tmp_path):
        # regression pin for the bytes of a sampled frame report: a rotated
        # frame, tilted per-axis poles, a seed above 2**63 and a nonzero stream
        frame = [
            {"theta": math.pi / 2, "phi": 0.7},
            {"theta": math.pi / 2, "phi": 0.7 + math.pi / 2},
            {"theta": 0.0, "phi": 0.0},
        ]
        poles = [{"theta": 1.3, "phi": 0.9}, {"theta": 1.2, "phi": 2.0}, {"theta": 0.4, "phi": 2.5}]
        cfg = _sampled_config(
            tmp_path, alice_frame=frame, prior={"enabled": True, "poles": poles},
            orthonormalize=True, refine_rounds=3, seed=2**63 + 12345, stream=7,
        )
        data = json.loads(cfg.read_text())
        del data["alice_direction"]
        cfg.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert _run(["run", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "3fcc4d2bb003a91cf54e38745e7943fb8dbe4127a557a57dee8a948bc4d8672b"

    def test_exact_direction_report_pinned(self, tmp_path):
        # regression pin for the bytes of an exact-mode direction report:
        # layout, ring search and closed-form scores, with no random draw
        cfg = _exact_config(tmp_path)
        out = tmp_path / "r.json"
        assert _run(["run", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "0f1fdff295e8789966775343baef5feac39d81f14bf60bd3366ddab52e6c89d8"

    def test_exact_frame_report_pinned(self, tmp_path):
        # the same for an orthonormalized exact-mode frame on a jittered
        # layout with tilted per-axis poles
        frame = [
            {"theta": math.pi / 2, "phi": 0.7},
            {"theta": math.pi / 2, "phi": 0.7 + math.pi / 2},
            {"theta": 0.0, "phi": 0.0},
        ]
        poles = [{"theta": 1.3, "phi": 0.9}, {"theta": 1.2, "phi": 2.0}, {"theta": 0.4, "phi": 2.5}]
        cfg = _exact_config(
            tmp_path, alice_frame=frame, prior={"enabled": True, "poles": poles},
            orthonormalize=True, refine_rounds=4, jitter_seed=2**63 + 5,
        )
        data = json.loads(cfg.read_text())
        del data["alice_direction"]
        cfg.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert _run(["run", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "4ae4e4de48d145cd19837ea724a23538782f6c65f14c98424a0a28e2018c11d8"

    def test_sampled_direction_report_pinned(self, tmp_path):
        # regression pin for the bytes of a sampled direction report with
        # per-trial count tables, on a jittered layout at batch 1e5
        cfg = _sampled_config(tmp_path, batch=10**5, refine_rounds=3, jitter_seed=2**64 - 9, seed=2**64 - 2)
        out = tmp_path / "r.json"
        assert _run(["run", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "90bb01f30c23a4addad0f919a6534f65b8cdc0b5fd07c8e6763e8475cb86f454"

    def test_sampled_frame_no_counts_report_pinned(self, tmp_path):
        # the same for a sampled frame report at batch 1e12 without count tables
        cfg = _frame_config(tmp_path, "sampled", batch=10**12, seed=2**63 - 1, stream=3)
        out = tmp_path / "r.json"
        assert _run(["run", "--config", str(cfg), "--out", str(out), "--no-counts"]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "9fbfb8121e79958945ff4c72e7a25e5217d73a0c9f8f468939efd5cc9ef10872"

    @pytest.mark.parametrize("orthonormalize", [True, False])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_axis_error_is_that_of_the_reported_direction(self, tmp_path, mode, orthonormalize):
        # at these sizes the orthonormalized axis 1 of sampled seed 3 lies
        # 0.036 rad from its truth, while its raw estimate lies 0.152 away
        cfg = _frame_config(tmp_path, mode, trials=20, refine_rounds=2, seed=3, orthonormalize=orthonormalize)
        out = tmp_path / "r.json"
        assert _run(["run", "--config", str(cfg), "--out", str(out)]) == 0
        axes = json.loads(out.read_text())["result"]["axes"]
        for axis, truth in zip(axes, target_axes(parse_config(json.loads(cfg.read_text())))):
            dot = cos_angle(Direction(*axis["direction"]), truth)
            assert axis["error"] == {"angle_to_truth_rad": math.acos(dot), "angle_up_to_sign_rad": math.acos(abs(dot))}

    def test_log_sidecar_written_atomically(self, tmp_path, monkeypatch):
        written = []
        monkeypatch.setattr(cli, "write_text_atomic", lambda path, text: written.append((str(path), text)))
        out = tmp_path / "r.json"
        assert _run(["run", "--config", str(_exact_config(tmp_path)), "--out", str(out)]) == 0
        assert [path for path, _ in written] == [str(out) + ".log"]
        assert written[0][1].startswith("wall_time_s: ")
        assert not (tmp_path / "r.json.log").exists()

    def test_sampled_frame_run_builds_no_count_table(self, tmp_path, monkeypatch):
        # guards the fixed cost of a report: its trial rows are rendered from
        # the transfer's count rows, with no CountTable per trial
        built = []
        post_init = CountTable.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(CountTable, "__post_init__", counting_post_init)
        cfg = _frame_config(tmp_path, "sampled", batch=100, seed=5)
        assert _run(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
        assert built == []
        CountTable(1, 0, 0, 0)
        assert len(built) == 1  # the patch counts

    @pytest.mark.parametrize("where", ["absent.json", "."])
    def test_unreadable_config_exits_3(self, tmp_path, capsys, where):
        path = tmp_path / where
        assert _run(["run", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and str(path) in err

    def test_non_utf8_config_exits_1_naming_the_file(self, tmp_path, capsys):
        cfg = _exact_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes().replace(b'"exact"', b'"ex\xffact"'))
        assert _run(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err and "0xff" in err

    def test_angle_too_large_for_a_float_exits_1(self, tmp_path, capsys):
        # the JSON integer 1 followed by 400 zeros used to pass the finiteness test and overflow in float()
        cfg = _exact_config(tmp_path, alice_direction={"theta": 10**400, "phi": 0.4})
        assert _run(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == "error: field 'alice_direction.theta': must be a finite number\n"

    def test_unwritable_out_exits_3(self, tmp_path, capsys):
        cfg = _exact_config(tmp_path)
        assert _run(["run", "--config", str(cfg), "--out", str(tmp_path / "no" / "dir" / "r.json")]) == 3
        assert "io error" in capsys.readouterr().err

    def test_out_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _exact_config(tmp_path, out="from_config.json")
        assert _run(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config.json").exists()


class TestOutputDirEnv:
    def test_default_output_uses_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SINGLET_FRAME_OUT_DIR", str(tmp_path))
        assert _run(["mi-curve", "--resolution", "11"]) == 0
        assert (tmp_path / "mi_curve.csv").exists()

    # mi-curve's default name is checked above
    DEFAULT_NAMES = [
        (["mi-surface", "--resolution", "3"], "mi_surface.csv"),
        (["posterior-family", "--tally", "5,6", "--resolution", "3"], "posterior_family.csv"),
        (["run", "--config", "cfg.json"], "run_report.json"),
        (["bayes", "--tally", "5,6"], "posterior_summary.json"),
    ]

    @pytest.mark.parametrize("argv, name", DEFAULT_NAMES, ids=[argv[0] for argv, _ in DEFAULT_NAMES])
    def test_each_command_defaults_to_its_name_in_the_env_dir(self, tmp_path, monkeypatch, argv, name):
        monkeypatch.chdir(tmp_path)
        _exact_config(tmp_path)  # cfg.json, with no 'out'
        (tmp_path / "outs").mkdir()
        monkeypatch.setenv("SINGLET_FRAME_OUT_DIR", str(tmp_path / "outs"))
        assert _run(argv) == 0
        expected = [name, name + ".log"] if argv[0] == "run" else [name]
        assert sorted(p.name for p in (tmp_path / "outs").iterdir()) == expected

    def test_explicit_out_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SINGLET_FRAME_OUT_DIR", str(tmp_path / "elsewhere"))
        out = tmp_path / "here.csv"
        assert _run(["mi-curve", "--resolution", "11", "--out", str(out)]) == 0
        assert out.exists()


class TestCliBasics:
    def test_unknown_command_exits_1(self, capsys):
        assert _run(["frobnicate"]) == 1
        assert capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, capsys):
        assert _run(["run"]) == 1
        assert "config" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["--version"])
        assert exc.value.code == 0

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_run_options_do_not_leak_into_the_next_call(self, tmp_path):
        cfg = _sampled_config(tmp_path)
        first, overridden, second = (tmp_path / f"{name}.json" for name in ("first", "overridden", "second"))
        build_parser.cache_clear()
        assert _run(["run", "--config", str(cfg), "--out", str(first)]) == 0
        argv = ["run", "--config", str(cfg), "--seed", "5", "--mode", "exact", "--no-counts"]
        assert _run([*argv, "--out", str(overridden)]) == 0
        assert _run(["run", "--config", str(cfg), "--out", str(second)]) == 0
        assert json.loads(overridden.read_text())["config"]["mode"] == "exact"
        assert second.read_bytes() == first.read_bytes()

    def test_bayes_level_does_not_leak_into_the_next_call(self, tmp_path):
        out = tmp_path / "s.json"
        assert _run(["bayes", "--tally", "5,6", "--level", "0.9", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["credible_level"] == 0.9
        assert _run(["bayes", "--tally", "5,6", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["credible_level"] == 0.95


# the outcome arrays the recorded record reader returns
_A, _B = object(), object()
RECORDED = {
    "cmd_mi_curve": None,
    "cmd_mi_surface": None,
    "cmd_posterior_family": None,
    "cmd_run": None,
    "cmd_bayes": None,
    "read_record_arrays_csv": (_A, _B),
    "sign_tally_from_arrays": SignTally(3, 4),
}
# argv without --out, and the calls it makes as (name, args, kwargs) given the loaded cfg.json and the out path
COMMAND_CALLS = {
    "mi-curve": (["mi-curve"], lambda cfg, out: [("cmd_mi_curve", (1801, out), {})]),
    "mi-curve-options": (["mi-curve", "--resolution", "7"], lambda cfg, out: [("cmd_mi_curve", (7, out), {})]),
    "mi-surface": (["mi-surface"], lambda cfg, out: [("cmd_mi_surface", (1.5, 2.1, 181, out), {})]),
    "mi-surface-options": (
        ["mi-surface", "--theta-x", "0.5", "--phi-x", "-1", "--resolution", "9"],
        lambda cfg, out: [("cmd_mi_surface", (0.5, -1.0, 9, out), {})],
    ),
    "posterior-family": (
        ["posterior-family", "--tally", "5,6", "--tally", "1,0"],
        lambda cfg, out: [("cmd_posterior_family", ([SignTally(5, 6), SignTally(1, 0)], out, 2001), {})],
    ),
    "posterior-family-options": (
        ["posterior-family", "--tally", "2,3", "--resolution", "11"],
        lambda cfg, out: [("cmd_posterior_family", ([SignTally(2, 3)], out, 11), {})],
    ),
    "run": (["run", "--config", "cfg.json"], lambda cfg, out: [("cmd_run", (cfg, out), {})]),
    "run-options": (
        ["run", "--config", "cfg.json", "--seed", "5", "--mode", "exact", "--no-counts"],
        lambda cfg, out: [
            ("cmd_run", (parse_config({**cfg, "seed": 5, "mode": "exact"}), out), {"include_counts": False}),
        ],
    ),
    "bayes-tally": (["bayes", "--tally", "5,6"], lambda cfg, out: [("cmd_bayes", (SignTally(5, 6), 0.95, out), {})]),
    "bayes-record": (
        ["bayes", "--record", "rec.csv", "--level", "0.9"],
        lambda cfg, out: [
            ("read_record_arrays_csv", ("rec.csv",), {}),
            ("sign_tally_from_arrays", (_A, _B), {}),
            ("cmd_bayes", (SignTally(3, 4), 0.9, out), {}),
        ],
    ),
}


class TestCommandCalls:
    """Each command calls its ``cmd_*`` function with the parsed arguments, looked up on ``cli`` when it runs.

    The parser is built before the names are replaced, as the benchmark's
    tracer replaces them; calls compare bound to the original signature,
    defaults applied, so a positional and a keyword argument are the same.
    """

    @pytest.mark.parametrize("case", list(COMMAND_CALLS))
    def test_each_command_calls_its_handler(self, tmp_path, monkeypatch, case):
        argv, expected = COMMAND_CALLS[case]
        monkeypatch.chdir(tmp_path)
        _sampled_config(tmp_path)  # cfg.json
        build_parser()
        calls = []

        def recorder(name, result):
            def record(*args, **kwargs):
                calls.append((name, args, kwargs))
                return result
            return record

        originals = {name: getattr(cli, name) for name in RECORDED}
        for name, result in RECORDED.items():
            monkeypatch.setattr(cli, name, recorder(name, result))

        def bound(name, args, kwargs):
            arguments = inspect.signature(originals[name]).bind(*args, **kwargs)
            arguments.apply_defaults()
            return name, arguments.arguments

        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 0
        want = expected(load_config("cfg.json"), out)
        assert [bound(*c) for c in calls] == [bound(*c) for c in want]

    def test_runtime_error_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "posterior_summary", boom)
        out = tmp_path / "s.json"
        assert _run(["bayes", "--tally", "5,6", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "runtime error: boom\n"
        assert list(tmp_path.iterdir()) == []


# a config `out` string with control characters, non-ASCII text and the
# text the report writer splices at
ODD_OUT = 'r\x00\x1f\t\r\n"trials": null\\"trials": null,\n      "trials": null é.json'


def _reference_report(cfg, include_counts: bool) -> str:
    """The report as a dict per trial, each with ``CountTable(*c).to_dict()``, through ``json.dumps``."""

    def axis(res, est, truth):
        dot = cos_angle(est, truth)
        return {
            "direction": [est.x, est.y, est.z],
            "mi_score": res.mi_score,
            "sign_resolved": res.sign_resolved,
            "error": {"angle_to_truth_rad": math.acos(dot), "angle_up_to_sign_rad": math.acos(abs(dot))},
            "trials": reference_trials(res.coarse_rows(), include_counts),
            "refine_evaluations": res.refine_evaluations,
            "singlets_used": res.singlets_used,
        }

    params = protocol_params(cfg)
    truth = target_axes(cfg)
    if "alice_frame" in cfg:
        frame = transfer_frame(truth, params, orthonormalize=cfg["orthonormalize"], priors=axis_priors(cfg))
        results = frame.axis_results
        result = {
            "kind": "frame",
            "orthonormalized": frame.orthonormalized,
            "axes": [
                {**axis(results[k], a, truth[k]), "axis_index": k}
                for k, a in enumerate(frame.axes)
            ],
        }
    else:
        results = (transfer_direction(truth[0], params),)
        result = {"kind": "direction", **axis(results[0], results[0].direction, truth[0])}
    report = {
        "config": cfg,
        "result": result,
        "budget": {
            "singlets_used": sum(r.singlets_used for r in results),
            "batch_size": cfg["batch"],
            "coarse_trials": cfg["trials"],
        },
        "version": __version__,
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _write_config(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


class TestRunReportBytes:
    """``run`` writes the bytes of the per-trial dict report, over every report shape."""

    @pytest.mark.parametrize("kind", ["direction", "frame"])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("counts", [True, False], ids=["counts", "no-counts"])
    @pytest.mark.parametrize("jitter", [False, True], ids=["", "jitter"])
    @pytest.mark.parametrize("prior", [False, True], ids=["", "prior"])
    def test_matches_the_dict_report(self, tmp_path, kind, mode, counts, jitter, prior):
        for trials, rounds, batch in itertools.product((1, 50), (0, 3), (1, 10**5, 10**12)):
            data = {"mode": mode, "trials": trials, "batch": batch, "refine_rounds": rounds, "out": ODD_OUT}
            if kind == "frame":
                data.update(alice_frame=FRAME, orthonormalize=jitter)
                if prior:
                    data["prior"] = {"enabled": True, "poles": FRAME_POLES}
            else:
                data["alice_direction"] = {"theta": 1.1, "phi": 0.4}
                if prior:
                    data["prior"] = {"enabled": True, "pole": {"theta": 0.8, "phi": 0.9}}
            if mode == "sampled":
                data.update(seed=2**64 - 1 - batch, stream=trials)
            if jitter:
                data["jitter_seed"] = 2**63 + rounds
            out = tmp_path / "r.json"
            argv = ["run", "--config", str(_write_config(tmp_path, data)), "--out", str(out)]
            assert _run(argv + ([] if counts else ["--no-counts"])) == 0
            want = _reference_report(parse_config(data), counts)
            assert first_difference(out.read_bytes().decode("ascii"), want) is None, (trials, rounds, batch)

