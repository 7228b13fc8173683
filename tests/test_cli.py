import csv
import json
import math

import numpy as np
import pytest

from singlet_frame.cli import main

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

    def test_bad_level_exits_1(self, tmp_path, capsys):
        assert _run(["bayes", "--tally", "1,1", "--level", "1.5", "--out", str(tmp_path / "s.json")]) == 1
        assert "level" in capsys.readouterr().err

    def test_empty_tally_exits_1(self, tmp_path, capsys):
        assert _run(["bayes", "--tally", "0,0", "--out", str(tmp_path / "s.json")]) == 1
        assert "empty tally" in capsys.readouterr().err

    def test_missing_record_exits_3(self, tmp_path, capsys):
        assert _run(["bayes", "--record", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "s.json")]) == 3
        assert capsys.readouterr().err.startswith("io error: ")


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


class TestRunCommand:
    def test_exact_run_report(self, tmp_path):
        cfg = _exact_config(tmp_path)
        out = tmp_path / "report.json"
        assert _run(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["kind"] == "direction"
        from singlet_frame import default_initial_half_angle, refinement_resolution

        resolution = refinement_resolution(default_initial_half_angle(50, True), 6)
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
