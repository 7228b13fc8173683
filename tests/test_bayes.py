import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1, roots_legendre

from singlet_frame import (
    Direction,
    DomainError,
    OutcomeRecord,
    SamplerConfig,
    SignTally,
    conditional_direction_density,
    credible_interval,
    direction_from_polar,
    log_likelihood,
    log_normalization_d,
    posterior_density,
    posterior_peak,
    posterior_summary,
    posterior_theta_density,
    run_measurement_batch,
    sign_tally,
    tally,
)
from singlet_frame.bayes import CI_MAX_TALLY, _posterior_window

X = Direction(1.0, 0.0, 0.0)
Z = Direction(0.0, 0.0, 1.0)


def _record(a, b):
    return OutcomeRecord(a=np.array(a), b=np.array(b), x=X, y=Z)


def d_quadrature(n_plus, n_minus):
    val, _ = quad(lambda g: (1.0 - g) ** n_plus * (1.0 + g) ** n_minus, -1.0, 1.0,
                  epsabs=0.0, epsrel=1e-13, limit=300)
    return val


def d_hypergeometric(n_plus, n_minus):
    return (
        hyp2f1(1, -n_minus, 2 + n_plus, -1) / (1 + n_plus)
        + hyp2f1(1, -n_plus, 2 + n_minus, -1) / (1 + n_minus)
    )


class TestSignTally:
    def test_mixed_products(self):
        t = sign_tally(_record([1, -1], [1, 1]))
        assert (t.n_plus, t.n_minus) == (1, 1)
        assert t.n_total == 2

    def test_all_anticorrelated(self):
        t = sign_tally(_record([1, -1, 1, -1], [-1, 1, -1, 1]))
        assert (t.n_plus, t.n_minus) == (0, 4)

    def test_consistent_with_count_table(self, rng):
        a = rng.choice([-1, 1], size=500)
        b = rng.choice([-1, 1], size=500)
        rec = _record(a, b)
        ct = tally(rec)
        st = sign_tally(rec)
        assert st.n_plus == ct.m_pp + ct.m_mm
        assert st.n_minus == ct.m_pm + ct.m_mp

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SignTally(-1, 2)


class TestLogLikelihood:
    def test_empty_tally(self):
        assert log_likelihood(SignTally(0, 0), 0.3) == 0.0

    def test_orthogonal(self):
        t = SignTally(3, 4)
        assert log_likelihood(t, 0.0) == pytest.approx(7 * math.log(0.25), abs=1e-12)

    def test_forbidden_outcome_sentinel(self):
        # log(0) at an end point is -inf without a RuntimeWarning (filterwarnings = error)
        for t, c in ((SignTally(1, 0), 1.0), (SignTally(0, 1), -1.0), (SignTally(3, 5), 1.0), (SignTally(3, 5), -1.0)):
            assert log_likelihood(t, c) == float("-inf")

    def test_boundary_with_zero_count_is_finite(self):
        assert math.isfinite(log_likelihood(SignTally(0, 5), 1.0))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log_likelihood(SignTally(1, 1), 2.0)

    def test_matches_direct_product(self, rng):
        for _ in range(50):
            t = SignTally(int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            c = float(rng.uniform(-0.99, 0.99))
            direct = t.n_plus * math.log((1 - c) / 4) + t.n_minus * math.log((1 + c) / 4)
            assert log_likelihood(t, c) == pytest.approx(direct, rel=1e-14)

    def test_is_the_log_posterior_density_less_its_normalization(self, rng):
        # p(c) = likelihood * 4^N / (8 pi^2 d): the likelihood and the density share one kernel
        for _ in range(50):
            t = SignTally(int(rng.integers(0, 200)), int(rng.integers(0, 200)))
            c = float(rng.uniform(-0.99, 0.99))
            value = log_likelihood(t, c)
            assert type(value) is float
            log_density = value + 2 * t.n_total * math.log(2.0) - math.log(8.0 * math.pi**2) - log_normalization_d(t)
            assert log_density == pytest.approx(math.log(posterior_density(c, t)), abs=1e-9)


class TestNormalization:
    def test_empty(self):
        assert log_normalization_d(SignTally(0, 0)) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_one_zero_against_quadrature(self):
        assert math.exp(log_normalization_d(SignTally(1, 0))) == pytest.approx(d_quadrature(1, 0), rel=1e-12)
        assert math.exp(log_normalization_d(SignTally(1, 0))) == pytest.approx(2.0, rel=1e-14)

    def test_one_one_against_quadrature(self):
        assert math.exp(log_normalization_d(SignTally(1, 1))) == pytest.approx(d_quadrature(1, 1), rel=1e-12)
        assert math.exp(log_normalization_d(SignTally(1, 1))) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_closed_form_against_quadrature_grid(self):
        for n_plus in range(0, 41, 5):
            for n_minus in range(0, 41, 5):
                d = math.exp(log_normalization_d(SignTally(n_plus, n_minus)))
                assert d == pytest.approx(d_quadrature(n_plus, n_minus), rel=1e-10)

    def test_closed_form_against_hypergeometric(self):
        # the published two-term hypergeometric form of the same integral
        for n_plus in range(0, 61, 6):
            for n_minus in range(0, 61, 6):
                d = math.exp(log_normalization_d(SignTally(n_plus, n_minus)))
                assert d == pytest.approx(d_hypergeometric(n_plus, n_minus), rel=1e-8)


class TestPosteriorDensity:
    def test_flat_for_empty_tally(self):
        t = SignTally(0, 0)
        for c in (-1.0, -0.3, 0.0, 0.9, 1.0):
            assert posterior_density(c, t) == pytest.approx(1.0 / (16.0 * math.pi**2), rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            posterior_density(1.5, SignTally(1, 1))

    def test_boundary_zero_when_count_positive(self):
        assert posterior_density(1.0, SignTally(3, 5)) == 0.0
        assert posterior_density(-1.0, SignTally(3, 5)) == 0.0
        c = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        for t, forbidden in ((SignTally(3, 0), 4), (SignTally(0, 3), 0)):
            dens = posterior_density(c, t)
            assert dens[forbidden] == 0.0
            assert (np.delete(dens, forbidden) > 0.0).all()

    def test_peak_dominates_grid(self):
        # density at cos = 1/11 beats every point of a 1001-point grid
        t = SignTally(5, 6)
        peak_val = posterior_density(1.0 / 11.0, t)
        grid_vals = posterior_density(np.linspace(-1.0, 1.0, 1001), t)
        assert np.all(peak_val >= grid_vals)

    def test_theta_form_identity(self):
        thetas = np.linspace(-math.pi, math.pi, 801)
        for t in (SignTally(5, 6), SignTally(0, 100), SignTally(40, 48)):
            via_theta = posterior_theta_density(thetas, t)
            via_cos = posterior_density(np.cos(thetas), t)
            # atol absorbs the far tails near theta = +/-pi, where forming
            # 1 + cos(theta) is ill-conditioned and densities are ~1e-30
            np.testing.assert_allclose(via_theta, via_cos, rtol=1e-12, atol=1e-30)

    def test_theta_form_even_exactly(self):
        thetas = np.linspace(0.0, math.pi, 301)
        for t in (SignTally(5, 6), SignTally(2, 0)):
            left = posterior_theta_density(-thetas, t)
            right = posterior_theta_density(thetas, t)
            assert np.array_equal(left, right)

    def test_double_solid_angle_normalization(self, rng):
        for _ in range(10):
            t = SignTally(int(rng.integers(0, 60)), int(rng.integers(0, 60)))
            total, _ = quad(lambda c: posterior_density(c, t), -1.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=300)
            assert 8.0 * math.pi**2 * total == pytest.approx(1.0, abs=1e-8)


class TestPosteriorPeak:
    def test_reference_tally(self):
        assert posterior_peak(SignTally(5, 6)) == 1.0 / 11.0

    def test_all_anticorrelated(self):
        assert posterior_peak(SignTally(0, 100)) == 1.0

    def test_symmetric_tally(self):
        for k in (1, 7, 50):
            assert posterior_peak(SignTally(k, k)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            posterior_peak(SignTally(0, 0))

    def test_equals_negated_product_mean(self):
        # algebraic identity with the empirical mean of a_i * b_i
        y = direction_from_polar(1.2, 0.4)
        rec = run_measurement_batch(Z, y, 5000, SamplerConfig(99))
        peak = posterior_peak(sign_tally(rec))
        assert peak == -float(np.mean(rec.products()))

    def test_concentrates_at_truth(self):
        for c0 in (-0.8, 0.0, 0.5):
            y = Direction(math.sqrt(1.0 - c0 * c0), 0.0, c0)
            medians = []
            for n in (100, 1_000, 10_000):
                errs = [
                    abs(posterior_peak(sign_tally(run_measurement_batch(Z, y, n, SamplerConfig(800 + s)))) - c0)
                    for s in range(30)
                ]
                medians.append(float(np.median(errs)))
            assert medians[0] > medians[2]
            assert medians[0] >= medians[1] >= medians[2]


class TestConditionalDirectionDensity:
    def test_ratio_is_four_pi(self, rng):
        from conftest import random_direction

        t = SignTally(4, 9)
        for _ in range(50):
            x = random_direction(rng)
            y = random_direction(rng)
            lhs = conditional_direction_density(x, t, y)
            rhs = 4.0 * math.pi * posterior_density(x.dot(y), t)
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_flat_for_empty_tally(self):
        assert conditional_direction_density(X, SignTally(0, 0), Z) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)

    def test_sphere_normalization(self):
        # Gauss-Legendre in cos(polar) x trapezoid in azimuth; the integrand is
        # a degree-22 polynomial on the sphere, so this rule is exact
        t = SignTally(10, 12)
        y = direction_from_polar(1.1, 2.2)
        nodes, weights = roots_legendre(64)
        n_phi = 128
        phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
        total = 0.0
        for ct, w in zip(nodes, weights):
            st = math.sqrt(1.0 - ct * ct)
            for phi in phis:
                x = Direction(st * math.cos(phi), st * math.sin(phi), ct)
                total += w * (2.0 * math.pi / n_phi) * conditional_direction_density(x, t, y)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestCredibleInterval:
    def test_contains_peak(self, rng):
        for _ in range(20):
            t = SignTally(int(rng.integers(0, 50)), int(rng.integers(0, 50)))
            if t.n_total == 0:
                continue
            lo, hi = credible_interval(t, 0.9)
            assert lo <= posterior_peak(t) <= hi

    @pytest.mark.parametrize("n_plus, n_minus", [(0, 100), (10**7, 0), (5, 6), (1, 1)])
    def test_window_reaching_an_end(self, n_plus, n_minus):
        # the grid then holds c = -1 or +1, where a log is -inf; a RuntimeWarning would fail the test
        t = SignTally(n_plus, n_minus)
        assert {-1.0, 1.0} & set(_posterior_window(t))
        lo, hi = credible_interval(t, 0.95)
        assert -1.0 <= lo <= posterior_peak(t) <= hi <= 1.0

    def test_level_near_one_covers_support(self):
        lo, hi = credible_interval(SignTally(1, 1), 1.0 - 1e-9)
        assert lo < -0.999 and hi > 0.999

    def test_boundary_peaked_tally(self):
        # analytic endpoint: mass of [x, 1] is 1 - ((1+x)/2)**101
        lo, hi = credible_interval(SignTally(0, 100), 0.95)
        assert hi == 1.0
        assert lo == pytest.approx(2.0 * 0.05 ** (1.0 / 101.0) - 1.0, abs=5e-4)

    def test_mass_matches_level(self):
        for (np_, nm, level) in [(5, 6, 0.95), (1, 1, 0.5), (0, 3, 0.5), (100, 0, 0.9)]:
            t = SignTally(np_, nm)
            lo, hi = credible_interval(t, level)
            d = math.exp(log_normalization_d(t))
            mass, _ = quad(lambda c: (1.0 - c) ** np_ * (1.0 + c) ** nm / d, lo, hi, epsrel=1e-12)
            assert mass == pytest.approx(level, abs=1e-3)

    def test_widths_shrink_along_family(self):
        widths = []
        for t in (SignTally(5, 6), SignTally(10, 12), SignTally(20, 24), SignTally(40, 48)):
            lo, hi = credible_interval(t, 0.95)
            widths.append(hi - lo)
        assert widths == sorted(widths, reverse=True)
        assert len(set(widths)) == len(widths)

    def test_symmetric_tally_symmetric_interval(self):
        lo, hi = credible_interval(SignTally(8, 8), 0.8)
        assert lo == pytest.approx(-hi, abs=1e-9)

    # N from 1 to 1e8: one-sided tallies, tallies on the prior's equator
    # (n_plus close to n_minus) and tallies in between
    LARGE_N_TALLIES = (
        [(n, 0) for n in (1, 10, 10**3, 10**5, 10**7, 10**8)]
        + [(0, n) for n in (1, 10, 10**3, 10**5, 10**7, 10**8)]
        + [(n, n) for n in (1, 50, 5 * 10**4, 5 * 10**7)]
        + [(n + 1, n - 1) for n in (10**3, 10**6, 5 * 10**7)]
        + [(n - 3, 3) for n in (10**4, 10**8)]
        + [(5 * 10**4, 6 * 10**4), (5 * 10**6, 6 * 10**6), (31_415_926, 68_584_074), (10_031, 700)]
    )

    @pytest.mark.parametrize("level", [0.95, 0.99])
    def test_mass_matches_beta_oracle_up_to_1e8(self, level):
        # u = (1 - c)/2 follows Beta(n_plus + 1, n_minus + 1)
        from scipy.stats import beta

        for n_plus, n_minus in self.LARGE_N_TALLIES:
            lo, hi = credible_interval(SignTally(n_plus, n_minus), level)
            u = beta(n_plus + 1, n_minus + 1)
            mass = u.cdf((1.0 - lo) / 2.0) - u.cdf((1.0 - hi) / 2.0)
            assert abs(mass - level) <= 1e-3, (n_plus, n_minus, lo, hi, mass)
            assert lo <= posterior_peak(SignTally(n_plus, n_minus)) <= hi

    def test_one_sided_large_n_interval_not_degenerate(self):
        # the 95% interval of a one-sided tally of N is about 6/N wide
        lo, hi = credible_interval(SignTally(10**7, 0), 0.95)
        assert lo == -1.0 and -1.0 + 5e-7 < hi < -1.0 + 7e-7
        lo, hi = credible_interval(SignTally(0, 10**8), 0.95)
        assert hi == 1.0 and 1.0 - 7e-8 < lo < 1.0 - 5e-8

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            credible_interval(SignTally(1, 1), 1.0)
        with pytest.raises(ValueError):
            credible_interval(SignTally(1, 1), 0.0)

    def test_empty_tally_rejected(self):
        with pytest.raises(ValueError):
            credible_interval(SignTally(0, 0), 0.5)

    @pytest.mark.parametrize("level", [0.95, 0.99])
    @pytest.mark.parametrize("n_plus, n_minus", [(CI_MAX_TALLY, 0), (0, CI_MAX_TALLY), (63 * 10**9, 27 * 10**9)])
    def test_mass_matches_beta_oracle_at_the_largest_tally(self, n_plus, n_minus, level):
        from scipy.stats import beta

        lo, hi = credible_interval(SignTally(n_plus, n_minus), level)
        u = beta(n_plus + 1, n_minus + 1)
        assert abs(u.cdf((1.0 - lo) / 2.0) - u.cdf((1.0 - hi) / 2.0) - level) <= 1e-3

    @pytest.mark.parametrize(
        "n_plus, n_minus",
        [
            (CI_MAX_TALLY + 1, 0), (0, CI_MAX_TALLY + 1), (10**13, 10**13), (7 * 10**18, 3 * 10**18),
            (2**63 - 1, 2**63 - 1),
        ],
    )
    def test_tally_above_the_largest_rejected(self, n_plus, n_minus):
        # the float grid is too coarse for these posteriors: the mass went wrong, or exp overflowed
        message = f"at most {CI_MAX_TALLY} pairs, got {n_plus + n_minus}"
        with pytest.raises(DomainError, match=message):
            credible_interval(SignTally(n_plus, n_minus), 0.95)
        with pytest.raises(DomainError, match=message):
            posterior_summary(SignTally(n_plus, n_minus))


def _sweep_tallies():
    """400 tallies drawn like the posterior-sweep benchmark, every tally of N <= 30, and three large ones."""
    rng = np.random.default_rng(2311)
    n = np.floor(10.0 ** rng.uniform(1.0, 8.0, 400)).astype(np.int64)
    cosines = rng.uniform(-1.0, 1.0, 400)
    edge = rng.random(400) < 0.1
    cosines[edge] = rng.choice([-1.0, 1.0], size=int(edge.sum()))
    n_plus = rng.binomial(n, (1.0 - cosines) / 2.0)
    drawn = [(int(p), int(k - p)) for p, k in zip(n_plus, n)]
    small = [(p, k - p) for k in range(1, 31) for p in range(k + 1)]
    return [SignTally(*t) for t in drawn + small + [(10**7, 0), (0, 9 * 10**10), (10031, 700)]]


def test_interval_bytes_pinned():
    # the summary holds credible_interval's tuple as returned, so one call per case pins both
    digest = hashlib.sha256()
    for t in _sweep_tallies():
        for level in (0.05, 0.5, 0.95, 0.99):
            digest.update(repr(posterior_summary(t, level).to_dict()).encode())
    assert digest.hexdigest() == "08d50fcc4dc99214e5320462fcf8dcb7511e07243c9c34d599200afd2d61cef2"


class TestPosteriorSummary:
    def test_reference_summary(self):
        s = posterior_summary(SignTally(5, 6), level=0.9)
        assert s.map_cos_theta == 1.0 / 11.0
        assert s.map_theta_pair == (-math.acos(1.0 / 11.0), math.acos(1.0 / 11.0))
        assert s.credible_level == 0.9
        assert s.log_normalization == log_normalization_d(SignTally(5, 6))

    def test_dict_fields(self):
        s = posterior_summary(SignTally(3, 3))
        d = s.to_dict()
        assert d["map_cos_theta"] == 0.0
        assert d["n_plus"] == 3 and d["n_minus"] == 3
        assert len(d["credible_interval_cos"]) == 2
