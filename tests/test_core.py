import math

import numpy as np
import pytest

from singlet_frame import (
    Direction,
    DistributionError,
    DomainError,
    JointDistribution2x2,
    analytic_mutual_information,
    cos_angle,
    direction_from_polar,
    mutual_information_from_joint,
    singlet_joint_distribution,
)
from conftest import random_direction

# hand evaluation of the mutual information at cos = 0.5:
# 2*(1/8)*log2((1/8)/(1/4)) + 2*(3/8)*log2((3/8)/(1/4))
MI_AT_HALF = 0.25 * math.log2(0.5) + 0.75 * math.log2(1.5)


class TestDirection:
    def test_construction_normalizes(self):
        d = Direction(3.0, 0.0, 4.0)
        assert (d.x, d.y, d.z) == (0.6, 0.0, 0.8)

    def test_unit_input_unchanged(self):
        d = Direction(1.0, 0.0, 0.0)
        assert (d.x, d.y, d.z) == (1.0, 0.0, 0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            Direction(0.0, 0.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            Direction(float("nan"), 0.0, 1.0)

    def test_negation(self):
        d = Direction(0.6, 0.0, 0.8)
        assert (-d) == Direction(-0.6, 0.0, -0.8)

    def test_unit_norm_invariant(self, rng):
        for _ in range(100):
            d = Direction(*rng.normal(size=3) * 10.0)
            assert abs(d.x**2 + d.y**2 + d.z**2 - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "v, unit",
        [
            pytest.param((1e-170, 0.0, 0.0), (1.0, 0.0, 0.0), id="tiny"),
            pytest.param((1e200, 0.0, 0.0), (1.0, 0.0, 0.0), id="huge"),
            pytest.param((-3e200, 0.0, 4e200), (-0.6, 0.0, 0.8), id="huge-3-4-5"),
            pytest.param((3e-170, 4e-170, 0.0), (0.6, 0.8, 0.0), id="tiny-3-4-5"),
            pytest.param((0.0, -5e-324, 0.0), (0.0, -1.0, 0.0), id="subnormal"),
            pytest.param((10**300, 0, 0), (1.0, 0.0, 0.0), id="int-whose-square-is-too-large"),
            pytest.param((1e308, 1e308, 1e308), (3**-0.5,) * 3, id="largest-floats"),
        ],
    )
    def test_vector_with_an_underflowing_or_overflowing_square_norm(self, v, unit):
        # the squared norm underflows to 0 or overflows to inf, yet the vector is nonzero and finite
        d = Direction(*v)
        assert (d.x, d.y, d.z) == pytest.approx(unit, abs=1e-15)
        assert abs(d.x**2 + d.y**2 + d.z**2 - 1.0) < 1e-12
        assert Direction(*(-t for t in v)) == -d

    def test_scaled_vector_is_the_unscaled_one(self, rng):
        for _ in range(100):
            v = rng.normal(size=3)
            unit = Direction(*v).as_array()
            for scale in (1e-170, 1e200):  # Python floats: numpy scalars warn when their squares overflow
                assert Direction(*(v * scale).tolist()).as_array() == pytest.approx(unit, abs=1e-15)

    @pytest.mark.parametrize(
        "v",
        [(0.0, 0.0, -0.0), (math.nan, 1e-170, 0.0), (1e-170, math.nan, 0.0), (1e200, -math.inf, 0.0),
         (1e200, 0.0, math.nan), (1e-170, 0.0, -(10**400))],
    )
    def test_rescaling_keeps_rejecting(self, v):
        with pytest.raises(DomainError, match="must be a nonzero finite vector"):
            Direction(*v)


class TestDirectionFromPolar:
    def test_north_pole_any_azimuth(self):
        for phi in (0.0, 1.0, -2.5, 9.0):
            d = direction_from_polar(0.0, phi)
            assert (d.x, d.y, d.z) == (0.0, 0.0, 1.0)

    def test_equator(self):
        d = direction_from_polar(math.pi / 2.0, 0.0)
        assert abs(d.x - 1.0) < 1e-12 and abs(d.y) < 1e-12 and abs(d.z) < 1e-12

    def test_reference_direction(self):
        # the (theta, phi) = (1.5, 2.1) example vector, built independently
        d = direction_from_polar(1.5, 2.1)
        assert d.x == pytest.approx(math.sin(1.5) * math.cos(2.1), abs=1e-15)
        assert d.y == pytest.approx(math.sin(1.5) * math.sin(2.1), abs=1e-15)
        assert d.z == pytest.approx(math.cos(1.5), abs=1e-15)
        assert abs(d.x**2 + d.y**2 + d.z**2 - 1.0) < 1e-12


class TestCosAngle:
    def test_self_is_one(self, rng):
        assert cos_angle(Direction(1.0, 0.0, 0.0), Direction(1.0, 0.0, 0.0)) == 1.0
        for _ in range(50):
            d = random_direction(rng)
            assert cos_angle(d, d) == pytest.approx(1.0, abs=1e-15)

    def test_antipode_is_minus_one(self, rng):
        for _ in range(50):
            d = random_direction(rng)
            assert cos_angle(d, -d) == pytest.approx(-1.0, abs=1e-15)

    def test_polar_expansion_identity(self, rng):
        # dot product equals the explicit polar-angle expansion
        for _ in range(200):
            tx, ty = rng.uniform(0.0, math.pi, size=2)
            px, py = rng.uniform(0.0, 2.0 * math.pi, size=2)
            u = direction_from_polar(tx, px)
            v = direction_from_polar(ty, py)
            expansion = (
                math.sin(tx) * math.cos(px) * math.sin(ty) * math.cos(py)
                + math.sin(tx) * math.sin(px) * math.sin(ty) * math.sin(py)
                + math.cos(tx) * math.cos(ty)
            )
            assert cos_angle(u, v) == pytest.approx(expansion, abs=1e-12)

    def test_clamped(self):
        d = Direction(1.0, 0.0, 0.0)
        assert -1.0 <= cos_angle(d, d) <= 1.0

    @pytest.mark.parametrize("dot", [math.nan, math.inf, -math.inf, 1.5, -1.0 - 1e-9])
    def test_bad_dot_product_rejected(self, dot):
        class Setting:  # duck-typed: only ``dot`` is used
            def dot(self, other):
                return dot

        with pytest.raises(DomainError):
            cos_angle(Setting(), Direction(1.0, 0.0, 0.0))


class TestJointOutcomeProbability:
    # the paper's p(a, b) at a relative-angle cosine, read from singlet_joint_distribution
    @staticmethod
    def _p(a, b, c):
        return singlet_joint_distribution(c).prob(a, b)

    def test_parallel_settings_forbid_equal_outcomes(self):
        assert self._p(1, 1, 1.0) == 0.0
        assert self._p(-1, -1, 1.0) == 0.0

    def test_parallel_settings_perfect_anticorrelation(self):
        assert self._p(1, -1, 1.0) == 0.5
        assert self._p(-1, 1, 1.0) == 0.5

    def test_orthogonal_settings_independent(self):
        for a in (-1, 1):
            for b in (-1, 1):
                assert self._p(a, b, 0.0) == 0.25

    def test_range(self, rng):
        for c in rng.uniform(-1.0, 1.0, size=200):
            for a in (-1, 1):
                for b in (-1, 1):
                    p = self._p(a, b, float(c))
                    assert 0.0 <= p <= 0.5

    def test_domain_error(self):
        with pytest.raises(DomainError):
            self._p(1, 1, 1.0 + 1e-9)
        with pytest.raises(DomainError):
            self._p(1, 1, float("nan"))

    def test_bad_outcome(self):
        with pytest.raises(DomainError):
            self._p(0, 1, 0.5)
        with pytest.raises(DomainError):
            self._p(1, 2, 0.5)


class TestSingletJointDistribution:
    def test_orthogonal_uniform(self):
        d = singlet_joint_distribution(0.0)
        assert (d.p_pp, d.p_pm, d.p_mp, d.p_mm) == (0.25, 0.25, 0.25, 0.25)

    def test_parallel(self):
        d = singlet_joint_distribution(1.0)
        assert (d.p_pp, d.p_pm, d.p_mp, d.p_mm) == (0.0, 0.5, 0.5, 0.0)

    def test_half(self):
        d = singlet_joint_distribution(0.5)
        assert (d.p_pp, d.p_pm, d.p_mp, d.p_mm) == (0.125, 0.375, 0.375, 0.125)
        assert d.p_pp + d.p_pm + d.p_mp + d.p_mm == 1.0

    def test_matches_pointwise_probability(self, rng):
        for c in rng.uniform(-1.0, 1.0, size=50):
            d = singlet_joint_distribution(float(c))
            for a in (-1, 1):
                for b in (-1, 1):
                    assert d.prob(a, b) == (1.0 - a * b * float(c)) / 4.0  # the paper's p(a, b)


class TestJointDistributionValidation:
    def test_negative_entry(self):
        with pytest.raises(DistributionError):
            JointDistribution2x2(-0.1, 0.5, 0.5, 0.1)

    def test_bad_sum(self):
        with pytest.raises(DistributionError):
            JointDistribution2x2(0.3, 0.3, 0.3, 0.3)

    def test_non_finite(self):
        with pytest.raises(DistributionError):
            JointDistribution2x2(float("nan"), 0.5, 0.25, 0.25)


class TestMutualInformationFromJoint:
    def test_independent_is_zero(self):
        assert mutual_information_from_joint(JointDistribution2x2(0.25, 0.25, 0.25, 0.25)) == 0.0

    def test_perfect_anticorrelation_is_one(self):
        assert mutual_information_from_joint(JointDistribution2x2(0.0, 0.5, 0.5, 0.0)) == 1.0

    def test_half_against_hand_value(self):
        got = mutual_information_from_joint(singlet_joint_distribution(0.5))
        assert got == pytest.approx(0.1887, abs=1e-4)
        assert got == pytest.approx(MI_AT_HALF, abs=1e-14)

    def test_bit_identical_to_the_probability_loop(self, rng):
        def reference(joint):
            # the per-probability loop this function ran before it shared the count formula
            pa_plus, pa_minus = joint.marginal_a()
            pb_plus, pb_minus = joint.marginal_b()
            cells = (
                (joint.p_pp, pa_plus, pb_plus),
                (joint.p_pm, pa_plus, pb_minus),
                (joint.p_mp, pa_minus, pb_plus),
                (joint.p_mm, pa_minus, pb_minus),
            )
            total = 0.0
            for pab, pa, pb in cells:
                if pab > 0.0:
                    total += pab * math.log2(pab / (pa * pb))
            return min(1.0, max(0.0, total))

        joints = [singlet_joint_distribution(c) for c in (0.0, 1.0, -1.0)]
        for i in range(500):
            p = rng.dirichlet(np.ones(4))
            if i % 5 == 0:  # an empty cell as well
                p[i % 4] = 0.0
                p /= p.sum()
            joints.append(JointDistribution2x2(*p.tolist()))
        for joint in joints:
            assert mutual_information_from_joint(joint).hex() == reference(joint).hex()


class TestAnalyticMutualInformation:
    def test_zero_at_orthogonal(self):
        assert analytic_mutual_information(0.0) == 0.0

    def test_one_at_endpoints(self):
        assert analytic_mutual_information(1.0) == 1.0
        assert analytic_mutual_information(-1.0) == 1.0

    def test_half_against_joint_oracle(self):
        got = analytic_mutual_information(0.5)
        assert got == pytest.approx(0.1887, abs=1e-4)
        assert got == pytest.approx(mutual_information_from_joint(singlet_joint_distribution(0.5)), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            analytic_mutual_information(1.1)
        with pytest.raises(DomainError):
            analytic_mutual_information(np.array([0.0, -1.2]))

    def test_array_input(self):
        c = np.array([[0.0, 1.0], [-1.0, 0.5]])
        out = analytic_mutual_information(c)
        assert out.shape == (2, 2)
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0 and out[1, 0] == 1.0
        assert out[1, 1] == analytic_mutual_information(0.5)


class TestClosedFormInvariants:
    def test_distribution_valid_on_grid(self):
        for c in np.linspace(-1.0, 1.0, 1001):
            d = singlet_joint_distribution(float(c))
            entries = (d.p_pp, d.p_pm, d.p_mp, d.p_mm)
            assert all(p >= 0.0 for p in entries)
            assert abs(sum(entries) - 1.0) < 1e-12

    def test_marginals_are_half(self):
        for c in np.linspace(-1.0, 1.0, 1001):
            d = singlet_joint_distribution(float(c))
            for m in (*d.marginal_a(), *d.marginal_b()):
                assert abs(m - 0.5) < 1e-15

    def test_correlation_moment(self):
        # sum(a*b*p) = -cos over the grid
        for c in np.linspace(-1.0, 1.0, 1001):
            d = singlet_joint_distribution(float(c))
            moment = d.p_pp - d.p_pm - d.p_mp + d.p_mm
            assert abs(moment + c) < 1e-12

    def test_evenness_exact(self, rng):
        for c in rng.uniform(0.0, 1.0, size=500):
            assert analytic_mutual_information(float(c)) == analytic_mutual_information(-float(c))

    def test_closed_form_matches_tabulated(self):
        grid = np.linspace(-1.0, 1.0, 1003)[1:-1]
        for c in grid:
            via_joint = mutual_information_from_joint(singlet_joint_distribution(float(c)))
            assert abs(analytic_mutual_information(float(c)) - via_joint) < 1e-10

    def test_monotone_in_angle(self):
        theta = np.linspace(0.0, math.pi / 2.0, 2001)
        vals = analytic_mutual_information(np.cos(theta))
        assert np.all(np.diff(vals) <= 0.0)
