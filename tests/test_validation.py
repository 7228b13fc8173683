"""The shared validation rules of ``singlet_frame.core`` and the package's public names."""

import math
import warnings

import numpy as np
import pytest

import singlet_frame
from singlet_frame import (
    Direction,
    FrameEstimate,
    HemispherePrior,
    OutcomeRecord,
    ProtocolParams,
    SamplerConfig,
    SignTally,
    generate_trial_directions,
    run_measurement_batch,
    sample_joint_counts,
    sign_tally_from_arrays,
    transfer_direction,
    transfer_frame,
)
from singlet_frame import bayes, core, protocol, sampler
from singlet_frame.config import ConfigError, parse_config

Z = Direction(0.0, 0.0, 1.0)
U64 = 2**64 - 1
I64 = 2**63 - 1


def _params(**overrides):
    kwargs = {"n_trials": 10, "batch_size": 10, "refine_rounds": 1, "prior": HemispherePrior(None), "mode": "exact"}
    kwargs.update(overrides)
    return ProtocolParams(**kwargs)


def _config(**overrides):
    data = {"mode": "sampled", "alice_direction": {"theta": 1.5, "phi": 2.1}, "trials": 10, "batch": 100, "seed": 7}
    data.update(overrides)
    return parse_config(data)


# (name shown in the message, low, high or None, constructor of the checked value)
INT_FIELDS = [
    ("seed", 0, U64, lambda v: SamplerConfig(v)),
    ("stream_id", 0, U64, lambda v: SamplerConfig(0, v)),
    ("batch_size", 1, None, lambda v: run_measurement_batch(Z, Z, v, SamplerConfig(1))),
    ("batch_size", 1, None, lambda v: sample_joint_counts(Z, Z, v, SamplerConfig(1))),
    ("batch_size", 1, None, lambda v: sampler._joint_counts(Z, ((0.0, 0.0, 1.0),), v, SamplerConfig(1))),
    ("n_trials", 1, None, lambda v: _params(n_trials=v)),
    ("batch_size", 1, None, lambda v: _params(batch_size=v)),
    ("refine_rounds", 0, None, lambda v: _params(refine_rounds=v)),
    ("jitter_seed", 0, U64, lambda v: _params(jitter_seed=v)),
    ("n_plus", 0, I64, lambda v: SignTally(v, 1)),
    ("n_minus", 0, I64, lambda v: SignTally(1, v)),
    ("substream indices", 0, U64, lambda v: SamplerConfig(1).child(v)),
    ("count", 1, None, lambda v: generate_trial_directions(v, HemispherePrior(None))),
    ("'trials'", 1, None, lambda v: _config(trials=v)),
    ("'batch'", 1, None, lambda v: _config(batch=v)),
    ("'refine_rounds'", 0, None, lambda v: _config(refine_rounds=v)),
    ("'seed'", 0, U64, lambda v: _config(seed=v)),
    ("'stream'", 0, U64, lambda v: _config(stream=v)),
    ("'jitter_seed'", 0, U64, lambda v: _config(jitter_seed=v)),
]


def _bad_int_cases():
    for i, (name, low, high, build) in enumerate(INT_FIELDS):
        field = name.strip("'")
        for value in (True, 1.5, "3", low - 1) + (() if high is None else (high + 1,)):
            yield pytest.param(name, build, value, id=f"{i}-{field}-{value!r}")


@pytest.mark.parametrize("name, build, value", _bad_int_cases())
def test_integer_rule_rejects_and_names_field(name, build, value):
    with pytest.raises(ValueError, match=name) as err:
        build(value)
    # parse_config names its fields in quotes and raises its own ValueError subclass
    assert isinstance(err.value, ConfigError) == name.startswith("'")


@pytest.mark.parametrize("name, low, high, build", INT_FIELDS)
def test_integer_rule_accepts_bounds(name, low, high, build):
    build(low)
    if high is not None:
        build(high)


@pytest.mark.parametrize("path", [(2**64,), (3, 2**64)], ids=["first", "second"])
def test_substream_index_beyond_uint64_is_refused(path):
    # splitmix64 folds an index modulo 2**64, so child(2**64) drew child(0)'s counts
    message = r"^substream indices must be an integer in \[0, 2\*\*64 - 1\], got 18446744073709551616$"
    with pytest.raises(ValueError, match=message):
        SamplerConfig(1).child(*path)
    assert SamplerConfig(1).child(*path[:-1], U64) != SamplerConfig(1).child(*path[:-1], 0)


@pytest.mark.parametrize("pole", [(0, 0, 1), np.array([0.0, 0.0, 1.0]), "z"], ids=["tuple", "array", "str"])
def test_hemisphere_prior_pole_must_be_a_direction(pole):
    # a prior with a tuple pole used to fail only inside transfer_direction
    with pytest.raises(ValueError, match="pole"):
        HemispherePrior(pole)
    assert HemispherePrior(Z).pole is Z and HemispherePrior(None).pole is None


@pytest.mark.parametrize("prior", [None, Z], ids=["None", "Direction"])
def test_protocol_params_checks_prior(prior):
    with pytest.raises(ValueError, match="prior"):
        _params(prior=prior)


@pytest.mark.parametrize("mode", ["sampled", "exact"])
@pytest.mark.parametrize("config", [(1, 2), 7, {"seed": 1}], ids=["tuple", "int", "dict"])
def test_protocol_params_checks_config(config, mode):
    # a tuple config used to fail only inside the transfer, as an AttributeError
    with pytest.raises(ValueError, match="config must be a SamplerConfig or None"):
        ProtocolParams(10, 100, 1, HemispherePrior(None), config=config, mode=mode)


FRAME = (Direction(1.0, 0.0, 0.0), Direction(0.0, 1.0, 0.0), Z)
# (start of the message, call given a stand-in for one Direction)
DIRECTION_ENTRY_POINTS = {
    "transfer_direction": ("alice_direction", lambda v: transfer_direction(v, _params())),
    "transfer_frame": ("alice_frame", lambda v: transfer_frame(FRAME[:2] + (v,), _params())),
    "FrameEstimate": ("FrameEstimate.axes", lambda v: FrameEstimate(
        FRAME[:2] + (v,), transfer_frame(FRAME, _params()).axis_results, orthonormalized=True)),
    "OutcomeRecord.x": ("x", lambda v: OutcomeRecord(a=np.ones(2), b=np.ones(2), x=v, y=Z)),
    "OutcomeRecord.y": ("y", lambda v: OutcomeRecord(a=np.ones(2), b=np.ones(2), x=Z, y=v)),
}


@pytest.mark.parametrize("value", [(0.0, 0.0, 1.0), np.array([0.0, 0.0, 1.0])], ids=["tuple", "array"])
@pytest.mark.parametrize("entry", DIRECTION_ENTRY_POINTS)
def test_settings_must_be_directions(entry, value):
    # a tuple used to raise AttributeError in the transfers and was stored silently by OutcomeRecord
    name, call = DIRECTION_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be (a Direction|three orthonormal Directions)"):
        call(value)
    call(Z)


XYZ = (0.0, 0.0, 1.0)
# (argument named at the start of the message, call given a bad value for it); each used to raise
# AttributeError or TypeError, or to be accepted as given
BAD_ARGUMENTS = {
    "resolve_sign.estimate": ("estimate", lambda: protocol.resolve_sign(XYZ, HemispherePrior(Z))),
    "resolve_sign.prior": ("prior", lambda: protocol.resolve_sign(Z, None)),
    "generate_trial_directions.prior": ("prior", lambda: generate_trial_directions(5, None)),
    "sample_joint_counts.x": ("x", lambda: sample_joint_counts(XYZ, Z, 10, SamplerConfig(1))),
    "sample_joint_counts.y": ("y", lambda: sample_joint_counts(Z, XYZ, 10, SamplerConfig(1))),
    "sample_joint_counts.config": ("config", lambda: sample_joint_counts(Z, Z, 10, (1, 0))),
    "run_measurement_batch.x": ("x", lambda: run_measurement_batch(XYZ, Z, 10, SamplerConfig(1))),
    "run_measurement_batch.y": ("y", lambda: run_measurement_batch(Z, XYZ, 10, SamplerConfig(1))),
    "run_measurement_batch.config": ("config", lambda: run_measurement_batch(Z, Z, 10, 7)),
    "cos_angle.u": ("u", lambda: core.cos_angle(XYZ, Z)),
    "cos_angle.v": ("v", lambda: core.cos_angle(Z, XYZ)),
    "posterior_summary.tally": ("tally", lambda: bayes.posterior_summary((5, 6))),
    "credible_interval.tally": ("tally", lambda: bayes.credible_interval((5, 6), 0.95)),
    "posterior_peak.tally": ("tally", lambda: bayes.posterior_peak((5, 6))),
    "log_likelihood.tally": ("tally", lambda: bayes.log_likelihood((5, 6), 0.3)),
    "posterior_density.tally": ("tally", lambda: bayes.posterior_density(0.3, (5, 6))),
    "posterior_theta_density.tally": ("tally", lambda: bayes.posterior_theta_density(0.3, (5, 6))),
    "log_normalization_d.tally": ("tally", lambda: bayes.log_normalization_d((5, 6))),
    "conditional_direction_density.tally": ("tally", lambda: bayes.conditional_direction_density(Z, (5, 6), Z)),
    "sign_tally.record": ("record", lambda: bayes.sign_tally(None)),
    "transfer_frame.orthonormalize": ("orthonormalize", lambda: transfer_frame(FRAME, _params(), orthonormalize="yes")),
    "transfer_frame.priors": (
        "priors", lambda: transfer_frame(FRAME, _params(), priors=(HemispherePrior(None) for _ in range(3)))),
}


@pytest.mark.parametrize("entry", BAD_ARGUMENTS)
def test_library_entry_point_names_a_bad_argument(entry):
    name, call = BAD_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


@pytest.mark.parametrize("component", ["1", b"1", "a", 1j, np.complex128(1.0), np.complex64(1.0), None, [1.0]], ids=repr)
@pytest.mark.parametrize("place", range(3))
def test_direction_components_must_be_real_numbers(place, component):
    # float() parsed text, so Direction("1", 0, 0) was (1, 0, 0); "a", 1j and None raised bare errors
    components = [0.0, 0.0, 1.0]
    components[place] = component
    with pytest.raises(core.DomainError, match="^direction components must be real numbers"):
        Direction(*components)


# each bad entry equals neither -1 nor +1, yet a cast to int8 or int64 would have made it one
BAD_OUTCOMES = [
    pytest.param(np.array([1.5, 1.0]), id="1.5"),
    pytest.param(np.array([257, -1]), id="257"),
    pytest.param(np.array([U64, 1], dtype=np.uint64), id="uint64-max"),
    pytest.param(np.array(["1", "1"]), id="str-1"),
]
OUTCOME_ENTRY_POINTS = {
    "OutcomeRecord.a": lambda v: OutcomeRecord(a=v, b=np.ones(2, dtype=np.int8), x=Z, y=Z),
    "OutcomeRecord.b": lambda v: OutcomeRecord(a=np.ones(2, dtype=np.int8), b=v, x=Z, y=Z),
    "sign_tally_from_arrays.a": lambda v: sign_tally_from_arrays(v, np.ones(2, dtype=np.int8)),
    "sign_tally_from_arrays.b": lambda v: sign_tally_from_arrays(np.ones(2, dtype=np.int8), v),
}


@pytest.mark.parametrize("values", BAD_OUTCOMES)
@pytest.mark.parametrize("entry", OUTCOME_ENTRY_POINTS)
def test_outcome_rule_rejects_instead_of_casting(entry, values):
    with pytest.raises(ValueError, match="-1 or \\+1"):
        OUTCOME_ENTRY_POINTS[entry](values)


def test_orthonormalized_frame_estimate_checks_its_axes():
    frame = (Direction(1.0, 0.0, 0.0), Direction(0.0, 1.0, 0.0), Z)
    results = transfer_frame(frame, _params()).axis_results
    skewed = (Direction(1.0, 0.0, 0.0), Direction(0.9, 0.1, 0.0), Z)
    with pytest.raises(ValueError, match="FrameEstimate.axes"):
        FrameEstimate(skewed, results, orthonormalized=True)
    assert FrameEstimate(skewed, results, orthonormalized=False).axis_results == results


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("theta", [*NON_FINITE, [0.5, math.inf], [math.inf, math.nan], np.array([[0.0], [math.nan]])])
def test_theta_density_rejects_non_finite_angles(theta):
    # the cosine form rejects a bad cosine; the angle form returned NaN with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(core.DomainError, match="angle must be finite"):
            bayes.posterior_theta_density(theta, SignTally(3, 4))


def test_theta_density_accepts_finite_angles():
    assert bayes.posterior_theta_density(0.0, SignTally(0, 4)) > 0.0
    assert bayes.posterior_theta_density([-7.0, 100.0], SignTally(3, 4)).shape == (2,)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("which", ["theta", "phi"])
def test_direction_from_polar_rejects_non_finite_angles(which, bad):
    # an infinite angle used to raise a bare ValueError("math domain error") from math.sin
    angles = {"theta": 0.0, "phi": 0.0, which: bad}
    with pytest.raises(core.DomainError, match=f"polar angles must be finite, got theta={angles['theta']!r}, "
                                               f"phi={angles['phi']!r}"):
        core.direction_from_polar(**angles)



# every entry point that takes a float argument, each given the int ``v``
FLOAT_ENTRY_POINTS = [
    ("direction_from_polar", core.DomainError, lambda v: core.direction_from_polar(v, 0.0)),
    ("Direction", core.DomainError, lambda v: Direction(v, 0.0, 0.0)),
    ("cos_angle", core.DomainError, lambda v: core.cos_angle(Direction(0.0, v, 1.0), Z)),
    ("singlet_joint_distribution", core.DomainError, lambda v: core.singlet_joint_distribution(v)),
    ("JointDistribution2x2", core.DistributionError, lambda v: core.JointDistribution2x2(v, 0.0, 0.0, 0.0)),
    ("analytic_mutual_information", core.DomainError, lambda v: core.analytic_mutual_information(v)),
    ("posterior_density", core.DomainError, lambda v: bayes.posterior_density(v, SignTally(3, 4))),
    ("posterior_theta_density", core.DomainError, lambda v: bayes.posterior_theta_density(v, SignTally(3, 4))),
    ("log_likelihood", core.DomainError, lambda v: bayes.log_likelihood(SignTally(3, 4), v)),
]


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["+10**400", "-10**400"])
@pytest.mark.parametrize("error, call", [e[1:] for e in FLOAT_ENTRY_POINTS], ids=[e[0] for e in FLOAT_ENTRY_POINTS])
def test_int_too_large_for_a_float_is_a_domain_error(error, call, value):
    # float(10**400) raises OverflowError, which is not a ValueError
    with pytest.raises(error):
        call(value)

class TestPublicNames:
    MODULES = (core, sampler, protocol, bayes)

    def test_no_duplicates(self):
        assert len(singlet_frame.__all__) == len(set(singlet_frame.__all__))

    def test_union_of_module_lists(self):
        union = {"__version__"}.union(*(m.__all__ for m in self.MODULES))
        assert set(singlet_frame.__all__) == union
        # the whole list, so an added or re-added name shows in review
        assert sorted(union) == [
            "CountTable", "Direction", "DistributionError", "DomainError", "FrameEstimate", "HemispherePrior",
            "JointDistribution2x2", "OutcomeRecord", "PosteriorSummary", "ProtocolParams", "SamplerConfig",
            "SignTally", "TransferResult", "TrialRecord", "__version__", "analytic_mutual_information",
            "conditional_direction_density", "cos_angle", "credible_interval", "direction_from_polar",
            "estimate_mutual_information", "generate_trial_directions", "log_likelihood",
            "log_normalization_d", "mutual_information_from_joint", "posterior_density", "posterior_peak",
            "posterior_summary", "posterior_theta_density", "resolve_sign", "run_measurement_batch",
            "sample_joint_counts", "sample_outcome_pair", "sign_tally", "sign_tally_from_arrays",
            "singlet_joint_distribution", "tally", "transfer_direction", "transfer_frame",
        ]

    def test_names_resolve_to_module_objects(self):
        for module in self.MODULES:
            for name in module.__all__:
                assert getattr(singlet_frame, name) is getattr(module, name), name
