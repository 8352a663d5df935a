"""Numeric helpers: entropy, closed forms, sampling, filtering, search."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isd.errors import (
    EmptyLibraryError,
    InsufficientSamplesError,
    MeasureInputError,
    NumericalSingularityError,
    UnboundedSegmentError,
)
from isd.measures import Metric, distortion, mismatch, sampling_rate
from isd.model import Element, Information, is_reducible
from isd.oracles import (
    KalmanModel,
    KalmanResult,
    PeriodicSignal,
    ProbabilityVector,
    RadarParams,
    SearchLibrary,
    SearchResult,
    asl_binary,
    asl_binary_closed_form,
    asl_sequential,
    asl_sequential_empirical,
    kalman_filter,
    kalman_reflection,
    measurement_reflection,
    metcalfe_value,
    min_mismatch_search,
    mtbf_mean_duration,
    network_info_bounds,
    radar_max_range,
    rayleigh_min_angle,
    reconstruct_signal,
    sample_signal,
    shannon_entropy,
    simulate_tracking,
    tracking_information,
    verify_entropy_max,
)
from isd.timeset import TimeSet
from isd.values import Value, objective, subjective

import reference_kalman
from conftest import two_atom_info


# -- entropy ------------------------------------------------------------------


def test_entropy_fair_coin():
    r = shannon_entropy(ProbabilityVector.of(Fraction(1, 2), Fraction(1, 2)))
    assert abs(r.bits - 1.0) < 1e-12
    assert r.le_log2_n and r.log2_n_le_n_minus_1


def test_entropy_dyadic_exact():
    r = shannon_entropy(
        ProbabilityVector.of(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    )
    assert abs(r.bits - 1.5) < 1e-12


def test_entropy_skewed_below_bound():
    r = shannon_entropy(ProbabilityVector.of(Fraction(9, 10), Fraction(1, 10)))
    assert r.bits < 1.0
    # direct recomputation, no shared code path
    p = [0.9, 0.1]
    assert abs(r.bits - (-sum(q * math.log2(q) for q in p))) < 1e-12


def test_probability_vector_validation():
    with pytest.raises(ValueError):
        ProbabilityVector.of(Fraction(1, 2))
    with pytest.raises(ValueError):
        ProbabilityVector.of(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        ProbabilityVector.of(Fraction(3, 2), Fraction(-1, 2))
    assert len(ProbabilityVector.uniform(5)) == 5


def test_verify_entropy_max_small():
    rep = verify_entropy_max(3, trials=2000, seed=7)
    assert rep.all_within_bounds
    assert rep.max_gap_to_log2_n < 1e-3
    assert rep.max_is_near_uniform
    assert rep.near_max_always_near_uniform
    with pytest.raises(ValueError):
        verify_entropy_max(1)


# -- closed forms -------------------------------------------------------------


def test_radar_quartic_against_direct_formula():
    p = RadarParams(
        transmit_power=1e3,
        transmit_gain=30.0,
        effective_aperture=2.0,
        cross_section=5.0,
        min_detectable_power=1e-12,
    )
    direct = ((1e3 * 30.0 * 2.0 * 5.0) / ((4 * math.pi) ** 2 * 1e-12)) ** 0.25
    assert abs(radar_max_range(p) - direct) / direct < 1e-12


def test_radar_cross_section_sixteen_doubles_range():
    base = RadarParams(1.0, 1.0, 1.0, 1.0, 1e-9)
    bigger = RadarParams(1.0, 1.0, 1.0, 16.0, 1e-9)
    r0, r1 = radar_max_range(base), radar_max_range(bigger)
    assert abs(r1 - 2.0 * r0) / r0 < 1e-12


def test_radar_params_positive():
    with pytest.raises(ValueError):
        RadarParams(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RadarParams(1.0, 1.0, 1.0, 1.0, -2.0)


def test_rayleigh_ratio():
    assert rayleigh_min_angle(1, 1) == 1
    assert rayleigh_min_angle(Fraction(1, 2000), Fraction(1, 500)) == Fraction(1, 4)
    with pytest.raises(ValueError):
        rayleigh_min_angle(0, 1)


def test_network_square_law():
    assert metcalfe_value(1) == 1
    for n in (2, 10, 100):
        s, c = network_info_bounds(n)
        assert metcalfe_value(n) == s * c == n * n
    with pytest.raises(ValueError):
        metcalfe_value(-1)


def test_mtbf_mean_segment_width():
    assert mtbf_mean_duration([TimeSet.interval(0, 5)]) == 5
    got = mtbf_mean_duration(
        [TimeSet.interval(0, 2), TimeSet.interval(10, 16)]
    )
    assert got == 4
    with pytest.raises(UnboundedSegmentError):
        mtbf_mean_duration([TimeSet.ray(0)])
    with pytest.raises(ValueError):
        mtbf_mean_duration([])


# -- sampling and reconstruction ----------------------------------------------


def test_sample_signal_counts_and_rate():
    tone = PeriodicSignal.tone(Fraction(2))
    samples = sample_signal(tone, gap=Fraction(1, 2), span=Fraction(4))
    assert len(samples.states) == 9
    assert sampling_rate(samples) == 2
    ragged = sample_signal(tone, gap=Fraction(3, 7), span=Fraction(2))
    assert sampling_rate(ragged) == Fraction(7, 3)


def test_reconstruct_dense_sampling_recovers_tone():
    tone = PeriodicSignal.tone(Fraction(2))
    samples = sample_signal(tone, gap=1, span=12)
    r = reconstruct_signal(samples, Fraction(2), reference=tone)
    assert r.residual < 1e-9
    assert r.reducible
    assert r.meets_rate_threshold
    assert r.measured_rate == 1
    assert r.threshold_rate == 1
    assert abs(r.cos_amplitude - 1.0) < 1e-9


def test_reconstruct_sparse_sampling_aliases():
    tone = PeriodicSignal.tone(Fraction(2))
    samples = sample_signal(tone, gap=4, span=48)
    r = reconstruct_signal(samples, Fraction(2), reference=tone)
    assert r.residual > 1e-3
    assert not r.reducible
    assert not r.meets_rate_threshold
    # the trap the reference argument exists for: the fit alone looks fine
    assert r.fit_residual < 1e-9


def test_reconstruct_needs_three_samples():
    tone = PeriodicSignal.tone(Fraction(2))
    samples = sample_signal(tone, gap=4, span=4)
    with pytest.raises(InsufficientSamplesError):
        reconstruct_signal(samples, Fraction(2))


def test_periodic_signal_validation():
    with pytest.raises(ValueError):
        PeriodicSignal.tone(0)
    with pytest.raises(ValueError):
        PeriodicSignal(((Fraction(1, 3), 1.0, 0.0),), period=Fraction(2))
    flat = PeriodicSignal.constant(3.0)
    assert flat.value(17.2) == 3.0


# -- kalman -------------------------------------------------------------------


def _static_model(steps, r, p0, zs):
    return KalmanModel(
        A=np.array([[1.0]]),
        B=np.zeros((1, 1)),
        H=np.array([[1.0]]),
        Q=np.zeros((1, 1)),
        R=np.array([[r]]),
        x0=np.array([0.0]),
        P0=np.array([[p0]]),
        us=np.zeros((steps, 1)),
        zs=np.asarray(zs).reshape(steps, 1),
    )


def test_kalman_static_matches_hand_rolled_scalar():
    rng = random.Random(3)
    steps, r, p0 = 12, 2.0, 5.0
    zs = [rng.gauss(1.0, math.sqrt(r)) for _ in range(steps)]
    result = kalman_filter(_static_model(steps, r, p0, zs))

    x, p = 0.0, p0
    for k, z in enumerate(zs):
        g = p / (p + r)
        x = x + g * (z - x)
        p = (1 - g) * p
        assert abs(result.states[k, 0] - x) < 1e-12
        assert abs(result.covariances[k, 0, 0] - p) < 1e-12
        assert abs(result.gains[k, 0, 0] - g) < 1e-12


def test_kalman_static_closed_form_covariance():
    steps, r, p0 = 50, 3.0, 7.0
    zs = [0.0] * steps
    result = kalman_filter(_static_model(steps, r, p0, zs))
    for k in range(1, steps + 1):
        expected = p0 * r / (k * p0 + r)
        got = result.covariances[k - 1, 0, 0]
        assert abs(got - expected) / expected < 1e-10


def test_kalman_singular_innovation_rejected():
    model = KalmanModel(
        A=np.eye(2),
        B=np.zeros((2, 1)),
        H=np.array([[1.0, 0.0], [1.0, 0.0]]),
        Q=np.zeros((2, 2)),
        R=np.zeros((2, 2)),
        x0=np.zeros(2),
        P0=np.eye(2),
        us=np.zeros((3, 1)),
        zs=np.zeros((3, 2)),
    )
    with pytest.raises(NumericalSingularityError):
        kalman_filter(model)


@pytest.mark.parametrize("seed", range(20))
def test_kalman_matches_reference_bytes(seed):
    model = simulate_tracking(seed=seed).model
    _same_bytes(kalman_filter(model), reference_kalman.kalman_filter(model), _RESULT_FIELDS)


_RESULT_FIELDS = ("predicted_states", "predicted_covariances", "gains", "states", "covariances")


def _same_bytes(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def _read_as_matmul(message) -> str:
    """A numpy warning names the function that raised it; the package's
    filter calls ``np.dot`` where the reference calls ``@``."""
    return str(message).replace("encountered in dot", "encountered in matmul")


def _outcome(filter_, model):
    """What ``filter_`` makes of ``model`` with every warning an error: its
    result, or the type and text of what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return filter_(model)
        except (NumericalSingularityError, RuntimeWarning) as e:
            return type(e), _read_as_matmul(e)


_entries = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.builds(
    math.copysign,
    st.floats(1e-3, 1e3),
    st.sampled_from([1.0, -1.0]),
)


@st.composite
def kalman_models(draw):
    n, p, m = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    steps = draw(st.integers(0, 12))

    def matrix(*shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(_entries, min_size=size, max_size=size))).reshape(shape)

    return KalmanModel(
        A=matrix(n, n), B=matrix(n, m), H=matrix(p, n), Q=matrix(n, n), R=matrix(p, p),
        x0=matrix(n), P0=matrix(n, n), us=matrix(steps, m), zs=matrix(steps, p),
    )


@given(kalman_models())
@settings(max_examples=300, deadline=None)
def test_kalman_matches_reference_on_random_models(model):
    """Products through ``np.dot`` and a 1x1 inverse as a reciprocal give the
    reference's bytes on every shape, not only on the tracking model,
    whose products are all exact; a refusal or warning is the same too."""
    got, want = _outcome(kalman_filter, model), _outcome(reference_kalman.kalman_filter, model)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, KalmanResult), got
        _same_bytes(got, want, _RESULT_FIELDS)


def _tracking_arrays(steps=5):
    model = simulate_tracking(steps=steps).model
    return {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}


@pytest.mark.parametrize(
    "name, bad, message",
    [
        ("x0", np.zeros(3), "x0 has shape (3,); it should be (2,)"),
        ("B", np.zeros(2), "B has shape (2,); it should be (2, m)"),
        ("us", np.zeros(5), "us has shape (5,); it should be (5, 1)"),
        ("us", np.zeros((4, 1)), "us has shape (4, 1); it should be (5, 1)"),
        ("zs", np.zeros((5, 2)), "zs has shape (5, 2); it should be (5, 1)"),
        ("zs", np.zeros((5, 1, 1)), "zs has shape (5, 1, 1); it should be (5, 1)"),
        ("A", np.zeros((2, 3)), "A has shape (2, 3); it should be (2, 2)"),
        ("A", np.float64(1.0), "A has shape (); it should be (n, n)"),
        ("Q", np.zeros((3, 3)), "Q has shape (3, 3); it should be (2, 2)"),
    ],
)
def test_kalman_model_refuses_a_misshapen_array(name, bad, message):
    arrays = _tracking_arrays()
    arrays[name] = bad
    with pytest.raises(ValueError) as caught:
        KalmanModel(**arrays)
    assert str(caught.value) == message


def test_kalman_model_refuses_an_empty_measurement():
    arrays = _tracking_arrays()
    arrays.update(H=np.zeros((0, 2)), R=np.zeros((0, 0)), zs=np.zeros((5, 0)))
    with pytest.raises(ValueError, match="H has no rows"):
        KalmanModel(**arrays)


def test_kalman_flat_measurements_filter_as_one_column():
    arrays = _tracking_arrays(steps=40)
    flat = KalmanModel(**{**arrays, "zs": arrays["zs"][:, 0]})
    assert flat.zs.shape == (40,)
    _same_bytes(kalman_filter(flat), kalman_filter(KalmanModel(**arrays)), _RESULT_FIELDS)


def test_kalman_without_steps_keeps_flat_arrays():
    model = _static_model(0, 1.0, 1.0, np.empty((0, 1)))
    got, want = kalman_filter(model), reference_kalman.kalman_filter(model)
    assert got.states.shape == (0,)
    _same_bytes(got, want, _RESULT_FIELDS)


@pytest.mark.parametrize("n", [1, 2])
def test_kalman_subnormal_innovation_matches_reference(n):
    """A subnormal 1x1 innovation covariance inverts to inf, as LAPACK's
    inverse does, without a warning of its own: what follows warns as the
    reference does."""
    A = np.eye(n)
    model = KalmanModel(
        A=A, B=np.zeros((n, 1)), H=A[:1], Q=np.zeros((n, n)), R=np.array([[5e-324]]),
        x0=np.zeros(n), P0=np.zeros((n, n)), us=np.zeros((1, 1)), zs=np.ones((1, 1)),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = kalman_filter(model)
    with warnings.catch_warnings(record=True) as expected:
        warnings.simplefilter("always")
        want = reference_kalman.kalman_filter(model)
    assert np.isnan(got.gains).all()  # 0 * inf
    _same_bytes(got, want, _RESULT_FIELDS)
    assert [(w.category, _read_as_matmul(w.message)) for w in caught] == [
        (w.category, str(w.message)) for w in expected
    ]


def test_kalman_zero_innovation_is_refused_as_by_the_reference():
    model = _static_model(3, 0.0, 0.0, [0.0, 1.0, 2.0])
    got, want = _outcome(kalman_filter, model), _outcome(reference_kalman.kalman_filter, model)
    assert got == want == (
        NumericalSingularityError, "innovation covariance too ill-conditioned to invert"
    )


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize(
    "name, index", [("A", (0, 0)), ("H", (0, 0)), ("Q", (1, 1)), ("R", (0, 0)), ("P0", (1, 1))]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kalman_non_finite_matrix_fails_at_the_innovation(p, name, index, bad):
    model = simulate_tracking(steps=20, seed=0).model
    if p == 2:
        model = dataclasses.replace(model, H=np.eye(2), R=np.eye(2), zs=np.zeros((20, 2)))
    getattr(model, name)[index] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf, 0 * inf
        with pytest.raises(NumericalSingularityError, match="innovation covariance is not finite"):
            kalman_filter(model)


@pytest.mark.parametrize("steps", [0, 1, 7, 200])
@pytest.mark.parametrize("dt", [1.0, 0.1, 2.5])
@pytest.mark.parametrize("process_noise, measurement_noise", [(1e-4, 1.0), (0.5, 3.0)])
def test_simulate_tracking_matches_reference_bytes(steps, dt, process_noise, measurement_noise):
    args = (steps, dt, process_noise, measurement_noise, steps + 3)
    got, want = simulate_tracking(*args), reference_kalman.simulate_tracking(*args)
    _same_bytes(got, want, ("times", "true_positions"))
    _same_bytes(got.model, want.model, ("A", "B", "H", "Q", "R", "x0", "P0", "us", "zs"))


@pytest.mark.parametrize("r, p0", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (0.0, 0.0)])
def test_kalman_scalar_innovation_failures_are_typed(r, p0):
    with pytest.raises(NumericalSingularityError):
        kalman_filter(_static_model(3, r, p0, [0.0, 1.0, 2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name, index", [("x0", 0), ("B", (0, 0)), ("us", 5), ("zs", 5)])
def test_kalman_non_finite_input_is_typed(name, index, bad):
    model = simulate_tracking(steps=20, seed=0).model
    getattr(model, name)[index] = bad
    with pytest.raises(NumericalSingularityError, match=f"{name} has a non-finite entry"):
        kalman_filter(model)


def test_kalman_model_copies_its_inputs():
    zs = np.array([[0.0], [1.0], [2.0]])
    model = _static_model(3, 1.0, 1.0, zs)
    zs[1, 0] = math.nan
    assert model.zs.tolist() == [[0.0], [1.0], [2.0]]
    kalman_filter(model)  # the caller's NaN is not the model's


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("what", ["time", "position", "measurement"])
def test_tracking_information_non_finite_is_typed(what, bad):
    run = simulate_tracking(steps=20, seed=0)
    array = {"time": run.times, "position": run.true_positions, "measurement": run.model.zs}
    array[what][5] = bad
    with pytest.raises(NumericalSingularityError, match=f"non-finite {what}"):
        tracking_information(run)


def test_tracking_information_round():
    run = simulate_tracking(steps=40, seed=5)
    info = tracking_information(run)
    assert len(info.states) == 40
    assert len(info.reflections) == 40
    assert is_reducible(info)

    filtered = kalman_reflection(run, info)
    raw = measurement_reflection(info)
    metric = Metric("euclidean_on_values")
    d_filter = distortion(info, filtered, metric)
    d_raw = distortion(info, raw, metric)
    assert d_filter >= 0 and d_raw >= 0


def test_kalman_beats_raw_on_longer_run():
    run = simulate_tracking(steps=400, seed=11)
    info = tracking_information(run)
    metric = Metric("euclidean_on_values")
    d_filter = distortion(info, kalman_reflection(run, info), metric)
    d_raw = distortion(info, measurement_reflection(info), metric)
    assert d_filter < d_raw


def _tracking_pairs(run, target, sensor):
    """The pairs ``tracking_information`` packages, built with the public
    constructors."""
    pairs = []
    columns = (run.times, run.true_positions, run.model.zs[:, 0])
    for t, pos, z in zip(*(c.tolist() for c in columns)):
        at = TimeSet.point(Fraction(t))
        pairs.append(
            (
                Element({target}, at, Value.scalar(Fraction(pos))),
                Element({sensor}, at, Value.scalar(Fraction(z))),
            )
        )
    return pairs


def _keys(ts):
    return ts._d, ts._los, ts._his, ts._ray


@given(
    steps=st.integers(1, 50),
    dt=st.sampled_from([1.0, 0.1, 0.3, 1 / 3, 2.5, 1e-3, 7.0, 0.0]),
    reverse=st.booleans(),
    sensor=st.sampled_from([objective("sensor"), subjective("eye")]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_tracking_information_is_from_pairs_on_its_pairs(steps, dt, reverse, sensor, seed):
    """A run whose times strictly increase is packaged as it stands; with
    dt = 0 or reversed times it goes through ``from_pairs``.  Either way
    the value is the one ``from_pairs`` gives, to the mark and the keys."""
    run = simulate_tracking(steps=steps, dt=dt, seed=seed)
    if reverse:
        run = dataclasses.replace(run, times=run.times[::-1].copy())
    target = objective("target")
    got = tracking_information(run, target, sensor)
    want = Information.from_pairs("tracking", _tracking_pairs(run, target, sensor))
    assert got == want
    assert got.mapping == want.mapping
    assert repr(got) == repr(want)
    assert got._known_valid == want._known_valid == sensor.is_objective
    assert _keys(got.occurrence) == _keys(want.occurrence)
    assert _keys(got.reflection_time) == _keys(want.reflection_time)
    assert list(got.states) == list(want.states)


def test_tracking_information_of_no_steps_is_refused():
    with pytest.raises(ValueError, match="an information needs at least one pair"):
        tracking_information(simulate_tracking(steps=0))


def test_a_simulated_run_sorts_no_element_and_takes_no_union(monkeypatch):
    calls = []
    for cls, name in ((Element, "sort_key"), (TimeSet, "union")):
        real = getattr(cls, name)
        count = lambda *args, name=name, real=real: calls.append(name) or real(*args)
        monkeypatch.setattr(cls, name, count)
    run = simulate_tracking(steps=200, dt=0.1, seed=4)
    info = tracking_information(run)
    metric = Metric("euclidean_on_values")
    distortion(info, kalman_reflection(run, info), metric)
    distortion(info, measurement_reflection(info), metric)
    assert calls == []
    # the counters count: the same pairs through from_pairs call both
    Information.from_pairs("tracking", info.mapping)
    assert {"sort_key", "union"} <= set(calls)


@pytest.mark.parametrize("dt, reverse", [(1.0, True), (0.0, False)], ids=["reversed", "dt0"])
def test_kalman_reflection_refuses_times_that_do_not_increase(dt, reverse):
    """Estimates are matched with the mapping's pairs by position; with
    these times the canonical order is not the step order, so the state at
    t = 1 of a reversed run would get step 0's estimate."""
    run = simulate_tracking(steps=4, dt=dt, seed=0)
    if reverse:
        run = dataclasses.replace(run, times=run.times[::-1].copy())
    info = tracking_information(run)
    with pytest.raises(MeasureInputError, match="times do not strictly increase") as exc:
        kalman_reflection(run, info)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("info_steps, run_steps", [(4, 5), (5, 4), (3, 0)])
def test_kalman_reflection_refuses_another_step_count(info_steps, run_steps):
    """Matched by position, the longer side would be cut short: reflections
    left without an estimate, or estimates dropped without a word."""
    info = tracking_information(simulate_tracking(steps=info_steps, seed=1))
    run = simulate_tracking(steps=run_steps, seed=1)
    problem = f"information 'tracking' has {info_steps} pairs but the tracking run has"
    with pytest.raises(MeasureInputError, match=f"{problem} {run_steps} steps") as exc:
        kalman_reflection(run, info)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize(
    "column, rows, counts",
    [("times", 8, (8, 6, 6)), ("times", 4, (4, 6, 6)), ("true_positions", 5, (6, 5, 6))],
    ids=["times-longer", "times-shorter", "positions-shorter"],
)
def test_a_run_whose_columns_differ_in_length_is_refused(column, rows, counts):
    """A step is one row of each column; zipped, the shorter column would
    cut the run short, and a longer one would add instants to the
    occurrence that no state has."""
    run = simulate_tracking(steps=6, seed=3)
    info = tracking_information(run)
    longer = simulate_tracking(steps=8, seed=3)
    cut = dataclasses.replace(run, **{column: getattr(longer, column)[:rows].copy()})
    problem = "tracking run has {} times, {} true positions and {} measurements".format(*counts)
    for call in (lambda: tracking_information(cut), lambda: kalman_reflection(cut, info)):
        with pytest.raises(MeasureInputError, match=problem) as exc:
            call()
        assert isinstance(exc.value, ValueError)


def test_kalman_reflection_pairs_each_state_with_its_step():
    run = simulate_tracking(steps=30, dt=0.1, seed=2)
    info = tracking_information(run)
    estimates = kalman_filter(run.model).states[:, 0].tolist()
    by_time = {Fraction(t): est for t, est in zip(run.times.tolist(), estimates)}
    out = kalman_reflection(run, info)
    for s, r in info.mapping:
        assert out[r].value.body == Fraction(by_time[s.at.inf])
        assert out[r].at == s.at and out[r].entities == s.entities


# -- search -------------------------------------------------------------------


def test_asl_sequential_exact():
    assert asl_sequential(7) == 4
    assert asl_sequential(1) == 1
    assert asl_sequential(10) == Fraction(11, 2)
    with pytest.raises(ValueError):
        asl_sequential(0)


def _binary_probe_count(n, key):
    lo, hi, probes = 0, n - 1, 0
    while lo <= hi:
        mid = (lo + hi) // 2
        probes += 1
        if mid == key:
            return probes
        if mid < key:
            lo = mid + 1
        else:
            hi = mid - 1
    raise AssertionError("key must be present")


def test_asl_binary_against_probe_simulation():
    for n in (1, 2, 3, 7, 15, 20, 31, 100):
        brute = Fraction(sum(_binary_probe_count(n, k) for k in range(n)), n)
        assert asl_binary(n) == brute
    assert asl_binary(7) == Fraction(17, 7)


def test_asl_binary_closed_form_full_trees():
    for h in (1, 2, 3, 4, 10):
        n = 2**h - 1
        assert asl_binary_closed_form(n) == asl_binary(n)
    with pytest.raises(ValueError):
        asl_binary_closed_form(6)


def _library(n):
    entries = tuple(two_atom_info(f"entry{k}", shift=10 * k) for k in range(n))
    return entries


def test_min_mismatch_search_exhaustive():
    entries = _library(5)
    lib = SearchLibrary(
        target=entries[3], entries=entries, metric=Metric("weighted_product")
    )
    res = min_mismatch_search(lib)
    assert res.index == 3
    assert res.comparisons == 5
    assert res.distance == 0


def test_min_mismatch_search_threshold_stops_early():
    entries = _library(6)
    lib = SearchLibrary(
        target=entries[2],
        entries=entries,
        metric=Metric("weighted_product"),
        threshold=Fraction(0),
    )
    res = min_mismatch_search(lib)
    assert res.index == 2
    assert res.comparisons == 3
    with pytest.raises(EmptyLibraryError):
        min_mismatch_search(
            SearchLibrary(
                target=entries[0], entries=(), metric=Metric("weighted_product")
            )
        )


@pytest.mark.parametrize("threshold", [0, Fraction(0), "0"])
def test_search_threshold_is_read_as_a_fraction(threshold):
    entries = _library(3)
    lib = SearchLibrary(entries[1], entries, Metric("weighted_product"), threshold)
    assert type(lib.threshold) is Fraction and lib.threshold == 0
    assert min_mismatch_search(lib) == SearchResult(index=1, comparisons=2, distance=0)


@pytest.mark.parametrize("threshold", [False, 0.0, 0.5])
def test_search_threshold_refuses_bools_and_floats(threshold):
    # a float threshold was compared as given; True passed as 1
    with pytest.raises(TypeError, match="not a rational value"):
        SearchLibrary(_library(1)[0], (), Metric("weighted_product"), threshold)


def test_asl_sequential_empirical_matches_closed_form():
    entries = _library(7)
    got = asl_sequential_empirical(
        entries, Metric("weighted_product"), trials=20_000, seed=1
    )
    assert abs(got - 4) <= Fraction(4, 100) * 4


def test_search_entries_distinct():
    entries = _library(4)
    for i, a in enumerate(entries):
        for b in entries[i + 1 :]:
            assert mismatch(a, b, Metric("weighted_product")) > 0
