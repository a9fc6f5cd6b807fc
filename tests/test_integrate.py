"""Tests for the adaptive Runge-Kutta flow map and its variational extension."""

from dataclasses import replace

import numpy as np
import pytest

import falsify.integrate as integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from falsify.bench import make_system
from falsify.integrate import (
    DEFAULT_CONFIG,
    IntegrationFailure,
    IntegratorConfig,
    flow,
    flow_with_sensitivity,
)
from falsify.systems import OdeSystem, benchmark1, benchmark2, benchmark3

from oracles import (
    TIGHT,
    blowup_system,
    rotation_flow_matrix,
    scipy_flow,
    serial_first_step,
    serial_flow,
)

# End state of benchmark2 from [1, 1, 1] after 5 time units, frozen from an
# independent high-accuracy run (scipy DOP853 at rtol=atol=1e-13).
BENCH2_AT_5 = np.array(
    [0.27157540705798439, -0.14758295107017394, -0.11619809605658242]
)


def test_frozen_benchmark2_value():
    end = flow(benchmark2(), np.ones(3), 5.0, TIGHT)
    np.testing.assert_allclose(end, BENCH2_AT_5, rtol=0.0, atol=5e-11)


def test_dop853_tableau_order_conditions():
    """Each row of A sums to its node, the weights B integrate c^q exactly
    for q <= 7 (order 8), the embedded 5th and 3rd order weights B - E do
    so for q <= 4 and q <= 2, and each row of E therefore sums to 0."""
    nodes = integrate._C[:12]
    assert integrate._C[12] == 1.0  # the first-same-as-last stage is f(t + h, y_new)
    for s in range(1, 12):
        assert integrate._A[s].shape == (s,)
        assert abs(integrate._A[s].sum() - nodes[s]) <= 1e-15
    np.testing.assert_allclose(integrate._E.sum(axis=1), 0.0, rtol=0.0, atol=1e-15)
    embedded = integrate._B - integrate._E
    for weights, order in ((integrate._B, 8), (embedded[0], 5), (embedded[1], 3)):
        for q in range(order):
            assert abs(weights @ nodes**q - 1.0 / (q + 1)) <= 1e-15, (order, q)


def test_benchmark2_meets_the_tolerance_with_a_margin():
    """End state and sensitivities of benchmark2 over durations +-1 at the
    default tolerances, against scipy's DOP853 at 1e-13.  The fifth order
    pair this integrator replaced missed both bounds: its errors were
    2.4e-11 to 6.1e-11 (end states) and 9.1e-11 to 2.0e-10 (sensitivities)
    on these start states."""
    system = benchmark2()
    for x0 in (np.ones(3), np.array([0.3, -1.2, 0.8]), np.array([1.0, 0.5, -0.25])):
        for duration in (1.0, -1.0):
            result = flow_with_sensitivity(system, x0, duration)
            end, sens = scipy_flow(system, x0, duration, 1e-13, 1e-13, sensitivity=True)
            np.testing.assert_allclose(result.end_state, end, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(result.sensitivity, sens, rtol=0.0, atol=1e-11)


# Steps of `flow(benchmark2(), ones(3), 1.0)` at the default tolerances with
# the Dormand-Prince 5(4) pair this integrator replaced: 284 rhs calls, 2 to
# start (f(x0) and the initial-step probe) and 6 per step.
DP5_STEPS_BENCH2 = 47


def test_fewer_steps_than_the_fifth_order_pair():
    reference = benchmark2()
    calls = []

    def counted(t, x):
        calls.append(t)
        return reference.rhs(t, x)

    flow(OdeSystem(3, counted, reference.state_jacobian, "counted"), np.ones(3), 1.0)
    steps, rest = divmod(len(calls) - 2, 12)  # 12 calls per step, FSAL reused
    assert rest == 0
    assert 3 * steps < DP5_STEPS_BENCH2


def test_zero_duration_is_identity():
    x0 = np.array([0.3, -1.2, 0.8])
    np.testing.assert_array_equal(flow(benchmark2(), x0, 0.0), x0)


def test_rotation_closed_form_forward_and_backward():
    system = benchmark3(6)
    rng = np.random.default_rng(7)
    for duration in (-5.0, -1.3, 0.4, 2.0, 5.0):
        x0 = rng.standard_normal(6)
        expected = rotation_flow_matrix(6, duration) @ x0
        np.testing.assert_allclose(flow(system, x0, duration), expected, atol=1e-8)


def test_sensitivity_matches_rotation_matrix():
    system = benchmark3(4)
    x0 = np.array([1.0, -0.5, 0.25, 2.0])
    for duration in (-3.0, 1.7, 5.0):
        result = flow_with_sensitivity(system, x0, duration)
        np.testing.assert_allclose(
            result.sensitivity, rotation_flow_matrix(4, duration), atol=1e-8
        )
        np.testing.assert_allclose(
            result.end_state, rotation_flow_matrix(4, duration) @ x0, atol=1e-8
        )


def test_end_derivative_is_rhs_at_end_state():
    system = benchmark2()
    result = flow_with_sensitivity(system, np.array([1.0, 1.0, 1.0]), 2.5)
    np.testing.assert_array_equal(
        result.end_derivative, system.rhs(2.5, result.end_state)
    )


def test_sensitivity_against_finite_differences():
    system = benchmark2()
    x0 = np.array([0.9, 1.1, 0.7])
    duration = 1.8
    result = flow_with_sensitivity(system, x0, duration, TIGHT)
    h = 1e-6
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        column = (
            flow(system, x0 + step, duration, TIGHT)
            - flow(system, x0 - step, duration, TIGHT)
        ) / (2.0 * h)
        np.testing.assert_allclose(result.sensitivity[:, j], column, atol=1e-7)


def test_semigroup_property():
    system = benchmark2()
    x0 = np.array([1.0, 1.0, 1.0])
    direct = flow(system, x0, 3.0, TIGHT)
    via_midpoint = flow(system, flow(system, x0, 1.25, TIGHT), 1.75, TIGHT)
    np.testing.assert_allclose(via_midpoint, direct, atol=1e-9)


def test_agrees_with_scipy_reference():
    rng = np.random.default_rng(11)
    for system in (benchmark2(), benchmark1(4)):
        x0 = rng.uniform(-1.0, 1.0, size=system.dim)
        ours = flow(system, x0, 4.0, TIGHT)
        reference = scipy_flow(system, x0, 4.0)
        np.testing.assert_allclose(ours, reference, rtol=1e-9, atol=1e-10)


def test_chain_rule_for_composed_sensitivities():
    system = benchmark2()
    x0 = np.array([1.0, 0.5, -0.25])
    first = flow_with_sensitivity(system, x0, 1.0, TIGHT)
    second = flow_with_sensitivity(system, first.end_state, 1.5, TIGHT)
    composed = flow_with_sensitivity(system, x0, 2.5, TIGHT)
    np.testing.assert_allclose(
        second.sensitivity @ first.sensitivity, composed.sensitivity, atol=1e-8
    )


@pytest.mark.parametrize("lanes", [1, 2, 17])
@pytest.mark.parametrize("fused", [benchmark2(), benchmark3(4)], ids=lambda s: s.label)
def test_fused_stages_equal_the_composite(fused, lanes):
    """Each built-in variational kernel (benchmark2's and benchmark3's)
    integrates to the bits of its system's rhs and Jacobian composed, on
    batches and on the one-lane tail, also when it writes into the batch's
    strided stage buffer."""
    composite = replace(fused, variational=None)
    rng = np.random.default_rng(lanes)
    x0 = 1.0 + 0.4 * rng.standard_normal((lanes, fused.dim))
    durations = rng.uniform(-2.5, 2.5, size=lanes)
    ours = flow_with_sensitivity(fused, x0, durations)
    theirs = flow_with_sensitivity(composite, x0, durations)
    for field in ("end_state", "sensitivity", "end_derivative"):
        assert getattr(ours, field).tobytes() == getattr(theirs, field).tobytes(), field


FIELDS = ("end_state", "sensitivity", "end_derivative", "step")


def _mixed_batch(system, lanes, seed):
    """Start states near the unit vector and durations of both signs and zero."""
    rng = np.random.default_rng(seed)
    x0 = 1.0 + 0.4 * rng.standard_normal((lanes, system.dim))
    durations = rng.uniform(-2.5, 2.5, size=lanes)
    durations[::4] = 0.0
    return x0, durations


def _assert_lanes_are_their_own_runs(system, x0, durations, first_step=None):
    """Each lane of a batched ``flow_with_sensitivity`` has the bytes of its
    own call and of the serial loop, its step included; without
    ``first_step``, so has each lane of a batched ``flow``."""
    batch = flow_with_sensitivity(system, x0, durations, first_step=first_step)
    ends = flow(system, x0, durations) if first_step is None else None
    for i in range(len(x0)):
        lane_first = None if first_step is None else first_step[i]
        single = flow_with_sensitivity(system, x0[i], durations[i], first_step=lane_first)
        for field in FIELDS:
            ours, theirs = getattr(batch, field)[i], getattr(single, field)
            assert ours.tobytes() == theirs.tobytes(), (i, field)
        end, sens, step = serial_flow(
            system, x0[i], durations[i], sensitivity=True, first_step=lane_first
        )
        assert batch.end_state[i].tobytes() == end.tobytes(), i
        assert batch.sensitivity[i].tobytes() == sens.tobytes(), i
        assert batch.step[i] == step, i
        if ends is not None:
            assert ends[i].tobytes() == flow(system, x0[i], durations[i]).tobytes(), i
            assert ends[i].tobytes() == serial_flow(system, x0[i], durations[i]).tobytes(), i


@pytest.mark.parametrize("lanes", [5, 40])
def test_batch_lanes_equal_single_calls(lanes):
    """Also: a first step equal to the one the starting-step heuristic would
    pick gives every lane the bytes of the call without ``first_step``."""
    for system in (benchmark1(4), benchmark2(), benchmark3(6)):
        x0, durations = _mixed_batch(system, lanes, seed=lanes)
        ends = flow(system, x0, durations)
        batch = flow_with_sensitivity(system, x0, durations)
        assert ends.shape == x0.shape
        assert batch.sensitivity.shape == (lanes, system.dim, system.dim)
        assert batch.step.shape == (lanes,)
        for i in range(lanes):
            np.testing.assert_array_equal(ends[i], flow(system, x0[i], durations[i]))
            single = flow_with_sensitivity(system, x0[i], durations[i])
            np.testing.assert_array_equal(batch.end_state[i], single.end_state)
            np.testing.assert_array_equal(batch.sensitivity[i], single.sensitivity)
            np.testing.assert_array_equal(batch.end_derivative[i], single.end_derivative)
            np.testing.assert_array_equal(batch.step[i], single.step)
        first = [serial_first_step(system, x, d, sensitivity=True) for x, d in zip(x0, durations)]
        warm = flow_with_sensitivity(system, x0, durations, first_step=first)
        for field in FIELDS:
            assert getattr(warm, field).tobytes() == getattr(batch, field).tobytes(), field


def test_lanes_agree_with_serial_reference():
    for system in (benchmark1(4), benchmark2(), benchmark3(4)):
        x0, durations = _mixed_batch(system, 12, seed=5)
        _assert_lanes_are_their_own_runs(system, x0, durations)


def test_first_steps_that_are_not_positive_fall_back_to_the_heuristic():
    """The step of a lane that took no step is 0, and a failed lane's is NaN:
    as first steps, both (and a negative one) start their lane as a call
    without ``first_step`` does, bitwise, beside warm-started lanes."""
    system = benchmark2()
    x0, durations = _mixed_batch(system, 6, seed=2)
    assert durations[[1, 2, 3, 5]].all()
    fresh = flow_with_sensitivity(system, x0, durations)
    first = np.array([0.3, 0.0, np.nan, 0.3, 0.0, -0.1])
    warm = flow_with_sensitivity(system, x0, durations, first_step=first)
    for i in range(len(x0)):
        same = all(
            getattr(warm, field)[i].tobytes() == getattr(fresh, field)[i].tobytes()
            for field in FIELDS
        )
        # lane 0 has a zero duration, lane 3 starts from its own step
        assert same == (i != 3), i


def _kink_system(n=2):
    """dx/dt = r(t) x in n states, with r jumping from 1 to -30 at t = 0.5:
    steps across the jump are rejected, so lanes that cross it reject while
    others accept."""

    def rate(t):
        return np.where(np.asarray(t) < 0.5, 1.0, -30.0)

    return OdeSystem(
        n,
        lambda t, x: rate(t)[..., None] * x,
        lambda t, x: rate(t)[..., None, None] * np.eye(x.shape[-1]),
        f"kink(n={n})",
    )


def test_lanes_that_reject_steps_match_single_and_serial_runs():
    system = _kink_system()
    x0 = np.array([[1.0, -1.0], [0.5, 2.0], [1.0, 1.0], [-0.3, 0.8], [2.0, 0.1], [1.0, 0.0]])
    durations = np.array([0.3, 1.0, 0.4, 2.0, -0.7, 1.5])
    _assert_lanes_are_their_own_runs(system, x0, durations)


def test_wide_lanes_that_reject_steps_match_single_and_serial_runs():
    """The kink at n = 20, m = 420 with sensitivities: lanes that cross the
    jump (durations > 0.5) reject steps beside lanes that do not, and a
    rejecting lane must restart from its own first stage, not from the
    stage its rejected step ended with."""
    system = _kink_system(20)
    x0 = 1.0 + 0.4 * np.random.default_rng(4).standard_normal((8, 20))
    durations = np.array([0.3, 1.0, 0.45, 2.0, -0.7, 1.5, 0.6, -2.0])
    _assert_lanes_are_their_own_runs(system, x0, durations)


def test_wide_batch_lanes_equal_single_calls_and_the_serial_loop():
    """benchmark3(20), m = 420 with sensitivities: nine lanes of unequal
    durations, three of them zero and some negative, fresh and warm-started
    (first steps 0 and NaN fall back to the heuristic)."""
    system = benchmark3(20)
    x0, durations = _mixed_batch(system, 9, seed=3)
    assert (durations == 0.0).sum() == 3 and (durations < 0.0).any() and (durations > 0.0).any()
    _assert_lanes_are_their_own_runs(system, x0, durations)
    first = np.array([0.1, 0.0, np.nan, 0.05, 0.3, 0.2, 0.01, 1.0, 0.4])
    _assert_lanes_are_their_own_runs(system, x0, durations, first)


def test_a_rhs_that_returns_a_view_of_its_state_keeps_the_serial_bits():
    """dx/dt = x reversed, with ``rhs`` returning a view of its state
    argument.  That argument is scratch space the integrator overwrites at
    the next stage; the stage copies the view at once, so the lanes keep the
    bits of the serial loop."""
    n = 4
    flip = np.eye(n)[::-1]
    system = OdeSystem(
        n,
        lambda t, x: x[..., ::-1],
        lambda t, x: np.broadcast_to(flip, x.shape + (n,)).copy(),
        "reversal",
    )
    x0, durations = _mixed_batch(system, 8, seed=6)
    _assert_lanes_are_their_own_runs(system, x0, durations)


BUILT_IN = [("benchmark1", 2), ("benchmark1", 4), ("benchmark2", 3), ("benchmark3", 2),
            ("benchmark3", 4)]
# durations of both signs.  Hypothesis draws 0.0 (and subnormals) among its
# boundary values, so exact zeros stay present; drawn one lane at a time
# (``fill=st.nothing()``), they are rare, where an array filled with one
# drawn value would make them common.
DURATIONS = st.floats(-2.0, 2.0)


# first steps of warm-started lanes: the heuristic's fallbacks 0 and NaN, and
# sizes from far below to far above a typical step
FIRST_STEPS = st.one_of(st.just(0.0), st.just(np.nan), st.floats(1e-4, 3.0))


@st.composite
def random_batches(draw):
    """A built-in system, B <= 12 start states near the unit vector, B
    durations and B first steps."""
    name, n = draw(st.sampled_from(BUILT_IN))
    lanes = draw(st.integers(1, 12))
    x0 = draw(hnp.arrays(float, (lanes, n), elements=st.floats(0.6, 1.4)))
    durations = draw(hnp.arrays(float, lanes, elements=DURATIONS, fill=st.nothing()))
    first = draw(hnp.arrays(float, lanes, elements=FIRST_STEPS))
    return make_system(name, n), x0, durations, first


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(random_batches())
def test_random_batch_lanes_equal_single_calls_and_the_serial_loop(case):
    """Fresh and warm-started lanes alike: each lane of a batch has the bytes
    of its own call and of the serial loop, its step included."""
    system, x0, durations, first = case
    _assert_lanes_are_their_own_runs(system, x0, durations)
    _assert_lanes_are_their_own_runs(system, x0, durations, first)


# a round trip over no time, or over a subnormal one, returns trivially
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.sampled_from(BUILT_IN), hnp.arrays(float, 4, elements=st.floats(0.6, 1.4)),
       DURATIONS.filter(lambda d: abs(d) >= 1e-3))
def test_flowing_back_returns_to_the_start(built_in, x0, duration):
    name, n = built_in
    system = make_system(name, n)
    there = flow(system, x0[:n], duration, TIGHT)
    np.testing.assert_allclose(flow(system, there, -duration, TIGHT), x0[:n], rtol=0.0, atol=1e-9)


def test_durations_shorter_than_the_underflow_threshold_take_one_step():
    # the step is cut to the end time, not chosen by the controller, so it
    # must not count as a step-size underflow
    system = benchmark2()
    x0 = np.array([[1.0, 0.5, -0.25], [0.3, 1.0, 0.8], [1.0, 1.0, 1.0]])
    durations = np.array([1e-200, -1e-16, 5e-16])
    ends = flow(system, x0, durations)
    for i in range(len(x0)):
        np.testing.assert_allclose(ends[i], x0[i], rtol=0.0, atol=1e-14)
        np.testing.assert_array_equal(ends[i], serial_flow(system, x0[i], durations[i]))


def test_scalar_duration_broadcasts_over_lanes():
    system = benchmark3(4)
    x0 = np.eye(4)
    np.testing.assert_array_equal(
        flow(system, x0, 1.5), flow(system, x0, np.full(4, 1.5))
    )


def test_only_the_one_lane_stepper_calls_the_system_on_single_states(monkeypatch):
    """Every call outside `_dop853_one` is on a batch, times (B,) with states
    (B, n), a one-lane integration's first stage, initial-step probe and end
    derivative included; `_dop853_one` calls on a time scalar and a state."""
    reference = benchmark2()
    calls = []  # (inside _dop853_one, shape of t, shape of x)
    alone = [False]

    def spy(fn):
        def wrapped(t, x):
            calls.append((alone[0], np.shape(t), x.shape))
            return fn(t, x)

        return wrapped

    one_lane = integrate._dop853_one

    def flagged(*args):
        alone[0] = True
        try:
            return one_lane(*args)
        finally:
            alone[0] = False

    monkeypatch.setattr(integrate, "_dop853_one", flagged)
    system = OdeSystem(3, spy(reference.rhs), spy(reference.state_jacobian), "spy benchmark2")
    flow(system, np.ones(3), 1.0)
    flow_with_sensitivity(system, np.ones(3), 1.0)
    x0, durations = _mixed_batch(system, 6, seed=11)
    flow_with_sensitivity(system, x0, durations)
    batch = {(t, x) for inside, t, x in calls if not inside}
    assert {(t, x) for inside, t, x in calls if inside} == {((), (3,))}
    assert all(len(t) == 1 and x == t + (3,) for t, x in batch)
    assert ((1,), (1, 3)) in batch and max(t for t, _ in batch) > (1,)


def _dop853_lanes(system, x0, durations, max_steps):
    """End states and statuses of ``integrate._dop853`` on ``system``'s rhs."""
    end, status, _ = integrate._dop853(
        integrate._rhs_stage(system), x0, durations, 1e-9, 1e-9, max_steps
    )
    return end, status


def test_lane_outcomes_are_independent():
    """A lane that fails leaves the batch on its own; the others run on and
    end exactly as they would alone."""
    system = benchmark2()
    x0 = np.array([[0.1, 0.1, -0.1], [0.0, 0.0, 50.0], [-0.1, 0.05, -0.1]])
    durations = np.array([200.0, 1.0, 200.0])
    end, status = _dop853_lanes(system, x0, durations, 100_000)
    assert status.tolist() == [integrate._OK, integrate._STEP_UNDERFLOW, integrate._OK]
    for i in range(len(x0)):
        alone_end, alone_status = _dop853_lanes(system, x0[i : i + 1], durations[i : i + 1], 100_000)
        assert status[i] == alone_status[0]
        assert end[i].tobytes() == alone_end[0].tobytes()
    assert np.all(end[[0, 2]] != x0[[0, 2]])


def test_per_lane_sensitivities_return_each_lane_outcome():
    """With per_lane set a failing lane is reported, not raised: its rows are
    NaN and the other lanes keep the bits of their single calls."""
    system = benchmark2()
    x0 = np.array([[0.1, 0.1, -0.1], [0.0, 0.0, 50.0], [-0.1, 0.05, -0.1]])
    durations = np.array([2.0, 1.0, 2.0])
    result, failures = flow_with_sensitivity(system, x0, durations, per_lane=True)
    assert list(failures) == [1] and failures[1].lane == 1
    with pytest.raises(IntegrationFailure) as raised:
        flow_with_sensitivity(system, x0, durations)
    assert str(raised.value) == str(failures[1])
    assert np.isnan(result.end_state[1]).all() and np.isnan(result.sensitivity[1]).all()
    assert np.isnan(result.end_derivative[1]).all()
    for i in (0, 2):
        single = flow_with_sensitivity(system, x0[i], durations[i])
        for field in ("end_state", "sensitivity", "end_derivative"):
            assert getattr(result, field)[i].tobytes() == getattr(single, field).tobytes(), field


def test_every_running_lane_exhausts_the_step_budget():
    """When the budget runs out, every lane still running fails with its own
    status; zero-duration and finished lanes keep theirs."""
    system = benchmark2()
    x0 = np.array([[0.1, 0.1, -0.1], [0.3, 0.2, 0.1], [-0.1, 0.05, -0.1], [0.2, 0.0, 0.0]])
    durations = np.array([200.0, 0.0, -200.0, 1e-3])
    end, status = _dop853_lanes(system, x0, durations, 20)
    too_many, ok = integrate._TOO_MANY_STEPS, integrate._OK
    assert status.tolist() == [too_many, ok, too_many, ok]
    assert end[1].tobytes() == x0[1].tobytes()
    for i in range(len(x0)):
        alone_end, alone_status = _dop853_lanes(system, x0[i : i + 1], durations[i : i + 1], 20)
        assert status[i] == alone_status[0]
        assert end[i].tobytes() == alone_end[0].tobytes()


# Batches whose lanes leave one at a time, so that the last lane finishes
# alone: lanes that reach their end (zero durations and both signs among
# them), a tail lane that underflows (x3 = 50 blows up near t = 0.02) and a
# tail lane that runs out of a 20-step budget.  Each case: start states,
# durations, step budget and the expected status of each lane.
_OK, _UNDERFLOW, _BUDGET = integrate._OK, integrate._STEP_UNDERFLOW, integrate._TOO_MANY_STEPS
HAND_OFF_CASES = {
    "staggered": (
        [[1.0, 0.5, -0.25], [0.3, 1.0, 0.8], [1.0, 1.0, 1.0], [-0.3, 0.8, 0.2],
         [0.2, -0.4, 0.9], [0.5, 0.5, 0.5]],
        [0.0, 0.3, -0.6, 0.9, -1.2, 1.5],
        100_000,
        [_OK] * 6,
    ),
    "underflow-tail": (
        [[0.1, 0.1, -0.1], [0.0, 0.0, 50.0], [-0.1, 0.05, -0.1]],
        [1e-4, 1.0, -0.015],
        100_000,
        [_OK, _UNDERFLOW, _OK],
    ),
    "budget-tail": (
        [[0.1, 0.1, -0.1], [0.3, 0.2, 0.1], [-0.1, 0.05, -0.1], [0.2, 0.0, 0.0]],
        [1e-3, 0.0, 200.0, -0.05],
        20,
        [_OK, _OK, _BUDGET, _OK],
    ),
}
SERIAL_ERRORS = {_UNDERFLOW: "underflow", _BUDGET: "budget"}


@pytest.mark.parametrize("case", sorted(HAND_OFF_CASES))
def test_one_lane_hand_off_keeps_every_lane_bitwise(case, monkeypatch):
    """The last lane of a batch finishes on the one-lane stepper with the
    bytes and status of its B = 1 call and of the serial reference loop."""
    x0, durations, max_steps, statuses = HAND_OFF_CASES[case]
    x0, durations = np.array(x0), np.array(durations)
    hand_offs = []
    one_lane = integrate._dop853_one

    def spy(stage, y, k0, t, t_end, h, err_prev, steps, *rest):
        hand_offs.append(steps)
        return one_lane(stage, y, k0, t, t_end, h, err_prev, steps, *rest)

    monkeypatch.setattr(integrate, "_dop853_one", spy)
    system = benchmark2()
    cfg = IntegratorConfig(max_steps=max_steps)
    end, status = _dop853_lanes(system, x0, durations, max_steps)
    result, failures = flow_with_sensitivity(system, x0, durations, cfg, per_lane=True)
    assert status.tolist() == statuses
    # the tail left the batch after some steps, in both calls
    assert len(hand_offs) == 2 and min(hand_offs) > 0
    assert sorted(failures) == [i for i, code in enumerate(statuses) if code != _OK]
    for i in range(len(x0)):
        alone_end, alone_status = _dop853_lanes(system, x0[i : i + 1], durations[i : i + 1], max_steps)
        assert status[i] == alone_status[0]
        assert end[i].tobytes() == alone_end[0].tobytes()
        if status[i] != _OK:
            with pytest.raises(RuntimeError, match=SERIAL_ERRORS[statuses[i]]):
                serial_flow(system, x0[i], durations[i], cfg)
            continue
        assert end[i].tobytes() == serial_flow(system, x0[i], durations[i], cfg).tobytes()
        single = flow_with_sensitivity(system, x0[i], durations[i], cfg)
        serial_end, serial_sens, serial_step = serial_flow(
            system, x0[i], durations[i], cfg, sensitivity=True
        )
        for ours, theirs in (
            (result.end_state[i], single.end_state),
            (result.sensitivity[i], single.sensitivity),
            (result.end_derivative[i], single.end_derivative),
            (result.step[i], single.step),
            (result.end_state[i], serial_end),
            (result.sensitivity[i], serial_sens),
            (result.step[i], np.float64(serial_step)),
        ):
            assert ours.tobytes() == theirs.tobytes()


def test_batch_shape_validation():
    system = benchmark2()
    with pytest.raises(ValueError):
        flow(system, np.ones((4, 2)), 1.0)
    with pytest.raises(ValueError):
        flow(system, np.ones((4, 3)), np.ones(3))
    with pytest.raises(ValueError):
        flow(system, np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        flow_with_sensitivity(system, np.ones((2, 3)), np.array([1.0, np.nan]))


def test_finite_time_blowup_raises():
    with pytest.raises(IntegrationFailure):
        flow(blowup_system(), np.array([1.0]), 2.0)


def test_a_one_state_jacobian_on_a_batch_raises():
    """A Jacobian written for one state would give lane 0's J to every lane
    of a batch; the integrator refuses it and names the system."""
    system = replace(blowup_system(), state_jacobian=lambda t, x: np.array([[2.0 * x[0]]]))
    with pytest.raises(ValueError, match="'blowup'"):
        flow_with_sensitivity(system, np.array([[0.1], [0.2]]), np.array([1.0, 1.0]))


def test_a_one_state_rhs_on_a_batch_raises():
    """The same for a right-hand side written for one state."""
    system = replace(blowup_system(), rhs=lambda t, x: np.array([x[0] * x[0]]))
    with pytest.raises(ValueError, match="'blowup'"):
        flow(system, np.array([[0.1], [0.2]]), np.array([1.0, 1.0]))


def test_step_budget_exhaustion_raises():
    tiny = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, max_steps=3)
    with pytest.raises(IntegrationFailure, match="step"):
        flow(benchmark2(), np.ones(3), 5.0, tiny)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1.0)
    for name in ("rel_tol", "abs_tol"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="tolerances"):
                IntegratorConfig(**{name: value})
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)


def test_bad_initial_state_rejected():
    system = benchmark2()
    with pytest.raises(ValueError):
        flow(system, np.ones(4), 1.0)
    with pytest.raises(ValueError):
        flow(system, np.array([1.0, np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError):
        flow(system, np.ones(3), np.inf)


def test_default_config_tolerances():
    assert DEFAULT_CONFIG.rel_tol == 1e-9
    assert DEFAULT_CONFIG.abs_tol == 1e-9
    assert DEFAULT_CONFIG.max_steps == 100000
