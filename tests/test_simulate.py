"""Stochastic paths, reproducibility, and Monte Carlo estimators.

Determinism contract: a path is a pure function of (master seed, stream
index).  The five first events below were generated once from seed 42,
stream 0, on the two-type reference model and are frozen: any change in the
event loop, the move enumeration, or the stream layout will break them
loudly rather than drift silently.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdlab.errors import DomainError, NoSurvivorsError, ValidationError
from qsdlab.presets import logistic_1d, reference_2d
from qsdlab.simulate import (
    EmpiricalLaw,
    RngPlan,
    Trajectory,
    estimate_conditional,
    fleming_viot,
    occupation_measure,
    simulate_path,
    simulate_qprocess,
    validate_trajectory,
)
from qsdlab.solver import transient_conditional

FROZEN_FIRST_EVENTS = [
    (0.0, (4, 4)),
    (0.11408908616291642, (5, 4)),
    (0.22644392326883717, (5, 5)),
    (0.2483043590117783, (5, 6)),
    (0.2571756827134104, (6, 6)),
]


# ---------------------------------------------------------------------------
# random number plan
# ---------------------------------------------------------------------------


def test_streams_are_reproducible_and_stateless():
    a = RngPlan(123).stream(4).random(5)
    b = RngPlan(123).stream(4).random(5)
    assert (a == b).all()


def test_streams_differ_between_indices_and_seeds():
    base = RngPlan(123).stream(0).random(4)
    assert not (RngPlan(123).stream(1).random(4) == base).all()
    assert not (RngPlan(124).stream(0).random(4) == base).all()


def test_plan_rejects_negative_seeds():
    with pytest.raises((ValidationError, ValueError, OverflowError)):
        RngPlan(-1)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------


def test_frozen_first_events_from_seed_42():
    trajectory = simulate_path(reference_2d(), (4, 4), 10.0,
                               RngPlan(42).stream(0))
    got = list(zip(trajectory.times, trajectory.states))[:5]
    assert got == FROZEN_FIRST_EVENTS
    assert trajectory.absorbed
    assert trajectory.t_end == 7.871829279186675
    assert len(trajectory.times) == 133


def test_paths_start_where_asked_and_order_time():
    trajectory = simulate_path(logistic_1d(), (3,), 5.0, RngPlan(0).stream(2))
    assert trajectory.states[0] == (3,)
    assert trajectory.times[0] == 0.0
    assert (np.diff(trajectory.times) > 0).all()


def test_absorbed_paths_end_on_the_boundary():
    trajectory = simulate_path(logistic_1d(), (1,), 200.0, RngPlan(3).stream(0))
    assert trajectory.absorbed
    assert trajectory.states[-1] == (0,)
    assert trajectory.t_end <= 200.0


def test_surviving_paths_keep_the_horizon():
    # strong birth keeps this alive over a short window with high odds
    model = logistic_1d(b=5.0, c=0.1)
    trajectory = simulate_path(model, (20,), 0.5, RngPlan(11).stream(0))
    if not trajectory.absorbed:
        assert trajectory.t_end == 0.5
        assert trajectory.states[-1][0] >= 1


def test_state_at_is_right_continuous():
    trajectory = Trajectory(times=[0.0, 1.0, 2.5], states=[(3,), (4,), (3,)],
                            t_end=4.0, absorbed=False)
    assert trajectory.state_at(0.0) == (3,)
    assert trajectory.state_at(0.99) == (3,)
    assert trajectory.state_at(1.0) == (4,)
    assert trajectory.state_at(3.9) == (3,)
    with pytest.raises(DomainError):
        trajectory.state_at(4.5)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_every_simulated_path_validates(stream):
    trajectory = simulate_path(reference_2d(), (3, 3), 4.0,
                               RngPlan(9).stream(stream))
    validate_trajectory(reference_2d(), trajectory)


def test_validation_rejects_an_impossible_move():
    trajectory = simulate_path(logistic_1d(), (3,), 5.0, RngPlan(1).stream(0))
    states = list(trajectory.states)
    states[1] = (states[0][0] + 5,)  # not a neighbor
    broken = Trajectory(times=list(trajectory.times), states=states,
                        t_end=trajectory.t_end, absorbed=trajectory.absorbed)
    with pytest.raises(ValidationError):
        validate_trajectory(logistic_1d(), broken)


def test_validation_rejects_unordered_times():
    trajectory = simulate_path(logistic_1d(), (3,), 5.0, RngPlan(1).stream(0))
    times = list(trajectory.times)
    times[1], times[2] = times[2], times[1]
    broken = Trajectory(times=times, states=list(trajectory.states),
                        t_end=trajectory.t_end, absorbed=trajectory.absorbed)
    with pytest.raises(ValidationError):
        validate_trajectory(logistic_1d(), broken)


# ---------------------------------------------------------------------------
# empirical laws and occupation measures
# ---------------------------------------------------------------------------


def test_empirical_law_from_counts_normalizes():
    law = EmpiricalLaw.from_counts({(1,): 3, (2,): 1})
    assert law.mass_at((1,)) == pytest.approx(0.75)
    assert law.mass_at((2,)) == pytest.approx(0.25)
    assert law.mass_at((9,)) == 0.0


def test_empirical_tv_counts_off_support_mass(logistic30_system):
    *_, result = logistic30_system
    law = EmpiricalLaw.from_counts({(1000,): 1})  # far outside the truncation
    assert law.tv_against(result) == pytest.approx(1.0)
    # a (space, law) pair reads the same law as the solved result
    law = EmpiricalLaw.from_counts({(1,): 1, (2,): 1, (1000,): 2})
    assert law.tv_against((result.space, result.law)) == law.tv_against(result)


def test_empirical_tv_between_empirical_laws():
    a = EmpiricalLaw.from_counts({(1,): 1, (2,): 1})
    b = EmpiricalLaw.from_counts({(2,): 1, (3,): 1})
    assert a.tv_against(b) == pytest.approx(0.5)


def test_occupation_measure_time_averages_by_hand():
    trajectory = Trajectory(times=[0.0, 1.0, 3.0], states=[(1,), (2,), (1,)],
                            t_end=4.0, absorbed=False)
    occupation = occupation_measure(trajectory, t_start=0.0)
    assert occupation.mass_at((1,)) == pytest.approx(0.5)
    assert occupation.mass_at((2,)) == pytest.approx(0.5)
    late = occupation_measure(trajectory, t_start=2.0)
    assert late.mass_at((2,)) == pytest.approx(0.5)
    assert late.mass_at((1,)) == pytest.approx(0.5)


def test_occupation_measure_needs_time_to_average():
    trajectory = Trajectory(times=[0.0], states=[(1,)], t_end=2.0, absorbed=False)
    with pytest.raises((ValidationError, DomainError)):
        occupation_measure(trajectory, t_start=2.0)


# ---------------------------------------------------------------------------
# conditioned-law estimator
# ---------------------------------------------------------------------------


def test_conditional_estimate_agrees_with_the_exact_law(logistic30_system):
    model, space, generator, _ = logistic30_system
    mu0 = np.zeros(len(space.states))
    mu0[space.index[(1,)]] = 1.0
    exact, exact_survival = transient_conditional(generator, mu0, 1.0)
    estimate = estimate_conditional(model, (1,), 1.0, 20000, RngPlan(7))
    weights = np.array([estimate.law.mass_at(s) for s in space.states])
    off_support = 1.0 - weights.sum()
    tv = 0.5 * (np.abs(weights - exact).sum() + off_support)
    assert tv < 0.02
    assert estimate.survival == pytest.approx(exact_survival, abs=0.015)
    assert estimate.trajectories == 20000
    assert 0 < estimate.survivors <= 20000
    assert estimate.survival == pytest.approx(estimate.survivors / 20000)


def test_conditional_estimate_is_batch_independent(logistic30_system):
    model, *_ = logistic30_system
    whole = estimate_conditional(model, (2,), 0.7, 60, RngPlan(5))
    first = estimate_conditional(model, (2,), 0.7, 25, RngPlan(5))
    rest = estimate_conditional(model, (2,), 0.7, 35, RngPlan(5),
                                first_stream=25)
    merged_survivors = first.survivors + rest.survivors
    assert merged_survivors == whole.survivors
    combined = {}
    for est, count in ((first, 25), (rest, 35)):
        for state, mass in est.law.weights.items():
            combined[state] = combined.get(state, 0.0) + mass * est.survivors
    for state, mass in combined.items():
        assert mass / whole.survivors == pytest.approx(
            whole.law.mass_at(state), rel=1e-12)


def test_no_survivors_is_an_error(logistic30_system):
    model, *_ = logistic30_system
    with pytest.raises(NoSurvivorsError):
        estimate_conditional(model, (1,), 60.0, 50, RngPlan(1))


# ---------------------------------------------------------------------------
# particle system
# ---------------------------------------------------------------------------


def test_particle_estimator_tracks_law_and_decay(logistic30_system):
    model, space, generator, result = logistic30_system
    particles = fleming_viot(model, (5,), 600, 12.0, RngPlan(21))
    weights = np.array([particles.occupation.mass_at(s) for s in space.states])
    off_support = 1.0 - weights.sum()
    tv = 0.5 * (np.abs(weights - result.law).sum() + off_support)
    assert tv < 0.1
    assert particles.death_rate == pytest.approx(result.decay_rate, abs=0.25)
    assert particles.deaths > 0


def test_particle_runs_are_reproducible(logistic30_system):
    model, *_ = logistic30_system
    a = fleming_viot(model, (5,), 80, 4.0, RngPlan(3))
    b = fleming_viot(model, (5,), 80, 4.0, RngPlan(3))
    assert a.occupation.weights == b.occupation.weights
    assert a.deaths == b.deaths


def test_particle_count_must_allow_teleporting(logistic30_system):
    model, *_ = logistic30_system
    with pytest.raises(ValidationError):
        fleming_viot(model, (5,), 1, 1.0, RngPlan(0))


# ---------------------------------------------------------------------------
# conditioned-process simulation
# ---------------------------------------------------------------------------


def test_qprocess_never_dies_and_matches_its_stationary_law(two_state_qsd):
    model, space, result = two_state_qsd
    trajectory = simulate_qprocess(model, result, (1,), 400.0,
                                   RngPlan(42).stream(0))
    assert not trajectory.absorbed
    assert all(s[0] >= 1 for s in trajectory.states)
    occupation = occupation_measure(trajectory, t_start=20.0)
    target = result.law * result.survival_profile
    got = np.array([occupation.mass_at(s) for s in space.states])
    assert 0.5 * np.abs(got - target).sum() < 0.05


def test_qprocess_is_reproducible(two_state_qsd):
    model, _, result = two_state_qsd
    a = simulate_qprocess(model, result, (1,), 50.0, RngPlan(8).stream(0))
    b = simulate_qprocess(model, result, (1,), 50.0, RngPlan(8).stream(0))
    assert list(a.times) == list(b.times)
    assert list(a.states) == list(b.states)


@pytest.fixture(scope="module")
def two_state_qsd():
    from qsdlab.solver import assemble, enumerate_space, solve_qsd

    model = logistic_1d()
    space = enumerate_space(1, 2)
    generator = assemble(model, space)
    return model, space, solve_qsd(generator, tol=1e-15)
