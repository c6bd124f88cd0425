"""Stochastic paths, reproducibility, and Monte Carlo estimators.

Determinism contract: a path is a pure function of (master seed, stream
index).  The five first events below were generated once from seed 42,
stream 0, on the two-type reference model and are frozen: any change in the
event loop, the move enumeration, or the stream layout will break them
loudly rather than drift silently.
"""

import bisect
import heapq
import itertools
import math
import os
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdlab import simulate
from qsdlab.config import load_config
from qsdlab.errors import (DomainError, NoSurvivorsError, NumericalError,
                           ValidationError)
from qsdlab.model import (LitterLaw, Model, MoveTable, _MoveStore, build_model,
                          is_absorbed)
from qsdlab.presets import (catastrophe_logistic_1d, logistic_1d,
                            multibirth_uniform_1d, reference_2d)
from qsdlab.simulate import (
    EmpiricalLaw,
    RngPlan,
    Trajectory,
    _jump_path,
    _survivor_counts,
    _uniforms,
    estimate_conditional,
    fleming_viot,
    occupation_measure,
    simulate_path,
    simulate_qprocess,
    validate_trajectory,
)
from qsdlab.solver import (assemble, enumerate_space, solve_qsd,
                           transient_conditional)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


@pytest.mark.parametrize("seed", [1.5, 1.0, "1", 2 ** 64])
def test_plan_rejects_seeds_that_are_not_64_bit_integers(seed):
    with pytest.raises(ValidationError):
        RngPlan(seed)


@pytest.mark.parametrize("index", [1.7, 1.0, "1", -1, 2 ** 64])
def test_plan_rejects_stream_indices_that_are_not_64_bit_integers(index):
    with pytest.raises(DomainError):
        RngPlan(0).stream(index)


def test_plan_accepts_numpy_integers_and_the_largest_index():
    a = RngPlan(np.int64(5)).stream(np.uint64(3)).random(4)
    assert (a == RngPlan(5).stream(3).random(4)).all()
    last = RngPlan(2 ** 64 - 1).stream(2 ** 64 - 1).random(4)
    assert not (last == RngPlan(0).stream(0).random(4)).all()


def _random_blocks(rng, k):
    """Draws in ``random(32)`` blocks, as the simulators take them."""
    return [rng.random(32) for _ in range(1 + k % 3)]


def _odd_integers(rng, k):
    """32-bit integers, an odd count of them, then doubles: this leaves a
    spare 32-bit half (``has_uint32``) and a part-used buffer behind."""
    return [rng.integers(0, 2 ** 32, size=1 + 2 * (k % 3), dtype=np.uint32),
            rng.random(1 + k % 4)]


@pytest.mark.parametrize("consume", [_random_blocks, _odd_integers])
def test_rekeyed_streams_draw_what_fresh_streams_draw(consume):
    # 300 keys, at both ends of the seed and of the index range, each at a
    # stream position that is a multiple of 4.
    ranges = [(RngPlan(0), 0, 150), (RngPlan(2 ** 64 - 1), 2 ** 64 - 150, 150)]
    keys = spare_halves = 0
    for plan, first, count in ranges:
        start, rekey = plan._rekeyer(first, count)
        assert start == first
        for k in range(first, first + count):
            pos = 4 * (k % 5)
            rng = rekey(k, pos)
            got = consume(rng, k)
            fresh = plan.stream(k)
            fresh.random(pos)
            want = consume(fresh, k)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            # Each next stream is re-keyed from a part-used generator.
            state = rng.bit_generator.state
            assert state["state"]["counter"].any()
            spare_halves += state["has_uint32"] and state["buffer_pos"] < 4
            keys += 1
    assert keys == 300
    assert (spare_halves > 0) == (consume is _odd_integers)


def test_rekeyed_streams_check_the_whole_range_before_yielding():
    plan = RngPlan(3)
    with pytest.raises(DomainError):
        plan._rekeyer(2 ** 64 - 2, 5)
    for first in (-1, 1.0, "0"):
        with pytest.raises(DomainError):
            plan._rekeyer(first, 2)
    first, rekey = plan._rekeyer(2 ** 64 - 2, 2)
    assert first == 2 ** 64 - 2
    assert np.array_equal(rekey(2 ** 64 - 1).random(4),
                          plan.stream(2 ** 64 - 1).random(4))
    assert plan._rekeyer(np.uint64(5), 0)[0] == 5


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


def test_conditional_estimate_is_batch_independent(logistic30_system,
                                                  monkeypatch):
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
    # Streams [0, 25) and [25, 60) in batches of 16: the split falls inside
    # the batch [16, 32) of the whole run.
    monkeypatch.setattr(simulate, "_BATCH", 16)
    counts, events = _survivor_counts(model, (2,), 0.7, RngPlan(5), 0, 60)
    head, head_events = _survivor_counts(model, (2,), 0.7, RngPlan(5), 0, 25)
    tail, tail_events = _survivor_counts(model, (2,), 0.7, RngPlan(5), 25, 35)
    assert head + tail == counts and head_events + tail_events == events
    assert sum(counts.values()) == whole.survivors and events == whole.events


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
    with pytest.raises(DomainError, match="particles must be an integer"):
        fleming_viot(model, (5,), 2.5, 1.0, RngPlan(0))
    for t_max in (math.nan, math.inf):
        with pytest.raises(DomainError, match="t_max"):
            fleming_viot(model, (5,), 10, t_max, RngPlan(0))


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


@pytest.mark.parametrize("start,t_max", [((3,), 1.0), ((1,), 0.0),
                                         ((1,), math.nan), ((1,), math.inf)])
def test_qprocess_checks_its_arguments(two_state_qsd, start, t_max):
    model, _, result = two_state_qsd
    with pytest.raises(DomainError):
        simulate_qprocess(model, result, start, t_max, RngPlan(0).stream(0))


def test_qprocess_refuses_a_law_only_solve():
    model = logistic_1d()
    generator = assemble(model, enumerate_space(1, 20))
    with pytest.raises(DomainError, match="needs the survival profile"):
        simulate_qprocess(model, solve_qsd(generator, profile=False), (1,),
                          10.0, RngPlan(0).stream(0))


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


# ---------------------------------------------------------------------------
# memoised moves and block draws against the scalar reference
# ---------------------------------------------------------------------------
#
# The reference below is the plain event loop: it rebuilds each state's rate
# table, draws one ``rng.random()`` per uniform and picks a move by a linear
# scan.  The simulators must reproduce it bit for bit.


def _reference_pick(rng, targets, rates, total):
    u = rng.random() * total
    acc = 0.0
    for target, rate in zip(targets, rates):
        acc += rate
        if u < acc:
            return target
    return targets[-1]


def _reference_path(table, n, t_max, rng):
    times, states, t = [0.0], [n], 0.0
    while True:
        targets, rates, total = table(n)
        if total <= 0.0:
            return tuple(times), tuple(states), t_max, False
        t += -math.log1p(-rng.random()) / total
        if t >= t_max:
            return tuple(times), tuple(states), t_max, False
        n = _reference_pick(rng, targets, rates, total)
        times.append(t)
        states.append(n)
        if is_absorbed(n):
            return tuple(times), tuple(states), t, True


def _reference_qtable(model, qsd):
    space, h = qsd.space, qsd.survival_profile

    def table(n):
        targets, rates, _ = model.transition_table(n)
        h_n = h[space.index[n]]
        kept, weights, total = [], [], 0.0
        for target, rate in zip(targets, rates):
            k = space.index.get(target)
            if k is None:
                continue
            w = rate * h[k] / h_n
            kept.append(target)
            weights.append(w)
            total += w
        return kept, weights, total

    return table


def _reference_fleming_viot(model, start, particles, t_max, plan):
    occupation_from = t_max / 2.0
    states = [start] * particles
    streams = [plan.stream(i) for i in range(particles)]
    resampler = plan.stream(particles)
    tables = [None] * particles
    since = [0.0] * particles
    occupation = Counter()
    heap = []
    pushes = 0

    def schedule(i, now):
        nonlocal pushes
        tables[i] = model.transition_table(states[i])
        total = tables[i][2]
        if total > 0.0:
            wait = -math.log1p(-streams[i].random()) / total
            heapq.heappush(heap, (now + wait, pushes, i))
            pushes += 1

    def settle(i, now):
        lo = max(since[i], occupation_from)
        if now > lo:
            occupation[states[i]] += now - lo
        since[i] = now

    for i in range(particles):
        schedule(i, 0.0)
    deaths = events = 0
    while heap and heap[0][0] < t_max:
        t, _, i = heapq.heappop(heap)
        target = _reference_pick(streams[i], *tables[i])
        events += 1
        settle(i, t)
        if is_absorbed(target):
            deaths += 1
            j = int(resampler.random() * (particles - 1))
            if j >= i:
                j += 1
            states[i] = states[j]
        else:
            states[i] = target
        schedule(i, t)
    for i in range(particles):
        settle(i, t_max)
    return Counter(states), occupation, deaths, events


def _reference_occupation(times, states, t_end, t_start=0.0):
    weights = Counter()
    ends = list(times) + [t_end]
    for i, state in enumerate(states):
        if is_absorbed(state):
            break
        lo = max(ends[i], t_start)
        if ends[i + 1] > lo:
            weights[state] += ends[i + 1] - lo
    return weights


def _litter_catastrophe_2d():
    litter = LitterLaw({(1, 0): 0.5, (0, 2): 0.3, (1, 1): 0.2})
    return Model.constant([1.0, 1.5], [0.2, 0.1], [[1.0, 0.3], [0.2, 0.8]],
                          1.1, catastrophe=lambda n: 0.01 * sum(n),
                          litter=litter)


def _callback_2d():
    def birth(n):
        return [2.0 + 1.0 / n[0], 1.5 + 0.5 * math.sin(n[1])]

    def death(n):
        return [0.1 * n[1] / (1 + n[0]), 0.2]

    def competition(n):
        return [[0.5, 0.05 * n[1] / sum(n)], [0.1, 0.4 + 0.01 * n[0]]]

    return Model.from_callbacks(2, 1.3, birth, death, competition)


MODELS = {
    "constant": (reference_2d, (3, 3), 4.0),
    "litter": (multibirth_uniform_1d, (2,), 3.0),
    "catastrophe": (catastrophe_logistic_1d, (4,), 3.0),
    "litter-catastrophe-2d": (_litter_catastrophe_2d, (2, 3), 3.0),
    "callback": (_callback_2d, (3, 2), 3.0),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_paths_equal_the_scalar_reference(name):
    make, start, t_max = MODELS[name]
    model = make()
    reference = make()
    plan = RngPlan(17)
    absorbed = 0
    for k in range(150):
        path = simulate_path(model, start, t_max, plan.stream(k))
        expected = _reference_path(reference.transition_table, start, t_max,
                                   plan.stream(k))
        assert (tuple(path.times), tuple(path.states), path.t_end,
                path.absorbed) == expected
        assert occupation_measure(path).weights == EmpiricalLaw.from_counts(
            _reference_occupation(*expected[:3])).weights
        absorbed += path.absorbed
    assert 0 < absorbed < 150


@pytest.fixture(scope="module")
def small_solves():
    solves = {}
    for name, trunc in (("constant", 15), ("catastrophe", 30),
                        ("litter-catastrophe-2d", 12), ("callback", 12)):
        make, start, _ = MODELS[name]
        model = make()
        space = enumerate_space(model.r, trunc)
        solves[name] = (model, start, solve_qsd(assemble(model, space)))
    return solves


@pytest.mark.parametrize("name", ["constant", "catastrophe",
                                  "litter-catastrophe-2d", "callback"])
def test_qprocess_equals_the_scalar_reference(small_solves, name):
    model, start, qsd = small_solves[name]
    table = _reference_qtable(model, qsd)
    plan = RngPlan(23)
    for k in range(40):
        path = simulate_qprocess(model, qsd, start, 40.0, plan.stream(k))
        expected = _reference_path(table, start, 40.0, plan.stream(k))
        assert (tuple(path.times), tuple(path.states), path.t_end,
                path.absorbed) == expected


@pytest.mark.parametrize("name", sorted(MODELS))
def test_particles_equal_the_scalar_reference(name):
    make, start, t_max = MODELS[name]
    for seed in (0, 5):
        result = fleming_viot(make(), start, 60, t_max, RngPlan(seed))
        law, occupation, deaths, events = _reference_fleming_viot(
            make(), start, 60, t_max, RngPlan(seed))
        assert (result.deaths, result.events) == (deaths, events)
        assert deaths > 0
        assert result.law.weights == EmpiricalLaw.from_counts(law).weights
        assert result.occupation.weights == EmpiricalLaw.from_counts(
            occupation).weights


class _Scripted:
    """Stand-in generator that hands out given uniforms, then 0.5 forever."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0) if self.values else 0.5
        out = [self.values.pop(0) if self.values else 0.5
               for _ in range(size)]
        return np.array(out)


def _store(table):
    """A move store whose rows come from ``table(n) -> (targets, rates,
    total)``, state by state, with ``total`` as given, even when it is not
    the in-order sum of ``rates``."""
    def source(states):
        rows = [table(n) for n in states]
        # One slot at least, as in every table of a model.
        width = max([1] + [len(rates) for _, rates, _ in rows])
        targets = np.zeros((len(rows), width, 1), dtype=np.int64)
        rates = np.zeros((len(rows), width))
        keep = np.zeros((len(rows), width), dtype=bool)
        for i, (moves, weights, _) in enumerate(rows):
            targets[i, :len(moves), 0] = [m for m, in moves]
            rates[i, :len(weights)] = weights
            keep[i, :len(weights)] = True
        moves = MoveTable(np.array(states), targets, rates, keep)
        # Where ``MoveTable.total`` caches the in-order sums.
        vars(moves)["total"] = np.array([total for *_, total in rows])
        return moves

    return _MoveStore(source)


def _fixed_table(targets, rates, total=None):
    if total is None:
        total = 0.0
        for rate in rates:
            total += rate
    return lambda n: (targets, rates, total)


# Waits: 0.5 gives a short first wait, the largest float below 1 a wait far
# beyond the horizon, so each scripted path makes exactly one move.
_LAST_BELOW_ONE = 1.0 - 2.0 ** -53


def test_pick_on_a_running_sum_boundary_takes_the_next_move():
    table = _fixed_table([(6,), (7,), (4,)], [1.0, 1.0, 2.0])
    script = [0.5, 0.25, _LAST_BELOW_ONE]  # 0.25 * 4.0 == 1.0, the first sum
    path = _jump_path(_store(table), (5,), 1.0, _Scripted(script))
    assert tuple(path.states) == ((5,), (7,))
    assert (tuple(path.times), tuple(path.states), path.t_end,
            path.absorbed) == \
        _reference_path(table, (5,), 1.0, _Scripted(script))


def test_pick_rounded_up_to_the_last_sum_takes_the_last_move():
    # When the total is the in-order sum of the rates, u * total stays below
    # the last running sum for every u < 1.  A total summed otherwise can
    # exceed that sum by an ulp, and then u * total can round up onto it.
    total = math.nextafter(3.0, 4.0)
    table = _fixed_table([(6,), (0,)], [1.0, 2.0], total)
    assert _LAST_BELOW_ONE * total == 3.0
    script = [0.5, _LAST_BELOW_ONE]
    path = _jump_path(_store(table), (5,), 1.0, _Scripted(script))
    assert tuple(path.states) == ((5,), (0,))
    assert path.absorbed
    assert (tuple(path.times), tuple(path.states), path.t_end,
            path.absorbed) == \
        _reference_path(table, (5,), 1.0, _Scripted(script))


def test_particle_pick_on_a_running_sum_boundary_takes_the_next_move():
    # From (1,) the logistic chain has birth and death rates 1.0 and 1.0:
    # walker 0 draws 0.5, so u * total is the first running sum and the
    # death is picked; it teleports onto walker 1 (resampler draw 0.25).
    # Every other wait is far beyond the horizon.
    plan = _ScriptedPlan({0: [0.5, 0.5, _LAST_BELOW_ONE],
                          1: [_LAST_BELOW_ONE], 2: [0.25]})
    result = fleming_viot(logistic_1d(), (1,), 2, 0.5, plan)
    law, occupation, deaths, events = _reference_fleming_viot(
        logistic_1d(), (1,), 2, 0.5, plan)
    assert (result.deaths, result.events) == (deaths, events) == (1, 1)
    assert result.law.weights == EmpiricalLaw.from_counts(law).weights
    assert result.occupation.weights == EmpiricalLaw.from_counts(
        occupation).weights


def test_particle_streams_open_no_generator_per_walker():
    opened = []

    class CountingPlan(RngPlan):
        def stream(self, index):
            opened.append(index)
            return super().stream(index)

    counts = []
    for particles in (10, 200):
        opened.clear()
        fleming_viot(reference_2d(), (3, 3), particles, 1.0, CountingPlan(2))
        counts.append(len(opened))
    assert counts[0] == counts[1]


def test_moves_are_computed_once_per_visited_state():
    calls = Counter()

    def birth(n):
        calls[n] += 1
        return [1.0 + 0.1 * n[0]]

    model = Model.from_callbacks(1, 1.0, birth, lambda n: [0.3],
                                 lambda n: [[0.2]])
    estimate_conditional(model, (3,), 2.0, 300, RngPlan(4))
    assert len(calls) > 5
    assert set(calls.values()) == {1}
    visited = set()
    for k in range(300):
        path = simulate_path(model, (3,), 2.0, RngPlan(4).stream(k))
        visited.update(s for s in path.states if not is_absorbed(s))
    assert visited == set(calls)
    assert set(calls.values()) == {1}
    # The walkers reach states the paths above never stood on, and read
    # those the paths did from the same store.
    before = set(calls)
    fleming_viot(model, (3,), 200, 6.0, RngPlan(4))
    assert set(calls) > before
    assert set(calls.values()) == {1}


def _runs_from(model, start):
    """Everything the three simulators of ``model`` report from ``start``,
    with every law as its ordered list of items."""
    estimate = estimate_conditional(model, start, 4.0, 300, RngPlan(3))
    particles = fleming_viot(model, start, 150, 4.0, RngPlan(3))
    paths = [simulate_path(model, start, 4.0, RngPlan(3).stream(k))
             for k in range(20)]
    return ([list(estimate.law.weights.items()), estimate.events],
            [list(particles.law.weights.items()),
             list(particles.occupation.weights.items()),
             particles.events, particles.deaths],
            [(list(path.times), path.states, path.absorbed)
             for path in paths])


def test_a_filled_store_gives_the_bits_of_a_fresh_model():
    # Other runs from other starts give states their ids and rows first,
    # so the runs from (3, 3) see other ids and fill other batches.
    _, used = _config_model("ref2d")
    fleming_viot(used, (8, 2), 100, 3.0, RngPlan(1))
    estimate_conditional(used, (1, 6), 3.0, 200, RngPlan(2))
    filled = len(used._moves.states)
    _, fresh = _config_model("ref2d")
    assert _runs_from(used, (3, 3)) == _runs_from(fresh, (3, 3))
    assert len(fresh._moves.states) < len(used._moves.states)
    assert filled > 50


def test_a_qprocess_path_reads_the_model_once(monkeypatch, small_solves):
    model, start, qsd = small_solves["constant"]
    asked = []
    move_table = Model.move_table

    def spy(self, states, *args):
        states = list(states)
        asked.append(states)
        return move_table(self, states, *args)

    monkeypatch.setattr(Model, "move_table", spy)
    for k in range(2):
        path = simulate_qprocess(model, qsd, start, 40.0,
                                 RngPlan(23).stream(k))
        assert len(path.times) > 100
        # One read of the whole space, for the table the generator has too.
        assert asked == [list(qsd.space.states)] * (k + 1)


@pytest.mark.parametrize("name", ["constant", "catastrophe"])
def test_a_single_path_asks_for_the_moves_of_each_state_once(name):
    make, start, t_max = MODELS[name]
    model = make()
    asked = Counter()

    def source(states):
        asked.update(states)
        return model.move_table(states)

    for k in range(20):
        asked.clear()
        path = _jump_path(_MoveStore(source), start, 5 * t_max,
                          RngPlan(8).stream(k))
        # The states the path stood on: all but an absorbing last one.
        stood = path.states[:len(path.states) - path.absorbed]
        assert set(asked) == set(stood)
        assert set(asked.values()) == {1}
        # A call per event would show: the path revisits its states.
        assert len(stood) > 2 * len(asked) or path.absorbed


# ---------------------------------------------------------------------------
# the flat particle loop against its former code, and the occupation pass
# against the reference
# ---------------------------------------------------------------------------
#
# A plain copy of ``fleming_viot``'s closure-based event loop, and
# ``_reference_occupation``, which visits every interval.  The current code
# must give the same floats, added in the same order.


def _closure_fleming_viot(model, start, particles, t_max, plan):
    occupation_from = t_max / 2.0

    def moves(n):
        targets, rates, total = model.transition_table(n)
        return (targets, list(itertools.accumulate(rates)), total,
                [is_absorbed(target) for target in targets])

    states = [start] * particles
    draws = [_uniforms(plan.stream(i)).__next__ for i in range(particles)]
    resample = _uniforms(plan.stream(particles)).__next__
    tables = [None] * particles
    since = [0.0] * particles
    occupation = Counter()
    heap = []
    pushes = 0

    def schedule(i, now):
        nonlocal pushes
        table = moves(states[i])
        tables[i] = table
        total = table[2]
        if total > 0.0:
            heapq.heappush(heap, (now + -math.log1p(-draws[i]()) / total,
                                  pushes, i))
            pushes += 1

    def settle(i, now):
        lo = max(since[i], occupation_from)
        if now > lo:
            occupation[states[i]] += now - lo
        since[i] = now

    for i in range(particles):
        schedule(i, 0.0)
    deaths = 0
    events = 0
    while heap and heap[0][0] < t_max:
        t, _, i = heapq.heappop(heap)
        targets, cum, total, dead = tables[i]
        k = bisect.bisect_right(cum, draws[i]() * total, 0, len(cum) - 1)
        events += 1
        settle(i, t)
        if dead[k]:
            deaths += 1
            j = int(resample() * (particles - 1))
            if j >= i:
                j += 1
            states[i] = states[j]
        else:
            states[i] = targets[k]
        schedule(i, t)
    for i in range(particles):
        settle(i, t_max)
    return (EmpiricalLaw.from_counts(Counter(states)),
            EmpiricalLaw.from_counts(occupation), deaths, events)


def _config_model(name):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    return cfg, build_model(cfg)


@pytest.mark.parametrize("name,start,t_max", [("ref2d", (1, 1), 10.0),
                                              ("multibirth1d", (1,), 5.0)])
@pytest.mark.parametrize("seed", [0, 7])
def test_particles_equal_the_closure_loop(name, start, t_max, seed):
    cfg, model = _config_model(name)
    particles = 300
    result = fleming_viot(model, start, particles, t_max, RngPlan(seed))
    law, occupation, deaths, events = _closure_fleming_viot(
        model, start, particles, t_max, RngPlan(seed))
    assert (result.deaths, result.events) == (deaths, events)
    assert deaths > 0
    # Same floats in the same order: equal as ordered item lists.
    assert list(result.law.weights.items()) == list(law.weights.items())
    assert list(result.occupation.weights.items()) == list(
        occupation.weights.items())


def _burn_ins(path):
    """Burn-ins at 0, on event times, between them, and on the start of,
    inside and near the end of the last interval."""
    times, t_end = path.times, path.t_end
    last = times[-1] if times[-1] < t_end else times[-2]
    picks = {0.0, times[len(times) // 2], last, 0.5 * (last + t_end),
             0.5 * t_end, math.nextafter(t_end, 0.0)}
    return sorted(t for t in picks if 0.0 <= t < t_end)


def _assert_occupation_matches(path, t_starts=None):
    """The occupation law after each burn-in equals the reference's, with
    the same floats in the same order."""
    for t_start in _burn_ins(path) if t_starts is None else t_starts:
        got = occupation_measure(path, t_start).weights
        want = EmpiricalLaw.from_counts(_reference_occupation(
            path.times, path.states, path.t_end, t_start)).weights
        assert list(got.items()) == list(want.items())


@pytest.fixture(scope="module")
def ref2d_30():
    cfg, model = _config_model("ref2d")
    space = enumerate_space(2, 30)
    return model, solve_qsd(assemble(model, space), tol=cfg.tol)


@pytest.mark.parametrize("seed", [0, 7])
def test_occupation_skips_the_burn_in_without_moving_a_bit(ref2d_30, seed):
    model, qsd = ref2d_30
    # q-process paths on ref2d at N = 30 never end absorbed.
    path = simulate_qprocess(model, qsd, (1, 1), 500.0, RngPlan(seed).stream(0))
    assert not path.absorbed and len(path.times) > 1000
    _assert_occupation_matches(path)
    # Plain paths on multibirth1d end either way.
    _, model = _config_model("multibirth1d")
    ends = Counter()
    for k in range(40):
        path = simulate_path(model, (3,), 5.0, RngPlan(seed).stream(k))
        ends[path.absorbed] += 1
        _assert_occupation_matches(path)
    assert ends[True] > 0 and ends[False] > 0


def test_occupation_lists_states_by_their_first_positive_time():
    # A wait of zero (a uniform of 0) leaves (2,) an empty first interval.
    path = Trajectory(times=[0.0, 1.0, 1.0, 2.0],
                      states=[(1,), (2,), (3,), (2,)], t_end=3.0,
                      absorbed=False)
    assert list(occupation_measure(path).weights) == [(1,), (3,), (2,)]
    _assert_occupation_matches(path, (0.0, 1.0, 2.5))


def test_occupation_without_time_after_t_start_is_an_error():
    # A path absorbed at its start, and one whose horizon lies past its
    # absorption, read from after that absorption.
    for path, t_start in (
            (Trajectory(times=[0.0], states=[(0,)], t_end=1.0,
                        absorbed=True), 0.0),
            (Trajectory(times=[0.0, 1.0], states=[(1,), (0,)], t_end=2.0,
                        absorbed=True), 1.5)):
        assert not _reference_occupation(path.times, path.states, path.t_end,
                                         t_start)
        with pytest.raises(ValidationError, match="no occupation time"):
            occupation_measure(path, t_start)


# ---------------------------------------------------------------------------
# the lockstep survivor tally against one path at a time
# ---------------------------------------------------------------------------


def _plain_tally(model, start, t, plan, first, count):
    """Survivor counts, events and the longest path's events of
    ``simulate_path`` on each stream in turn."""
    counts = Counter()
    events = longest = 0
    for k in range(first, first + count):
        path = simulate_path(model, start, t, plan.stream(k))
        events += len(path.times) - 1
        longest = max(longest, len(path.times) - 1)
        if not path.absorbed:
            counts[path.final_state] += 1
    return counts, events, longest


def _assert_tally_matches(model, start, t, plan, first, count):
    counts, events = _survivor_counts(model, start, t, plan, first, count)
    want, want_events, longest = _plain_tally(model, start, t, plan, first,
                                              count)
    assert counts == want and events == want_events
    # The same insertion order, so every sum over the law adds alike.
    assert list(counts) == list(want)
    return counts, events, longest


@pytest.mark.parametrize("name", sorted(MODELS))
def test_lockstep_tally_equals_one_path_at_a_time(name):
    make, start, t_max = MODELS[name]
    counts, events, _ = _assert_tally_matches(make(), start, t_max,
                                              RngPlan(31), 0, 200)
    assert counts
    estimate = estimate_conditional(make(), start, t_max, 200, RngPlan(31))
    assert (estimate.survivors, estimate.events) == \
        (sum(counts.values()), events)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_lockstep_tally_across_batches_and_refills(monkeypatch, name):
    make, start, t_max = MODELS[name]
    monkeypatch.setattr(simulate, "_BATCH", 64)
    monkeypatch.setattr(simulate, "_REFILL", 8)
    # 150 paths from stream 1000: two full batches and a part-filled one.
    *_, longest = _assert_tally_matches(make(), start, t_max, RngPlan(9),
                                        1000, 150)
    # Some path drew past its third buffer refill.
    assert longest > 3 * simulate._REFILL // 2


def test_lockstep_tally_over_more_than_one_batch():
    make, start, t_max = MODELS["catastrophe"]
    count = simulate._BATCH + 150
    counts, *_ = _assert_tally_matches(make(), start, t_max, RngPlan(2), 777,
                                       count)
    assert 0 < sum(counts.values()) < count


def test_lockstep_tally_refills_on_a_long_horizon():
    make, start, t_max = MODELS["constant"]
    counts, _, longest = _assert_tally_matches(make(), start, 8 * t_max,
                                               RngPlan(4), 0, 60)
    assert counts and longest > 3 * simulate._REFILL // 2


def test_lockstep_tally_keeps_paths_in_states_without_moves():
    # From (3,) and (4,) nothing moves; (2,) can be left only towards them,
    # or to (1,) and on to the boundary, by moves of unequal counts.
    def table(n):
        if n[0] >= 3:
            return [], [], 0.0
        return [(n[0] + 1,), (n[0] - 1,)], [1.5, 1.0], 2.5

    model = SimpleNamespace(r=1, _moves=_store(table))
    counts, *_ = _assert_tally_matches(model, (2,), 3.0, RngPlan(6), 0, 300)
    assert set(counts) >= {(3,)}


class _ScriptedPlan:
    """Stand-in plan whose stream k hands out ``scripts[k]``, if any, then
    0.5 forever."""

    def __init__(self, scripts):
        self.scripts = scripts

    def stream(self, k):
        return _Scripted(self.scripts.get(k, ()))

    def _rekeyer(self, first, count):
        def rekey(k, pos=0):
            values = self.scripts.get(k, ())[pos:]

            def random(out):
                out[:] = 0.5
                out[:len(values[:len(out)])] = values[:len(out)]
            return SimpleNamespace(random=random)
        return first, rekey


def _wait_where_numpy_log1p_rounds_down():
    """A uniform whose wait ``-log1p(-u)`` is shorter by ``np.log1p``."""
    for u in RngPlan(0).stream(0).random(1000).tolist():
        if np.log1p(-u) > math.log1p(-u):
            return u
    raise AssertionError("no such uniform among 1000")


def _boundary_cases():
    long_wait = _LAST_BELOW_ONE
    u = _wait_where_numpy_log1p_rounds_down()
    return {
        # u * total is the first running sum: the next move is taken.
        "pick on a sum": (_fixed_table([(6,), (7,), (4,)], [1.0, 1.0, 2.0]),
                          1.0, [0.5, 0.25, long_wait]),
        # u * total rounds up onto the last running sum: the last move.
        "pick rounded up": (_fixed_table([(6,), (0,)], [1.0, 2.0],
                                         math.nextafter(3.0, 4.0)),
                            1.0, [0.5, _LAST_BELOW_ONE]),
        # The first wait ends exactly at t: the path stays where it is.
        "wait ends at t": (_fixed_table([(6,)], [1.0]), -math.log1p(-0.5),
                           [0.5, 0.5, long_wait]),
        # Ends at t by ``math.log1p``, an ulp before it by ``np.log1p``.
        "wait rounding": (_fixed_table([(6,)], [1.0]), -math.log1p(-u),
                          [u, 0.5, long_wait]),
    }


@pytest.mark.parametrize("case", sorted(_boundary_cases()))
def test_lockstep_tally_on_scripted_boundaries(case):
    table, t, script = _boundary_cases()[case]
    model = SimpleNamespace(r=1, _moves=_store(table))
    counts, events = _survivor_counts(model, (5,), t,
                                      _ScriptedPlan({0: script}), 0, 1)
    path = _jump_path(_store(table), (5,), t, _Scripted(script))
    want = Counter() if path.absorbed else Counter([path.final_state])
    assert (counts, events) == (want, len(path.times) - 1)
    if case.startswith("wait"):
        assert counts == Counter([(5,)])


def test_lockstep_tally_checks_its_arguments():
    model = reference_2d()
    for start, t in (((0, 3), 1.0), ((3,), 1.0), ((3, 3), 0.0),
                     ((3, 3), math.nan), ((3, 3), math.inf)):
        with pytest.raises(DomainError):
            _survivor_counts(model, start, t, RngPlan(0), 0, 5)
    with pytest.raises(DomainError):
        _survivor_counts(model, (3, 3), 1.0, RngPlan(0), 2 ** 64 - 3, 5)
    with pytest.raises(DomainError, match="t_max"):
        estimate_conditional(model, (4, 4), math.nan, 100, RngPlan(0))
    with pytest.raises(DomainError, match="trajectories must be an integer"):
        estimate_conditional(model, (4, 4), 1.0, 2.5, RngPlan(0))


def test_lockstep_tally_keeps_the_event_budget(monkeypatch):
    make, start, t_max = MODELS["constant"]
    _, _, longest = _plain_tally(make(), start, t_max, RngPlan(3), 0, 40)
    # A path that makes its budget's last move unabsorbed raises, in both
    # loops, even when its next wait would pass t.
    raised = []
    for budget in (5, longest - 1, longest, longest + 1):
        monkeypatch.setattr(simulate, "_EVENT_BUDGET", budget)
        try:
            _plain_tally(make(), start, t_max, RngPlan(3), 0, 40)
        except NumericalError:
            with pytest.raises(NumericalError, match="event budget"):
                _survivor_counts(make(), start, t_max, RngPlan(3), 0, 40)
            raised.append(budget)
        else:
            _assert_tally_matches(make(), start, t_max, RngPlan(3), 0, 40)
    assert raised[:2] == [5, longest - 1] and longest + 1 not in raised


# ---------------------------------------------------------------------------
# the survivor tally split between a forked child and this process
# ---------------------------------------------------------------------------


def _assert_reaped(pids, count):
    assert len(pids) == count
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_the_split_tally_keeps_the_bits_of_one_process(forks, monkeypatch):
    """Sixty paths in batches of 16: streams [0, 30) in the child and
    [30, 60) here, against the same calls with no ``os.fork``."""
    monkeypatch.setattr(simulate, "_BATCH", 16)

    def run():
        return (_survivor_counts(logistic_1d(), (2,), 0.7, RngPlan(5), 0, 60),
                estimate_conditional(logistic_1d(), (2,), 0.7, 60, RngPlan(5)))

    (counts, events), estimate = run()
    _assert_reaped(forks, 2)
    monkeypatch.delattr(os, "fork")
    (want, want_events), alone = run()
    assert counts == want and list(counts) == list(want)
    assert events == want_events
    assert (estimate.survivors, estimate.events) == (alone.survivors,
                                                     alone.events)
    assert list(estimate.law.weights.items()) == list(
        alone.law.weights.items())
    # The halves first meet their states in other orders, so only the
    # child's counts merged first give the order of one path at a time.
    plain, plain_events, _ = _plain_tally(logistic_1d(), (2,), 0.7,
                                          RngPlan(5), 0, 60)
    assert list(counts.items()) == list(plain.items())
    assert events == plain_events
    head = _plain_tally(logistic_1d(), (2,), 0.7, RngPlan(5), 0, 30)[0]
    tail = _plain_tally(logistic_1d(), (2,), 0.7, RngPlan(5), 30, 30)[0]
    assert list(head) != list(tail)


@pytest.mark.parametrize("first, exhausted", [(0, "lower"), (20, "upper")])
def test_an_exhausted_budget_in_either_half_raises_as_in_one_process(
        forks, monkeypatch, first, exhausted):
    """Forty paths from stream ``first`` in batches of 16.  At a budget of
    80 events, paths 1, 7, 12, 14 and 16 of seed 3 exhaust it, and 45, 46,
    48, 53 and 54: all in the lower half from stream 0 and in the upper
    half from stream 20."""
    make, start, t_max = MODELS["constant"]
    monkeypatch.setattr(simulate, "_BATCH", 16)
    monkeypatch.setattr(simulate, "_EVENT_BUDGET", 80)
    halves = {"lower": first, "upper": first + 20}
    for half, lo in halves.items():
        if half == exhausted:
            with pytest.raises(NumericalError):
                _plain_tally(make(), start, t_max, RngPlan(3), lo, 20)
        else:
            _plain_tally(make(), start, t_max, RngPlan(3), lo, 20)
    with pytest.raises(NumericalError, match="event budget 80") as forked:
        _survivor_counts(make(), start, t_max, RngPlan(3), first, 40)
    _assert_reaped(forks, 1)
    monkeypatch.delattr(os, "fork")
    with pytest.raises(NumericalError) as alone:
        _survivor_counts(make(), start, t_max, RngPlan(3), first, 40)
    assert str(forked.value) == str(alone.value)


def test_the_lower_half_error_wins_as_in_one_process(forks, monkeypatch):
    """Each half fails at its first batch: the child's, on the lower
    streams, is the error of one process, which meets it first."""
    monkeypatch.setattr(simulate, "_BATCH", 16)

    def failing(self, first):
        raise ArithmeticError("lower" if first < 30 else "upper")

    monkeypatch.setattr(simulate._Lockstep, "restart", failing)
    with pytest.raises(ArithmeticError, match="lower"):
        _survivor_counts(logistic_1d(), (2,), 0.7, RngPlan(5), 0, 60)
    _assert_reaped(forks, 1)
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ArithmeticError, match="lower"):
        _survivor_counts(logistic_1d(), (2,), 0.7, RngPlan(5), 0, 60)


def test_a_rate_callback_error_from_the_child_keeps_its_class(forks,
                                                             monkeypatch):
    """A callback's error class, defined in a function, does not pickle:
    the lower half runs again here and raises it as one process does."""
    monkeypatch.setattr(simulate, "_BATCH", 16)

    class Undefined(Exception):
        pass

    def birth(n):
        if n[0] > 6:
            raise Undefined(f"no birth rate at {n}")
        return [1.0]

    def make():
        return Model.from_callbacks(1, 1.0, birth, lambda n: [0.5],
                                    lambda n: [[0.01]])

    with pytest.raises(Undefined) as forked:
        _survivor_counts(make(), (2,), 5.0, RngPlan(0), 0, 60)
    _assert_reaped(forks, 1)
    monkeypatch.delattr(os, "fork")
    with pytest.raises(Undefined) as alone:
        _survivor_counts(make(), (2,), 5.0, RngPlan(0), 0, 60)
    assert str(forked.value) == str(alone.value)


def test_an_interrupt_kills_the_tally_child_instead_of_waiting(forks,
                                                               monkeypatch):
    """The child, on streams [0, 30), stalls for a minute; this process is
    interrupted as it starts on stream 30."""
    monkeypatch.setattr(simulate, "_BATCH", 16)
    restart = simulate._Lockstep.restart

    def stalled(self, first):
        if first >= 30:
            raise KeyboardInterrupt
        time.sleep(60)
        restart(self, first)

    monkeypatch.setattr(simulate._Lockstep, "restart", stalled)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _survivor_counts(logistic_1d(), (2,), 0.7, RngPlan(5), 0, 60)
    assert time.monotonic() - start < 30
    _assert_reaped(forks, 1)


# ---------------------------------------------------------------------------
# the windowed particle system against the one-event-at-a-time reference
# ---------------------------------------------------------------------------
#
# The scripted cases below make what the windows resolve after the fact
# happen inside one window: teleports onto walkers teleported earlier,
# repeated absorptions, and events at exactly equal times, which go in the
# reference heap's order (time, push count, walker).


def _unit_walk():
    """A walk on n >= 1 with total rate 1: up for u < 1/2, else down; (0,)
    absorbs.  Each wait is ``-log1p(-u)``."""
    def table(n):
        return [(n[0] + 1,), (n[0] - 1,)], [0.5, 0.5], 1.0

    return SimpleNamespace(r=1, _moves=_store(table),
                           transition_table=table)


def _assert_particles_match(model, start, particles, t_max, plan):
    result = fleming_viot(model, start, particles, t_max, plan)
    law, occupation, deaths, events = _reference_fleming_viot(
        model, start, particles, t_max, plan)
    assert (result.deaths, result.events) == (deaths, events)
    # Same floats in the same order: equal as ordered item lists.
    assert list(result.law.weights.items()) == list(
        EmpiricalLaw.from_counts(law).weights.items())
    assert list(result.occupation.weights.items()) == list(
        EmpiricalLaw.from_counts(occupation).weights.items())
    return result


_UP, _DOWN, _NEVER = 0.25, 0.75, _LAST_BELOW_ONE


def _scripted_particle_cases():
    return {
        # Walker 0 dies at 0.105, restarts on walker 1 and steps up at 0.211;
        # walker 2 dies at 0.357 and must read walker 0's state after that
        # step, (2,).
        "teleport onto a restarted walker": (
            (1,), {0: [0.1, _DOWN, 0.1, _UP, _NEVER], 1: [_NEVER],
                   2: [0.3, _DOWN, _NEVER], 3: [0.25, 0.25]},
            {(2,): 2 / 3, (1,): 1 / 3}, 2),
        # Walker 0 dies at 0.105 and again at 0.211, restarting on walker 1
        # at (1,), then on walker 2, which stepped up at 0.051.
        "two deaths of one walker": (
            (1,), {0: [0.1, _DOWN, 0.1, _DOWN, _NEVER], 1: [_NEVER],
                   2: [0.05, _UP, _NEVER], 3: [0.25, 0.75]},
            {(2,): 2 / 3, (1,): 1 / 3}, 2),
        # Equal first waits: at 0.357 walker 0 steps up before walker 1
        # dies and restarts on it, walker 2 after.
        "tie read after the earlier walker": (
            (1,), {0: [0.3, _UP, _NEVER], 1: [0.3, _DOWN, _NEVER],
                   2: [0.3, _UP, _NEVER], 3: [0.25]},
            {(2,): 1.0}, 1),
        "tie read before the later walker": (
            (1,), {0: [0.3, _UP, _NEVER], 1: [0.3, _DOWN, _NEVER],
                   2: [0.3, _UP, _NEVER], 3: [0.75]},
            {(2,): 2 / 3, (1,): 1 / 3}, 1),
        # Swapped waits meet at exactly 0.357 + 0.223: walker 1, whose first
        # event came first, goes first there, dies and restarts on walker 0
        # before walker 0 steps from (3,) to (4,).
        "tie in the order of the events before": (
            (2,), {0: [0.3, _UP, 0.2, _UP, _NEVER],
                   1: [0.2, _DOWN, 0.3, _DOWN, _NEVER], 2: [0.25]},
            {(4,): 0.5, (3,): 0.5}, 1),
        # Walkers 0 and 1 die at exactly 0.357 + 0.223, walker 1 first:
        # onto walker 2, at (3,), and walker 0 then onto walker 3, at (2,).
        "tied deaths in the order of the events before": (
            (2,), {0: [0.3, _DOWN, 0.2, _DOWN, _NEVER],
                   1: [0.2, _DOWN, 0.3, _DOWN, _NEVER],
                   2: [0.05, _UP, _NEVER], 3: [_NEVER], 4: [0.5, 0.9]},
            {(2,): 0.5, (3,): 0.5}, 2),
        # A zero wait puts walker 0's second step at 0.357 too, after
        # walker 1's death there, which was drawn before it: walker 1
        # restarts on walker 0 at (2,), not (3,).
        "tie with a step drawn at the same time": (
            (1,), {0: [0.3, _UP, 0.0, _UP, _NEVER], 1: [0.3, _DOWN, _NEVER],
                   2: [_NEVER], 3: [0.25]},
            {(3,): 1 / 3, (2,): 1 / 3, (1,): 1 / 3}, 1),
        # Identical scripts: every event ties with its counterparts, and
        # all four walkers die at 0.357.
        "identical scripts": (
            (1,), {k: [0.3, _DOWN, 0.3, _UP, 0.1, _DOWN, _NEVER]
                   for k in range(4)} | {4: [0.1, 0.4, 0.7, 0.9]},
            None, 4),
        # Walker 0 dies at 0.223, restarts on walker 2 at (1,) and steps up
        # at 0.223 + 0.357, where walker 1 steps up twice (a zero wait).  In
        # one window the lockstep records walker 1's two steps before
        # walker 0's, against the (m, w) order of their slots and against
        # event order: the three tied events go by the events before them,
        # walker 0's step (after its death), walker 1's first (after its
        # step at 0.357), walker 1's second.  So (1,) is occupied first,
        # then (2,), then (4,).
        "tied steps recorded against their slot order": (
            (1,), {0: [0.2, _DOWN, 0.3, _UP, _NEVER],
                   1: [0.3, _UP, 0.2, _UP, 0.0, _UP, _NEVER],
                   2: [_NEVER], 3: [0.75]},
            {(2,): 1 / 3, (4,): 1 / 3, (1,): 1 / 3}, 1),
    }


@pytest.mark.parametrize("window", [0.01, 3, 10 ** 6])
@pytest.mark.parametrize("case", sorted(_scripted_particle_cases()))
def test_windowed_particles_on_scripted_streams(monkeypatch, case, window):
    start, scripts, law, deaths = _scripted_particle_cases()[case]
    particles = len(scripts) - 1
    monkeypatch.setattr(simulate, "_WINDOW", window)
    result = _assert_particles_match(_unit_walk(), start, particles, 1.0,
                                     _ScriptedPlan(scripts))
    assert result.deaths == deaths
    if law is not None:
        assert list(result.law.weights.items()) == list(law.items())


@pytest.mark.parametrize("window", [0.01, 3, 10 ** 6])
def test_tied_steps_go_by_event_order_not_by_record_order(monkeypatch,
                                                          window):
    start, scripts, *_ = _scripted_particle_cases()[
        "tied steps recorded against their slot order"]
    monkeypatch.setattr(simulate, "_WINDOW", window)
    recorded = []
    close = simulate._Window.close

    def spy(self, *args):
        m, w = (np.concatenate(column) for column in zip(*self.steps))
        recorded.append(list(zip(m.tolist(), w.tolist())))
        return close(self, *args)

    monkeypatch.setattr(simulate._Window, "close", spy)
    result = _assert_particles_match(_unit_walk(), start, 3, 1.0,
                                     _ScriptedPlan(scripts))
    assert list(result.occupation.weights) == [(1,), (2,), (4,)]
    if window == 10 ** 6:
        # One window: walker 1's second and third steps (slots 1 and 2)
        # are recorded before walker 0's restarted step (slot 1).
        assert recorded == [[(0, 0), (0, 1), (1, 1), (2, 1), (1, 0)]]


def test_particles_keep_walkers_in_states_without_moves():
    # From (3,) on nothing moves, so walkers stop there, and a walker that
    # teleports onto one stops too.
    def table(n):
        if n[0] >= 3:
            return [], [], 0.0
        return [(n[0] + 1,), (n[0] - 1,)], [1.5, 1.0], 2.5

    model = SimpleNamespace(r=1, _moves=_store(table),
                            transition_table=table)
    result = _assert_particles_match(model, (1,), 40, 3.0, RngPlan(6))
    assert result.deaths > 0 and result.law.mass_at((3,)) > 0.5


@pytest.mark.parametrize("window", [0.05, 1, 40])
@pytest.mark.parametrize("name", ["catastrophe", "constant"])
def test_particles_do_not_depend_on_the_window_width(monkeypatch, name,
                                                     window):
    make, start, t_max = MODELS[name]
    base = fleming_viot(make(), start, 150, t_max, RngPlan(12))
    monkeypatch.setattr(simulate, "_WINDOW", window)
    result = fleming_viot(make(), start, 150, t_max, RngPlan(12))
    assert (result.deaths, result.events) == (base.deaths, base.events)
    assert base.deaths > 0
    assert list(result.law.weights.items()) == list(base.law.weights.items())
    assert list(result.occupation.weights.items()) == list(
        base.occupation.weights.items())


def test_particle_system_keeps_the_event_budget(monkeypatch):
    # A run of E events raises for every budget up to E, and not at E + 1.
    make, start, _ = MODELS["catastrophe"]
    result = fleming_viot(make(), start, 8, 1.0, RngPlan(3))
    events = result.events
    assert result.deaths > 0 and events > 20
    for budget in range(1, events + 2):
        monkeypatch.setattr(simulate, "_EVENT_BUDGET", budget)
        if budget <= events:
            with pytest.raises(NumericalError, match="event budget"):
                fleming_viot(make(), start, 8, 1.0, RngPlan(3))
        else:
            again = fleming_viot(make(), start, 8, 1.0, RngPlan(3))
            assert again.occupation.weights == result.occupation.weights


# ---------------------------------------------------------------------------
# peak memory
# ---------------------------------------------------------------------------


def _traced_peak(run):
    """The result of ``run()`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_long_qprocess_and_its_occupation_take_28_bytes_an_event(ref2d_30):
    model, qsd = ref2d_30
    t_max = 10000.0

    def run():
        path = simulate_qprocess(model, qsd, (1, 1), t_max,
                                 RngPlan(0).stream(0))
        # The burn-in of ``qsdlab qprocess``.
        occupation_measure(path, t_start=t_max / 2.0)
        return len(path.times) - 1

    events, peak = _traced_peak(run)
    assert events >= 150_000
    assert peak <= 28 * events


def test_the_lockstep_tally_holds_one_refill_buffer_at_a_time():
    buffer = simulate._BATCH * (simulate._REFILL + 1) * 8
    estimate, peak = _traced_peak(lambda: estimate_conditional(
        logistic_1d(), (3,), 2.0, 3 * simulate._BATCH, RngPlan(5)))
    assert estimate.survivors > 0
    assert peak < 1.5 * buffer
