"""Event-driven simulation: plain paths, conditioned estimates, particles.

Randomness is organized around one master seed: every trajectory, every
particle, and the resampling decisions each draw from their own counted
stream of a counter-based generator, so results are reproducible bit for
bit and independent of batching order.

Exponential waits use ``-log1p(-u) / rate`` and move selection bisects the
running sums of the model's canonical move enumeration with a single
uniform, so a simulated path is determined entirely by its stream.  Each
state's moves are computed once and looked up afterwards, and each stream
is drawn in blocks of ``_BLOCK`` uniforms, which are the same floats that
single draws would give.

The paths of a conditioned estimate advance in lockstep batches, one event
per numpy step, each on its own stream: every live path of a batch sits at
the same stream position, and its buffer row is refilled from one
generator re-keyed in place to the path's stream and position.  The waits
still take ``math.log1p`` per uniform, because ``np.log1p`` differs from it
in the last bit on some inputs.  The walkers of the particle system are
live at once and add up their occupation in global event order, so each
owns a generator from ``RngPlan.stream`` and moves one event at a time.
Either way a stream draws the same values.
"""

import bisect
import heapq
import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .errors import (DomainError, NoSurvivorsError, NumericalError,
                     ValidationError)
from .model import Model, _memo_moves, is_absorbed, is_interior
from .solver import QsdResult

_EVENT_BUDGET = 10 ** 7

#: Uniforms drawn per call on a stream; 32 beat 8, and 128 was no better.
_BLOCK = 32

#: Paths that a conditioned estimate advances in lockstep.
_BATCH = 4096

#: Uniforms per refill of a lockstep path's buffer row, a multiple of the
#: four doubles of one Philox block.
_REFILL = 64


@dataclass(frozen=True)
class RngPlan:
    """Counted family of independent random streams under one master seed.

    Stream k is a Philox generator keyed by ``(master_seed, k)``; separate
    keys give statistically independent streams without any state shared
    between them.
    """

    master_seed: int

    def __post_init__(self):
        try:
            seed = operator.index(self.master_seed)
        except TypeError:
            raise ValidationError(f"master seed must be an integer, got "
                                  f"{self.master_seed!r}") from None
        if not 0 <= seed < 2 ** 64:
            raise ValidationError(f"master seed must fit in 64 bits, got {seed}")

    def stream(self, index: int) -> np.random.Generator:
        key = np.array([self.master_seed, self._index(index)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def _rekeyer(self, first, count):
        """Check streams ``first`` ... ``first + count - 1``; return ``first``
        and ``rekey(k, pos=0)``, which sets one generator in place, at a
        fraction of the cost of a new one, to the state of ``stream(k)``
        after ``pos`` uniforms, and returns it.

        ``pos`` must be a multiple of 4: after ``pos`` doubles, four to a
        Philox block, the state is the fresh one (empty buffer, no spare
        32-bit half) with counter ``pos // 4``.
        """
        first = self._index(first)
        if count > 0:
            self._index(first + count - 1)
        rng = self.stream(first)
        bits = rng.bit_generator
        fresh = bits.state
        key, counter = fresh["state"]["key"], fresh["state"]["counter"]

        def rekey(k, pos=0):
            key[1] = k
            counter[0] = pos // 4
            bits.state = fresh
            return rng

        return first, rekey

    @staticmethod
    def _index(index) -> int:
        try:
            index = operator.index(index)
        except TypeError:
            raise DomainError(f"stream index must be an integer, got "
                              f"{index!r}") from None
        if not 0 <= index < 2 ** 64:
            raise DomainError(f"stream index must lie in [0, 2**64), got {index}")
        return index


def _uniforms(rng: np.random.Generator):
    """Iterator over the uniforms of ``rng`` in order, as Python floats.

    ``rng.random(_BLOCK)`` gives the same floats as ``_BLOCK`` calls of
    ``rng.random()``; up to ``_BLOCK - 1`` drawn values go unused, so
    ``rng`` must belong to one consumer.
    """
    blocks = map(rng.random, repeat(_BLOCK))
    return chain.from_iterable(map(np.ndarray.tolist, blocks))


# ---------------------------------------------------------------------------
# single paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """A single jump path: states and the times they were entered.

    ``times[0]`` is 0 and ``states[0]`` the initial state.  If the path was
    absorbed, the last entry is the absorption event and ``t_end`` its time;
    otherwise the path is alive at ``t_end`` (the horizon) in its last
    state.
    """

    times: tuple
    states: tuple
    t_end: float
    absorbed: bool

    @property
    def final_state(self):
        return self.states[-1]

    def state_at(self, t: float):
        """State occupied at time t (right-continuous)."""
        if not 0.0 <= t <= self.t_end:
            raise DomainError(f"t = {t} outside [0, {self.t_end}]")
        i = bisect.bisect_right(self.times, t) - 1
        return self.states[i]


def simulate_path(model: Model, initial, t_max: float,
                  rng: np.random.Generator) -> Trajectory:
    """One path of the jump chain from ``initial`` up to time ``t_max``.

    Stops early on absorption (any type extinct, or a catastrophe).  Event
    times and moves are drawn from ``rng`` alone, so the path depends on its
    stream alone.  ``rng`` is consumed in blocks, which leaves the state of a
    generator the caller shares unspecified after the call: use one stream
    per path.
    """
    return _jump_path(model._moves, _start(model, initial, t_max), t_max, rng)


def _start(model: Model, initial, t_max: float) -> tuple:
    """The initial state as a tuple of ints, once it and ``t_max`` pass."""
    n = tuple(int(v) for v in initial)
    if len(n) != model.r or not is_interior(n):
        raise DomainError(f"initial state {n} is not interior for r = {model.r}")
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    return n


def _count(value, name: str, least: int) -> int:
    """``value`` as an int of at least ``least``; else a ``DomainError``
    that names it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    return value


def _jump_path(moves, n, t_max: float, rng: np.random.Generator) -> Trajectory:
    """The event loop of a single path, over the moves ``moves(n)`` gives.

    ``moves(n)`` returns ``(targets, cum, total, dead)`` (see
    ``model._memo_moves``).  The path stops at ``t_max``, when no move is
    left, or on entering an absorbed state.
    """
    draw = _uniforms(rng).__next__
    bisect_right, log1p = bisect.bisect_right, math.log1p
    times = [0.0]
    states = [n]
    add_time, add_state = times.append, states.append
    t = 0.0
    for _ in range(_EVENT_BUDGET):
        targets, cum, total, dead = moves(n)
        if total <= 0.0:
            return Trajectory(tuple(times), tuple(states), t_max, False)
        t += -log1p(-draw()) / total
        if t >= t_max:
            return Trajectory(tuple(times), tuple(states), t_max, False)
        # The first move whose running sum exceeds u * total; the last move
        # when rounding leaves none.
        i = bisect_right(cum, draw() * total, 0, len(cum) - 1)
        n = targets[i]
        add_time(t)
        add_state(n)
        if dead[i]:
            return Trajectory(tuple(times), tuple(states), t, True)
    raise NumericalError(f"event budget {_EVENT_BUDGET} exhausted before "
                         f"t_max = {t_max}; the model may explode")


def validate_trajectory(model: Model, trajectory: Trajectory) -> None:
    """Re-verify a path against the model's move structure.

    Checks strictly increasing event times, that every step is a move the
    model allows with positive rate, and that absorption appears exactly
    where flagged.  Raises on the first violation.
    """
    times, states = trajectory.times, trajectory.states
    if len(times) != len(states) or not states:
        raise ValidationError("times and states must align and be non-empty")
    if times[0] != 0.0:
        raise ValidationError(f"paths must start at time 0, got {times[0]}")
    for i in range(1, len(times)):
        if not times[i] > times[i - 1]:
            raise ValidationError(f"event times not increasing at step {i}")
        prev, cur = states[i - 1], states[i]
        targets, rates, _ = model.transition_table(prev)
        legal = any(t == cur and rate > 0 for t, rate in zip(targets, rates))
        if not legal:
            raise ValidationError(f"step {i}: {prev} -> {cur} is not a move "
                                  "the model allows")
    for mid in states[:-1]:
        if is_absorbed(mid):
            raise ValidationError("path continues past an absorbed state")
    if trajectory.absorbed != is_absorbed(states[-1]):
        raise ValidationError("absorption flag disagrees with the final state")
    if trajectory.absorbed and trajectory.t_end != times[-1]:
        raise ValidationError("absorbed paths must end at their last event")
    if not trajectory.absorbed and trajectory.t_end < times[-1]:
        raise ValidationError("horizon precedes the last recorded event")


# ---------------------------------------------------------------------------
# empirical laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalLaw:
    """A probability law as a mapping from states to weights."""

    weights: dict

    def __post_init__(self):
        total = sum(self.weights.values())
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValidationError(f"weights sum to {total}, not 1")

    @classmethod
    def from_counts(cls, counts) -> "EmpiricalLaw":
        total = sum(counts.values())
        if total <= 0:
            raise ValidationError("no mass to normalize")
        return cls({state: count / total for state, count in counts.items()
                    if count > 0})

    def mass_at(self, state) -> float:
        return self.weights.get(tuple(state), 0.0)

    def tv_against(self, other) -> float:
        """Total-variation distance to another law.

        ``other`` is another empirical law, a solved result (its law read on
        its space), or a ``(space, law)`` pair with ``law`` a vector aligned
        with ``space``; mass outside the other's support counts in full.
        """
        if isinstance(other, EmpiricalLaw):
            keys = set(self.weights) | set(other.weights)
            return 0.5 * sum(abs(self.weights.get(k, 0.0) -
                                 other.weights.get(k, 0.0)) for k in keys)
        if isinstance(other, tuple):
            space, law = other
        else:
            space, law = other.space, other.law
        total = 0.0
        for i, state in enumerate(space.states):
            total += abs(self.weights.get(state, 0.0) - law[i])
        total += sum(w for state, w in self.weights.items()
                     if state not in space.index)
        return 0.5 * total


def occupation_measure(trajectory: Trajectory,
                       t_start: float = 0.0) -> EmpiricalLaw:
    """Time-weighted law of the states a path visits after a burn-in.

    Each visited interior state gets weight proportional to the time the
    path spent in it between ``t_start`` and the end of the path.
    """
    if not 0.0 <= t_start < trajectory.t_end:
        raise DomainError(f"t_start = {t_start} outside [0, {trajectory.t_end})")
    weights: Counter = Counter()
    times, states = trajectory.times, trajectory.states
    # The interval that holds t_start; every earlier one ends by t_start.
    # The intervals are read in place, without copying the path.
    first = bisect.bisect_right(times, t_start, 1) - 1
    ends = chain(islice(times, first + 1, None), (trajectory.t_end,))
    # An absorbed path's last state is the absorption, not an interval.
    stop = len(states) - trajectory.absorbed
    for start, end, state in zip(islice(times, first, None), ends,
                                  islice(states, first, stop)):
        lo = max(start, t_start)
        if end > lo:
            weights[state] += end - lo
    if not weights:
        raise ValidationError("no occupation time accumulated after t_start")
    return EmpiricalLaw.from_counts(weights)


# ---------------------------------------------------------------------------
# conditioned estimates by brute force
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalEstimate:
    """Monte Carlo estimate of the conditioned law at a fixed time."""

    law: EmpiricalLaw
    survival: float
    trajectories: int
    survivors: int
    t: float
    #: Jumps over all the paths, absorbing ones included.
    events: int

    @property
    def survival_stderr(self) -> float:
        """Binomial standard error of ``survival``, sqrt(p (1 - p) / n)."""
        p = self.survival
        return math.sqrt(p * (1.0 - p) / self.trajectories)


def estimate_conditional(model: Model, initial, t: float, trajectories: int,
                         plan: RngPlan, first_stream: int = 0) -> ConditionalEstimate:
    """Estimate the law at time t conditioned on survival, by many paths.

    Trajectory k draws from stream ``first_stream + k`` of the plan, so any
    contiguous batch of indices reproduces exactly: runs over streams
    ``[0, a)`` and ``[a, n)``, in one process or two, have between them the
    survivor counts and events of one run over ``[0, n)``.  Raises when
    every path was absorbed by t.
    """
    trajectories = _count(trajectories, "trajectories", 1)
    counts, events = _survivor_counts(model, initial, t, plan, first_stream,
                                      trajectories)
    survivors = sum(counts.values())
    if survivors == 0:
        raise NoSurvivorsError(
            f"all {trajectories} paths were absorbed before t = {t}",
            survival_estimate=0.0)
    return ConditionalEstimate(law=EmpiricalLaw.from_counts(counts),
                               survival=survivors / trajectories,
                               trajectories=trajectories,
                               survivors=survivors, t=t, events=events)


def _survivor_counts(model: Model, initial, t: float, plan: RngPlan,
                     first: int, count: int):
    """Final states at t of the surviving paths on streams ``first`` on, and
    the events of all the paths.

    Batches of ``_BATCH`` paths advance in lockstep, one event per step.  At
    event j a path reads uniforms 2j and 2j + 1 of its stream, as
    ``_jump_path`` does, from a buffer row refilled every ``_REFILL``
    uniforms, so it makes the moves ``simulate_path`` makes on that stream.
    """
    n = _start(model, initial, t)
    first, rekey = plan._rekeyer(first, count)
    table = _MoveTable(model._moves, n)
    counts: Counter = Counter()
    events = 0
    buffer = np.empty((min(count, _BATCH), _REFILL))
    flat = buffer.reshape(-1)
    log1p = math.log1p
    for lo in range(first, first + count, _BATCH):
        size = min(_BATCH, first + count - lo)
        rows = np.arange(size)              # buffer rows of the live paths
        s = np.zeros(size, dtype=np.intp)   # their state ids
        clock = np.zeros(size)
        final = np.zeros(size, dtype=np.intp)  # last state ids; -1 absorbed
        for step in range(_EVENT_BUDGET):
            col = 2 * step % _REFILL
            if col == 0:
                for row in rows.tolist():
                    rekey(lo + row, 2 * step).random(out=buffer[row])
            total = table.totals(s)
            at = rows * _REFILL + col
            # ``math.log1p``: ``np.log1p`` differs in the last bit on some u.
            logs = np.fromiter(map(log1p, (-flat.take(at)).tolist()), float,
                               len(at))
            # A state without moves (total 0) keeps its path to t.
            with np.errstate(divide="ignore", invalid="ignore"):
                clock += -logs / total
            stay = (total <= 0.0) | (clock >= t)
            # The pick of ``_jump_path``: the count of running sums but the
            # last that are <= u * total.
            x = flat.take(at + 1) * total
            pick = (table.cum[s] <= x[:, None]).sum(axis=1)
            moved = table.target.take(s * table.target.shape[1] + pick)
            s = np.where(stay, s, moved)
            final[rows] = s
            events += len(rows) - int(np.count_nonzero(stay))
            go = ~stay & (s >= 0)
            rows, s, clock = rows[go], s[go], clock[go]
            if not len(rows):
                break
        else:
            raise NumericalError(f"event budget {_EVENT_BUDGET} exhausted "
                                 f"before t_max = {t}; the model may explode")
        counts.update(map(table.states.__getitem__,
                          final[final >= 0].tolist()))
    return counts, events


class _MoveTable:
    """The moves of the states the paths visit, as arrays over state ids.

    Row ``s`` holds ``total[s]``, the running sums but the last in ``cum[s]``
    (padded with +inf, so that counting the entries <= u * total is the
    pick) and the target ids in ``target[s]``, -1 for an absorbed target.
    A state gets an id when it first appears as a live target, and its row
    from ``moves`` (the model's memo) when a path first stands on it; until
    then its total is NaN.
    """

    def __init__(self, moves, start):
        self.moves = moves
        self.ids = {start: 0}
        self.states = [start]
        self.total = np.full(1, math.nan)
        self.cum = np.zeros((1, 0))
        self.target = np.zeros((1, 1), dtype=np.intp)

    def totals(self, s):
        """``total[s]``, once the rows of the ids in ``s`` are filled."""
        total = self.total.take(s)
        todo = s[np.isnan(total)]
        if not len(todo):
            return total
        for i in np.unique(todo).tolist():
            targets, cum, rate, dead = self.moves(self.states[i])
            ids = [-1 if gone else self.ids.setdefault(target, len(self.ids))
                   for target, gone in zip(targets, dead)]
            # The states that just got ids, in id order.
            self.states.extend(islice(self.ids, len(self.states), None))
            self._grow(len(self.states), len(ids))
            self.total[i] = rate
            self.cum[i, :max(len(ids) - 1, 0)] = cum[:-1]
            self.target[i, :len(ids)] = ids
        return self.total.take(s)

    def _grow(self, rows, width):
        """Room for ``rows`` states with up to ``width`` moves each."""
        have, wide = self.target.shape
        if rows > have or width > wide:
            grow = ((0, 2 * rows - have if rows > have else 0),
                    (0, max(0, width - wide)))
            self.total = np.pad(self.total, grow[:1], constant_values=math.nan)
            self.cum = np.pad(self.cum, grow, constant_values=math.inf)
            self.target = np.pad(self.target, grow)


# ---------------------------------------------------------------------------
# particle approximation of the conditioned law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParticleResult:
    """Final state of a particle approximation to the conditioned law."""

    law: EmpiricalLaw
    occupation: EmpiricalLaw
    particles: int
    deaths: int
    events: int
    t_max: float

    @property
    def death_rate(self) -> float:
        """Deaths per particle per unit time; estimates the decay rate."""
        return self.deaths / (self.particles * self.t_max)


def fleming_viot(model: Model, initial, particles: int, t_max: float,
                 plan: RngPlan, occupation_from: float | None = None) -> ParticleResult:
    """Particle system whose empirical law tracks the conditioned law.

    ``particles`` walkers move independently by the model's rates; a walker
    that would be absorbed instead teleports onto a uniformly chosen other
    walker.  Walker k draws from stream k, in blocks; the teleport choices
    draw from stream ``particles``.  The occupation law time-averages all
    walkers from ``occupation_from`` (default ``t_max / 2``) to the horizon.
    """
    particles = _count(particles, "particles", 2)
    start = _start(model, initial, t_max)
    if occupation_from is None:
        occupation_from = t_max / 2.0
    if not 0.0 <= occupation_from < t_max:
        raise DomainError(f"occupation_from = {occupation_from} outside "
                          f"[0, {t_max})")

    moves = model._moves
    heappop, heapreplace = heapq.heappop, heapq.heapreplace
    bisect_right, log1p = bisect.bisect_right, math.log1p
    states = [start] * particles
    draws = [_uniforms(plan.stream(i)).__next__ for i in range(particles)]
    resample = _uniforms(plan.stream(particles)).__next__
    tables = [moves(start)] * particles
    since = [0.0] * particles
    occupation: Counter = Counter()
    # Events are keyed (time, push count, walker), so no two keys tie and
    # the heap's layout never decides the order of events.
    total = tables[0][2]
    heap = [(0.0 + -log1p(-draw()) / total, i, i)
            for i, draw in enumerate(draws)] if total > 0.0 else []
    heapq.heapify(heap)
    pushes = len(heap)
    others = particles - 1
    deaths = 0
    events = 0
    for _ in range(_EVENT_BUDGET):
        if not heap or heap[0][0] >= t_max:
            break
        t, _, i = heap[0]
        draw = draws[i]
        targets, cum, total, dead = tables[i]
        # The pick of ``_jump_path``.
        k = bisect_right(cum, draw() * total, 0, len(cum) - 1)
        events += 1
        # Walker i's occupation since its last event, from occupation_from.
        lo = max(since[i], occupation_from)
        if t > lo:
            occupation[states[i]] += t - lo
        since[i] = t
        if dead[k]:
            deaths += 1
            j = int(resample() * others)
            if j >= i:
                j += 1
            n = states[j]
        else:
            n = targets[k]
        states[i] = n
        table = tables[i] = moves(n)
        total = table[2]
        # Walker i's next event replaces its current one at the top.
        if total > 0.0:
            heapreplace(heap, (t + -log1p(-draw()) / total, pushes, i))
            pushes += 1
        else:
            heappop(heap)
    else:
        raise NumericalError(f"event budget {_EVENT_BUDGET} exhausted before "
                             f"t_max = {t_max}")
    for i in range(particles):
        lo = max(since[i], occupation_from)
        if t_max > lo:
            occupation[states[i]] += t_max - lo
    return ParticleResult(
        law=EmpiricalLaw.from_counts(Counter(states)),
        occupation=EmpiricalLaw.from_counts(occupation),
        particles=particles, deaths=deaths, events=events, t_max=t_max)


# ---------------------------------------------------------------------------
# the conditioned chain itself
# ---------------------------------------------------------------------------

def simulate_qprocess(model: Model, qsd: QsdResult, initial, t_max: float,
                      rng: np.random.Generator) -> Trajectory:
    """One path of the chain conditioned to never die.

    Moves inside the solved space are reweighted by the ratio of survival
    profiles between target and source; moves out of the space (absorption
    or truncation overflow) get weight zero.  The resulting path never
    absorbs.  Like ``simulate_path``, the path depends on its stream alone,
    and ``rng`` is consumed in blocks: use one stream per path.
    """
    space, h = qsd.space, qsd.survival_profile
    n = _start(model, initial, t_max)
    if n not in space.index:
        raise DomainError(f"initial state {n} is outside the solved space")

    def table(n):
        targets, rates, _ = model.transition_table(n)
        h_n = h[space.index[n]]
        new_targets = []
        new_rates = []
        total = 0.0
        for target, rate in zip(targets, rates):
            k = space.index.get(target)
            if k is None:
                continue
            w = rate * h[k] / h_n
            new_targets.append(target)
            new_rates.append(w)
            total += w
        return new_targets, new_rates, total

    return _jump_path(_memo_moves(table), n, t_max, rng)
