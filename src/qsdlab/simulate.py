"""Event-driven simulation: plain paths, conditioned estimates, particles.

Randomness is organized around one master seed: every trajectory, every
particle, and the resampling decisions each draw from their own counted
stream of a counter-based generator, so results are reproducible bit for
bit and independent of batching order.

Exponential waits use ``-log1p(-u) / rate`` and move selection bisects the
running sums of the model's canonical move enumeration with a single
uniform, so a simulated path is determined entirely by its stream.  Every
loop steps on the integer state ids of a store of moves
(``model._MoveStore``) and reads the moves of an id, with their targets as
ids, by indexing.  The model keeps one store for all its runs, which
computes a state's moves once, when a path first stands on it; a q-process
path has its own, put whole from its table.  Each stream is drawn in
blocks of ``_BLOCK`` uniforms, the same floats that single draws give.

The paths of a conditioned estimate and the walkers of the particle system
share one event loop, ``_Lockstep``, which moves many of them at once, one
event per numpy step, each reading its own stream from a buffer row.  The
rows refill from one generator re-keyed in place to each path's stream and
position, which draws the values ``RngPlan.stream`` would.  The waits
still take ``math.log1p`` per uniform, because ``np.log1p`` differs from it
in the last bit on some inputs.  The walkers advance through time windows:
each moves on its own to the window's end or its absorption, and the
absorptions, the only moments at which walkers interact, are then resolved
one at a time in event order.  Each window keeps the events of each of its
steps and sorts them into global event order once, when it closes, to add
their occupation, so every output keeps its bits whatever the windows.
"""

import bisect
import heapq
import math
import operator
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat

import numpy as np

from .errors import (DomainError, NoSurvivorsError, NumericalError,
                     ValidationError)
from .model import Model, _MoveStore, is_absorbed, is_interior
from .solver import QsdResult, _qprocess_table

_EVENT_BUDGET = 10 ** 7

#: Uniforms drawn per call on a stream; 32 beat 8, and 128 was no better.
_BLOCK = 32

#: Paths that a conditioned estimate advances in lockstep.
_BATCH = 4096

#: Uniforms per refill of a lockstep path's buffer row, a multiple of the
#: four doubles of one Philox block.
_REFILL = 64

#: Events per walker in a time window of the particle system, on average at
#: the walkers' total rates when the window opens.
_WINDOW = 4


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
        # The state setter reads these entry by entry, which costs less
        # from lists than from numpy arrays.
        state = fresh["state"]
        key = state["key"] = state["key"].tolist()
        counter = state["counter"] = state["counter"].tolist()
        fresh["buffer"] = fresh["buffer"].tolist()

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

    A simulated path keeps ``times`` as a float64 ``array.array`` and
    ``states`` as a list of the state tuples its move store holds,
    about 16 bytes per event in all.  Paths built by hand may give any
    sequences.  The fields are mutable, so a path is not hashable.
    """

    times: array
    states: list
    t_end: float
    absorbed: bool

    @property
    def final_state(self):
        return self.states[-1]


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


def _jump_path(moves: _MoveStore, n, t_max: float,
               rng: np.random.Generator) -> Trajectory:
    """The event loop of a single path from state ``n``, over the rows of
    the store ``moves``.

    The loop steps on the store's state ids, filling the row of each id
    the first time the path stands on it, so an event costs list indexing.
    The path stops at ``t_max``, when no move is left, or on entering an
    absorbed state.
    """
    draw = _uniforms(rng).__next__
    bisect_right, log1p = bisect.bisect_right, math.log1p
    rows, state, dead = moves.rows, moves.states, moves.dead
    s = moves.id(n)
    times = array("d", (0.0,))
    states = [state[s]]
    add_time, add_state = times.append, states.append
    t = 0.0
    for _ in range(_EVENT_BUDGET):
        row = rows[s]
        if row is None:
            moves.fill((s,))
            row = rows[s]
        targets, cum, last, total = row
        if total <= 0.0:
            return Trajectory(times, states, t_max, False)
        t += -log1p(-draw()) / total
        if t >= t_max:
            return Trajectory(times, states, t_max, False)
        # The first move whose running sum exceeds u * total; the last move
        # when rounding leaves none.
        s = targets[bisect_right(cum, draw() * total, 0, last)]
        add_time(t)
        add_state(state[s])
        if dead[s]:
            return Trajectory(times, states, t, True)
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

        ``other`` is a solved result (its law read on its space) or a
        ``(space, law)`` pair with ``law`` a vector aligned with ``space``;
        mass outside the space counts in full.
        """
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
    path spent in it between ``t_start`` and the end of the path.  The
    weights are summed in path order and listed in the order in which the
    states first hold the path for a positive time.
    """
    if not 0.0 <= t_start < trajectory.t_end:
        raise DomainError(f"t_start = {t_start} outside [0, {trajectory.t_end})")
    # A view of a simulated path's times, not a copy.
    t = np.asarray(trajectory.times, dtype=float)
    # The interval that holds t_start; every earlier one ends by t_start.
    first = int(np.searchsorted(t[1:], t_start, side="right"))
    # An absorbed path's last state is the absorption, not an interval.
    stop = len(trajectory.states) - trajectory.absorbed
    # Interval k runs from t[k] to the next event time or to t_end, and the
    # first one counts from t_start on.
    spans = np.append(t[first + 1:], trajectory.t_end)[:stop - first]
    spans[:1] -= max(t[first], t_start)
    spans[1:] -= t[first + 1:stop]
    states = islice(trajectory.states, first, stop)
    # A wait of zero, from a uniform of 0, leaves an empty interval.
    keep = spans > 0.0
    if not keep.all():
        spans, states = spans[keep], compress(states, keep)
    if not len(spans):
        raise ValidationError("no occupation time accumulated after t_start")
    # A state missing from ``ids`` gets the count of the states before it.
    ids = defaultdict()
    ids.default_factory = ids.__len__
    sums = np.bincount(np.fromiter(map(ids.__getitem__, states), np.intp,
                                   len(spans)), weights=spans)
    return EmpiricalLaw.from_counts(dict(zip(ids, sums.tolist())))


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

    Batches of ``_BATCH`` paths advance in lockstep, one event per step.  Each
    path reads its stream in order, refilled by a generator re-keyed to the
    path's stream and position, so it makes the moves ``simulate_path``
    makes on that stream.
    """
    n = _start(model, initial, t)
    first, rekey = plan._rekeyer(first, count)
    moves = model._moves
    counts: Counter = Counter()
    events = 0
    # One set of rows, and so one refill buffer, serves every batch.
    paths = _Lockstep(moves, moves.id(n), min(_BATCH, count), rekey, first)
    for lo in range(first, first + count, _BATCH):
        size = min(_BATCH, first + count - lo)
        paths.restart(lo)
        rows = paths.start(np.arange(size), t)
        for step, (rows, s, _) in enumerate(paths.run(rows, t), 1):
            events += len(rows)
            # A path that makes its budget's last move unabsorbed raises.
            if step == _EVENT_BUDGET and (s >= 0).any():
                raise NumericalError(f"event budget {_EVENT_BUDGET} exhausted "
                                     f"before t_max = {t}; the model may "
                                     "explode")
        final = paths.state[:size]
        counts.update(map(moves.states.__getitem__,
                          final[final >= 0].tolist()))
    return counts, events


class _Lockstep:
    """Paths on the rows of a buffer of uniforms, moved one event per step.

    Row k holds a path's state id in the store ``moves`` in ``state[k]``
    (-1 once absorbed) and the time of its next event in ``clock[k]``
    (+inf in a state without moves); every row starts on id ``origin``.
    A step reads the moves from the store's arrays, draws each moving
    path's pick and the uniform after it as a pair, so each path reads its
    stream in order, as ``_jump_path`` does.  Row k reads stream ``first +
    k``, refilled through ``rekey`` of ``RngPlan._rekeyer``.
    """

    def __init__(self, moves, origin, rows, rekey, first):
        self.moves = moves
        self.origin = origin
        self.rekey = rekey
        self.state = np.empty(rows, dtype=np.intp)
        self.clock = np.empty(rows)
        # Row k holds its unread uniforms in columns pos[k] to _REFILL.
        self.buffer = np.empty((rows, _REFILL + 1))
        self.flat = self.buffer.reshape(-1)
        self.pos = np.empty(rows, dtype=np.intp)
        self.drawn = np.empty(rows, dtype=np.int64)
        self.restart(first)

    def restart(self, first):
        """Put every row at time 0 on the start state, with nothing drawn
        from its stream, now ``first`` plus the row's index."""
        self.first = first
        self.state[:] = self.origin
        self.clock[:] = 0.0
        self.pos[:] = _REFILL + 1
        self.drawn[:] = 0

    def _take(self, rows, k):
        """Where in ``flat`` the next k uniforms of each row in ``rows``
        start.  A row with fewer left keeps its last one in column 0 and
        refills columns 1 on."""
        pos = self.pos.take(rows)
        short = pos > _REFILL + 1 - k
        if np.count_nonzero(short):
            refill = rows[short]
            self.buffer[refill, 0] = self.buffer[refill, _REFILL]
            for row, drawn in zip(refill.tolist(),
                                  self.drawn[refill].tolist()):
                self.rekey(self.first + row, drawn).random(
                    out=self.buffer[row, 1:])
            self.drawn[refill] += _REFILL
            pos[short] -= _REFILL
        self.pos[rows] = pos + k
        return rows * (_REFILL + 1) + pos

    def _logs(self, at):
        """``log1p(-u)`` of the uniforms u at ``at`` in ``flat``."""
        # ``math.log1p``: ``np.log1p`` differs in the last bit on some u.
        return np.fromiter(map(math.log1p, (-self.flat.take(at)).tolist()),
                           float, len(at))

    def start(self, rows, end):
        """Draw the first event time of each row in ``rows``; return the
        rows due before ``end``."""
        return self._wait(rows, self._logs(self._take(rows, 1)), end)

    def _wait(self, rows, logs, end):
        """Move the clock of each row in ``rows`` on by the wait that
        ``logs`` gives it; return the rows due before ``end``."""
        total = self.moves.totals(self.state.take(rows))
        stuck = total <= 0.0
        if np.count_nonzero(stuck):
            self.clock[rows[stuck]] = math.inf
            keep = ~stuck
            rows, logs, total = rows[keep], logs[keep], total[keep]
        # The wait ``-log1p(-u) / total`` of ``_jump_path``.
        clock = self.clock.take(rows) - logs / total
        self.clock[rows] = clock
        return rows[clock < end]

    def run(self, rows, end):
        """Move ``rows``, each due before ``end``, one event per step until
        each one is due at or after ``end``, absorbed or stuck.  Yield, per
        step, the rows that moved, their new state ids, and the ``log1p(-u)``
        of the uniform each drew after its pick: for an absorbed row, that
        of the wait after its teleport."""
        moves = self.moves
        while len(rows):
            s = self.state.take(rows)
            at = self._take(rows, 2)
            # The pick of ``_jump_path``: the count of running sums but the
            # last that are <= u * total, by the ufunc that ``ndarray.sum``
            # and ``np.count_nonzero`` call through Python wrappers.
            x = self.flat.take(at) * moves.total.take(s)
            pick = np.add.reduce(moves.cum.take(s, 0) <= x[:, None], 1)
            s = moves.target.take(s * moves.target.shape[1] + pick)
            self.state[rows] = s
            logs = self._logs(at + 1)
            yield rows, s, logs
            alive = s >= 0
            rows = self._wait(rows[alive], logs[alive], end)


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
                 plan: RngPlan) -> ParticleResult:
    """Particle system whose empirical law tracks the conditioned law.

    ``particles`` walkers move independently by the model's rates; a walker
    that would be absorbed instead teleports onto a uniformly chosen other
    walker.  Walker k draws from stream k; the teleport choices draw from
    stream ``particles``.  The occupation law time-averages all walkers from
    ``t_max / 2`` to the horizon.

    The walkers advance through time windows.  In each window they all move
    at once, one event per numpy step, until each one reaches the window's
    end or is absorbed.  The absorptions are then resolved in time order:
    each draws its teleport choice, takes the chosen walker's state just
    before that time, and moves on to the window's end.  Events count in
    the order of their times and, at equal times, of the events after which
    they were drawn, so every result is that of one event at a time in that
    order, bit for bit, whatever the windows.
    """
    particles = _count(particles, "particles", 2)
    start = _start(model, initial, t_max)
    occupation_from = t_max / 2.0
    moves = model._moves
    _, rekey = plan._rekeyer(0, particles)
    walkers = _Lockstep(moves, moves.id(start), particles, rekey, 0)
    resample = _uniforms(plan.stream(particles)).__next__
    walkers.start(np.arange(particles), math.inf)
    window = _Window(walkers)
    occupation = np.zeros(0)
    order = {}      # state ids in the order of their first occupation

    def occupy(s, span):
        """Add each positive ``span`` to the occupation of ``s``, in order."""
        nonlocal occupation
        keep = span > 0.0
        s, span = s[keep], span[keep]
        grow = len(moves.states) - len(occupation)
        if grow:
            occupation = np.pad(occupation, (0, grow))
        # The ids occupied for the first time, where they first appear: an
        # occupied id has a positive sum.
        new = s[occupation.take(s) == 0.0]
        if len(new):
            first = np.sort(np.unique(new, return_index=True)[1])
            order.update(dict.fromkeys(new[first].tolist()))
        np.add.at(occupation, s, span)

    def advance(rows, end):
        nonlocal events
        for step in walkers.run(rows, end):
            events += len(step[0])
            if events >= _EVENT_BUDGET:
                raise NumericalError(f"event budget {_EVENT_BUDGET} exhausted "
                                     f"before t_max = {t_max}")
            window.record(*step)

    others = particles - 1
    deaths = events = 0
    while True:
        clock = walkers.clock
        due = clock.min()
        if not due < t_max:
            break
        moving = walkers.state[clock < math.inf]
        rate = moves.total.take(moving).sum()
        loss = moves.loss.take(moving).sum()
        # About _WINDOW events per walker, fewer when absorptions are
        # frequent: teleported walkers move on in small batches, whose steps
        # grow with the window.  The divisor is the root of the absorptions
        # expected in one event per walker.
        per = _WINDOW / max(1.0, math.sqrt(len(moving) * loss / rate))
        end = min(t_max, max(due + per * len(moving) / rate,
                              math.nextafter(due, math.inf)))
        first = events
        window.open()
        advance(np.flatnonzero(clock < end), end)
        # Teleported walkers due before the window's end, which move on to
        # it together once one of them is due before the next absorption.
        restarted = []
        soonest = math.inf
        while window.deaths or restarted:
            if restarted and (not window.deaths
                              or soonest <= window.deaths[0][0]):
                advance(np.array(restarted), end)
                restarted, soonest = [], math.inf
                continue
            t, m, i = window.pop()
            deaths += 1
            j = int(resample() * others)
            if j >= i:
                j += 1
            n = window.into[m, i] = walkers.state[i] = window.state_at(j, m, i)
            # ``_Lockstep._wait`` for one walker.
            total = moves.total[n]
            next_t = walkers.clock[i] = (t - window.spare[i] / total
                                         if total > 0.0 else math.inf)
            if next_t < end:
                restarted.append(i)
                soonest = min(soonest, next_t)
        occupy(*window.close(first, occupation_from))
    occupy(walkers.state, t_max - np.maximum(window.since, occupation_from))
    states = moves.states
    return ParticleResult(
        law=EmpiricalLaw.from_counts(Counter(map(states.__getitem__,
                                                 walkers.state.tolist()))),
        occupation=EmpiricalLaw.from_counts(dict(zip(
            map(states.__getitem__, order), occupation[list(order)].tolist()))),
        particles=particles, deaths=deaths, events=events, t_max=t_max)


class _Window:
    """The events of the particle walkers in one time window.

    Walker w's m-th event in the window, for ``m < count[w]``, comes at
    ``when[m, w]`` and leads to state id ``into[m, w]``: -1 for an
    absorption not yet resolved, whose ``(when[m, w], m, w)`` waits on the
    heap ``deaths``, and ``spare[w]`` holds the ``log1p(-u)`` of the
    walker's wait after its teleport.  ``steps`` holds the ``(m, w)`` of
    each step's events, in step order, so that ``close`` reads the
    window's events in time linear in their number.  Before the window,
    the walker was in state ``begin[w]`` since its last event at
    ``since[w]``, and ``rank[w]`` is the walker's index or, once it has
    moved, ``particles`` plus the number of events that came before its
    last one.
    """

    def __init__(self, walkers):
        self.walkers = walkers
        size = len(walkers.state)
        self.when = np.zeros((1, size))
        self.into = np.zeros((1, size), dtype=np.intp)
        self.count = np.zeros(size, dtype=np.intp)
        self.since = np.zeros(size)
        self.rank = np.arange(size)
        self.spare = np.zeros(size)
        self.deaths = []

    def open(self):
        self.begin = self.walkers.state.copy()
        self.count[:] = 0
        self.steps = []

    def record(self, rows, s, logs):
        """Add one step of ``_Lockstep.run``: ``rows`` moved to ``s``, and
        keep its ``(m, rows)`` for ``close``."""
        t = self.walkers.clock.take(rows)
        m = self.count.take(rows)
        try:
            self.when[m, rows] = t
        except IndexError:
            more = ((0, len(self.when)), (0, 0))
            self.when = np.pad(self.when, more)
            self.into = np.pad(self.into, more)
            self.when[m, rows] = t
        self.into[m, rows] = s
        self.count[rows] = m + 1
        self.steps.append((m, rows))
        dead = s < 0
        if np.count_nonzero(dead):
            self.spare[rows[dead]] = logs[dead]
            for death in zip(t[dead].tolist(), m[dead].tolist(),
                             rows[dead].tolist()):
                heapq.heappush(self.deaths, death)

    def key(self, m, w):
        """The order of walker w's m-th event among the window's events.

        Events go by time and, at equal times, by the order of the events
        after which they were drawn: the times of the walker's events back
        to the window's start, then -1.0, below every time, and the rank of
        the event before the window.
        """
        return (*self.when[m::-1, w].tolist(), -1.0, int(self.rank[w]))

    def pop(self):
        """The first absorption on the heap, by ``key``: ``(t, m, w)``."""
        first = heapq.heappop(self.deaths)
        if self.deaths and self.deaths[0][0] == first[0]:
            tied = [first]
            while self.deaths and self.deaths[0][0] == first[0]:
                tied.append(heapq.heappop(self.deaths))
            tied.sort(key=lambda death: self.key(*death[1:]))
            first = tied.pop(0)
            for death in tied:
                heapq.heappush(self.deaths, death)
        return first

    def state_at(self, j, m, i):
        """Walker j's state just before walker i's m-th event."""
        count = int(self.count[j])
        t = self.when[m, i]
        when = self.when[:count, j]
        # The events of walker j before t: most often all of them.
        k = count if not count or when[-1] < t else int(when.searchsorted(t))
        while k < count and when[k] == t and self.key(k, j) < self.key(m, i):
            k += 1
        return self.into[k - 1, j] if k else self.begin[j]

    def close(self, first, occupation_from):
        """The state and occupation span ending at each event, in event
        order; ``first`` is the number of events before the window."""
        m, w = map(np.concatenate, zip(*self.steps))
        t = self.when[m, w]
        start = m == 0
        before = np.where(start, self.begin[w], self.into[m - 1, w])
        since = np.where(start, self.since[w], self.when[m - 1, w])
        # Distinct times have one order, and tied ones are sorted by ``key``,
        # a total order, so the sort need not be stable.
        order = t.argsort()
        ts = t[order]
        if (ts[1:] == ts[:-1]).any():
            order = np.array(sorted(order.tolist(),
                                    key=lambda e: self.key(m[e], w[e])))
        last = m == self.count[w] - 1
        place = np.empty_like(order)
        place[order] = np.arange(len(order))
        self.rank[w[last]] = len(self.rank) + first + place[last]
        self.since[w[last]] = t[last]
        span = t - np.maximum(since, occupation_from)
        return before[order], span[order]


# ---------------------------------------------------------------------------
# the conditioned chain itself
# ---------------------------------------------------------------------------

def simulate_qprocess(model: Model, qsd: QsdResult, initial, t_max: float,
                      rng: np.random.Generator) -> Trajectory:
    """One path of the chain conditioned to never die.

    The moves are those of ``solver._qprocess_table``, the table that
    ``qprocess_generator`` is built from: moves inside the solved space
    reweighted by the ratio of survival profiles between target and source,
    and none out of it (absorption or truncation overflow), put whole into
    a store of their own, which so needs no source.  The resulting path
    never absorbs.  Like ``simulate_path``, the path depends on its stream
    alone, and ``rng`` is consumed in blocks: use one stream per path.
    """
    n = _start(model, initial, t_max)
    if n not in qsd.space.index:
        raise DomainError(f"initial state {n} is outside the solved space")
    moves = _MoveStore(None)
    moves.put(_qprocess_table(model, qsd))
    return _jump_path(moves, n, t_max, rng)
