"""Multi-type competitive birth-death models on the positive lattice.

A population of ``r`` interacting types lives on Z_+^r.  From an interior
state ``n`` (all coordinates >= 1) type ``j`` gives birth at per-capita rate
``b_j(n)`` and dies at per-capita rate ``d_j(n) + (sum_k c_jk(n) n_k)^gamma``,
so the chain jumps ``n -> n + e_j`` at rate ``n_j b_j(n)`` and ``n -> n - e_j``
at rate ``n_j [d_j(n) + (sum_k c_jk(n) n_k)^gamma]``.  The boundary where any
coordinate is zero is absorbing: once a type is gone the process is dead for
the purposes of every downstream computation.

Two optional extensions widen the class: a catastrophe intensity ``a(n)``
that sends the whole population to the boundary in one jump, and multi-progeny
births where a reproduction event of any type adds a litter vector ``k`` drawn
from a state-dependent law ``p_n``.

Rate functions are never evaluated on the boundary; every operation below the
solver collapses boundary targets to a single canonical absorbed marker
(the all-zero state) while simulation records the literal exit state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from typing import Callable

import numpy as np

from .config import ConfigDocument
from .errors import RateOverflowError, ValidationError

State = tuple
#: Litter laws and worked examples index types by these tuples of ints.


def is_interior(n: State) -> bool:
    return all(x >= 1 for x in n)


def is_absorbed(n: State) -> bool:
    """True iff some coordinate equals zero (the state lies on the boundary)."""
    return any(x == 0 for x in n)


def absorbed_marker(r: int) -> State:
    """Canonical representative of the absorbing boundary."""
    return (0,) * r


@dataclass(frozen=True, eq=False)
class LitterLaw:
    """Distribution of the litter vector added by one birth event.

    ``table`` is either a fixed mapping ``k -> probability`` or a callable
    ``n -> mapping`` for state-dependent laws.  Fixed tables are validated and
    frozen in lexicographic key order at construction; callable tables are
    validated each time they are queried.  ``declared_mean_bound`` is an upper
    bound on sup_n sum_k |k| p_{n,k}, needed by the bounded-litter check when
    the table is state-dependent.
    """

    table: object
    declared_mean_bound: float | None = None

    def __post_init__(self):
        if not callable(self.table):
            entries = _validated_litter_entries(dict(self.table))
            object.__setattr__(self, "table", None)
            object.__setattr__(self, "_entries", entries)
        else:
            object.__setattr__(self, "_entries", None)
            object.__setattr__(self, "_callable", self.table)

    def entries_for(self, n: State):
        """Sorted ``(k, probability)`` pairs of the law at state ``n``."""
        if self._entries is not None:
            return self._entries
        return _validated_litter_entries(dict(self._callable(n)))

    def state_dependent(self) -> bool:
        return self._entries is None

    def mean_total_size(self) -> float | None:
        """sup_n of the expected litter size, when it is known.

        Exact for fixed tables; the declared bound for state-dependent ones;
        ``None`` when nothing was declared.
        """
        if self._entries is not None:
            return sum(p * sum(k) for k, p in self._entries)
        return self.declared_mean_bound


def _validated_litter_entries(mapping):
    entries = []
    total = 0.0
    for k in sorted(mapping):
        p = float(mapping[k])
        if p < 0:
            raise ValidationError(f"litter probability for {k} is negative")
        if any(x < 0 for x in k):
            raise ValidationError(f"litter vector {k} has a negative entry")
        if sum(k) < 1:
            raise ValidationError(
                f"litter vector {k} adds no individual; births must move the state")
        if p > 0.0:
            entries.append((tuple(int(x) for x in k), p))
        total += p
    if abs(total - 1.0) > 1e-12:
        raise ValidationError(
            f"litter probabilities sum to {total!r}, expected 1 within 1e-12")
    return tuple(entries)


@dataclass(frozen=True, eq=False)
class Model:
    """Immutable bundle of rate functions plus declared envelope exponents.

    ``birth``/``death`` map an interior state to the length-``r`` vector of
    per-capita coefficients; ``competition`` maps it to the full ``r x r``
    interaction matrix.  ``beta1``/``beta2`` are the optional growth/decay
    exponents used by the hypothesis checkers.  ``family`` records how the
    model was built ("constant", "power-law", "tabulated" or "callback") and
    ``c_coef`` keeps the raw competition matrix when it exists, so the
    neutral-threshold check can inspect it exactly.

    One kernel, :meth:`move_table`, turns these callables into the moves
    out of a whole list of states in one array pass, whatever the family;
    :meth:`transition_table` is its one-state row.  Only callback models
    have their rates validated per state.  Every rate callable must be a
    function of the state alone: the simulators evaluate each state's
    moves once and reuse them for the life of the model, and the checkers
    of one run share one evaluation of the sampled states.
    """

    r: int
    gamma: float
    birth: Callable
    death: Callable
    competition: Callable
    family: str = "callback"
    beta1: float | None = None
    beta2: float | None = None
    catastrophe: Callable | None = None
    litter: LitterLaw | None = None
    c_coef: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.r < 1:
            raise ValidationError(f"r must be >= 1, got {self.r}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValidationError(f"gamma must be a finite positive number, got {self.gamma}")
        if self.litter is not None and not isinstance(self.litter, LitterLaw):
            object.__setattr__(self, "litter", LitterLaw(self.litter))
        if self.beta1 is not None and self.beta1 < 0:
            raise ValidationError(f"beta1 must be >= 0, got {self.beta1}")
        if self.beta2 is not None and not self.beta2 < 1:
            raise ValidationError(f"beta2 must be < 1, got {self.beta2}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, b, d, c, gamma, catastrophe=None, litter=None):
        """Constant-coefficient model; rates depend on n only through the jumps."""
        b = _coef_vector("b", b)
        d = _coef_vector("d", d)
        c = _coef_matrix("c", c, len(b))
        if len(d) != len(b):
            raise ValidationError(f"b has {len(b)} types but d has {len(d)}")
        _require_positive_diag(b, c)
        bv, dv, cm = b.copy(), d.copy(), c.copy()
        return cls(r=len(b), gamma=float(gamma),
                   birth=_Constant(bv), death=_Constant(dv), competition=_Constant(cm),
                   family="constant", beta1=0.0, beta2=0.0,
                   catastrophe=catastrophe, litter=litter,
                   c_coef=cm)

    @classmethod
    def power_law(cls, b, d, c, gamma, beta1, beta2, catastrophe=None, litter=None):
        """Scaled family: b_i(n) = b_i |n|^beta1, d likewise, c_ij(n) = c_ij |n|^-beta2."""
        b = _coef_vector("b", b)
        d = _coef_vector("d", d)
        c = _coef_matrix("c", c, len(b))
        _require_positive_diag(b, c)
        beta1 = float(beta1)
        beta2 = float(beta2)
        bv, dv, cm = b.copy(), d.copy(), c.copy()

        def birth(n):
            return bv * float(sum(n)) ** beta1

        def death(n):
            return dv * float(sum(n)) ** beta1

        def competition(n):
            return cm * float(sum(n)) ** -beta2

        return cls(r=len(b), gamma=float(gamma), birth=birth, death=death,
                   competition=competition, family="power-law",
                   beta1=beta1, beta2=beta2, catastrophe=catastrophe, litter=litter,
                   c_coef=cm)

    @classmethod
    def tabulated(cls, b_table, d_table, c_table, gamma,
                  catastrophe=None, litter=None, beta1=None, beta2=None):
        """Rates tabulated on a box; lookups clamp to the box edge beyond it.

        ``b_table``/``d_table`` have shape ``box + (r,)`` and ``c_table`` has
        shape ``box + (r, r)``, where ``box`` gives the tabulated extent of
        each coordinate starting from 1.
        """
        b_table = np.asarray(b_table, dtype=float)
        d_table = np.asarray(d_table, dtype=float)
        c_table = np.asarray(c_table, dtype=float)
        r = b_table.shape[-1]
        box = b_table.shape[:-1]
        if len(box) != r:
            raise ValidationError(
                f"b_table shape {b_table.shape} is not box + (r,) for r = {r}")
        if d_table.shape != b_table.shape:
            raise ValidationError("d_table shape differs from b_table")
        if c_table.shape != box + (r, r):
            raise ValidationError(
                f"c_table shape {c_table.shape}, expected {box + (r, r)}")
        if not (b_table > 0).all():
            raise ValidationError("tabulated b must be positive everywhere")
        if not ((d_table >= 0).all() and (c_table >= 0).all()):
            raise ValidationError("tabulated d and c must be nonnegative")
        diag = c_table.reshape(-1, r, r)[:, np.arange(r), np.arange(r)]
        if not (diag > 0).all():
            raise ValidationError("tabulated c must have positive diagonal everywhere")

        def clamp(n):
            return tuple(min(n[i], box[i]) - 1 for i in range(r))

        return cls(r=r, gamma=float(gamma),
                   birth=lambda n: b_table[clamp(n)],
                   death=lambda n: d_table[clamp(n)],
                   competition=lambda n: c_table[clamp(n)],
                   family="tabulated", beta1=beta1, beta2=beta2,
                   catastrophe=catastrophe, litter=litter)

    @classmethod
    def from_callbacks(cls, r, gamma, birth, death, competition,
                       beta1=None, beta2=None, catastrophe=None, litter=None):
        """Fully general model from user-supplied rate callables.

        Each callable receives the state as a tuple of ints: ``birth`` and
        ``death`` return r per-capita rates, ``competition`` an r-by-r
        matrix, ``catastrophe`` a single rate.
        """
        return cls(r=r, gamma=float(gamma), birth=birth, death=death,
                   competition=competition, family="callback",
                   beta1=beta1, beta2=beta2, catastrophe=catastrophe,
                   litter=litter)

    # -- rate enumeration --------------------------------------------------

    @cached_property
    def _moves(self):
        def rows(states):
            table = self.move_table(states)
            return map(table.row, range(len(states)))
        return _memo_moves(rows)

    def transition_table(self, n):
        """Raw ``(targets, rates, total)`` of all nonzero moves out of ``n``.

        The enumeration order is canonical and frozen: births for j = 1..r
        (one move per litter vector, in the law's sorted order, under
        multi-progeny reproduction), then deaths for j = 1..r, then the
        catastrophe move.  ``total`` is the sum of ``rates`` in exactly that
        order.  It is the one-state row of :meth:`move_table`.
        """
        return self.move_table((n,)).row(0)

    def move_table(self, states, coefficients=None) -> "MoveTable":
        """The moves out of every state of ``states``, in one array pass.

        Row ``i`` holds the targets, rates and total that
        :meth:`transition_table` gives at ``states[i]``, bit for bit: each
        competition pressure is summed in index order from 0.0 and raised
        to ``gamma`` by scalar pow, which numpy's vectorised power does not
        match to the last bit.  ``coefficients`` passes the
        ``_coefficients(states)`` a caller has already evaluated.  The
        errors are those of evaluating the states one at a time, in order:
        the first state with a rate the model refuses raises its
        :class:`ValidationError`, or :class:`RateOverflowError` when its
        total is not finite.
        """
        states = list(states)
        b, d, c, loss = coefficients or self._coefficients(states)
        bad, error, litter_first = _first_fault(self, states, b, d, c, loss)
        if self.litter is not None and self.litter.state_dependent():
            litters = []
            for n in states[:bad + 1 if litter_first else bad]:
                try:
                    litters.append(self.litter.entries_for(n))
                except ValidationError as exc:
                    bad, error = len(litters), exc
                    break
            births = _birth_slots(litters[:bad], self.r)
        else:
            births = self._births
        table = _move_table(self, states[:bad], b[:bad], d[:bad], c[:bad],
                            None if loss is None else loss[:bad], births)
        if error is not None:
            raise error
        return table

    @cached_property
    def _births(self):
        """The :func:`_birth_slots` of every state, unless the litter law
        depends on the state."""
        return _birth_slots(
            None if self.litter is None else [self.litter._entries], self.r)

    def _coefficients(self, states):
        """``b`` and ``d`` of shape ``(m, r)``, ``c`` of shape ``(m, r, r)``
        and the catastrophe rates (``None`` without that channel) at each of
        ``states``, as the callables give them: nothing is validated."""
        m, r = len(states), self.r
        b, d, c = (np.tile(f.value, (m,) + (1,) * f.value.ndim)
                   if isinstance(f, _Constant) else
                   np.array([f(n) for n in states], dtype=float)
                   for f in (self.birth, self.death, self.competition))
        loss = (None if self.catastrophe is None else
                np.array([float(self.catastrophe(n)) for n in states]))
        return b.reshape(m, r), d.reshape(m, r), c.reshape(m, r, r), loss


@dataclass(frozen=True, eq=False)
class MoveTable:
    """The moves out of a list of states, one row of slots per state.

    Row ``i`` lists the moves out of ``states[i]`` (an int array of shape
    ``(m, r)``) in the canonical order of :meth:`Model.transition_table`:
    ``targets`` has shape ``(m, k, r)`` and ``rates`` shape ``(m, k)``.  A
    slot holds a move only where ``keep`` is true; the others (dropped
    zero-rate moves, and the padding of state-dependent litter laws) have
    rate 0.0.  ``total`` is each row's sum of rates in move order.
    """

    states: np.ndarray
    targets: np.ndarray
    rates: np.ndarray
    keep: np.ndarray

    @cached_property
    def total(self) -> np.ndarray:
        return self.sum(self.rates)

    def absorbed(self) -> np.ndarray:
        """Per slot, whether its target lies on the boundary."""
        return (self.targets == 0).any(axis=2)

    def sum(self, values, keep=None) -> np.ndarray:
        """Per row, ``values`` (one per slot) over the moves, or over the
        slots where ``keep`` holds, added in move order from 0.0: the bits
        of a scalar loop over the row's moves."""
        masked = np.where(self.keep if keep is None else keep, values, 0.0)
        # A running sum is sequential, unlike numpy's pairwise reduction;
        # adding 0.0 turns a -0.0 into the 0.0 that a sum from 0.0 gives.
        return np.cumsum(masked, axis=1)[:, -1] + 0.0

    def row(self, i):
        """``(targets, rates, total)`` of row ``i`` as tuples and floats."""
        keep = self.keep[i]
        return (list(map(tuple, self.targets[i][keep].tolist())),
                self.rates[i][keep].tolist(), float(self.total[i]))


class _Constant:
    """A rate callable that gives the float array ``value`` at every state,
    so that :meth:`Model._coefficients` can tile it instead of calling it
    once per state."""

    def __init__(self, value):
        self.value = value

    def __call__(self, n):
        return self.value


def _coef_vector(name, values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"{name} must be a non-empty vector")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    if (arr < 0).any():
        raise ValidationError(f"{name} has negative entries")
    return arr


def _coef_matrix(name, values, r):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (r, r):
        raise ValidationError(f"{name} must be an {r}x{r} matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    if (arr < 0).any():
        raise ValidationError(f"{name} has negative entries")
    return arr


def _require_positive_diag(b, c):
    if not (b > 0).all():
        raise ValidationError("every b_i must be > 0 (otherwise births stop cold)")
    if not (np.diag(c) > 0).all():
        raise ValidationError("every c_ii must be > 0 (self-competition keeps the "
                              "chain irreducible on the truncated space)")


def _first_fault(model, states, b, d, c, loss):
    """``(i, error, litter_first)`` for the first state whose rates the
    model refuses, ``litter_first`` when its litter law is read before the
    refusal; ``(len(states), None, False)`` when there is none.

    Within a state the checks run in the order of evaluating it alone: the
    callback rates, then, after the litter law, the catastrophe rate.
    """
    checks = []
    if model.family == "callback":
        diag = np.diagonal(c, axis1=1, axis2=2)
        # Written as "not all positive" so that NaN rates fail too.
        checks += [
            (~(b > 0).all(axis=1), "b(n) must be positive at interior {n}"),
            (~((d >= 0).all(axis=1) & (c >= 0).all(axis=(1, 2))),
             "d(n) and c(n) must be nonnegative at {n}"),
            (~(diag > 0).all(axis=1), "c_ii(n) must be positive at interior {n}")]
    if loss is not None:
        checks.append((~(loss >= 0),
                       "catastrophe rate a({n}) = {a} is not a number >= 0"))
    faults = [(int(bad.argmax()), k)
              for k, (bad, _) in enumerate(checks) if bad.any()]
    if not faults:
        return len(states), None, False
    i, k = min(faults)
    message = checks[k][1].format(
        n=states[i], a=None if loss is None else float(loss[i]))
    return i, ValidationError(message), loss is not None and k == len(checks) - 1


def _birth_slots(litters, r):
    """Per litter law, parent type and litter slot: the jump, shape ``(l,
    r, w, r)``, and the probability and whether the slot holds an entry,
    shape ``(l, 1, w)``.  ``litters`` holds the sorted entries of each
    state's law, or one law for every state, or is ``None`` under
    single-progeny births."""
    if litters is None:
        return (np.eye(r, dtype=np.int64)[None, :, None, :],
                np.ones((1, 1, 1)), np.ones((1, 1, 1), dtype=bool))
    width = max(map(len, litters), default=0)
    jumps = np.zeros((len(litters), r, width, r), dtype=np.int64)
    probs = np.zeros((len(litters), 1, width))
    there = np.zeros((len(litters), 1, width), dtype=bool)
    for i, entries in enumerate(litters):
        for slot, (k, p) in enumerate(entries):
            jumps[i, :, slot] = k
            probs[i, 0, slot] = p
            there[i, 0, slot] = True
    return jumps, probs, there


def _move_table(model, states, b, d, c, loss, births):
    """The :class:`MoveTable` of ``states`` from their checked coefficients
    and the :func:`_birth_slots` of their litter laws."""
    m, r = len(states), model.r
    jumps, probs, there = births
    width = r * probs.shape[2]
    n = np.array(states, dtype=np.int64).reshape(m, r)
    x = n.astype(float)
    # Python floats overflow to inf, and inf * 0 gives nan, without a word;
    # the overflow raises below, by state.
    with np.errstate(over="ignore", invalid="ignore"):
        base = x * b
        press = np.zeros((m, r))
        for k in range(r):
            press += c[:, :, k] * x[:, k:k + 1]
        powered = [p ** model.gamma for p in press.ravel().tolist()]
        deaths = x * (d + np.array(powered).reshape(m, r))
        rates = [(base[:, :, None] * probs).reshape(m, width), deaths]
    keep = [((~(base <= 0.0))[:, :, None] & there).reshape(m, width),
            deaths > 0.0]
    targets = [(n[:, None, None, :] + jumps).reshape(m, width, r),
               n[:, None, :] - np.eye(r, dtype=np.int64)]
    if loss is not None:
        rates.append(loss[:, None])
        keep.append(loss[:, None] > 0.0)
        targets.append(np.zeros((m, 1, r), dtype=np.int64))
    keep = np.concatenate(keep, axis=1)
    table = MoveTable(n, np.concatenate(targets, axis=1),
                      np.where(keep, np.concatenate(rates, axis=1), 0.0), keep)
    finite = table.total < math.inf
    if not finite.all():
        raise RateOverflowError(f"total rate out of state "
                                f"{states[int(finite.argmin())]} is not finite")
    return table


def _memo_moves(rows):
    """Memoise the moves of each state for the simulators.

    ``rows(states)`` gives the ``(targets, rates, total)`` of each of a list
    of states, in order.  The returned function maps a state to ``(targets,
    cum, total, dead)``, computed on its first request: ``cum`` holds the
    running sums of ``rates`` in table order, and ``dead[i]`` says whether
    ``targets[i]`` is absorbed.  Its ``fill(states)`` computes the entries
    still missing among ``states`` ahead of their requests, by one call of
    ``rows``.
    """
    memo = {}

    def fill(states):
        todo = [n for n in dict.fromkeys(states) if n not in memo]
        if not todo:
            return
        for n, (targets, rates, total) in zip(todo, rows(todo)):
            memo[n] = (targets, list(accumulate(rates)), total,
                       [is_absorbed(target) for target in targets])

    def moves(n):
        entry = memo.get(n)
        if entry is None:
            fill((n,))
            entry = memo[n]
        return entry

    moves.fill = fill
    return moves


def build_model(config: ConfigDocument) -> Model:
    """Construct the model described by a validated configuration document."""
    catastrophe = _catastrophe_from_config(config.catastrophe)
    litter = LitterLaw(config.multibirth) if config.multibirth else None
    if config.family == "constant":
        model = Model.constant(config.b, config.d, config.c, config.gamma,
                               catastrophe=catastrophe, litter=litter)
        if config.beta1 is not None or config.beta2 is not None:
            model = replace(
                model,
                beta1=config.beta1 if config.beta1 is not None else 0.0,
                beta2=config.beta2 if config.beta2 is not None else 0.0)
        return model
    if config.family == "power-law":
        return Model.power_law(config.b, config.d, config.c, config.gamma,
                               config.beta1, config.beta2,
                               catastrophe=catastrophe, litter=litter)
    # tabulated, r = 1 (the config loader enforces r == 1 for this family)
    length = len(config.b_table)
    b_table = np.asarray(config.b_table, dtype=float).reshape(length, 1)
    d_table = np.asarray(config.d_table, dtype=float).reshape(length, 1)
    c_table = np.asarray(config.c_table, dtype=float).reshape(length, 1, 1)
    return Model.tabulated(b_table, d_table, c_table, config.gamma,
                           catastrophe=catastrophe, litter=litter,
                           beta1=config.beta1, beta2=config.beta2)


def _catastrophe_from_config(spec):
    if spec is None:
        return None
    kind = spec[0]
    coef = spec[1]
    if kind == "constant":
        return lambda n: coef
    if kind == "linear":
        return lambda n: coef * sum(n)
    if kind == "log":
        return lambda n: coef * math.log1p(sum(n))
    # "power"
    expo = spec[2]
    return lambda n: coef * float(sum(n)) ** expo
