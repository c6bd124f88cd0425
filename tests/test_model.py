"""Model construction, validation, and the frozen move-enumeration order."""

import math
from dataclasses import replace
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from qsdlab.config import load_config
from qsdlab.errors import RateOverflowError, ValidationError
from qsdlab.lyapunov import check_drift, sample_shells
from qsdlab.model import (LitterLaw, Model, _catastrophe_from_config,
                          build_model, is_absorbed)
from qsdlab.presets import (
    catastrophe_logistic_1d,
    logistic_1d,
    multibirth_uniform_1d,
    neutral,
    reference_2d,
    strong_intra_2d,
)
from qsdlab.solver import assemble, enumerate_space


# ---------------------------------------------------------------------------
# boundary helpers
# ---------------------------------------------------------------------------


def test_absorbed_iff_some_coordinate_zero():
    assert is_absorbed((0,))
    assert is_absorbed((3, 0))
    assert is_absorbed((0, 5, 2))
    assert not is_absorbed((1,))
    assert not is_absorbed((2, 1, 7))
    assert is_absorbed((0, 0))


# ---------------------------------------------------------------------------
# constructor validation
# ---------------------------------------------------------------------------


def test_constant_rejects_zero_birth_coefficient():
    with pytest.raises(ValidationError):
        Model.constant(b=(0.0,), d=(0.0,), c=((1.0,),), gamma=1.0)


def test_constant_rejects_zero_self_competition():
    with pytest.raises(ValidationError):
        Model.constant(b=(1.0, 1.0), d=(0.0, 0.0),
                       c=((0.0, 0.1), (0.1, 1.0)), gamma=1.0)


def test_constant_rejects_negative_entries():
    with pytest.raises(ValidationError):
        Model.constant(b=(1.0,), d=(-0.1,), c=((1.0,),), gamma=1.0)
    with pytest.raises(ValidationError):
        Model.constant(b=(1.0, 1.0), d=(0.0, 0.0),
                       c=((1.0, -0.2), (0.0, 1.0)), gamma=1.0)


def test_constant_rejects_non_square_competition():
    with pytest.raises(ValidationError):
        Model.constant(b=(1.0, 1.0), d=(0.0, 0.0), c=((1.0, 0.1),), gamma=1.0)


def test_constant_rejects_bad_gamma():
    with pytest.raises(ValidationError):
        Model.constant(b=(1.0,), d=(0.0,), c=((1.0,),), gamma=0.0)
    with pytest.raises(ValidationError):
        Model.constant(b=(1.0,), d=(0.0,), c=((1.0,),), gamma=-1.0)


def test_litter_law_must_be_a_distribution():
    with pytest.raises(ValidationError):
        Model.constant(b=(1.0,), d=(0.0,), c=((1.0,),), gamma=1.0,
                       litter={(1,): 0.5, (2,): 0.2})
    with pytest.raises(ValidationError):
        Model.constant(b=(1.0,), d=(0.0,), c=((1.0,),), gamma=1.0,
                       litter={(1,): 1.2, (2,): -0.2})


def test_litter_law_rejects_the_empty_litter():
    with pytest.raises(ValidationError):
        Model.constant(b=(1.0,), d=(0.0,), c=((1.0,),), gamma=1.0,
                       litter={(0,): 1.0})


# ---------------------------------------------------------------------------
# transition tables against hand-computed rates
# ---------------------------------------------------------------------------


def test_logistic_rates_at_state_three():
    model = logistic_1d()  # b=1, d=0, c=1, gamma=1
    targets, rates, total = model.transition_table((3,))
    assert targets == [(4,), (2,)]
    assert rates == pytest.approx([3.0, 9.0], abs=0.0)
    assert total == pytest.approx(12.0, abs=0.0)


def test_two_type_rates_match_hand_computation():
    model = reference_2d()  # b=(1,1), d=0, c=[[.2,.02],[.02,.2]], gamma=1
    targets, rates, total = model.transition_table((2, 3))
    assert targets == [(3, 3), (2, 4), (1, 3), (2, 2)]
    # births n_j * b_j, deaths n_j * (c_j1*n_1 + c_j2*n_2)
    assert rates[0] == pytest.approx(2.0)
    assert rates[1] == pytest.approx(3.0)
    assert rates[2] == pytest.approx(2 * (0.2 * 2 + 0.02 * 3))
    assert rates[3] == pytest.approx(3 * (0.02 * 2 + 0.2 * 3))
    assert total == pytest.approx(sum(rates))


def test_death_at_size_one_targets_the_boundary():
    model = logistic_1d()
    targets, rates, _ = model.transition_table((1,))
    assert targets == [(2,), (0,)]
    assert is_absorbed(targets[1])


def test_superlinear_competition_exponent():
    model = Model.constant(b=(1.0,), d=(0.0,), c=((2.0,),), gamma=2.0)
    _, rates, _ = model.transition_table((3,))
    # death rate n * (c n)^gamma = 3 * 6^2
    assert rates[1] == pytest.approx(3 * 36.0)


def test_catastrophe_move_lands_on_the_boundary():
    model = catastrophe_logistic_1d()  # catastrophe rate 0.5 * n
    targets, rates, total = model.transition_table((4,))
    assert targets == [(5,), (3,), (0,)]
    assert rates == pytest.approx([4.0, 16.0, 2.0])
    assert total == pytest.approx(22.0)


def test_multibirth_splits_the_birth_rate_over_litters():
    model = multibirth_uniform_1d()  # litters {1,2,3} uniform, b=1, c=1
    targets, rates, total = model.transition_table((2,))
    assert targets == [(3,), (4,), (5,), (1,)]
    assert rates[:3] == pytest.approx([2.0 / 3] * 3)
    assert rates[3] == pytest.approx(4.0)
    assert total == pytest.approx(6.0)


def test_rate_callbacks_receive_integer_tuples():
    seen = []

    def birth(n):
        seen.append(n)
        return (1.0, 1.0)

    model = Model.from_callbacks(
        r=2, gamma=1.0, birth=birth,
        death=lambda n: (0.0, 0.0),
        competition=lambda n: ((1.0, 0.0), (0.0, 1.0)))
    model.transition_table((2, 5))
    assert seen and all(isinstance(s, tuple) for s in seen)
    assert all(isinstance(x, int) for s in seen for x in s)


NAN_RATE_MODELS = {
    "death callback": lambda: Model.from_callbacks(
        r=1, gamma=1.0, birth=lambda n: (1.0,), death=lambda n: (math.nan,),
        competition=lambda n: ((1.0,),)),
    "competition callback": lambda: Model.from_callbacks(
        r=2, gamma=1.0, birth=lambda n: (1.0, 1.0), death=lambda n: (0.0, 0.0),
        competition=lambda n: ((1.0, math.nan), (0.0, 1.0))),
    "catastrophe": lambda: Model.constant(
        b=(1.0,), d=(0.0,), c=((1.0,),), gamma=1.0,
        catastrophe=lambda n: math.nan),
}


@pytest.mark.parametrize("kind", sorted(NAN_RATE_MODELS))
def test_nan_rates_raise_instead_of_dropping_a_move(kind):
    model = NAN_RATE_MODELS[kind]()
    state = (3,) * model.r
    with pytest.raises(ValidationError):
        model.transition_table(state)


def test_tabulated_rejects_nan_entries():
    b, d, c = [[1.0], [1.0]], [[0.0], [0.5]], [[[1.0]], [[1.0]]]
    Model.tabulated(b, d, c, gamma=1.0)
    with pytest.raises(ValidationError):
        Model.tabulated(b, [[0.0], [math.nan]], c, gamma=1.0)
    with pytest.raises(ValidationError):
        Model.tabulated([[1.0], [math.nan]], d, c, gamma=1.0)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_dimensions_and_exponents():
    assert logistic_1d().r == 1
    assert reference_2d().r == 2
    assert strong_intra_2d().r == 2
    assert neutral().r == 3
    assert multibirth_uniform_1d().litter is not None
    assert catastrophe_logistic_1d().catastrophe is not None
    # constant-coefficient presets declare flat rate growth
    assert reference_2d().beta1 == 0.0
    assert reference_2d().beta2 == 0.0


def test_neutral_preset_is_exchangeable():
    model = neutral(r=3)
    _, rates_a, _ = model.transition_table((2, 3, 4))
    _, rates_b, _ = model.transition_table((4, 3, 2))
    assert rates_a[0] == pytest.approx(rates_b[2])
    assert rates_a[3] == pytest.approx(rates_b[5])


# ---------------------------------------------------------------------------
# properties over random interior states
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 40), st.integers(1, 40)))
def test_table_total_is_the_exact_sum_in_order(state):
    model = reference_2d()
    _, rates, total = model.transition_table(state)
    acc = 0.0
    for rate in rates:
        acc += rate
    assert total == acc
    assert all(rate > 0 for rate in rates)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 40), st.integers(1, 40)))
def test_moves_change_one_type_by_one(state):
    model = reference_2d()
    targets, _, _ = model.transition_table(state)
    for target in targets:
        diff = [t - s for t, s in zip(target, state)]
        if is_absorbed(target):
            assert sum(1 for d in diff if d != 0) == 1
        else:
            assert sorted(abs(d) for d in diff) == [0, 1]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60))
def test_multibirth_moves_jump_by_litter_sizes(size):
    model = multibirth_uniform_1d()
    targets, _, _ = model.transition_table((size,))
    ups = [t[0] - size for t in targets if t[0] > size]
    assert ups == [1, 2, 3]


# ---------------------------------------------------------------------------
# the rate kernel against the scalar constant-family reference
# ---------------------------------------------------------------------------
#
# The reference below is the plain constant-coefficient loop: Python floats,
# and each pressure summed in index order from 0.0.  Every constant-family
# output (the configs' CSVs, the benchmark digests) depends on these bits.

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _reference_table(b, d, c, gamma, litter=None, catastrophe=None):
    r = len(b)
    b = [float(x) for x in b]
    d = [float(x) for x in d]
    c = [[float(x) for x in row] for row in c]
    entries = sorted((k, float(p)) for k, p in (litter or {}).items() if p > 0)

    def table(n):
        targets, rates, total = [], [], 0.0
        for j in range(r):
            base = n[j] * b[j]
            unit = tuple(int(i == j) for i in range(r))
            for k, p in entries or [(unit, 1.0)]:
                targets.append(tuple(x + y for x, y in zip(n, k)))
                rates.append(base * p)
                total += rates[-1]
        for j in range(r):
            press = 0.0
            for k in range(r):
                press += c[j][k] * n[k]
            rate = n[j] * (d[j] + press ** gamma)
            targets.append(n[:j] + (n[j] - 1,) + n[j + 1:])
            rates.append(rate)
            total += rate
        if catastrophe is not None:
            targets.append((0,) * r)
            rates.append(float(catastrophe(n)))
            total += rates[-1]
        return targets, rates, total

    return table


def _assert_tables_identical(model, reference, r, size):
    for n in enumerate_space(r, size).states:
        targets, rates, total = model.transition_table(n)
        expected = reference(n)
        assert targets == expected[0], n
        assert [x.hex() for x in rates] == [x.hex() for x in expected[1]], n
        assert total.hex() == expected[2].hex(), n


@pytest.mark.parametrize("name", ["ref2d", "neutral3d", "logistic1d",
                                  "catastrophe1d", "multibirth1d"])
def test_config_tables_equal_the_scalar_reference(name):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    model = build_model(cfg)
    reference = _reference_table(cfg.b, cfg.d, cfg.c, cfg.gamma,
                                 cfg.multibirth, model.catastrophe)
    _assert_tables_identical(model, reference, cfg.r, 2 * cfg.truncation_n)


def test_three_type_constant_table_equals_the_scalar_reference():
    b = (1.0, 0.7, 1.3)
    d = (0.1, 0.0, 0.2)
    c = ((0.3, 0.05, 0.01), (0.02, 0.25, 0.07), (0.03, 0.011, 0.4))
    model = Model.constant(b=b, d=d, c=c, gamma=1.5)
    _assert_tables_identical(model, _reference_table(b, d, c, 1.5), 3, 45)


# ---------------------------------------------------------------------------
# the array rate pass against the former per-state kernel
# ---------------------------------------------------------------------------
#
# ``_scalar_kernel`` is the per-state kernel that the array pass replaced,
# kept as the reference: Python floats, each pressure summed in index order
# from 0.0 and raised to gamma by scalar pow, zero-rate deaths and
# catastrophes dropped, and the total summed in move order.  Every table,
# memo entry and matrix the array pass builds must have its bits.


def _scalar_kernel(model):
    r = model.r
    gamma = model.gamma
    validate = model.family == "callback"
    types = range(r)

    def kernel(n):
        bvec = np.asarray(model.birth(n), dtype=float)
        dvec = np.asarray(model.death(n), dtype=float)
        cmat = np.asarray(model.competition(n), dtype=float)
        if validate:
            if not (bvec > 0).all():
                raise ValidationError(f"b(n) must be positive at interior {n}")
            if not ((dvec >= 0).all() and (cmat >= 0).all()):
                raise ValidationError(
                    f"d(n) and c(n) must be nonnegative at {n}")
            if not (np.diag(cmat) > 0).all():
                raise ValidationError(
                    f"c_ii(n) must be positive at interior {n}")
        b, d, c = bvec.tolist(), dvec.tolist(), cmat.tolist()
        targets, rates, total = [], [], 0.0
        litter = model.litter.entries_for(n) if model.litter is not None else None
        for j in types:
            nj = n[j]
            base = nj * b[j]
            if base <= 0.0:
                continue
            if litter is None:
                targets.append(n[:j] + (nj + 1,) + n[j + 1:])
                rates.append(base)
                total += base
            else:
                for k, p in litter:
                    rate = base * p
                    targets.append(tuple(n[i] + k[i] for i in types))
                    rates.append(rate)
                    total += rate
        for j in types:
            nj = n[j]
            press = 0.0
            for cjk, nk in zip(c[j], n):
                press += cjk * nk
            rate = nj * (d[j] + press ** gamma)
            if rate > 0.0:
                targets.append(n[:j] + (nj - 1,) + n[j + 1:])
                rates.append(rate)
                total += rate
        if model.catastrophe is not None:
            rate = float(model.catastrophe(n))
            if not rate >= 0:
                raise ValidationError(
                    f"catastrophe rate a({n}) = {rate} is not a number >= 0")
            if rate > 0.0:
                targets.append((0,) * r)
                rates.append(rate)
                total += rate
        if not total < math.inf:
            raise RateOverflowError(f"total rate out of state {n} is not finite")
        return targets, rates, total

    return kernel


def _reference_matrix(space, table):
    """The sub-generator as the per-state assembly loop built it."""
    size = len(space.states)
    rows, cols, vals = [], [], []
    diag = np.zeros(size)
    for i, state in enumerate(space.states):
        targets, rates, total = table(state)
        diag[i] = -total
        for target, rate in zip(targets, rates):
            j = space.index.get(target)
            if j is not None:
                rows.append(i)
                cols.append(j)
                vals.append(rate)
    rows.extend(range(size))
    cols.extend(range(size))
    vals.extend(diag)
    matrix = sparse.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    matrix.sum_duplicates()
    return matrix


def _bits(values):
    return [float(x).hex() for x in values]


def _assert_array_pass_matches(model, states):
    reference = _scalar_kernel(model)
    table = model.move_table(states)
    store = model._moves
    empty = [s for s in dict.fromkeys(map(store.id, states))
             if store.rows[s] is None]
    if empty:
        store.fill(empty)
    for i, n in enumerate(states):
        targets, rates, total = reference(n)
        got = table.row(i)
        assert got[0] == targets, n
        assert _bits(got[1]) == _bits(rates), n
        assert got[2].hex() == total.hex() == float(table.total[i]).hex(), n
        assert model.transition_table(n) == got
        # The store's row for a single path: target ids, running sums in
        # move order, the last index and the total.
        s = store.ids[n]
        ids, cum, last, stored = store.rows[s]
        dead = [is_absorbed(t) for t in targets]
        assert [store.states[k] for k in ids] == targets
        assert [store.dead[k] for k in ids] == dead
        assert _bits(cum) == _bits(accumulate(rates))
        assert last == len(targets) - 1
        assert stored.hex() == total.hex() == float(store.total[s]).hex()
        # Its row for the lockstep: on the slots of the moves, the running
        # sums but the last, +inf from the last move on, and the target
        # ids, -1 for an absorbed one; the rate into the boundary.
        slots = np.flatnonzero(table.keep[i])
        assert _bits(store.cum[s, slots[:-1]]) == _bits(cum[:-1])
        assert (store.cum[s, slots[-1]:] == math.inf).all()
        assert (np.diff(store.cum[s]) >= 0).all()
        assert store.target[s, slots].tolist() == [
            -1 if gone else k for k, gone in zip(ids, dead)]
        loss = 0.0
        for rate, gone in zip(rates, dead):
            if gone:
                loss += rate
        assert float(store.loss[s]).hex() == loss.hex()


def _tabulated_2d():
    rng = np.random.default_rng(11)
    box = (5, 4)
    return Model.tabulated(rng.uniform(0.5, 2.0, box + (2,)),
                           rng.uniform(0.0, 0.3, box + (2,)),
                           rng.uniform(0.01, 0.4, box + (2, 2)), gamma=1.3)


def _callback_2d():
    return Model.from_callbacks(
        r=2, gamma=0.85,
        birth=lambda n: (1.0 + 0.1 * n[0], 0.5 + 1.0 / (1 + n[1])),
        death=lambda n: (0.05 * (n[0] % 3), 0.2),
        competition=lambda n: ((0.3, 0.01 * n[1] ** 0.5),
                               (0.02, 0.25 + 0.001 * n[0])))


def _state_litter(n):
    if sum(n) % 3 == 0:
        return {(1, 0): 1.0}
    return {(1, 0): 0.25, (0, 1): 0.25, (2, 1): 0.5}


ARRAY_PASS_MODELS = {
    "constant": (lambda: Model.constant(
        b=(1.0, 0.7, 1.3), d=(0.1, 0.0, 0.2),
        c=((0.3, 0.05, 0.01), (0.02, 0.25, 0.07), (0.03, 0.011, 0.4)),
        gamma=1.5), 20),
    "power-law": (lambda: Model.power_law(
        b=(1.0, 1.2), d=(0.1, 0.05), c=((0.3, 0.04), (0.05, 0.2)),
        gamma=1.7, beta1=0.3, beta2=0.45), 40),
    "tabulated past the box": (_tabulated_2d, 15),
    "callback": (_callback_2d, 25),
    "fixed litter, r = 2": (lambda: Model.constant(
        b=(1.0, 1.5), d=(0.1, 0.0), c=((0.3, 0.05), (0.05, 0.4)), gamma=1.0,
        litter={(1, 0): 0.5, (0, 2): 0.3, (1, 1): 0.2}), 20),
    "callable litter": (lambda: Model.constant(
        b=(1.0, 0.8), d=(0.0, 0.1), c=((0.3, 0.05), (0.05, 0.4)), gamma=1.2,
        litter=LitterLaw(_state_litter, declared_mean_bound=2.0)), 20),
    "catastrophe constant": (lambda: Model.constant(
        b=(1.0,), d=(0.0,), c=((1.0,),), gamma=1.0,
        catastrophe=_catastrophe_from_config(("constant", 0.3))), 60),
    "catastrophe linear": (lambda: Model.constant(
        b=(1.0, 1.0), d=(0.0, 0.0), c=((0.2, 0.02), (0.02, 0.2)), gamma=1.0,
        catastrophe=_catastrophe_from_config(("linear", 0.05))), 30),
    "catastrophe log": (lambda: Model.power_law(
        b=(1.0,), d=(0.1,), c=((1.0,),), gamma=1.4, beta1=0.2, beta2=0.3,
        catastrophe=_catastrophe_from_config(("log", 0.7))), 60),
    "catastrophe power": (lambda: Model.constant(
        b=(1.0, 1.0), d=(0.0, 0.1), c=((0.2, 0.02), (0.02, 0.2)), gamma=1.0,
        catastrophe=_catastrophe_from_config(("power", 0.2, 1.3))), 30),
}


@pytest.mark.parametrize("name", sorted(ARRAY_PASS_MODELS))
def test_array_pass_has_the_bits_of_the_scalar_kernel(name):
    make, size = ARRAY_PASS_MODELS[name]
    model = make()
    space = enumerate_space(model.r, size)
    _assert_array_pass_matches(model, space.states)
    # One state at a time, and the states past the truncation.
    _assert_array_pass_matches(model, [tuple(x + 1 for x in space.states[-1])])
    got = assemble(model, space).matrix
    want = _reference_matrix(space, _scalar_kernel(model))
    for part in ("data", "indices", "indptr"):
        assert (getattr(got, part) == getattr(want, part)).all(), part
    assert got.data.tobytes() == want.data.tobytes()


def test_litter_births_onto_one_target_sum_in_move_order():
    model = ARRAY_PASS_MODELS["fixed litter, r = 2"][0]()
    space = enumerate_space(2, 20)
    targets, rates, _ = model.transition_table((3, 4))
    # Every litter vector is added whichever parent type gives birth.
    assert targets[:3] == targets[3:6]
    matrix = assemble(model, space).matrix
    i, j = space.index[(3, 4)], space.index[targets[0]]
    assert matrix[i, j] == rates[0] + rates[3]


@pytest.mark.parametrize("name", ["ref2d", "logistic1d", "neutral3d"])
def test_array_pass_over_a_ten_thousand_state_sweep(name):
    model = build_model(load_config(CONFIGS / f"{name}.cfg"))
    shells = sample_shells(model.r, 10000)
    states = [n for size in sorted(shells) for n in shells[size]]
    if model.r == 1:
        assert len(states) == 10000
    reference = _scalar_kernel(model)
    table = model.move_table(states)
    expected = [reference(n) for n in states]
    rows = [table.row(i) for i in range(len(states))]
    assert [row[0] for row in rows] == [want[0] for want in expected]
    assert [_bits(row[1]) for row in rows] == [_bits(want[1]) for want in expected]
    assert _bits(table.total) == _bits(want[2] for want in expected)


def test_a_constant_label_does_not_make_state_dependent_rates_constant():
    model = replace(Model.constant([1.0, 2.0], [0.1, 0.2],
                                   [[1.0, 0.1], [0.2, 1.0]], 1.0),
                    birth=lambda n: np.array([1.0 + n[0], 2.0 / n[1]]),
                    competition=lambda n: np.array([[1.0, n[0] / 10.0],
                                                    [0.2, 1.0]]))
    assert model.family == "constant"
    states = enumerate_space(2, 7).states
    _assert_array_pass_matches(model, states)
    b, _, c, _ = model._coefficients(states)
    assert len(set(b[:, 0])) > 1 and len(set(c[:, 0, 1])) > 1


# ---------------------------------------------------------------------------
# errors of the array pass: those of the states evaluated one at a time
# ---------------------------------------------------------------------------


def _faulty_1d(faults):
    """A logistic callback model whose rates at the states in ``faults``
    are replaced: ``faults[n] = (b, d, c)``."""
    return Model.from_callbacks(
        r=1, gamma=1.0,
        birth=lambda n: (faults.get(n, (1.0,) * 3)[0],),
        death=lambda n: (faults.get(n, (0.0,) * 3)[1],),
        competition=lambda n: ((faults.get(n, (1.0,) * 3)[2],),))


def _first_scalar_error(model, states):
    reference = _scalar_kernel(model)
    for n in states:
        try:
            reference(n)
        except Exception as exc:  # noqa: BLE001 - the reference's own error
            return exc
    return None


FAULTS = {
    "negative birth": ({(37,): (-1.0, 0.0, 1.0)}, ValidationError),
    "NaN death": ({(41,): (1.0, math.nan, 1.0)}, ValidationError),
    "zero self-competition": ({(45,): (1.0, 0.0, 0.0)}, ValidationError),
    "two bad states": ({(52,): (1.0, -1.0, 1.0), (37,): (-1.0, 0.0, 1.0)},
                       ValidationError),
    "overflowing total": ({(40,): (1e308, 0.0, 1.0)}, RateOverflowError),
    "overflow before a bad rate": (
        {(30,): (1e308, 0.0, 1.0), (35,): (-1.0, 0.0, 1.0)},
        RateOverflowError),
    "bad rate before an overflow": (
        {(35,): (1e308, 0.0, 1.0), (30,): (1.0, -1.0, 1.0)},
        ValidationError),
}


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_array_pass_raises_the_first_error_in_enumeration_order(case):
    faults, kind = FAULTS[case]
    model = _faulty_1d(faults)
    space = enumerate_space(1, 100)
    expected = _first_scalar_error(model, space.states)
    assert type(expected) is kind
    first = str(min(faults))
    assert first in str(expected)
    with pytest.raises(kind) as assembled:
        assemble(model, space)
    assert str(assembled.value) == str(expected)
    with pytest.raises(kind) as swept:
        check_drift(model, 0.5, n_check=100)
    assert str(swept.value) == str(expected)


def test_array_pass_names_the_first_bad_state_of_each_enumeration():
    bad = {(2, 5), (4, 1)}
    model = Model.from_callbacks(
        r=2, gamma=1.0,
        birth=lambda n: (-1.0 if n in bad else 1.0, 1.0),
        death=lambda n: (0.0, 0.0),
        competition=lambda n: ((0.2, 0.02), (0.02, 0.2)))
    # Lexicographic order meets (2, 5) first; shell order (by size) (4, 1).
    with pytest.raises(ValidationError, match=r"\(2, 5\)"):
        assemble(model, enumerate_space(2, 12))
    with pytest.raises(ValidationError, match=r"\(4, 1\)"):
        check_drift(model, 0.5, n_check=12)


def test_array_pass_reads_a_bad_litter_law_in_state_order():
    def law(n):
        if n == (6,):
            return {(1,): 0.5}
        return {(1,): 1.0}

    for faults, message in (({}, "litter probabilities"),
                            ({(4,): (1.0, -1.0, 1.0)}, r"\(4,\)"),
                            ({(8,): (1.0, -1.0, 1.0)}, "litter probabilities")):
        model = replace(_faulty_1d(faults), litter=LitterLaw(law, 1.0))
        expected = _first_scalar_error(model, enumerate_space(1, 20).states)
        with pytest.raises(ValidationError, match=message) as raised:
            assemble(model, enumerate_space(1, 20))
        assert str(raised.value) == str(expected)


def test_array_pass_checks_the_catastrophe_after_the_litter_law():
    calls = []

    def law(n):
        calls.append(n)
        return {(1,): 1.0}

    model = Model.constant(b=(1.0,), d=(0.0,), c=((1.0,),), gamma=1.0,
                           catastrophe=lambda n: math.nan if n == (5,) else 0.1,
                           litter=LitterLaw(law, 1.0))
    with pytest.raises(ValidationError, match=r"catastrophe rate a\(\(5,\)\)"):
        model.move_table(enumerate_space(1, 9).states)
    assert calls == [(1,), (2,), (3,), (4,), (5,)]
