"""Model construction, validation, and the frozen move-enumeration order."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdlab.config import load_config
from qsdlab.errors import ValidationError
from qsdlab.model import Model, absorbed_marker, build_model, is_absorbed
from qsdlab.presets import (
    catastrophe_logistic_1d,
    logistic_1d,
    multibirth_uniform_1d,
    neutral,
    reference_2d,
    strong_intra_2d,
)
from qsdlab.solver import enumerate_space


# ---------------------------------------------------------------------------
# boundary helpers
# ---------------------------------------------------------------------------


def test_absorbed_iff_some_coordinate_zero():
    assert is_absorbed((0,))
    assert is_absorbed((3, 0))
    assert is_absorbed((0, 5, 2))
    assert not is_absorbed((1,))
    assert not is_absorbed((2, 1, 7))


def test_absorbed_marker_shape():
    assert absorbed_marker(1) == (0,)
    assert absorbed_marker(3) == (0, 0, 0)
    assert is_absorbed(absorbed_marker(2))


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
