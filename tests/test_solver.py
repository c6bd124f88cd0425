"""Truncated generator assembly, spectral solve, and conditioned transients.

Oracles: an independent dense eigensolve (scipy.linalg.eig) for laws and
decay rates, dense expm for semigroup action, and pencil-and-paper closed
forms on the two-state truncation of the one-type logistic model, where
everything is solvable by hand:

    Q = [[-2, 1], [4, -6]]
    decay      = 4 - 2*sqrt(2)
    law        = (2*sqrt(2) - 2, 3 - 2*sqrt(2))
    profile    = ((4 + 3*sqrt(2))/8, (2 + sqrt(2))/4)
"""

import ast
import math
import pathlib

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdlab
from qsdlab.errors import (
    ConditioningImpossibleError,
    ConvergenceError,
    DomainError,
    ValidationError,
)
from qsdlab.model import Model
from qsdlab.presets import logistic_1d, reference_2d
from qsdlab.solver import (
    assemble,
    conditional_moments,
    conditional_path,
    enumerate_space,
    evolve_function,
    evolve_measure,
    expected_hitting_time,
    qprocess_generator,
    solve_qsd,
    transient_conditional,
)

SQRT2 = math.sqrt(2.0)


def dense_left_eigen(generator):
    """Independent route to (law, decay): dense nonsymmetric eigensolve."""
    mat = generator.matrix
    dense = mat.toarray() if sps.issparse(mat) else np.asarray(mat)
    values, left = sla.eig(dense, left=True, right=False)
    k = int(np.argmax(values.real))
    law = np.abs(left[:, k].real)
    return law / law.sum(), -float(values[k].real)


@pytest.fixture(scope="module")
def two_state():
    model = logistic_1d()
    space = enumerate_space(1, 2)
    generator = assemble(model, space)
    return model, space, generator


# ---------------------------------------------------------------------------
# state enumeration
# ---------------------------------------------------------------------------


def test_enumeration_is_lexicographic_and_interior():
    space = enumerate_space(2, 3)
    assert tuple(space.states) == ((1, 1), (1, 2), (2, 1))
    space = enumerate_space(1, 4)
    assert tuple(space.states) == ((1,), (2,), (3,), (4,))


def test_enumeration_counts_follow_the_simplex():
    assert len(enumerate_space(2, 30).states) == 435   # C(30, 2)
    assert len(enumerate_space(2, 60).states) == 1770  # C(60, 2)
    assert len(enumerate_space(3, 10).states) == 120   # C(10, 3)


def test_enumeration_rejects_degenerate_bounds():
    with pytest.raises((ValidationError, DomainError)):
        enumerate_space(2, 1)  # no interior state has |n| <= 1
    with pytest.raises((ValidationError, DomainError)):
        enumerate_space(0, 5)


def test_index_inverts_states():
    space = enumerate_space(2, 12)
    for i, state in enumerate(space.states):
        assert space.index[state] == i


# ---------------------------------------------------------------------------
# generator assembly
# ---------------------------------------------------------------------------


def test_two_state_matrix_by_hand(two_state):
    _, _, generator = two_state
    mat = generator.matrix
    dense = mat.toarray() if sps.issparse(mat) else np.asarray(mat)
    assert dense == pytest.approx(np.array([[-2.0, 1.0], [4.0, -6.0]]))


def test_rows_leak_exactly_the_kill_rates():
    model = reference_2d()
    space = enumerate_space(2, 8)
    generator = assemble(model, space)
    dense = generator.matrix.toarray()
    assert (dense - np.diag(np.diag(dense)) >= 0).all()
    assert (np.diag(dense) < 0).all()
    row_sums = dense.sum(axis=1)
    for i, state in enumerate(space.states):
        targets, rates, _ = model.transition_table(state)
        leak = sum(rate for target, rate in zip(targets, rates)
                   if target not in space.index)
        assert row_sums[i] == pytest.approx(-leak, rel=1e-12, abs=1e-12)


def test_uniformization_constant_clears_the_diagonal():
    generator = assemble(reference_2d(), enumerate_space(2, 20))
    diag = np.abs(generator.matrix.diagonal())
    assert generator.lam >= diag.max()
    assert generator.lam == pytest.approx(1.05 * diag.max())


# ---------------------------------------------------------------------------
# spectral solve
# ---------------------------------------------------------------------------


def test_two_state_closed_forms(two_state):
    _, _, generator = two_state
    result = solve_qsd(generator, tol=1e-15)
    assert result.decay_rate == pytest.approx(4 - 2 * SQRT2, abs=1e-13)
    assert result.law == pytest.approx([2 * SQRT2 - 2, 3 - 2 * SQRT2], abs=1e-13)
    assert result.survival_profile == pytest.approx(
        [(4 + 3 * SQRT2) / 8, (2 + SQRT2) / 4], abs=1e-12)
    # normalizations: unit mass, unit mean profile under the law
    assert result.law.sum() == pytest.approx(1.0, abs=1e-14)
    assert float(result.law @ result.survival_profile) == pytest.approx(1.0, abs=1e-12)


def test_solve_matches_dense_eigensolve_on_logistic():
    generator = assemble(logistic_1d(), enumerate_space(1, 50))
    result = solve_qsd(generator)
    law, decay = dense_left_eigen(generator)
    assert 0.5 * np.abs(result.law - law).sum() < 1e-10
    assert abs(result.decay_rate - decay) < 1e-10


def test_solve_matches_dense_eigensolve_on_two_types():
    generator = assemble(reference_2d(), enumerate_space(2, 25))
    result = solve_qsd(generator)
    law, decay = dense_left_eigen(generator)
    assert 0.5 * np.abs(result.law - law).sum() < 1e-10
    assert abs(result.decay_rate - decay) < 1e-10


def test_residuals_reported_and_small(ref2d_system):
    *_, result = ref2d_system
    assert result.law_residual < 1e-11
    assert result.law_residual >= 0
    assert result.profile_residual >= 0
    assert (result.law > 0).all()
    assert (result.survival_profile > 0).all()


def test_reference_decay_is_stable():
    generator = assemble(reference_2d(), enumerate_space(2, 60))
    result = solve_qsd(generator)
    assert result.decay_rate == pytest.approx(0.07947538404522052, abs=1e-12)


def test_truncation_is_converged_where_mass_lives():
    small = solve_qsd(assemble(logistic_1d(), enumerate_space(1, 30)))
    large = solve_qsd(assemble(logistic_1d(), enumerate_space(1, 45)))
    padded = np.zeros(45)
    padded[:30] = small.law
    assert 0.5 * np.abs(padded - large.law).sum() < 1e-9
    assert abs(small.decay_rate - large.decay_rate) < 1e-9


def test_solve_rejects_bad_tolerances(two_state):
    *_, generator = two_state
    with pytest.raises(ValidationError):
        solve_qsd(generator, tol=0.0)
    with pytest.raises(ValidationError):
        solve_qsd(generator, max_iter=0)


def test_exhausted_iteration_reports_the_last_residual():
    # The residual is evaluated only once successive iterates agree, so an
    # exhausted run must still compute it for the last iterate, not report inf.
    model = Model.constant([1.0], [0.0], [[1.0]], 1.0)
    generator = assemble(model, enumerate_space(1, 25))
    with pytest.raises(ConvergenceError) as info:
        solve_qsd(generator, max_iter=3)
    assert info.value.iterations == 3
    assert info.value.residual == 46.47250510002439


# ---------------------------------------------------------------------------
# semigroup action
# ---------------------------------------------------------------------------


def test_evolution_matches_dense_expm():
    generator = assemble(logistic_1d(), enumerate_space(1, 25))
    dense = generator.matrix.toarray()
    rng = np.random.default_rng(5)
    mu0 = rng.random(25)
    mu0 /= mu0.sum()
    for t in (0.3, 1.0, 2.7):
        expected = mu0 @ sla.expm(t * dense)
        got = evolve_measure(generator, mu0, t)
        assert np.abs(got - expected).sum() < 1e-12


def test_evolution_composes(two_state):
    *_, generator = two_state
    mu0 = np.array([0.25, 0.75])
    one_hop = evolve_measure(generator, evolve_measure(generator, mu0, 0.7), 0.5)
    direct = evolve_measure(generator, mu0, 1.2)
    assert np.abs(one_hop - direct).max() < 1e-14


def test_evolution_preserves_sign_and_loses_mass(two_state):
    *_, generator = two_state
    mu0 = np.array([0.5, 0.5])
    mu_t = evolve_measure(generator, mu0, 2.0)
    assert (mu_t >= 0).all()
    assert mu_t.sum() < 1.0


# ---------------------------------------------------------------------------
# block semigroup: one kernel for a vector or a block of columns
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ref2d_30():
    return assemble(reference_2d(), enumerate_space(2, 30))


@pytest.mark.parametrize("flow", [evolve_measure, evolve_function])
def test_block_flow_equals_its_columns_bit_for_bit(ref2d_30, flow):
    block = np.random.default_rng(11).random((len(ref2d_30.space), 3))
    out = flow(ref2d_30, block, 0.8)
    assert out.shape == block.shape
    for j in range(block.shape[1]):
        assert np.array_equal(out[:, j], flow(ref2d_30, block[:, j], 0.8))


def test_forward_products_have_the_bits_of_the_row_vector_path(ref2d_30):
    nu = np.random.default_rng(12).random(len(ref2d_30.space))
    assert np.array_equal(ref2d_30.matrix_t @ nu, nu @ ref2d_30.matrix)


def test_block_conditional_path_equals_its_columns_bit_for_bit(
        ref2d_30, delta_start):
    space = ref2d_30.space
    block = np.column_stack([delta_start(space, (1, 1)),
                             delta_start(space, (6, 4))])
    times = np.linspace(0.1, 2.0, 20)
    laws, survivals = conditional_path(ref2d_30, block, times)
    assert laws.shape == (len(times),) + block.shape
    assert survivals.shape == (len(times), 2)
    for j in range(block.shape[1]):
        laws_j, survivals_j = conditional_path(ref2d_30, block[:, j], times)
        assert np.array_equal(laws[:, :, j], laws_j)
        assert np.array_equal(survivals[:, j], survivals_j)


def test_semigroup_rejects_misshapen_blocks(two_state):
    *_, generator = two_state
    for bad in (np.ones(3), np.ones((3, 2)), np.ones((2, 2, 1))):
        with pytest.raises(DomainError):
            evolve_measure(generator, bad, 1.0)
        with pytest.raises(DomainError):
            evolve_function(generator, bad, 1.0)


def test_no_forward_product_steps_through_the_row_vector_path():
    """Every ``nu Q`` in the package is computed as ``matrix_t @ nu``: no
    product has the generator's matrix as its right operand."""
    offenders = []
    for path in sorted(pathlib.Path(qsdlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.MatMult)):
                continue
            right = getattr(node.right, "attr", getattr(node.right, "id", None))
            if right in ("matrix", "mat"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# ---------------------------------------------------------------------------
# conditioned transients
# ---------------------------------------------------------------------------


def test_point_start_survival_closed_form(two_state):
    *_, generator = two_state
    mu, survival = transient_conditional(generator, np.array([1.0, 0.0]), 1.0)
    assert survival == pytest.approx(0.31924498380594013, abs=1e-14)
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)


def test_quasi_stationary_law_is_a_fixed_point(ref2d_system):
    *_, generator, result = ref2d_system
    for t in (0.5, 5.0):
        mu, survival = transient_conditional(generator, result.law, t)
        assert 0.5 * np.abs(mu - result.law).sum() < 1e-10
        assert survival == pytest.approx(
            math.exp(-result.decay_rate * t), rel=1e-9)


def test_conditional_path_matches_single_shots(two_state):
    *_, generator = two_state
    mu0 = np.array([1.0, 0.0])
    times = np.array([0.25, 1.0, 1.75])
    laws, survivals = conditional_path(generator, mu0, times)
    for k, t in enumerate(times):
        mu, survival = transient_conditional(generator, mu0, float(t))
        assert np.abs(laws[k] - mu).max() < 1e-13
        assert survivals[k] == pytest.approx(survival, rel=1e-13)


def test_conditional_path_rejects_bad_grids(two_state):
    *_, generator = two_state
    mu0 = np.array([1.0, 0.0])
    with pytest.raises((ValidationError, DomainError)):
        conditional_path(generator, mu0, [1.0, 0.5])
    with pytest.raises((ValidationError, DomainError)):
        conditional_path(generator, mu0, [-1.0, 0.5])


def test_conditioning_fails_when_survival_underflows(two_state):
    *_, generator = two_state
    with pytest.raises(ConditioningImpossibleError):
        transient_conditional(generator, np.array([1.0, 0.0]), 700.0)


# ---------------------------------------------------------------------------
# conditional moments: every grid time from one sequence of powers
# ---------------------------------------------------------------------------


class _CountingMatrix:
    """Delegates ``@`` to a sparse matrix and counts the products."""

    def __init__(self, mat):
        self.mat = mat
        self.products = 0

    def __matmul__(self, p):
        self.products += 1
        return self.mat @ p


@pytest.mark.parametrize("model, r, n_max, start", [
    (reference_2d(), 2, 30, (1, 1)),
    (logistic_1d(), 1, 50, (1,)),
], ids=["ref2d", "logistic1d"])
def test_moments_equal_the_contracted_conditional_path(model, r, n_max, start,
                                                       delta_start):
    generator = assemble(model, enumerate_space(r, n_max))
    mu0 = delta_start(generator.space, start)
    F = np.random.default_rng(13).normal(size=(len(mu0), 3))
    times = np.arange(0.0, 5.0 + 1e-12, 0.01)
    laws, survivals = conditional_path(generator, mu0, times)
    expected = laws @ F
    counting = _CountingMatrix(generator.matrix_t)
    generator.__dict__["matrix_t"] = counting
    try:
        means, mass, products = conditional_moments(generator, mu0, times, F)
    finally:
        generator.__dict__["matrix_t"] = counting.mat
    assert means.shape == expected.shape and mass.shape == times.shape
    scale = np.abs(expected).max(axis=0)
    assert (np.abs(means - expected).max(axis=0) <= 1e-12 * scale).all()
    assert np.array_equal(means[0], mu0 @ F) and mass[0] == 1.0
    assert np.allclose(mass, survivals, rtol=1e-9, atol=0.0)
    # one product per power beyond the zeroth, up to the largest window end
    lam_t = generator.lam * times[-1]
    assert counting.products == products
    bound = math.ceil(lam_t + 10.0 * math.sqrt(lam_t) + 30.0)
    assert products + 1 <= bound + 1


def test_moments_match_single_shot_flows_on_a_coarse_grid(two_state):
    """Each grid time is weighted on its own window, as a flow from 0 is."""
    *_, generator = two_state
    mu0 = np.array([1.0, 0.0])
    times = np.array([0.0, 0.5, 1.25, 3.0])
    F = np.array([[1.0, 2.0], [3.0, -1.0]])
    means, mass, _ = conditional_moments(generator, mu0, times, F)
    for k, t in enumerate(times):
        mu, survival = transient_conditional(generator, mu0, float(t))
        assert np.abs(means[k] - mu @ F).max() < 1e-14
        assert mass[k] == pytest.approx(survival, rel=1e-12)


def test_moments_reject_bad_inputs_and_underflow(two_state):
    *_, generator = two_state
    mu0 = np.array([1.0, 0.0])
    for bad in (np.ones(2), np.ones((3, 2)), np.ones((2, 2, 1))):
        with pytest.raises(DomainError):
            conditional_moments(generator, mu0, [0.5, 1.0], bad)
    with pytest.raises(DomainError):
        conditional_moments(generator, mu0, [1.0, 0.5], np.ones((2, 1)))
    with pytest.raises(DomainError):
        conditional_moments(generator, np.ones((2, 2)), [1.0], np.ones((2, 1)))
    with pytest.raises(ConditioningImpossibleError, match="700"):
        conditional_moments(generator, mu0, [1.0, 700.0], np.ones((2, 1)))


# ---------------------------------------------------------------------------
# hitting times
# ---------------------------------------------------------------------------


def test_two_state_hitting_times_by_hand(two_state):
    *_, generator = two_state
    # stop on reaching (1,) or on absorption: from (2,) all moves stop the
    # clock, at total rate 6
    u = expected_hitting_time(generator, goal=(1,))
    assert u == pytest.approx([0.0, 1.0 / 6.0], abs=1e-14)
    # stop on reaching (2,) or absorption: from (1,) total rate 2
    u = expected_hitting_time(generator, goal=(2,))
    assert u == pytest.approx([0.5, 0.0], abs=1e-14)


def test_hitting_times_satisfy_the_defining_system():
    model = reference_2d()
    space = enumerate_space(2, 12)
    generator = assemble(model, space)
    goal = [(1, 1), (2, 2)]
    u = expected_hitting_time(generator, goal)
    dense = generator.matrix.toarray()
    residual = dense @ u
    for i, state in enumerate(space.states):
        if state in set(goal):
            assert u[i] == 0.0
        else:
            assert residual[i] == pytest.approx(-1.0, rel=1e-9)
    assert (u >= 0).all()


def test_hitting_time_rejects_states_outside_the_space(two_state):
    *_, generator = two_state
    with pytest.raises(DomainError):
        expected_hitting_time(generator, goal=(7,))


# ---------------------------------------------------------------------------
# conditioned-process generator
# ---------------------------------------------------------------------------


def test_qprocess_rows_vanish_and_match_hand_rates(two_state):
    *_, generator = two_state
    result = solve_qsd(generator, tol=1e-15)
    transformed = qprocess_generator(generator, result)
    dense = (transformed.toarray() if sps.issparse(transformed)
             else np.asarray(transformed))
    assert np.abs(dense.sum(axis=1)).max() < 1e-12
    # off-diagonals are original rates tilted by the profile ratio
    h = result.survival_profile
    assert dense[0, 1] == pytest.approx(1.0 * h[1] / h[0], rel=1e-12)
    assert dense[1, 0] == pytest.approx(4.0 * h[0] / h[1], rel=1e-12)


# ---------------------------------------------------------------------------
# properties on random measures
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=25, max_size=25),
       st.floats(0.01, 4.0))
def test_evolution_is_linear_offdiagonal_positive(weights, t):
    weights = np.asarray(weights)
    if weights.sum() == 0:
        weights[0] = 1.0
    mu0 = weights / weights.sum()
    generator = assemble(logistic_1d(), enumerate_space(1, 25))
    mu_t = evolve_measure(generator, mu0, t)
    assert (mu_t >= -1e-15).all()
    assert mu_t.sum() <= 1.0 + 1e-12
    two = evolve_measure(generator, 2.0 * mu0, t)
    assert np.abs(two - 2.0 * mu_t).max() < 1e-12
