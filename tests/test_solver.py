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
import os
import pathlib
import re
import signal
import time
from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
from scipy.stats import poisson
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdlab
from qsdlab import solver
from qsdlab.config import load_config
from qsdlab.errors import (
    ConditioningImpossibleError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ValidationError,
)
from qsdlab.model import Model, build_model
from qsdlab.presets import (catastrophe_logistic_1d, logistic_1d,
                            mixed_dominance_2d, multibirth_uniform_1d, neutral,
                            reference_2d, strong_intra_2d)
from qsdlab.solver import (
    assemble,
    conditional_moments,
    conditional_path,
    enumerate_space,
    evolve_function,
    evolve_measure,
    qprocess_generator,
    solve_qsd,
    transient_conditional,
)

SQRT2 = math.sqrt(2.0)
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


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


@pytest.mark.parametrize("model, r, n_max", [
    (logistic_1d(), 1, 30),
    (reference_2d(), 2, 20),
    (neutral(), 3, 9),
], ids=["logistic1d", "ref2d", "neutral3d"])
def test_decay_bracket_encloses_the_dense_decay_rate(model, r, n_max):
    generator = assemble(model, enumerate_space(r, n_max))
    result = solve_qsd(generator)
    _, decay = dense_left_eigen(generator)
    lo, hi = result.decay_bracket
    assert lo <= decay <= hi and lo <= result.decay_rate <= hi
    assert hi - lo < 1e-8 * decay
    # any positive vector encloses it, however crude
    crude_lo, crude_hi = solver._decay_bracket(generator,
                                               np.ones(len(generator.space)))
    assert crude_lo <= decay <= crude_hi


def test_edge_mass_is_the_law_on_the_truncation_edge(two_state):
    *_, generator = two_state
    result = solve_qsd(generator, tol=1e-15)
    assert result.edge_mass == result.law[1]  # the state (2,) has |n| = N


def test_truncation_is_converged_where_mass_lives():
    small = solve_qsd(assemble(logistic_1d(), enumerate_space(1, 30)))
    large = solve_qsd(assemble(logistic_1d(), enumerate_space(1, 45)))
    padded = np.zeros(45)
    padded[:30] = small.law
    assert 0.5 * np.abs(padded - large.law).sum() < 1e-9
    assert abs(small.decay_rate - large.decay_rate) < 1e-9


def test_solve_rejects_bad_tolerances(two_state):
    *_, generator = two_state
    for tol in (0.0, -1e-12, math.inf, math.nan):
        with pytest.raises(ValidationError, match="tol"):
            solve_qsd(generator, tol=tol)
    for max_iter in (0, -3, 2.5, 1e6, "10"):
        with pytest.raises(ValidationError, match="max_iter"):
            solve_qsd(generator, max_iter=max_iter)
    assert solve_qsd(generator, max_iter=np.int64(100)).iterations > 0


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
# the product kernel and the blocked power iteration, against plain loops
# ---------------------------------------------------------------------------


def _law_residual(y, law):
    decay = -float(y.sum())
    return float(np.abs(y + decay * law).sum())


def reference_solve(Q, tol=1e-12, max_iter=10 ** 6):
    """The power iteration as two plain loops: ``@`` products and both tests
    on every step, as before the steps were blocked.  Returns the fields of
    the result and the number of forward steps."""
    mat, mat_t, lam = Q.matrix, Q.matrix_t, Q.lam
    n = mat.shape[0]
    law = np.full(n, 1.0 / n)
    for forward in range(1, max_iter + 1):
        y = mat_t @ law
        nxt = law + y / lam
        nxt /= nxt.sum()
        tv = 0.5 * float(np.abs(nxt - law).sum())
        prev, law = law, nxt
        if tv < tol and _law_residual(y, prev) < 10.0 * tol:
            break
    else:
        raise ConvergenceError("forward", iterations=max_iter,
                               residual=_law_residual(y, prev))
    decay = -float(y.sum())
    profile = np.ones(n)
    diag_abs = np.abs(mat.diagonal())

    def relative_residual(z, h):
        return float((np.abs(z + decay * h) / (diag_abs * h + decay + 1.0)).max())

    for adjoint in range(1, max_iter + 1):
        z = mat @ profile
        nxt = profile + z / lam
        nxt /= nxt.max()
        diff = float(np.abs(nxt - profile).max())
        prev, profile = profile, nxt
        if diff < tol and relative_residual(z, prev) < 10.0 * tol:
            break
    else:
        raise ConvergenceError("adjoint", iterations=max_iter,
                               residual=relative_residual(z, prev))
    profile = profile / float(law @ profile)
    y = mat_t @ law
    decay = -float(y.sum())
    fields = {"law": law, "survival_profile": profile, "decay_rate": decay,
              "law_residual": _law_residual(y, law),
              "profile_residual": float(
                  np.abs(mat @ profile + decay * profile).max()),
              "iterations": forward + adjoint}
    return fields, forward


def assert_same_solve(result, fields):
    for name, want in fields.items():
        got = getattr(result, name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), name
        else:
            assert got == want, name


def outcome(solve, Q, max_iter):
    """The result of a solve, or the iterations and residual it raised."""
    try:
        return solve(Q, max_iter=max_iter)
    except ConvergenceError as exc:
        return ("ConvergenceError", exc.iterations, exc.residual)


def reference_fields(Q, **kwargs):
    return reference_solve(Q, **kwargs)[0]


@pytest.mark.parametrize("shape", [(), (1,), (3,)], ids=["vector", "column", "block"])
def test_product_kernel_has_the_bits_of_matmul(ref2d_30, shape):
    rng = np.random.default_rng(21)
    n = len(ref2d_30.space)
    for mat in (ref2d_30.matrix, ref2d_30.matrix_t):
        x = rng.normal(size=(n,) + shape)
        out = np.full(x.shape, np.nan)  # stale contents must not leak
        assert solver._product(mat, x, out) is out
        assert np.array_equal(out, mat @ x)
        # strided and Fortran-ordered operands, as slices of callers' arrays
        wide = rng.normal(size=(n, 2) + shape)
        for view in (wide[:, 1], np.asfortranarray(x)):
            assert np.array_equal(solver._product(mat, view, np.empty(x.shape)),
                                  mat @ view)


@pytest.mark.parametrize("width", [None, 1, "n"],
                         ids=["vector", "column", "power-row"])
@pytest.mark.parametrize("norm", [np.add.reduce, np.maximum.reduce],
                         ids=["sum-normalized", "max-normalized"])
def test_step_kernel_has_the_bits_of_matmul(width, norm):
    """Three normalized steps of the power iteration's block kernel against
    ``mat @ x`` step by step, for a vector, an ``(n, 1)`` column and an
    ``(n, n)`` power row."""
    generator = assemble(reference_2d(), enumerate_space(2, 12))
    n, lam = len(generator.space), generator.lam
    shape = (n,) if width is None else (n, n if width == "n" else width)
    start = np.random.default_rng(22).random(shape)
    for mat in (generator.matrix, generator.matrix_t):
        want, x = [], start
        for _ in range(3):
            y = mat @ x
            nxt = x + y / lam
            nxt = nxt / norm(nxt.ravel())
            want.append((nxt, y))
            x = nxt
        rows = np.full((3,) + shape, np.nan)  # stale contents must not leak
        products = np.full((3,) + shape, np.nan)
        solver._steps(mat, lam, start, rows, products, norm)
        for i, (nxt, y) in enumerate(want):
            assert np.array_equal(rows[i], nxt) and np.array_equal(products[i], y)


@pytest.mark.parametrize("name", ["ref2d", "neutral3d", "logistic1d",
                                  "catastrophe1d", "multibirth1d"])
def test_flow_kernel_is_nonnegative_on_the_configs(name):
    """``P = I + Q/lam`` has no negative entry, backward and forward, and
    shares its sparsity pattern with the generator it is built from."""
    cfg = load_config(str(CONFIGS / f"{name}.cfg"))
    generator = assemble(build_model(cfg),
                         enumerate_space(cfg.r, cfg.truncation_n))
    for mat in (generator.matrix, generator.matrix_t):
        kernel = solver._uniformized(mat, generator.lam)
        assert np.shares_memory(kernel.indices, mat.indices)
        assert np.shares_memory(kernel.indptr, mat.indptr)
        assert (kernel.data >= 0.0).all()


@pytest.mark.parametrize("width", [None, 1, "n"],
                         ids=["vector", "column", "power-row"])
def test_flow_kernel_powers_have_the_bits_of_matmul(width):
    """Five powers of ``P`` in two blocks of the power stack, from NaN-filled
    buffers, against ``P @ x`` step by step, for a vector, an ``(n, 1)``
    column and an ``(n, n)`` power row; ``P`` is ``I + mat/lam`` entry by
    entry."""
    generator = assemble(reference_2d(), enumerate_space(2, 12))
    n, lam = len(generator.space), generator.lam
    shape = (n,) if width is None else (n, n if width == "n" else width)
    start = np.random.default_rng(22).random(shape)
    for mat in (generator.matrix, generator.matrix_t):
        kernel = solver._uniformized(mat, lam)
        assert np.array_equal(kernel.toarray(), np.eye(n) + mat.toarray() / lam)
        want = [start]
        for _ in range(4):
            want.append(kernel @ want[-1])
        prev = start.copy()
        stack = np.full((3,) + shape, np.nan)  # stale contents must not leak
        solver._stack_powers(kernel, prev, stack, 0, 3)
        assert all(np.array_equal(stack[k], want[k]) for k in range(3))
        assert np.array_equal(prev, want[2])
        stack.fill(np.nan)
        solver._stack_powers(kernel, prev, stack, 3, 5)
        assert all(np.array_equal(stack[k - 3], want[k]) for k in (3, 4))
        assert np.array_equal(prev, want[4])


@pytest.mark.parametrize("dense", [False, True], ids=["sequence", "propagated"])
def test_three_type_flows_match_expm_at_every_grid_time(dense, monkeypatch):
    """On a 56-state neutral 3-type space, either way of the grid kernel
    flows one and two columns, forward and backward, within 1e-12 of the
    dense exponential at every grid time, relative to the largest entry of
    the columns: the discarded Poisson tail holds early powers, whose size
    is that of the columns, not of the decayed flow."""
    cfg = load_config(str(CONFIGS / "neutral3d.cfg"))
    Q = assemble(build_model(cfg), enumerate_space(3, 8))
    n = len(Q.space)
    monkeypatch.setattr(solver, "_propagators_pay", lambda *args: dense)
    times = np.arange(0.0, 2.0 + 1e-12, 0.25)
    block = np.random.default_rng(23).random((n, 2))
    generator = Q.matrix.toarray()
    for mat, oracle in ((Q.matrix_t, generator.T), (Q.matrix, generator)):
        exact = [sla.expm(t * oracle) for t in times]
        for columns in (block[:, :1], block):
            for i, _, acc in solver._grid_flow(mat, Q.lam, columns, times):
                want = (exact[i] @ columns).T
                assert np.abs(acc - want).max() <= 1e-12 * columns.max()


@pytest.mark.parametrize("name, n_max", [
    ("ref2d", 30), ("neutral3d", 15), ("logistic1d", None),
    ("catastrophe1d", None), ("multibirth1d", None)])
def test_blocked_solve_equals_the_plain_loops_on_the_configs(name, n_max):
    cfg = load_config(str(CONFIGS / f"{name}.cfg"))
    generator = assemble(build_model(cfg),
                         enumerate_space(cfg.r, n_max or cfg.truncation_n))
    fields, _ = reference_solve(generator, cfg.tol, cfg.max_iter)
    assert_same_solve(solve_qsd(generator, cfg.tol, cfg.max_iter), fields)


@pytest.mark.parametrize("model, r, n_max", [
    (logistic_1d(), 1, 2), (logistic_1d(), 1, 20), (reference_2d(), 2, 8),
    (strong_intra_2d(), 2, 8), (neutral(), 3, 6),
    (catastrophe_logistic_1d(), 1, 10), (multibirth_uniform_1d(), 1, 10),
    (mixed_dominance_2d(), 2, 8),
], ids=["two-state", "logistic1d", "ref2d", "strong-intra", "neutral3d",
        "catastrophe", "multibirth", "mixed-dominance"])
def test_blocked_solve_equals_the_plain_loops_at_a_tight_tolerance(model, r,
                                                                   n_max):
    generator = assemble(model, enumerate_space(r, n_max))
    fields, _ = reference_solve(generator, tol=1e-15)
    assert_same_solve(solve_qsd(generator, tol=1e-15), fields)


def test_blocked_solve_stops_on_the_first_and_the_last_row_of_a_block(
        monkeypatch):
    generator = assemble(neutral(), enumerate_space(3, 6))
    fields, forward = reference_solve(generator)
    adjoint = fields["iterations"] - forward
    assert forward != adjoint
    # a block of `steps - 1` rows stops on the first row of the second
    # block, one of `steps` rows on the last row of the first
    for rows in (forward - 1, forward, adjoint - 1, adjoint):
        monkeypatch.setattr(solver, "_BLOCK_ROWS", rows)
        assert_same_solve(solve_qsd(generator), fields)


@pytest.mark.parametrize("max_iter", [1, 2, 3, 7, 8, 9])
def test_exhausted_budget_reports_the_residual_of_the_plain_loops(
        monkeypatch, max_iter):
    monkeypatch.setattr(solver, "_BLOCK_ROWS", 8)
    model = Model.constant([1.0], [0.0], [[1.0]], 1.0)
    generator = assemble(model, enumerate_space(1, 25))
    got = outcome(solve_qsd, generator, max_iter)
    assert got[0] == "ConvergenceError" and got[1] == max_iter
    assert got == outcome(reference_fields, generator, max_iter)


def test_exhausted_adjoint_reports_the_residual_of_the_plain_loops(
        monkeypatch):
    generator = assemble(reference_2d(), enumerate_space(2, 8))
    fields, forward = reference_solve(generator)
    assert fields["iterations"] - forward > forward + 2
    for rows in (1, 2, 64):
        monkeypatch.setattr(solver, "_BLOCK_ROWS", rows)
        for max_iter in (forward, forward + 1, forward + 2):
            got = outcome(solve_qsd, generator, max_iter)
            assert got[0] == "ConvergenceError"
            assert got == outcome(reference_fields, generator, max_iter)


def spy_on_the_residuals(monkeypatch):
    """Runs both iterations here, where the spies see them, and counts each
    one's blocks, rows that pass the difference test and residual calls,
    keyed by its name."""
    monkeypatch.delattr(os, "fork")
    blocks, passing, calls = {}, {}, {}
    iterate, steps = solver._iterate, solver._steps

    def spy_iterate(mat, lam, start, norm, difference, residual, *rest):
        tol, what = rest[0], rest[-1]
        blocks[what] = passing[what] = calls[what] = 0

        def counted_difference(d):
            values = difference(d)
            passing[what] += int((values < tol).sum())
            return values

        def counted_residual(z, h, out):
            calls[what] += 1
            return residual(z, h, out)

        def counted_steps(*args):
            blocks[what] += 1
            return steps(*args)

        monkeypatch.setattr(solver, "_steps", counted_steps)
        return iterate(mat, lam, start, norm, counted_difference,
                       counted_residual, *rest)

    monkeypatch.setattr(solver, "_iterate", spy_iterate)
    return blocks, passing, calls


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("name, n_max", [("ref2d", 30), ("logistic1d", None)])
def test_the_residual_runs_at_most_once_per_block(name, n_max, rows,
                                                  monkeypatch):
    cfg = load_config(str(CONFIGS / f"{name}.cfg"))
    generator = assemble(build_model(cfg),
                         enumerate_space(cfg.r, n_max or cfg.truncation_n))
    fields, _ = reference_solve(generator, cfg.tol, cfg.max_iter)
    monkeypatch.setattr(solver, "_BLOCK_ROWS", rows)
    blocks, passing, calls = spy_on_the_residuals(monkeypatch)
    assert_same_solve(solve_qsd(generator, cfg.tol, cfg.max_iter), fields)
    assert set(calls) == {"forward iteration", "adjoint iteration"}
    for what in calls:
        # one call per block with a passing row, where there was one per
        # passing row: 35 to 65 times fewer at the shipped block size
        assert 1 <= calls[what] <= min(blocks[what], passing[what]), what
        if rows == 64:
            assert 10 * calls[what] < passing[what], what


@pytest.mark.parametrize("max_iter, what", [
    (100, "forward iteration"), (360, "forward iteration"),
    (370, "adjoint iteration")])
def test_a_budget_that_ends_mid_block_reports_the_last_residual(
        max_iter, what, monkeypatch):
    """64-row blocks: 100 steps end 36 rows into the second block, 360 and
    370 steps 40 and 50 rows into the sixth.  From step 348 on, the forward
    rows pass the difference test but not the residual, so the last block
    of 360 steps holds other rows that the residual reads; 370 steps pass
    the forward iteration's 368."""
    generator = assemble(reference_2d(), enumerate_space(2, 8))
    _, forward = reference_solve(generator)
    assert forward == 368
    monkeypatch.setattr(solver, "_BLOCK_ROWS", 64)
    blocks, _, calls = spy_on_the_residuals(monkeypatch)
    with pytest.raises(ConvergenceError, match=what) as info:
        solve_qsd(generator, max_iter=max_iter)
    assert blocks[what] == -(-max_iter // 64) and calls[what] <= blocks[what]
    want = outcome(reference_fields, generator, max_iter)
    assert ("ConvergenceError", info.value.iterations,
            info.value.residual) == want


# ---------------------------------------------------------------------------
# the forward iteration's child process
# ---------------------------------------------------------------------------


def assert_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def adjoint_budget():
    """A generator and a ``max_iter`` that the forward iteration meets and
    the adjoint one exhausts, as in the exhausted-adjoint test above."""
    generator = assemble(reference_2d(), enumerate_space(2, 8))
    _, forward = reference_solve(generator)
    return generator, forward + 1


def test_the_child_is_reaped_after_a_solve(forks):
    solve_qsd(assemble(reference_2d(), enumerate_space(2, 8)))
    assert_reaped(forks)


def test_the_child_is_reaped_when_the_forward_budget_runs_out(forks):
    generator = assemble(Model.constant([1.0], [0.0], [[1.0]], 1.0),
                         enumerate_space(1, 25))
    with pytest.raises(ConvergenceError, match="forward iteration"):
        solve_qsd(generator, max_iter=3)
    assert_reaped(forks)


def test_the_child_is_reaped_when_the_adjoint_budget_runs_out(forks):
    generator, max_iter = adjoint_budget()
    with pytest.raises(ConvergenceError, match="adjoint iteration"):
        solve_qsd(generator, max_iter=max_iter)
    assert_reaped(forks)


def test_a_forward_error_wins_over_an_adjoint_error(forks, monkeypatch):
    iterate = solver._iterate

    def failing(*args):
        if args[-1] == "adjoint iteration":
            raise ArithmeticError("adjoint")
        return iterate(*args)

    monkeypatch.setattr(solver, "_iterate", failing)
    generator = assemble(Model.constant([1.0], [0.0], [[1.0]], 1.0),
                         enumerate_space(1, 25))
    with pytest.raises(ConvergenceError, match="forward iteration"):
        solve_qsd(generator, max_iter=3)
    assert_reaped(forks)
    with pytest.raises(ArithmeticError, match="adjoint"):
        solve_qsd(generator)
    assert len(forks) == 2


def test_an_interrupt_kills_the_child_instead_of_waiting(forks, monkeypatch):
    iterate = solver._iterate

    def slow_forward(*args):
        if args[-1] == "adjoint iteration":
            raise KeyboardInterrupt
        time.sleep(60)
        return iterate(*args)

    monkeypatch.setattr(solver, "_iterate", slow_forward)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        solve_qsd(assemble(reference_2d(), enumerate_space(2, 8)))
    assert time.monotonic() - start < 30
    assert_reaped(forks)


@pytest.fixture
def interrupt_in(monkeypatch):
    """Sends a ``KeyboardInterrupt`` into whatever runs ``seconds`` from
    now, as Ctrl+C would, for one solve whose forward child sleeps for a
    minute first and whose adjoint iteration raises ``adjoint_error``
    (or runs as usual)."""
    iterate = solver._iterate

    def interrupt(*_):
        raise KeyboardInterrupt

    def arm(seconds, adjoint_error=None):
        def slow_forward(*args):
            if args[-1] == "forward iteration":
                time.sleep(60)
            elif adjoint_error is not None:
                raise adjoint_error
            return iterate(*args)

        monkeypatch.setattr(solver, "_iterate", slow_forward)
        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        return previous

    yield arm
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


@pytest.mark.parametrize("adjoint_error", [None, ArithmeticError("adjoint")],
                         ids=["at-the-residual", "after-an-adjoint-error"])
def test_an_interrupt_during_the_wait_kills_and_reaps_the_child(
        forks, interrupt_in, adjoint_error):
    interrupt_in(0.5, adjoint_error)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        solve_qsd(assemble(reference_2d(), enumerate_space(2, 8)))
    assert time.monotonic() - start < 30
    assert_reaped(forks)


def test_an_interrupt_while_reaping_still_reaps_the_child(forks,
                                                          monkeypatch):
    waitpid = os.waitpid
    calls = []

    def interrupted_once(pid, options):
        calls.append(pid)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", interrupted_once)
    with pytest.raises(KeyboardInterrupt):
        solve_qsd(assemble(reference_2d(), enumerate_space(2, 8)))
    assert calls == forks * 2
    assert_reaped(forks)


def test_a_child_that_dies_without_a_result_is_an_error(forks, monkeypatch):
    iterate = solver._iterate

    def dying_forward(*args):
        if args[-1] == "forward iteration":
            os._exit(3)  # as a child killed before it could write
        return iterate(*args)

    monkeypatch.setattr(solver, "_iterate", dying_forward)
    with pytest.raises(RuntimeError, match="ended without a result"):
        solve_qsd(assemble(reference_2d(), enumerate_space(2, 8)))
    assert_reaped(forks)


class _TwoArgError(Exception):
    """Pickles, but does not unpickle: its ``args`` hold one of two."""

    def __init__(self, what, code):
        super().__init__(f"{what} ({code})")


def test_an_outcome_that_cannot_make_the_trip_is_computed_here(forks):
    """A function-local class does not pickle in the child and a
    ``_TwoArgError`` does not unpickle here: either way ``work()`` runs
    again here and gives the child's value or error."""

    class Local(Exception):
        pass

    class Value:
        pass

    def failing(error):
        def work():
            runs.append(os.getpid())
            raise error
        return work

    def valued():
        runs.append(os.getpid())
        return Value()

    runs = []
    for work, want in ((failing(Local("local")), Local),
                       (failing(_TwoArgError("two", 2)), _TwoArgError)):
        with pytest.raises(want, match="local|two \\(2\\)"):
            solver._Forked(work).result()
    assert isinstance(solver._Forked(valued).result(), Value)
    assert runs == [os.getpid()] * 3
    assert len(forks) == 3
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def refuse_to_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("fork", [None, refuse_to_fork],
                         ids=["missing", "refused"])
def test_without_fork_the_solve_runs_here_with_the_same_bits(monkeypatch,
                                                              fork):
    cases = [assemble(logistic_1d(), enumerate_space(1, 20)),
             assemble(reference_2d(), enumerate_space(2, 8)),
             assemble(neutral(), enumerate_space(3, 6))]
    generator, max_iter = adjoint_budget()
    forked = [solve_qsd(Q) for Q in cases]
    exhausted = [outcome(solve_qsd, generator, max_iter),
                 outcome(solve_qsd, cases[0], 3)]
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    for Q, want in zip(cases, forked):
        got = solve_qsd(Q)
        for name in ("law", "survival_profile"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert (got.decay_rate, got.iterations) == (want.decay_rate,
                                                    want.iterations)
    assert [outcome(solve_qsd, generator, max_iter),
            outcome(solve_qsd, cases[0], 3)] == exhausted


# ---------------------------------------------------------------------------
# law-only solves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", [
    (logistic_1d(), 1, 20), (reference_2d(), 2, 8), (neutral(), 3, 6),
    (catastrophe_logistic_1d(), 1, 15)], ids=["logistic", "ref2d", "neutral",
                                              "catastrophe"])
def test_law_only_solve_keeps_the_law_side_bits_without_a_fork(forks, case):
    """``profile=False`` runs the forward iteration here: the law, decay
    rate and law residual have the bits of the full solve, ``iterations``
    counts the forward steps, and the profile fields are ``None``."""
    model, r, n_max = case
    Q = assemble(model, enumerate_space(r, n_max))
    law_only = solve_qsd(Q, profile=False)
    assert forks == []
    full = solve_qsd(Q)
    assert len(forks) == 1
    assert law_only.law.tobytes() == full.law.tobytes()
    assert (law_only.decay_rate, law_only.law_residual) == (
        full.decay_rate, full.law_residual)
    assert law_only.iterations == reference_solve(Q)[1] < full.iterations
    assert (law_only.survival_profile, law_only.profile_residual,
            law_only.decay_bracket) == (None, None, None)
    assert law_only.edge_mass == full.edge_mass


def test_law_only_solve_reports_an_exhausted_budget_as_a_full_solve_does(
        forks):
    Q = assemble(logistic_1d(), enumerate_space(1, 20))
    want = outcome(solve_qsd, Q, 3)
    law_only = partial(solve_qsd, profile=False)
    assert outcome(law_only, Q, 3) == want
    assert len(forks) == 1


def test_qprocess_generator_refuses_a_law_only_solve():
    model = logistic_1d()
    Q = assemble(model, enumerate_space(1, 20))
    with pytest.raises(DomainError, match="needs the survival profile"):
        qprocess_generator(model, solve_qsd(Q, profile=False))


# ---------------------------------------------------------------------------
# semigroup action
# ---------------------------------------------------------------------------


def test_evolution_matches_dense_expm():
    """Forward and backward, a vector and a 2-column block: each column
    within 1e-12 of the dense exponential in L1."""
    generator = assemble(logistic_1d(), enumerate_space(1, 25))
    dense = generator.matrix.toarray()
    rng = np.random.default_rng(5)
    mu0 = rng.random(25)
    mu0 /= mu0.sum()
    f = rng.random(25)
    block = rng.random((25, 2))
    block /= block.sum(axis=0)
    for t in (0.3, 1.0, 2.7):
        exact = sla.expm(t * dense)
        for flow, start, expected in (
                (evolve_measure, mu0, mu0 @ exact),
                (evolve_function, f, exact @ f),
                (evolve_measure, block, exact.T @ block),
                (evolve_function, block, exact @ block)):
            got = flow(generator, start, t)
            assert got.shape == start.shape
            assert np.abs(got - expected).sum(axis=0).max() < 1e-12


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
def logistic50():
    return assemble(logistic_1d(), enumerate_space(1, 50))


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


@pytest.mark.parametrize("flow", [evolve_measure, evolve_function])
def test_flow_to_time_zero_is_an_equal_fresh_array(ref2d_30, flow):
    rng = np.random.default_rng(13)
    n = len(ref2d_30.space)
    for start in (rng.random(n), rng.random((n, 2))):
        out = flow(ref2d_30, start, 0.0)
        assert np.array_equal(out, start)
        assert not np.shares_memory(out, start)


def test_poisson_weights_match_the_poisson_pmf():
    """The weights are the Poisson pmf on a window that drops at most
    ``POISSON_TAIL / 2`` from each end.  scipy's pmf sums
    ``-m + k log m - log k!`` in floating point, so its own relative error
    grows like ``m * eps``; the tolerance allows for that."""
    eps = np.finfo(float).eps
    tail = 0.5 * solver.POISSON_TAIL
    for mean in np.concatenate([np.geomspace(1e-3, 2e5, 160),
                                [1599.5, 1600.0, 1600.5, 14576.0, 3.5e5]]):
        first, weights = solver._poisson_weights(mean, 1.0)
        last = first + len(weights) - 1
        want = poisson.pmf(np.arange(first, last + 1), mean)
        assert np.allclose(weights, want, rtol=1e-13 + 32.0 * mean * eps,
                           atol=0.0)
        assert poisson.cdf(first - 1, mean) <= 1.001 * tail
        assert poisson.sf(last, mean) <= 1.001 * tail
        # and the window is no wider than that rule needs
        assert poisson.cdf(first, mean) > 0.999 * tail
        assert poisson.sf(last - 1, mean) > 0.999 * tail


def one_window(lam, t, tail):
    """The Fox--Glynn window of one time as it was computed alone, one
    window per call: the oracle of the grid pass."""
    mean = lam * t
    k_hi = math.ceil(mean + 10.0 * math.sqrt(mean) + 30.0)
    mode = math.floor(mean)
    k_lo = max(0, math.floor(mean - 10.0 * math.sqrt(mean) - 30.0))
    m = mode - k_lo
    weights = np.empty(k_hi - k_lo + 1)
    weights[m] = 1.0
    np.cumprod(mean / np.arange(mode + 1, k_hi + 1), out=weights[m + 1:])
    if m:
        np.cumprod(np.arange(mode, k_lo, -1) / mean, out=weights[m - 1::-1])
    cut = 0.5 * tail * weights.sum()
    first = int(np.searchsorted(np.cumsum(weights[:m]), cut, side="right"))
    above = np.cumsum(weights[:m:-1])[::-1]
    last = m + int(np.argmax(above <= cut))
    window = weights[first:last + 1]
    return k_lo + first, window / window.sum()


_MEANS = np.unique(np.concatenate([
    [0.0, 0.5, 1.0, 1.5, 29.5, 30.0, 1599.5, 1600.0, 1600.5, 14576.0],
    np.geomspace(1e-3, 1e6, 400)]))


@pytest.mark.parametrize("lam, times", [
    (1.0, _MEANS), (797.3, np.arange(0.0, 5.0 + 1e-12, 0.01)),
    (2678.0, np.array([0.01, 0.01 + 1e-17, 0.02, 0.05]))],
    ids=["means", "check-grid", "steps"])
@pytest.mark.parametrize("moves", [1, 500])
@pytest.mark.parametrize("grid_bytes", [None, 8])
def test_grid_windows_have_the_bits_of_one_window_each(lam, times, moves,
                                                       grid_bytes,
                                                       monkeypatch):
    """Every window of the vectorised pass is the window of its time
    alone, bit for bit, at the tail of a sequence (``moves = 1``) and of
    propagators over 500 steps, from chunks of the default size and from
    chunks of one time each."""
    if grid_bytes is not None:
        monkeypatch.setattr(solver, "_GRID_BYTES", grid_bytes)
    tail = solver.POISSON_TAIL / moves
    firsts, lengths, weights = solver._poisson_windows(lam, times, tail)
    assert len(weights) == lengths.sum()
    ends = np.cumsum(lengths)
    for t, first, end, length in zip(times, firsts, ends, lengths):
        want_first, want = one_window(lam, t, tail)
        assert first == want_first
        assert weights[end - length:end].tobytes() == want.tobytes()


@pytest.mark.parametrize("t", [1e6, 1e300])
def test_over_long_flow_is_refused_before_it_allocates(ref2d_30, t):
    """A window of ``lam t`` = 10^8 or 10^302 products would take a table of
    gigabytes, or more entries than an array may hold."""
    f = np.ones(len(ref2d_30.space))
    for call in (lambda: evolve_function(ref2d_30, f, t),
                 lambda: evolve_measure(ref2d_30, f, t),
                 lambda: conditional_moments(ref2d_30, f / f.sum(), [t],
                                             f[:, None])):
        with pytest.raises(NumericalError,
                           match=re.escape(f"to t = {t!r} ") + ".* past the cap"):
            call()


def test_window_cap_admits_exactly_its_own_length(ref2d_30, monkeypatch):
    f = np.ones(len(ref2d_30.space))
    want = evolve_function(ref2d_30, f, 0.8)
    k_hi = solver._window_end(ref2d_30.lam * 0.8)
    monkeypatch.setattr(solver, "MAX_WINDOW", k_hi)
    assert evolve_function(ref2d_30, f, 0.8).tobytes() == want.tobytes()
    monkeypatch.setattr(solver, "MAX_WINDOW", k_hi - 1)
    with pytest.raises(NumericalError):
        evolve_function(ref2d_30, f, 0.8)


@pytest.mark.parametrize("name, per_row", [("ref2d_30", lambda n: n),
                                           ("logistic50", lambda n: n * n)],
                         ids=["sequence", "propagators"])
def test_blocks_of_the_fewest_powers_flow_as_the_default_blocks(
        name, per_row, request, monkeypatch):
    """Where one power fills ``_GRID_BYTES`` (a sequence on a space past
    131,072 states, propagators past 362), the one power of a block steps
    from the last of the block before, not from itself."""
    Q = request.getfixturevalue(name)
    n = len(Q.space)
    mu0 = np.full(n, 1.0 / n)
    times = np.linspace(0.1, 2.0, 20)
    want = conditional_path(Q, mu0, times)
    monkeypatch.setattr(solver, "_GRID_BYTES", 8 * per_row(n))
    got = conditional_path(Q, mu0, times)
    for a, b in zip(got, want):
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)


def test_forward_products_have_the_bits_of_the_row_vector_path(ref2d_30):
    nu = np.random.default_rng(12).random(len(ref2d_30.space))
    assert np.array_equal(ref2d_30.matrix_t @ nu, nu @ ref2d_30.matrix)


@pytest.mark.parametrize("name, starts", [
    ("ref2d_30", [(1, 1), (6, 4)]),
    ("logistic50", [(1,), (25,)]),
], ids=["sequence", "propagators"])
def test_block_conditional_path_equals_its_columns_bit_for_bit(
        name, starts, request, delta_start):
    generator = request.getfixturevalue(name)
    block = np.column_stack([delta_start(generator.space, start)
                             for start in starts])
    times = np.linspace(0.1, 2.0, 20)
    assert solver._propagators_pay(generator.matrix_t, generator.lam,
                                   times) == (name == "logistic50")
    laws, survivals = conditional_path(generator, block, times)
    assert laws.shape == (len(times),) + block.shape
    assert survivals.shape == (len(times), 2)
    for j in range(block.shape[1]):
        laws_j, survivals_j = conditional_path(generator, block[:, j], times)
        assert np.array_equal(laws[:, :, j], laws_j)
        assert np.array_equal(survivals[:, j], survivals_j)


def test_semigroup_rejects_misshapen_blocks(two_state):
    *_, generator = two_state
    for bad in (np.ones(3), np.ones((3, 2)), np.ones((2, 2, 1))):
        with pytest.raises(DomainError):
            evolve_measure(generator, bad, 1.0)
        with pytest.raises(DomainError):
            evolve_function(generator, bad, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_semigroup_rejects_times_outside_zero_to_infinity(two_state, t):
    *_, generator = two_state
    with pytest.raises(DomainError, match=r"^t must be a finite number >= 0"):
        evolve_measure(generator, np.array([1.0, 0.0]), t)
    with pytest.raises(DomainError, match=r"^t must be a finite number >= 0"):
        evolve_function(generator, np.ones(2), t)
    with pytest.raises(DomainError):
        conditional_path(generator, np.array([1.0, 0.0]), [0.5, t])
    with pytest.raises(DomainError):
        conditional_moments(generator, np.array([1.0, 0.0]), [0.5, t],
                            np.ones((2, 1)))


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


def test_transient_conditional_rejects_nan_in_mu0():
    generator = assemble(logistic_1d(), enumerate_space(1, 10))
    mu0 = generator.space.point_mass((3,))
    mu0[5] = np.nan
    with pytest.raises(DomainError):
        transient_conditional(generator, mu0, 1.0)


# ---------------------------------------------------------------------------
# conditional moments: every grid time from one sequence of powers
# ---------------------------------------------------------------------------


class _CountingKernel:
    """Counts the solver's sparse products: one per call of a CSR product
    that :func:`solver._matvec` binds, which every kernel makes its
    products by."""

    def __init__(self, monkeypatch):
        self.products = 0
        matvec = solver._matvec

        def counted_matvec(mat, width):
            product = matvec(mat, width)

            def counted(x, out):
                self.products += 1
                product(x, out)

            return counted

        monkeypatch.setattr(solver, "_matvec", counted_matvec)


@pytest.mark.parametrize("model, r, n_max, start", [
    (reference_2d(), 2, 30, (1, 1)),
    (logistic_1d(), 1, 50, (1,)),
], ids=["ref2d", "logistic1d"])
def test_moments_equal_the_contracted_conditional_path(
        model, r, n_max, start, delta_start, monkeypatch, built_propagators):
    generator = assemble(model, enumerate_space(r, n_max))
    mu0 = delta_start(generator.space, start)
    F = np.random.default_rng(13).normal(size=(len(mu0), 3))
    times = np.arange(0.0, 5.0 + 1e-12, 0.01)
    laws, survivals = conditional_path(generator, mu0, times)
    expected = laws @ F
    counting = _CountingKernel(monkeypatch)
    means, mass, products = conditional_moments(generator, mu0, times, F)
    assert means.shape == expected.shape and mass.shape == times.shape
    scale = np.abs(expected).max(axis=0)
    assert (np.abs(means - expected).max(axis=0) <= 1e-12 * scale).all()
    assert np.array_equal(means[0], mu0 @ F) and mass[0] == 1.0
    assert np.allclose(mass, survivals, rtol=1e-9, atol=0.0)
    # the stiff chain takes the propagators, the 465-state space the sequence
    assert bool(built_propagators) == (r == 1)
    # one sparse product per power beyond the zeroth, up to the largest
    # window end; propagators add one dense product per nonzero step
    steps = np.count_nonzero(np.diff(times, prepend=0.0))
    dense = steps if built_propagators else 0
    assert counting.products + dense == products
    lam_t = generator.lam * times[-1]
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
# grid flows by dense propagators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("times", [
    np.arange(0.0, 2.0 + 1e-12, 0.01),
    np.arange(0.05, 2.0 + 1e-12, 0.05),
], ids=["from-zero", "from-one-step"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_propagated_flows_match_expm_at_every_grid_time(logistic50, times,
                                                         direction,
                                                         built_propagators):
    """Forward and backward, 1 and 2 columns, with and without ``read``, on
    ``np.arange`` grids whose steps differ by an ulp: the laws agree with
    the dense exponential within 1e-13 in L1, and the means read through
    ``read`` within 1e-13 of the largest entry of ``F``."""
    Q = logistic50
    n = len(Q.space)
    assert len(np.unique(np.diff(times))) > 1
    rng = np.random.default_rng(21)
    block = rng.random((n, 2))
    F = rng.normal(size=(n, 3))
    read = np.column_stack((np.ones(n), F))
    generator = Q.matrix.toarray()
    if direction == "forward":
        mat, generator = Q.matrix_t, generator.T
    else:
        mat = Q.matrix
    exact = [sla.expm(t * generator) for t in times]
    for columns in (block[:, :1], block):
        for i, _, acc in solver._grid_flow(mat, Q.lam, columns, times):
            want = (exact[i] @ columns).T
            gap = acc / acc.sum(axis=1)[:, None] - want / want.sum(axis=1)[:, None]
            assert np.abs(gap).sum(axis=1).max() < 1e-13
        for i, _, acc in solver._grid_flow(mat, Q.lam, columns, times, read):
            want = (exact[i] @ columns).T @ read
            gap = acc[:, 1:] / acc[:, :1] - want[:, 1:] / want[:, :1]
            assert np.abs(gap).sum(axis=1).max() < 1e-13 * np.abs(F).max()
    assert len(built_propagators) == 4


@pytest.mark.parametrize("name, n_max", [("logistic1d", 50), ("neutral3d", 8)])
def test_identity_item_flows_every_column_at_once(name, n_max):
    """The flattened identity is one wide item: its ``(n, n)`` block of
    powers steps by one sparse product of width ``n``, and its flow to each
    step is the dense propagator.  Column ``j`` of it matches the flow of
    ``e_j`` alone within 1e-14 of that flow's largest entry (one dense
    product spans all ``n^2`` entries, so the bits may differ), and the
    last ``end`` is the longest window end."""
    cfg = load_config(str(CONFIGS / f"{name}.cfg"))
    Q = assemble(build_model(cfg), enumerate_space(cfg.r, n_max))
    n = len(Q.space)
    steps = np.array([0.01, 0.05, 0.25, 1.0])
    tail = solver.POISSON_TAIL / len(steps)
    windows = [solver._poisson_weights(Q.lam, dt, tail) for dt in steps]
    longest = max(first + len(w) - 1 for first, w in windows)
    for mat in (Q.matrix_t, Q.matrix):
        kernel = solver._uniformized(mat, Q.lam)
        dense = []
        for i, end, acc in solver._sequence_flow(
                kernel, Q.lam, np.eye(n).reshape(-1, 1), steps, None, tail):
            dense.append(acc[0].reshape(n, n).copy())
        assert len(dense) == len(steps) and end == longest
        for j in range(n):
            for i, _, acc in solver._sequence_flow(
                    kernel, Q.lam, np.eye(n)[:, j:j + 1], steps, None, tail):
                gap = np.abs(dense[i][:, j] - acc[0]).max()
                assert gap <= 1e-14 * np.abs(acc[0]).max()


_TABLE_GRID = np.arange(0.05, 4.0 + 1e-12, 0.05)


@pytest.mark.parametrize("model, r, n_max, times, dense", [
    (logistic_1d(), 1, 50, _TABLE_GRID, True),
    (logistic_1d(), 1, 50, [4.0], False),
    (reference_2d(), 2, 12, _TABLE_GRID, True),
    (reference_2d(), 2, 12, [4.0], False),
    (reference_2d(), 2, 18, _TABLE_GRID, False),
    (reference_2d(), 2, 18, [4.0], False),
    (reference_2d(), 2, 25, _TABLE_GRID, False),
    (reference_2d(), 2, 25, [4.0], False),
], ids=["logistic50-grid", "logistic50-one", "ref2d12-grid", "ref2d12-one",
        "ref2d18-grid", "ref2d18-one", "ref2d25-grid", "ref2d25-one"])
def test_grid_flows_take_the_cheaper_way(model, r, n_max, times, dense):
    """The measured crossover: propagators win only where ``lam`` times the
    step is large against the number of states."""
    Q = assemble(model, enumerate_space(r, n_max))
    times = np.asarray(times, dtype=float)
    for mat in (Q.matrix_t, Q.matrix):
        assert solver._propagators_pay(mat, Q.lam, times) == dense


@pytest.mark.parametrize("t", [1e-3, 0.05, 4.0, 50.0])
def test_one_time_grid_never_builds_a_propagator(logistic50, two_state, t,
                                                 built_propagators):
    *_, small = two_state
    for Q in (logistic50, small):
        n = len(Q.space)
        block = np.full((n, 2), 1.0 / n)
        conditional_path(Q, block, [t])
        transient_conditional(Q, block[:, 0], t)
    assert built_propagators == []


def test_window_cap_refuses_a_propagated_grid_before_it_builds(
        logistic50, monkeypatch, built_propagators):
    """Propagators never make ``lam * times[-1]`` products, but they refuse
    the grids the sequence refuses: the last window decides, whichever way
    the grid would take."""
    Q = logistic50
    times = np.arange(0.0, 5.0 + 1e-12, 0.01)
    assert solver._propagators_pay(Q.matrix_t, Q.lam, times)
    mu0 = Q.space.point_mass((1,))
    F = np.ones((len(mu0), 1))
    k_hi = solver._window_end(Q.lam * times[-1])
    monkeypatch.setattr(solver, "MAX_WINDOW", k_hi - 1)
    with pytest.raises(NumericalError, match="past the cap"):
        conditional_moments(Q, mu0, times, F)
    with pytest.raises(NumericalError, match="past the cap"):
        conditional_path(Q, mu0, times)
    assert built_propagators == []
    monkeypatch.setattr(solver, "MAX_WINDOW", k_hi)
    _, _, products = conditional_moments(Q, mu0, times, F)
    assert built_propagators and products < k_hi


# ---------------------------------------------------------------------------
# conditioned-process generator
# ---------------------------------------------------------------------------


def test_qprocess_rows_vanish_and_match_hand_rates(two_state):
    model, _, generator = two_state
    result = solve_qsd(generator, tol=1e-15)
    transformed = qprocess_generator(model, result)
    dense = (transformed.toarray() if sps.issparse(transformed)
             else np.asarray(transformed))
    assert np.abs(dense.sum(axis=1)).max() < 1e-12
    # off-diagonals are original rates tilted by the profile ratio
    h = result.survival_profile
    assert dense[0, 1] == pytest.approx(1.0 * h[1] / h[0], rel=1e-12)
    assert dense[1, 0] == pytest.approx(4.0 * h[0] / h[1], rel=1e-12)


@pytest.mark.parametrize("name", ["ref2d", "neutral3d", "logistic1d",
                                  "catastrophe1d", "multibirth1d", "litter2d"])
def test_qprocess_generator_is_the_simulated_chains(name):
    """Each off-diagonal entry is the per-target sum of the rates that the
    q-process simulator draws from, and the diagonal is minus their total."""
    if name == "litter2d":
        # one target is reached by a birth of either parent type
        model = Model.constant(b=(1.0, 1.5), d=(0.1, 0.0),
                               c=((0.3, 0.05), (0.05, 0.4)), gamma=1.0,
                               litter={(1, 0): 0.5, (0, 2): 0.3, (1, 1): 0.2})
        space, tol = enumerate_space(2, 20), 1e-12
    else:
        cfg = load_config(str(CONFIGS / f"{name}.cfg"))
        model = build_model(cfg)
        space, tol = enumerate_space(cfg.r, cfg.truncation_n), cfg.tol
    result = solve_qsd(assemble(model, space), tol)
    G = qprocess_generator(model, result)
    table = solver._qprocess_table(model, result)
    shared = 0
    for i in range(len(space.states)):
        targets, rates, total = table.row(i)
        parts = {}
        for target, rate in zip(targets, rates):
            parts.setdefault(space.index[target], []).append(rate)
        lo, hi = G.indptr[i], G.indptr[i + 1]
        row = dict(zip(G.indices[lo:hi].tolist(), G.data[lo:hi].tolist()))
        assert row.pop(i) == -total
        assert row.keys() == parts.keys()
        for j, rates_j in parts.items():
            if len(rates_j) == 1:
                assert row[j] == rates_j[0]
            else:
                shared += 1
                exact = math.fsum(rates_j)
                assert abs(row[j] - exact) <= 1e-15 * abs(exact)
    assert (shared > 0) == (name == "litter2d")
    row_sums = np.asarray(G.sum(axis=1)).ravel()
    assert (np.abs(row_sums) <= 1e-14 * np.abs(G.diagonal())).all()


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
