"""Truncated-space solver for quasi-stationary behaviour.

The absorbed chain is restricted to the finite simplex of interior states
``{n in N^r : |n| <= N}``; every jump leaving that simplex -- a death onto the
boundary, a catastrophe, or a birth past the truncation -- is treated as a
kill.  The resulting sub-generator ``Q`` has strictly negative row sums
exactly on the flagged edge states, and three quantities describe the
conditioned dynamics:

* ``law``: the quasi-stationary distribution (left Perron vector of ``Q``),
* ``decay_rate``: the asymptotic extinction rate, recovered from the
  mass-loss identity ``decay_rate = -(law Q) . 1`` rather than a Rayleigh
  quotient,
* ``survival_profile``: the right Perron vector, scaled so that its mean
  under ``law`` is one; entry ``x`` is the limit of the survival probability
  from ``x`` rescaled by ``exp(decay_rate * t)``.

Everything is computed with the uniformized kernel ``P = I + Q/Lambda``:
power iteration for the eigenpairs, Poisson-weighted sums of powers for
``exp(tQ)``.  ``P`` has nonnegative entries by construction, which keeps all
transient quantities nonnegative.  Every action of ``exp(tQ)``, forward or
backward, runs through one kernel, :func:`_grid_flow`; a flow to one time
is a grid of one time.  A grid flows along one power sequence read at every
grid time or, where that costs more, along dense propagators ``exp(dt Q)``,
one per distinct grid step, which are the power-sequence flow of the
identity: every Poisson sum of powers is made by :func:`_sequence_flow`.
Neither way makes survival nonincreasing in floating point: the mass of
``mu P^k`` can rise by an ulp in a step, and so can that of a dense step.
Along a time grid, survival gives up ``POISSON_TAIL`` per grid time, the
most that the discarded Poisson tails could take, and that margin keeps it
decreasing (see :func:`conditional_path`).
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import signal
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .errors import (ConditioningImpossibleError, ConvergenceError, DomainError,
                     EmptySpaceError, NumericalError, ReducibleSpaceError,
                     ValidationError)
from .model import Model, MoveTable

#: Poisson tail mass discarded when summing the uniformized series.
POISSON_TAIL = 1e-14

#: Conditioning on survival is refused below this survival mass.
SURVIVAL_FLOOR = 1e-300

#: Longest Poisson window a flow may sum: one product and one weight per
#: index, so a window past this is refused before it allocates.
MAX_WINDOW = 10 ** 7

#: Most states a truncated space may hold: enumeration keeps a tuple and an
#: index entry per state, about 150 bytes each, so a truncation past this
#: is refused before it enumerates.
MAX_STATES = 10 ** 7


@dataclass(frozen=True, eq=False)
class TruncatedSpace:
    """Lexicographically enumerated interior simplex ``{n : |n| <= N}``."""

    r: int
    N: int
    states: tuple
    index: dict = field(repr=False)

    def __len__(self):
        return len(self.states)

    def point_mass(self, n) -> np.ndarray:
        if n not in self.index:
            raise DomainError(f"state {n} is not in the truncated space (N = {self.N})")
        out = np.zeros(len(self.states))
        out[self.index[n]] = 1.0
        return out

    def locate(self, states: np.ndarray) -> np.ndarray:
        """The index of each state of an int array of shape ``(..., r)``,
        or -1 for a state outside the space.

        An index counts the states before it in lexicographic order: those
        that first differ from ``n`` at coordinate ``i``, and are smaller
        there, number ``C(M, r - i) - C(M - n_i + 1, r - i)``, where ``M``
        is ``N`` less the coordinates before ``i``.
        """
        r, binomials = self.r, self._binomials
        inside = (states >= 1).all(axis=-1) & (states.sum(axis=-1) <= self.N)
        left = np.full(inside.shape, self.N)
        index = np.zeros(inside.shape, dtype=np.int64)
        for i in range(r):
            n_i = np.where(inside, states[..., i], 1)
            index += (binomials[left, r - i]
                      - binomials[left - n_i + 1, r - i])
            left -= n_i
        return np.where(inside, index, -1)

    @cached_property
    def _binomials(self) -> np.ndarray:
        """``C(M, k)`` for ``M <= N`` and ``k <= r``, where ``M - k <= N -
        r``: the entries :meth:`locate` reads, none above ``len(self)``."""
        r, N = self.r, self.N
        return np.array([[math.comb(M, k) if M - k <= N - r else 0
                          for k in range(r + 1)] for M in range(N + 1)],
                        dtype=np.int64)


def enumerate_space(r: int, N: int) -> TruncatedSpace:
    """Enumerate interior states with total size at most ``N``, lexicographically."""
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if N < r:
        raise EmptySpaceError(
            f"truncation N = {N} leaves no interior state for r = {r}")
    count = math.comb(N, r)  # the compositions of at most N into r parts
    if count > MAX_STATES:
        raise DomainError(
            f"truncation N = {N} gives {count} states for r = {r}, past the "
            f"cap of {MAX_STATES}")
    states = tuple(_lex_states(r, N))
    index = {n: i for i, n in enumerate(states)}
    return TruncatedSpace(r=r, N=N, states=states, index=index)


def _lex_states(r, N):
    if r == 1:
        for i in range(1, N + 1):
            yield (i,)
        return
    for first in range(1, N - (r - 1) + 1):
        for rest in _lex_states(r - 1, N - first):
            yield (first,) + rest


@dataclass(frozen=True, eq=False)
class SubGenerator:
    """Killed generator on a truncated space, with its uniformization constant.

    Immutable and safe to share between threads; the matrix is CSR and must
    not be modified in place.  ``matrix_t`` is the cached CSR transpose, and
    every forward product ``nu Q`` is computed as ``matrix_t nu``: in
    :func:`solve_qsd` and in every forward flow of :func:`_grid_flow`, the
    one semigroup kernel.  It gives the same bits as ``nu @ matrix`` at a
    fraction of the cost, because scipy's row-vector path rebuilds the
    transpose on every product.  The power iteration's products, forward and
    backward, run through :func:`_steps` or :func:`_product`, which have the
    bits of ``matrix_t @ nu`` without scipy's per-call dispatch.  A flow
    builds the kernel ``I + matrix/lam`` (or that of ``matrix_t``) for its
    own duration, with the same sparsity pattern (:func:`_uniformized`), and
    makes one product of it per power (:func:`_stack_powers`); neither
    matrix is changed.
    """

    space: TruncatedSpace
    matrix: sparse.csr_matrix
    lam: float

    @cached_property
    def matrix_t(self):
        return self.matrix.T.tocsr()


def assemble(model: Model, space: TruncatedSpace) -> SubGenerator:
    """Build the killed sub-generator of ``model`` on ``space``.

    Off-diagonal entries are jump rates between interior states of the space;
    every rate leaving the space appears only through the diagonal, which is
    minus the total outflow.  Assembly order is the enumeration order, so
    identical inputs give bit-identical matrices.
    """
    if model.r != space.r:
        raise DomainError(f"model has r = {model.r} but space has r = {space.r}")
    matrix, diag = _csr(space, model.move_table(space.states))
    lam = 1.05 * float(np.abs(diag).max())
    if not (lam > 0 and math.isfinite(lam)):
        raise NumericalError(f"degenerate uniformization constant {lam}")
    return SubGenerator(space=space, matrix=matrix, lam=lam)


def _csr(space: TruncatedSpace, moves: MoveTable):
    """The CSR matrix of ``moves``, the moves out of ``space.states``, and
    its diagonal ``-total``: rates to targets outside the space appear only
    there, and rates to one target are summed."""
    n_states = len(space.states)
    cols = space.locate(moves.targets)
    inside = moves.keep & (cols >= 0)
    diag = -moves.total
    every = np.arange(n_states)
    matrix = sparse.coo_matrix(
        (np.concatenate((moves.rates[inside], diag)),
         (np.concatenate((np.nonzero(inside)[0], every)),
          np.concatenate((cols[inside], every)))),
        shape=(n_states, n_states)).tocsr()
    matrix.sum_duplicates()
    return matrix, diag


@dataclass(frozen=True, eq=False)
class QsdResult:
    """Converged spectral data of a killed sub-generator."""

    law: np.ndarray
    decay_rate: float
    survival_profile: np.ndarray | None  # None for a law-only solve
    law_residual: float      # L1 norm of law Q + decay_rate * law
    profile_residual: float | None  # sup norm of Q profile + decay_rate * profile
    iterations: int
    tol: float
    space: TruncatedSpace
    decay_bracket: tuple | None  # Collatz--Wielandt enclosure (lo, hi) of decay_rate

    @property
    def edge_mass(self) -> float:
        """Mass of ``law`` on the truncation edge ``|n| = N``."""
        edge = [sum(state) == self.space.N for state in self.space.states]
        return float(self.law[edge].sum())


def _profile_of(qsd: QsdResult, reader: str) -> np.ndarray:
    """The survival profile of ``qsd``, or :class:`DomainError` naming
    ``reader`` when ``qsd`` comes from a law-only solve."""
    if qsd.survival_profile is None:
        raise DomainError(
            f"{reader} needs the survival profile, which a law-only solve "
            f"(solve_qsd(..., profile=False)) leaves out")
    return qsd.survival_profile


def solve_qsd(Q: SubGenerator, tol: float = 1e-12, max_iter: int = 10 ** 6,
              profile: bool = True) -> QsdResult:
    """Power iteration for the quasi-stationary law, decay rate and profile.

    Iterates the uniformized kernel ``P = I + Q/Lambda`` from the uniform
    vector, renormalizing in L1, and stops at the first step where successive
    iterates differ by less than ``tol`` in total variation *and* the
    eigen-residual is below ``10 * tol``; the adjoint iteration for the
    survival profile stops on the same pair of tests against the forward
    decay rate, with sup-norm differences, renormalizing by the max, and a
    per-row relative residual.

    The two iterations run side by side: the forward one in a forked child
    (see :class:`_Forked`), the adjoint one here.  Neither reads the other's
    iterates; only the adjoint's residual reads the forward decay rate, so
    the first residual it evaluates waits for the child's result.  Each
    runs the same code on the same inputs as it would alone, so every
    iterate, the stopping steps and ``iterations`` keep their bits.  On two
    CPUs the solve takes about two thirds of the time of one iteration
    after the other; on one CPU the two share it, at 1 to 3% more time.
    Where ``os.fork`` does not exist or fails, the forward iteration runs
    here, first.  A forward error wins over an adjoint one, as it did when the
    forward iteration ran first.

    Both iterations run their steps into a block of rows (see
    :func:`_iterate`) and evaluate the successive-difference test once per
    block for all its rows, then the eigen-residual once, on the rows from
    the first that passes it to the last.  Each row has the bits of a
    step-by-step run, so the stopping step, its iterate, ``decay_rate``, the
    residuals and ``iterations`` are those of evaluating both tests on every
    step; the steps computed past the stopping row are discarded.  Raises
    :class:`ConvergenceError` with the residual of the last iterate if
    ``max_iter`` is hit, and :class:`ReducibleSpaceError` if the converged
    vectors are not strictly positive.

    ``decay_bracket`` is the Collatz--Wielandt enclosure of the decay rate
    read off the converged profile (see :func:`_decay_bracket`).  ``tol``
    is the stopping threshold on successive iterates and on the residuals,
    not a bound on the error of ``decay_rate``: the certified enclosure is
    ``decay_bracket``, which on the shipped configs at ``tol = 1e-12`` is
    80 to 2,400 times wider than ``tol``.

    With ``profile=False`` only the forward iteration runs, here, with no
    fork: ``law``, ``decay_rate``, ``law_residual`` and ``iterations``
    (the forward steps) have the bits of a full solve's law side, and
    ``survival_profile``, ``profile_residual`` and ``decay_bracket`` are
    ``None``; every reader of the profile refuses such a result with a
    :class:`DomainError`.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValidationError(f"tol must be a finite number > 0, got {tol}")
    try:
        max_iter = operator.index(max_iter)
    except TypeError:
        raise ValidationError(
            f"max_iter must be an integer, got {max_iter!r}") from None
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    mat = Q.matrix
    mat_t = Q.matrix_t
    lam = Q.lam
    n = mat.shape[0]

    # Renormalize by the actual sum rather than the predicted mass-loss
    # factor 1 - decay/lam: the latter leaves unit mass as an unstable
    # fixed point, and rounding drift compounds over long iterations.
    def forward_iteration():
        return _iterate(
            mat_t, lam, np.full(n, 1.0 / n), np.add.reduce,
            lambda d: 0.5 * np.add.reduce(d, axis=1), _law_residual, tol,
            max_iter, "forward iteration")

    def forward_decay():
        law, prev, steps = forward_iteration()
        # the decay rate that the stopping step's residual read
        return law, -float(np.add.reduce(_product(mat_t, prev, np.empty(n)))), steps

    h = None
    if not profile:
        law, _, used = forward_iteration()
    else:
        forward = _Forked(forward_decay)
        with forward:
            # Per-row relative residual scale: rounding noise in (Q h)_i
            # grows with |q_ii| h_i, so an absolute sup-norm test is
            # unattainable on spaces with very fast states.  Dividing by
            # |q_ii| h_i + decay + 1 makes the floor a few machine epsilons
            # regardless of rate magnitudes.
            diag_abs = np.abs(mat.diagonal())

            def relative_residual(z, h, out):
                decay = forward.result()[1]
                z += np.multiply(h, decay, out=out)
                np.abs(z, out=z)
                np.multiply(h, diag_abs, out=out)
                out += decay
                out += 1.0
                return np.maximum.reduce(np.divide(z, out, out=z), axis=-1)

            h, _, steps = _iterate(
                mat, lam, np.ones(n), np.maximum.reduce,
                lambda d: np.maximum.reduce(d, axis=1), relative_residual,
                tol, max_iter, "adjoint iteration")
        law, _, used = forward.result()
        used += steps

    if (law <= 0).any() or (h is not None and (h <= 0).any()):
        raise ReducibleSpaceError(
            "converged eigenvectors are not strictly positive; the truncated "
            "chain looks reducible")

    y = _product(mat_t, law, np.empty(n))
    decay = -float(y.sum())
    law_residual = float(_law_residual(y, law, np.empty(n)))
    if h is None:
        return QsdResult(law=law, decay_rate=decay, survival_profile=None,
                         law_residual=law_residual, profile_residual=None,
                         iterations=used, tol=tol, space=Q.space,
                         decay_bracket=None)
    h = h / float(law @ h)
    z = _product(mat, h, np.empty(n))
    return QsdResult(law=law, decay_rate=decay, survival_profile=h,
                     law_residual=law_residual,
                     profile_residual=float(np.abs(z + decay * h).max()),
                     iterations=used, tol=tol, space=Q.space,
                     decay_bracket=_decay_bracket(Q, h))


class _Forked:
    """The outcome of ``work()``, run in a forked child beside the caller.

    Not a thread: the power iteration's few small numpy and scipy calls
    per step hold the interpreter lock most of the time, and two
    iterations on two threads took longer than one after the other.

    The child runs ``work()``, writes its pickled value or exception to a
    pipe and leaves by ``os._exit``, whatever happens, so none of the
    parent's exit handlers or buffers run twice.  :meth:`result` reads
    that outcome once, reaps the child and then returns the value or raises
    the exception, here and at every later call; anything that stops the
    wait (``KeyboardInterrupt``) kills and reaps the child before it
    propagates.  Leaving a ``with`` block on an :class:`Exception` reads
    the outcome too, so that ``work()``'s error wins over the block's;
    leaving on anything else kills the child instead of waiting for it.
    Either way the child is reaped before the block is left.

    A forked child holds only the thread that forked it.  The parent has
    others (OpenBLAS's worker pool, which OpenBLAS stops at the fork and
    restarts at its next call), and from Python 3.12 ``os.fork`` warns
    about them, because a lock that another thread held at the fork stays
    held in the child.  ``work()`` must therefore take no lock that
    another thread may hold: it makes no BLAS call and imports nothing.
    The power iteration takes none: its products are scipy's sparse
    kernel, the rest, residuals included, are numpy ufuncs and reductions,
    and ``pickle`` is loaded with numpy.  Where ``os.fork`` does not exist
    or fails, ``work()`` runs here, at construction, and its error
    propagates from there.
    """

    def __init__(self, work):
        self._outcome = self._pid = None
        read, write = os.pipe()
        try:
            pid = os.fork()
        except (AttributeError, OSError):  # no os.fork, or no process to spare
            os.close(read)
            os.close(write)
            self._outcome = (True, work())
            return
        if pid == 0:
            try:
                os.close(read)
                try:
                    outcome = (True, work())
                except BaseException as exc:
                    outcome = (False, exc)
                data = memoryview(pickle.dumps(outcome))
                while data:
                    data = data[os.write(write, data):]
            finally:
                os._exit(0)
        os.close(write)
        self._pid, self._pipe = pid, open(read, "rb")

    def result(self):
        if self._outcome is None:
            try:
                with self._pipe:
                    data = self._pipe.read()
                _, status = os.waitpid(self._pid, 0)
            except BaseException:
                self._kill()
                raise
            self._pid = None
            self._outcome = pickle.loads(data) if data else (
                False, RuntimeError(f"the forked process ended without a "
                                    f"result (wait status {status})"))
        ok, value = self._outcome
        if not ok:
            raise value
        return value

    def _kill(self):
        """Kills the child and reaps it."""
        pid, self._pid = self._pid, None
        self._pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)

    def __enter__(self):
        return self

    def __exit__(self, kind, error, trace):
        if kind is None or issubclass(kind, Exception):
            self.result()
        elif self._pid is not None:
            self._kill()
        return False


#: Bytes of each buffer of :func:`_iterate`: a block holds as many rows as
#: fit, at least one and at most ``_BLOCK_ROWS``.
_BLOCK_BYTES = 1 << 17
_BLOCK_ROWS = 64


def _iterate(mat, lam, start, norm, difference, residual, tol, max_iter, what):
    """Normalized uniformized steps ``x <- s / norm(s)``, ``s = x + (mat x)/lam``,
    from ``start`` until the first step whose successive difference is
    below ``tol`` and whose previous iterate ``x`` has ``residual(mat x, x)``
    below ``10 * tol``.

    A block's steps run into its rows by one call of :func:`_steps`.  Then
    ``difference`` reduces the rows of ``|x_k - x_{k-1}|`` -- a reduction
    over a contiguous row has the bits of the same reduction of one vector
    -- and ``residual(z, h, out)`` the rows of products and iterates from
    the first that passes to the last, into one residual each, with its
    temporaries in ``out`` and maybe in ``z``.  Returns the iterate at the
    stopping step, the one before it and the number of steps.  Raises
    :class:`ConvergenceError` with the residual of the last iterate once
    ``max_iter`` steps have run.
    """
    n = len(start)
    rows = max(1, min(_BLOCK_ROWS, max_iter, _BLOCK_BYTES // (8 * n)))
    x = np.empty((rows + 1, n))  # x[0] is the iterate the block starts from
    y = np.empty((rows, n))      # y[i] = mat x[i]
    d = np.empty((rows, n))      # |x[i + 1] - x[i]|, then residual scratch
    x[0] = start
    # The matvec and the views of the rows, bound once for every block.
    bound = _matvec(mat, 1), list(zip(x[1:], y))
    done = 0
    while True:
        k = min(rows, max_iter - done)
        _steps(mat, lam, x[0], x[1:k + 1], y[:k], norm, bound)
        diff = np.subtract(x[1:k + 1], x[:k], out=d[:k])
        passing = difference(np.abs(diff, out=diff)) < tol
        done += k
        tested = np.flatnonzero(passing).tolist()
        if done == max_iter:  # the last residual goes into the error
            tested.append(k - 1)
        if tested:
            lo, hi = tested[0], tested[-1] + 1
            res = residual(y[lo:hi], x[lo:hi], d[:hi - lo])
            stops = np.flatnonzero(passing[lo:hi] & (res < 10.0 * tol))
            if len(stops):
                i = lo + int(stops[0])
                return x[i + 1].copy(), x[i].copy(), done - k + i + 1
        if done == max_iter:
            last = float(res[-1])
            raise ConvergenceError(
                f"{what} did not converge in {max_iter} steps "
                f"(last residual {last:.3e})",
                iterations=max_iter, residual=last)
        x[0] = x[k]


def _law_residual(y, law, out):
    """L1 eigen-residuals ``|law Q + decay law|`` of the rows of ``law`` (or
    of one vector) from those of ``y = law Q``, with ``decay = -y . 1`` row by
    row; ``out``, of their shape, takes the temporaries."""
    decay = -np.add.reduce(y, axis=-1, keepdims=True)
    np.multiply(law, decay, out=out)
    out += y
    return np.add.reduce(np.abs(out, out=out), axis=-1)


def _decay_bracket(Q: SubGenerator, h: np.ndarray):
    """Collatz--Wielandt enclosure ``[lo, hi]`` of the decay rate.

    For any positive ``h``, the decay rate of the killed chain
    lies between the least and the largest ``-(Q h)_i / h_i`` (Collatz 1942;
    Wielandt 1950).  Each ratio is widened by twice ``m_i eps (|Q| h)_i /
    h_i``, ``m_i`` the terms summed in row ``i``, which bounds the rounding
    of the computed ``(Q h)_i`` (Higham, *Accuracy and Stability*, 3.1).
    """
    mat = Q.matrix
    n = mat.shape[0]
    qh = _product(mat, h, np.empty(n))
    abs_mat = sparse.csr_matrix((np.abs(mat.data), mat.indices, mat.indptr),
                                shape=mat.shape)
    margin = (2.0 * np.finfo(float).eps * np.diff(mat.indptr)
              * _product(abs_mat, h, np.empty(n)) / h)
    ratio = -qh / h
    return float((ratio - margin).min()), float((ratio + margin).max())


def _window_end(mean):
    """Last index that :func:`_poisson_weights` evaluates: an int for one
    mean, an int array for an array of means."""
    end = np.ceil(mean + 10.0 * np.sqrt(mean) + 30.0).astype(np.int64)
    return end if end.ndim else int(end)


def _check_window(lam: float, t: float) -> float:
    """The mean ``lam * t`` of a flow, or :class:`NumericalError` when its
    :func:`_window_end` passes :data:`MAX_WINDOW`."""
    mean = lam * t
    # The first test keeps an overflowed ``lam * t`` out of ``math.ceil``.
    if not (mean <= MAX_WINDOW and _window_end(mean) <= MAX_WINDOW):
        raise NumericalError(
            f"a flow at uniformization rate {float(lam)!r} to t = {float(t)!r} "
            f"needs a Poisson window of about {mean:.3g} products, past the "
            f"cap of {MAX_WINDOW}")
    return mean


def _poisson_windows(lam: float, times, tail: float = POISSON_TAIL):
    """Poisson weights of flows at rate ``lam`` to every time of the
    increasing grid ``times``: ``(firsts, lengths, weights)``, the window of
    time ``i`` holding the ``lengths[i]`` weights of ``firsts[i],
    firsts[i] + 1, ...``, stored in ``weights`` after the windows before it.

    Each window carries all but ``tail`` of its mass.  Its weights run
    outward from the mode by the ratios of neighbouring weights (Fox &
    Glynn 1988), ``mean / k`` above it and ``k / mean`` below, up to ``10
    sqrt(mean) + 30`` from the mean on either side, which leaves out under
    ``1e-21`` of the mass (Bernstein's bound).  The window is the narrowest
    that leaves at most ``tail / 2`` of the mass outside it at each end,
    and its weights are scaled to sum to one: the law of the Poisson count
    given that it falls in the window.  Raises :class:`NumericalError`
    before allocating when the last :func:`_window_end` passes
    :data:`MAX_WINDOW`.

    One vectorised pass makes every window, over chunks of grid times
    whose temporaries stay under ``_GRID_BYTES``.  A chunk holds one row
    per time, its mode in one column, the weights below it on the left
    and those above on the right, with ratio 0, so weight 0, past either
    end of the row's own span.  The running products and the tail sums
    run along each row, one operation after another, so the zeros change
    no bit; the total and the window's sum are one pairwise sum per row, of
    exactly the weights summed alone.  Each window has the bits it has on
    a grid of its own time alone (:func:`_poisson_weights`).
    """
    _check_window(lam, times[-1])
    means = lam * np.asarray(times, dtype=float)
    k_hi = _window_end(means)
    modes = np.floor(means).astype(np.int64)
    k_lo = np.maximum(np.floor(means - 10.0 * np.sqrt(means) - 30.0),
                      0.0).astype(np.int64)
    below, above = modes - k_lo, k_hi - modes
    firsts, lengths = k_lo.copy(), np.empty_like(k_lo)
    # Room for every whole span; only the trimmed windows are written.
    weights = np.empty(int((below + above + 1).sum()))
    rows = max(1, _GRID_BYTES // (32 * int((below + above).max() + 1)))
    at = 0
    for i in range(0, len(means), rows):
        part = slice(i, i + rows)
        lo, hi = int(below[part].max()), int(above[part].max())
        mean, mode = means[part, None], modes[part, None]
        w = np.empty((len(mean), lo + 1 + hi))
        w[:, lo] = 1.0
        down, up = w[:, :lo][:, ::-1], w[:, lo + 1:]
        # A mean below 1 has mode 0 and no weight below it, so its
        # divisor there changes nothing; it keeps a time 0 off 0 / 0.
        np.divide(mode - np.arange(lo), np.maximum(mean, 1.0), out=down)
        np.divide(mean, mode + np.arange(1, hi + 1), out=up)
        for side, span in ((down, below[part]), (up, above[part])):
            short = np.flatnonzero(span < side.shape[1])
            side[short, span[short]] = 0.0
            np.multiply.accumulate(side, axis=1, out=side)
        total = [np.add.reduce(row[lo - b:lo + a + 1]) for row, b, a in
                 zip(w, below[part].tolist(), above[part].tolist())]
        cut = 0.5 * tail * np.array(total)[:, None]
        # Each tail is summed from its small end, so no cancellation reads
        # it.  The low one counts the zeros left of the span too, so the
        # first weight kept sits in the column of its count.  The high one
        # gives the first j whose mass past mode + j is at most the cut;
        # where no j inside the span has it, the window ends at the mode.
        starts = np.count_nonzero(np.cumsum(w[:, :lo], axis=1) <= cut, axis=1)
        keep = (np.cumsum(up[:, ::-1], axis=1)[:, ::-1] <= cut).argmax(axis=1)
        stops = lo + 1 + np.where(keep < above[part], keep, 0)
        for row, s, e in zip(w, starts.tolist(), stops.tolist()):
            window = row[s:e]
            np.divide(window, np.add.reduce(window), out=weights[at:at + e - s])
            at += e - s
        firsts[part] += starts - (lo - below[part])
        lengths[part] = stops - starts
    return firsts, lengths, weights[:at]


def _poisson_weights(lam: float, t: float, tail: float = POISSON_TAIL):
    """``(first, weights)`` of a flow at rate ``lam`` to the one time
    ``t``, ``weights[k - first]`` the weight of ``k``: the window of
    :func:`_poisson_windows` on the grid ``[t]``."""
    firsts, _, weights = _poisson_windows(lam, np.array([t], dtype=float),
                                          tail)
    return int(firsts[0]), weights


def _check_vector(Q, vec, name):
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (Q.matrix.shape[0],):
        raise DomainError(
            f"{name} has shape {vec.shape}, space has {Q.matrix.shape[0]} states")
    return vec


def _check_block(Q, block, name):
    """A vector of shape ``(n,)`` or a block of ``k`` columns, ``(n, k)``."""
    block = np.asarray(block, dtype=float)
    if block.ndim not in (1, 2) or block.shape[0] != Q.matrix.shape[0]:
        raise DomainError(
            f"{name} has shape {block.shape}, expected ({Q.matrix.shape[0]},) "
            f"or ({Q.matrix.shape[0]}, k)")
    return block


def _matvec(mat, width):
    """The call scipy's ``mat @ x`` makes after its dispatch for ``width``
    columns, with the CSR ``mat`` bound: it adds the product of a flat
    operand into a flat output.  Skipping the dispatch saves a few
    microseconds per product, which is most of a step on small spaces."""
    n, m = mat.shape
    if width == 1:
        return partial(_sparsetools.csr_matvec, n, m, mat.indptr,
                       mat.indices, mat.data)
    return partial(_sparsetools.csr_matvecs, n, m, width, mat.indptr,
                   mat.indices, mat.data)


def _product(mat, x, out):
    """``mat @ x`` for a CSR ``mat`` into the C-contiguous ``out``, with its bits."""
    out.fill(0.0)
    _matvec(mat, x.size // mat.shape[1])(x.ravel(), out.ravel())
    return out


def _steps(mat, lam, start, rows, products, norm, bound=None):
    """The normalized uniformized steps ``rows[i] = s / norm(s)``, ``s = x +
    (mat x)/lam``, of the power iteration, from ``x = start`` and then
    ``rows[i - 1]``, leaving ``products[i] = mat x``.  Rows are C-contiguous
    vectors or ``(n, w)`` blocks; one fill zeroes all the products, so each
    has the bits of :func:`_product`.  A caller that runs many blocks into
    the leading rows of the same stacks passes ``bound``: the ``_matvec`` of
    ``mat`` and the list of flat ``(rows[i], products[i])`` views of the
    stacks, which it binds once."""
    x = start.reshape(-1)
    if bound is None:
        bound = (_matvec(mat, x.size // mat.shape[1]),
                 list(zip(rows.reshape(-1, x.size),
                          products.reshape(-1, x.size))))
    matvec, pairs = bound
    products.fill(0.0)
    for out, y in pairs[:len(rows)]:
        matvec(x, y)
        np.divide(y, lam, out)
        out += x
        out /= norm(out)
        x = out


#: Powers stacked per dense product in :func:`_sequence_flow`: up to
#: ``_GRID_BLOCK``, and fewer where a column of them would pass
#: ``_GRID_BYTES``.
_GRID_BLOCK = 64
_GRID_BYTES = 1 << 20

#: Cost of one product beyond its multiply-adds, in multiply-adds: about
#: 4 us of call overhead per sparse or dense product against about 1 ns per
#: multiply-add, measured on 5- to 300-state spaces (2-core Xeon, numpy 2.4
#: with OpenBLAS 0.3).
_PRODUCT_OVERHEAD = 4000

#: Cost of the Poisson weights of one window, in the same unit: 45 to 80 us
#: on the same host when each window was made alone.  The grid pass of
#: :func:`_poisson_windows` makes one in about 20 us (the 501 windows of a
#: grid of means up to 4,000 in 10 ms); the cost stays, so that every grid
#: keeps the way it flows, and its bits.
_WINDOW_COST = 10 * _PRODUCT_OVERHEAD

#: Most bytes the propagators of one grid may hold together.
_PROPAGATOR_BYTES = 1 << 22


def _grid_flow(mat, lam, columns, times, read=None):
    """Uniformized flows of the ``(n, c)`` block ``columns`` to every time of
    the increasing grid ``times``: the one kernel of ``exp(tQ)``, which the
    flows to one time (:func:`evolve_measure`, :func:`evolve_function`)
    take on a grid of one time.  Forward flows pass the transpose
    ``Q.matrix_t``, backward flows ``Q.matrix``.

    Yields ``(i, end, acc)`` in grid order: ``acc`` is the ``(c, d)`` flow
    to ``times[i]``, one row per column, and ``end`` the number of products
    made so far, one for all the columns, so the last ``end`` is the number
    of products.  With ``read``, an ``(n, d)`` matrix, each flow is
    contracted with it, so ``d`` is its width; otherwise ``d = n``.  ``acc``
    is overwritten once the next item is asked for, so read it first.  Each
    column has the bits it has alone.

    The flows take one of two ways, whichever :func:`_propagators_pay`
    puts at the fewer multiply-adds: one power sequence read at every grid
    time (:func:`_sequence_flow`), or one dense propagator per distinct
    grid step, applied from each grid time to the next
    (:func:`_propagated_flow`), built as the sequence flow of the
    identity.  Either way a grid whose last window passes :data:`MAX_WINDOW`
    is refused here, before the first product, and the powers are those of
    the kernel ``P = I + mat/lam``, built here once (:func:`_uniformized`),
    one sparse product of ``P`` each.
    """
    _check_window(lam, times[-1])
    kernel = _uniformized(mat, lam)
    if _propagators_pay(mat, lam, times):
        return _propagated_flow(kernel, lam, columns, times, read)
    return _sequence_flow(kernel, lam, columns, times, read)


def _uniformized(mat, lam):
    """The kernel ``P = I + mat/lam`` of a flow, as a CSR with the
    ``indices`` and ``indptr`` of ``mat``, which must store each diagonal
    entry once, as :func:`assemble` does.  ``lam`` exceeds every ``|q_ii|``,
    so ``P`` has no negative entry, and a product with it sums nonnegative
    terms, without the cancellation of ``x + (mat x)/lam``."""
    data = mat.data / lam
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    data[mat.indices == rows] += 1.0
    return sparse.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)


def _propagators_pay(mat, lam, times):
    """Whether moving a column along ``times`` by dense propagators costs
    less than one power sequence.

    Each way is costed in multiply-adds: the products it makes times their
    block width, plus :data:`_PRODUCT_OVERHEAD` per product and
    :data:`_WINDOW_COST` per Poisson window.  The sequence makes about
    ``_window_end(lam * times[-1])`` sparse products and one window per grid
    time.  The propagators are the sequence flow of the identity, read at
    the distinct steps: one window per step and one sparse product over the
    ``n`` columns of the identity per power, up to the longest window, each
    power added into every propagator whose window holds it, ``n^2``
    apiece; then each nonzero step is one dense product.  So propagators
    win where ``lam`` times the step is large against ``n``, and never on a
    grid of one positive time; the grid ``[0]`` builds none and makes no
    product either way.  The cost is that of one column: a block takes the
    way each of its columns takes alone, so each keeps its bits.
    Propagators that would not fit together in :data:`_PROPAGATOR_BYTES`
    are never built.
    """
    n, nnz = mat.shape[0], mat.nnz
    steps = np.diff(times, prepend=0.0)
    moves = np.count_nonzero(steps)
    distinct = np.unique(steps[steps > 0])
    if 8 * n * n * len(distinct) > _PROPAGATOR_BYTES:
        return False
    means = lam * distinct
    windows = _window_end(means)
    sequence = (_window_end(lam * times[-1]) * (nnz + _PRODUCT_OVERHEAD)
                + len(times) * _WINDOW_COST)
    dense = (windows.max(initial=0.0) * (n * nnz + _PRODUCT_OVERHEAD)
             + windows.sum() * n * n + len(distinct) * _WINDOW_COST
             + moves * (n * n + _PRODUCT_OVERHEAD))
    return dense < sequence


def _stack_powers(kernel, prev, stack, k0, k1):
    """Rows ``0, ..., k1 - k0 - 1`` of ``stack`` become the powers ``P^k0 x,
    ..., P^(k1 - 1) x`` of the CSR ``kernel`` ``P`` (see
    :func:`_uniformized`), each by one product of ``P`` into a zeroed row,
    so each has the bits of ``P @`` its predecessor.  Rows are C-contiguous
    vectors or ``(n, w)`` blocks; a flat row of ``n w`` entries is one
    ``(n, w)`` block, stepped by one product of width ``w``.  ``prev``, a
    buffer of its own, holds ``x`` for ``k0 = 0`` and ``P^(k0 - 1) x`` past
    it; it then holds the last power, for the next block."""
    block = stack[:k1 - k0]
    x = prev.reshape(-1)
    powers = block.reshape(k1 - k0, -1)
    if not k0:
        powers[0] = x
        powers = powers[1:]
    powers.fill(0.0)
    matvec = _matvec(kernel, x.size // kernel.shape[1])
    for out in powers:
        matvec(x, out)
        x = out
    prev[...] = block[-1]


def _propagated_flow(kernel, lam, columns, times, read):
    """:func:`_grid_flow` by one dense propagator per distinct step.

    Step ``i`` moves the flow from ``times[i - 1]`` (0 for ``i = 0``) to
    ``times[i]``; the steps are the exact float differences of the grid, so
    a zero first step is the identity.  Every propagator drops at most
    ``POISSON_TAIL`` over the number of nonzero steps, so the flow to any
    grid time has dropped at most ``POISSON_TAIL`` in all, as one power
    sequence does.  The propagators are the :func:`_sequence_flow` of one
    item, the flattened identity, along the sorted distinct steps with that
    tail: its ``(n, n)`` block of powers ``P^k`` steps by one sparse product
    of width ``n`` per power, and its flow to ``dt`` is the propagator of
    ``dt``.  Each column moves by its own dense product, so
    it has the bits it has alone; ``end`` counts the sparse products that
    built the propagators and then one dense product per nonzero step.
    """
    steps = np.diff(times, prepend=0.0)
    moves = int(np.count_nonzero(steps))
    distinct = np.unique(steps[steps > 0])
    dense, products = {}, 0
    if moves:
        n = kernel.shape[0]
        for i, products, acc in _sequence_flow(
                kernel, lam, np.eye(n).reshape(-1, 1), distinct, None,
                POISSON_TAIL / moves):
            dense[distinct[i]] = acc[0].reshape(n, n).copy()
    c = columns.shape[1]
    now = columns.T.copy()
    ahead = np.empty_like(now)
    acc = None if read is None else np.empty((c, read.shape[1]))
    for i, dt in enumerate(steps.tolist()):
        if dt:
            step = dense[dt]
            for j in range(c):
                np.dot(step, now[j], out=ahead[j])
            now, ahead = ahead, now
            products += 1
        if read is not None:
            for j in range(c):
                np.dot(now[j], read, out=acc[j])
        yield i, products, now if read is None else acc


def _sequence_flow(kernel, lam, columns, times, read,
                   tail=POISSON_TAIL):
    """:func:`_grid_flow` from one sequence of powers of the CSR ``kernel``.

    Grid time ``i`` weights the powers on its own Poisson window, which
    leaves out at most ``tail``; one pass of :func:`_poisson_windows` makes
    every window of the grid before the first power.  A time 0 has the
    single weight 1, and ``end`` is the last power read so far.  A window
    never opens before the previous one: where rounding puts its first
    power earlier, that power's weight is dropped.  The powers run in
    blocks of ``_GRID_BLOCK``, fewer where they would pass ``_GRID_BYTES``,
    one column after another through one stack, one sparse product per
    power (see :func:`_stack_powers`), each column's last power kept for
    its next block.  Each block adds into the accumulators of the windows
    that overlap it by one dense product of their weights, read from the
    windows, and its stacked powers, so each column has the bits it has
    alone and a block of columns holds one column's stack.  With ``read``,
    each power is contracted with it first.  An accumulator is yielded once
    the windows up to its own have ended, so only the accumulators of the
    open windows are held, as many as overlap a block at most.

    A column may be wide: a flat ``(n, w)`` block of ``n w`` entries, which
    steps by one product of width ``w`` per power and is summed by the same
    dense products.  The dense propagators of :func:`_propagated_flow` are
    the flow of one such item, the flattened ``(n, n)`` identity.
    """
    firsts, lengths, weights = _poisson_windows(lam, times, tail)
    offsets = np.cumsum(lengths) - lengths
    late = np.maximum.accumulate(firsts) - firsts
    firsts += late
    offsets += late
    lengths = np.maximum(lengths - late, 0)
    ends = np.maximum.accumulate(firsts + lengths - 1)  # the last power up to time i
    n, c = columns.shape
    rows = max(1, min(_GRID_BLOCK, _GRID_BYTES // (8 * n)))
    blocks = range(0, int(ends[-1]) + 1, rows)
    # Block k0 adds into the windows opened before k0 + rows and not ended
    # before k0.
    opens = np.searchsorted(firsts, np.add(blocks, rows)).tolist()
    most = int((opens - np.searchsorted(ends, blocks)).max())
    # Time i sits in row i - base of the sums; the open rows move to the
    # top when the next would fall off the end.
    acc = np.empty((most, c, n if read is None else read.shape[1]))
    stack = np.empty((rows, n))
    latest = columns.T.copy()  # the last power of each column so far
    opened = yielded = base = 0
    for k0, now in zip(blocks, opens):
        k1 = min(k0 + rows, int(ends[-1]) + 1)
        if now - base > most:
            acc[:opened - yielded] = acc[yielded - base:opened - base]
            base = yielded
        acc[opened - base:now - base] = 0.0
        opened = now
        live = np.arange(yielded, opened)
        rel = np.arange(k0, k1) - firsts[live, None]
        inside = (rel >= 0) & (rel < lengths[live, None])
        block_weights = np.where(
            inside, weights[np.where(inside, offsets[live, None] + rel, 0)],
            0.0)
        for j, prev in enumerate(latest):
            _stack_powers(kernel, prev, stack, k0, k1)
            block = stack[:k1 - k0]
            if read is not None:
                block = block @ read
            acc[yielded - base:opened - base, j] += block_weights @ block
        while yielded < opened and ends[yielded] < k1:
            yield yielded, int(ends[yielded]), acc[yielded - base]
            yielded += 1


def evolve_measure(Q: SubGenerator, nu: np.ndarray, t: float) -> np.ndarray:
    """Unnormalized forward flow ``nu exp(tQ)``: :func:`_grid_flow` to ``t``.

    ``nu`` is one measure of shape ``(n,)`` or ``k`` measures as the columns
    of an ``(n, k)`` block; the flow is a new array of that shape.
    """
    nu = _check_block(Q, nu, "nu")
    (_, _, acc), = _grid_flow(Q.matrix_t, Q.lam, nu.reshape(len(nu), -1),
                              _check_time(t))
    return acc.T.reshape(nu.shape).copy()


def evolve_function(Q: SubGenerator, f: np.ndarray, t: float) -> np.ndarray:
    """Backward flow ``exp(tQ) f``: survival-weighted expectations per start
    state, by :func:`_grid_flow` to ``t``.

    ``f`` is one function of shape ``(n,)`` or ``k`` functions as the columns
    of an ``(n, k)`` block; the flow is a new array of that shape.
    """
    f = _check_block(Q, f, "f")
    (_, _, acc), = _grid_flow(Q.matrix, Q.lam, f.reshape(len(f), -1),
                              _check_time(t))
    return acc.T.reshape(f.shape).copy()


def transient_conditional(Q: SubGenerator, mu0: np.ndarray, t: float):
    """Law of the chain at time ``t`` conditioned on survival, plus the
    survival probability itself: :func:`conditional_path` at ``t`` alone.

    ``mu0`` must be a probability vector on the space.  Raises
    :class:`ConditioningImpossibleError` once the survival mass underflows.
    """
    mu0 = _check_vector(Q, mu0, "mu0")
    if not (mu0 >= 0).all():
        raise DomainError("mu0 has negative or NaN entries")
    total = float(mu0.sum())
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"mu0 sums to {total!r}, expected 1 within 1e-9")
    laws, survivals = conditional_path(Q, mu0, [t])
    return laws[0], float(survivals[0])


def _check_time(t):
    """``[t]``, the grid of a flow to the one time ``t``."""
    grid = np.asarray([t], dtype=float)
    if grid.shape != (1,) or not (grid[0] >= 0 and math.isfinite(grid[0])):
        raise DomainError(f"t must be a finite number >= 0, got {t!r}")
    return grid


def _check_grid(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise DomainError("times must be a non-empty 1-d grid")
    if not (times[0] >= 0 and np.isfinite(times).all()) or (np.diff(times) <= 0).any():
        raise DomainError("times must be finite, nonnegative and strictly increasing")
    return times


def conditional_path(Q: SubGenerator, mu0: np.ndarray, times):
    """Conditional laws and survival probabilities along an increasing grid.

    The grid flows forward by :func:`_grid_flow`: from one power sequence
    read at every grid time, or by one dense propagator per distinct grid
    step, whichever costs less.  ``mu0`` is one initial law of shape
    ``(n,)`` or ``k`` initial laws as the columns of an ``(n, k)`` block,
    which flow together.  Returns ``(laws, survivals)`` with one entry per
    grid time: ``laws[i]`` has the shape of ``mu0`` and ``survivals[i]`` is
    a number per column.  A block takes the way each of its columns takes
    alone, and each column's flow and mass are computed on their own, so a
    column gets the same bits as a run from it alone.

    The survival at the ``j``-th positive grid time is the flowed mass times
    ``1 - j POISSON_TAIL``, the least mass that flows stepped from one grid
    time to the next would have kept.  Where survival is flat to rounding,
    that margin keeps it decreasing along the grid: the mass of a dense step
    rounds up by an ulp or two, not the ``POISSON_TAIL`` of 45 ulps.
    """
    mu0 = _check_block(Q, mu0, "mu0")
    times = _check_grid(times)
    columns = mu0.reshape(len(mu0), -1)
    laws = np.empty((len(times),) + columns.shape)
    survivals = np.empty((len(times), columns.shape[1]))
    margins = 1.0 - np.cumsum(times > 0) * POISSON_TAIL
    for i, _, nu in _grid_flow(Q.matrix_t, Q.lam, columns, times):
        mass = nu.sum(axis=1)
        if mass.min() < SURVIVAL_FLOOR:
            raise ConditioningImpossibleError(
                f"survival mass underflowed at grid time {times[i]}")
        survivals[i] = mass * margins[i]
        laws[i] = (nu / mass[:, None]).T
    shape = (len(times),) + mu0.shape
    return laws.reshape(shape), survivals.reshape(shape[:1] + mu0.shape[1:])


def conditional_moments(Q: SubGenerator, mu0: np.ndarray, times, F):
    """``laws @ F`` for the laws of :func:`conditional_path`, up to rounding,
    without forming the laws: each flow is contracted with ``F`` as
    :func:`_grid_flow` makes it, from one power sequence or by dense
    propagators, whichever costs less.

    On either way the flow to any grid time has discarded at most
    ``POISSON_TAIL`` of Poisson mass in all, so the tail does not build up
    along the grid; the survival mass carries no margin.  ``mu0`` is
    ``(n,)`` and ``F`` is ``(n, k)``.  Returns the ``(len(times), k)``
    conditional means, the survival mass per grid time and the number of
    products: the sparse products, and on the dense way one dense product
    per nonzero grid step.
    """
    mu0 = _check_vector(Q, mu0, "mu0")
    times = _check_grid(times)
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != len(mu0):
        raise DomainError(f"F has shape {F.shape}, expected ({len(mu0)}, k)")
    F = np.column_stack((np.ones(len(mu0)), F))
    values = []
    for _, products, acc in _grid_flow(Q.matrix_t, Q.lam, mu0[:, None],
                                       times, F):
        values.append(acc[0].copy())
    values = np.array(values)
    low = values[:, 0] < SURVIVAL_FLOOR
    if low.any():
        raise ConditioningImpossibleError(
            f"survival mass underflowed at grid time {times[low.argmax()]}")
    return values[:, 1:] / values[:, :1], values[:, 0], products


def _qprocess_table(model: Model, qsd: QsdResult) -> MoveTable:
    """The moves of the chain conditioned to never die, out of every state
    of the solved space: the moves of ``model`` inside the space at rates
    ``q(x, y) h(y) / h(x)``, ``total`` summed in move order, and none out
    of it (absorption or truncation overflow)."""
    space, h = qsd.space, _profile_of(qsd, "the conditioned chain")
    moves = model.move_table(space.states)
    cols = space.locate(moves.targets)
    inside = moves.keep & (cols >= 0)
    rates = np.where(inside, moves.rates * h[cols] / h[:, None], 0.0)
    return MoveTable(moves.states, moves.targets, rates, inside)


def qprocess_generator(model: Model, qsd: QsdResult) -> sparse.csr_matrix:
    """Generator of the chain conditioned to never die, on the solved space.

    It is the generator of the chain that
    :func:`qsdlab.simulate.simulate_qprocess` draws, from the same table:
    off-diagonal rates ``q(x, y) h(y) / h(x)``, summed per target, and minus
    their total on the diagonal, so rows sum to zero up to rounding.
    """
    return _csr(qsd.space, _qprocess_table(model, qsd))[0]
