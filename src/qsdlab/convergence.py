"""Distance-to-limit curves, decay-rate fits, and mixing certificates.

Everything here works on a truncated killed generator and its solved
long-run law.  Curves track the total-variation distance of the conditioned
law to the long-run law along a time grid; rate fits extract the geometric
decay from the clean middle of such a curve; the certificates witness a
return-mass lower bound and a survival comparison whose product gives an
explicit mixing rate.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (ConditioningImpossibleError, DomainError, NoFitError,
                     NumericalError)
from .solver import (SURVIVAL_FLOOR, QsdResult, SubGenerator, _grid_flow,
                     _profile_of, conditional_path, evolve_function,
                     evolve_measure)


def tv_distance(p, q) -> float:
    """Total-variation distance between two laws on the same state list."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise DomainError(f"laws have mismatched shapes {p.shape} and {q.shape}")
    return float(0.5 * np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# convergence curves and rate fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceCurve:
    """Distance to the long-run law along a time grid, from one start."""

    initial: tuple
    times: np.ndarray
    tv: np.ndarray
    survival: np.ndarray


def convergence_curves(Q: SubGenerator, qsd: QsdResult, initials,
                       times) -> list:
    """Conditioned-law distance to the long-run law along ``times``, one
    :class:`ConvergenceCurve` per initial state.

    The point masses at all initials flow as one block
    (:func:`~qsdlab.solver.conditional_path`), and each curve is read from
    its own column, so it has the same bits as a run from its initial
    alone.  Its survival gives up ``POISSON_TAIL`` per grid time,
    which keeps it decreasing where it is flat to rounding, so survival that
    rises along the grid, or passes 1, would mean a corrupted generator and
    raises.
    """
    initials = [tuple(int(v) for v in initial) for initial in initials]
    block = np.column_stack([Q.space.point_mass(initial)
                             for initial in initials])
    laws, survivals = conditional_path(Q, block, times)
    times = np.asarray(times, dtype=float)
    curves = []
    for j, initial in enumerate(initials):
        tv = 0.5 * np.abs(laws[:, :, j] - qsd.law).sum(axis=1)
        survival = survivals[:, j].copy()
        if (np.diff(survival) > 0).any() or (survival > 1.0).any():
            raise NumericalError("survival failed to decrease along the grid")
        curves.append(ConvergenceCurve(initial=initial, times=times, tv=tv,
                                       survival=survival))
    return curves


def convergence_curve(Q: SubGenerator, qsd: QsdResult, initial,
                      times) -> ConvergenceCurve:
    """The :func:`convergence_curves` curve from a single initial state."""
    return convergence_curves(Q, qsd, [initial], times)[0]


@dataclass(frozen=True)
class RateFit:
    """Log-linear fit ``tv(t) ~ amplitude * exp(-rate * t)`` on a window."""

    rate: float
    amplitude: float
    window: tuple
    points: int
    max_log_residual: float


def fit_rate(curve: ConvergenceCurve, tv_window=(1e-6, 1e-1)) -> RateFit:
    """Geometric decay rate of a convergence curve.

    Fits ``log tv`` against time on the clean stretch where the distance
    lies inside ``tv_window`` — above the numerical floor, below the initial
    transient.  Raises when fewer than 5 grid points fall in the window or
    when the fitted rate is not positive.
    """
    lo, hi = tv_window
    mask = (curve.tv >= lo) & (curve.tv <= hi)
    points = int(mask.sum())
    if points < 5:
        raise NoFitError(
            f"only {points} grid points have tv in [{lo:g}, {hi:g}]; need 5")
    t = curve.times[mask]
    logtv = np.log(curve.tv[mask])
    slope, intercept = np.polyfit(t, logtv, 1)
    rate = -float(slope)
    if not rate > 0:
        raise NoFitError(f"fitted rate {rate:g} is not positive")
    residual = float(np.max(np.abs(logtv - (slope * t + intercept))))
    return RateFit(rate=rate, amplitude=float(math.exp(intercept)),
                   window=(float(t[0]), float(t[-1])), points=points,
                   max_log_residual=residual)


def survival_profile_error(Q: SubGenerator, qsd: QsdResult, t: float,
                           alive=None) -> float:
    """Worst-case gap between rescaled survival and the survival profile.

    Computes ``exp(decay_rate * t) * P_x(alive at t)`` for every start x and
    returns the sup-norm distance to the solved survival profile.  As t
    grows the gap falls to a plateau set by the subdominant spectral mass.
    ``alive``, the survival at t from a caller's own pass, saves the flow.
    """
    profile = _profile_of(qsd, "survival_profile_error")
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be finite and nonnegative, got {t}")
    scale = qsd.decay_rate * t
    if scale > 600.0:
        raise NumericalError(
            f"horizon too deep to rescale: decay_rate * t = {scale:g}")
    if alive is None:
        alive = evolve_function(Q, np.ones(len(Q.space.states)), t)
    return float(np.max(np.abs(math.exp(scale) * alive - profile)))


# ---------------------------------------------------------------------------
# mixing certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorizationCertificate:
    """Witnessed lower bound on the conditioned return mass at one state.

    ``mass`` bounds, uniformly over every start x, the probability that the
    chain sits at ``reference`` at time ``t0`` given survival.  The bound is
    re-checked at the minimizing start by flowing its point mass forward,
    the other direction of the same semigroup kernel, which rounds apart;
    ``reproduction`` is the disagreement between the two directions.

    ``minimizer`` is a start that attains the minimum ratio to rounding:
    where two starts nearly tie, a change of rounding anywhere in the flows
    can name the other one.  On ``logistic1d`` at ``t0 = 10`` a change in
    the survival vector's rounding alone moved it from (50,) to (49,), with
    masses 0.7027998935820927 and 0.7027998935821198.  ``mass`` is sound
    either way.
    """

    reference: tuple
    t0: float
    mass: float
    minimizer: tuple
    reproduction: float

    @property
    def valid(self) -> bool:
        return self.t0 > 0 and self.mass > 0

    def to_dict(self) -> dict:
        return {"reference": list(self.reference), "t0": self.t0,
                "mass": self.mass, "minimizer": list(self.minimizer),
                "reproduction": self.reproduction, "valid": self.valid}


def certify_minorization(Q: SubGenerator, t0: float, qsd: QsdResult,
                         alive=None) -> MinorizationCertificate:
    """Uniform conditioned return-mass bound at the reference state, the
    mode of the solved law ``qsd``.

    For every start x, ``P_x(at reference at t0) / P_x(alive at t0)`` is
    computed by one backward flow of the indicator of the reference and the
    constant one, as a two-column block; the minimum over x is the
    certificate mass, which one forward flow from the minimizer re-checks.
    ``alive``, the survival at ``t0`` from a caller's own pass, saves the
    flow of the constant one, so that only the indicator flows backward;
    alone, each column has the bits it has in the block.  ``t0 = 0`` is
    allowed but yields mass 0 — an invalid certificate — because the
    indicator of the reference has zeros.  The minimizer is the argmin of
    ratios that can tie to rounding, one of the starts that attain the
    minimum to rounding (see :class:`MinorizationCertificate`).
    """
    _check_t0(t0)
    ref = int(np.argmax(qsd.law))
    reference = Q.space.states[ref]
    size = len(Q.space.states)
    start = np.zeros((size, 2 if alive is None else 1))
    start[ref, 0] = 1.0
    if alive is None:
        start[:, 1] = 1.0
        hit, alive = evolve_function(Q, start, t0).T
    else:
        hit = evolve_function(Q, start, t0)[:, 0]
    if not (alive > 0).all():
        raise NumericalError("survival underflowed at some start; shrink t0")
    ratios = hit / alive
    i = int(np.argmin(ratios))
    mass = float(ratios[i])

    # Re-check at the minimizer: push its point mass forward and read off
    # the same two numbers from the measure side.
    point = np.zeros(size)
    point[i] = 1.0
    row = evolve_measure(Q, point, t0)
    reproduction = max(abs(float(row[ref]) - float(hit[i])),
                       abs(float(row.sum()) - float(alive[i])))
    return MinorizationCertificate(
        reference=reference, t0=float(t0), mass=mass,
        minimizer=Q.space.states[i], reproduction=float(reproduction))


def _check_t0(t0):
    if not 0 <= t0 < math.inf:
        raise DomainError(f"t0 must be finite and nonnegative, got {t0}")


@dataclass(frozen=True)
class SurvivalComparisonCertificate:
    """Witnessed lower bound on reference survival against the best start.

    Valid only over a positive horizon: at t = 0 the ratio is 1 by
    definition, so a scan of t = 0 alone witnesses nothing.
    """

    reference: tuple
    horizon: float
    ratio: float
    worst_time: float
    reproduction: float
    plateau: dict = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return self.horizon > 0 and 0 < self.ratio <= 1.0

    def to_dict(self) -> dict:
        return {"reference": list(self.reference), "horizon": self.horizon,
                "ratio": self.ratio, "worst_time": self.worst_time,
                "reproduction": self.reproduction, "valid": self.valid}


def certify_survival_comparison(
        Q: SubGenerator, reference, times,
        qsd: QsdResult | None = None) -> SurvivalComparisonCertificate:
    """Survival from the reference state versus the luckiest start.

    Scans ``min_t P_ref(alive at t) / max_x P_x(alive at t)`` over the given
    grid, always including t = 0.  One backward pass of the survival
    function ``alive = P_.(alive at t)`` gives both numbers: the numerator
    is its entry at the reference, so the ratio never exceeds 1.  The pass
    runs on the doubled grid, which adds the midpoints, from one power
    sequence of ``Q`` or, where that costs more, by one dense propagator
    ``exp(dt Q)`` per distinct step of that grid (see
    :func:`~qsdlab.solver.conditional_path`); the certificate is the minimum
    over the given grid points, and the gap to the minimum over the doubled
    grid is reported as ``reproduction``.  Given ``qsd``, the same
    pass gives ``plateau``, the :func:`survival_profile_error` at half the
    horizon and at the horizon, which join the doubled grid if off it.
    Survival from every start below ``SURVIVAL_FLOOR`` at a grid time
    raises :class:`ConditioningImpossibleError`.
    """
    return _comparison_pass(Q, reference, times, qsd)[0]


def _comparison_pass(Q, reference, times, qsd, t0=None):
    """:func:`certify_survival_comparison`, and with ``t0`` the survival
    function at ``t0`` from the same pass: ``(certificate, alive)``, with
    ``alive`` ``None`` without ``t0``.  Off the doubled grid, ``t0`` joins
    the pass as one more read time, past the horizon where it lies there,
    and takes no part in ``ratio``, ``worst_time``, ``reproduction`` or the
    underflow check."""
    reference = tuple(int(v) for v in reference)
    if reference not in Q.space.index:
        raise DomainError(f"reference state {reference} is outside the space")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or not (
            (times >= 0) & (times < np.inf)).all():
        raise DomainError("times must be a finite, nonnegative 1-d grid")
    times = np.unique(times)
    if times[0] != 0.0:
        times = np.concatenate(([0.0], times))
    probes = () if qsd is None else (times[-1] / 2.0, times[-1])
    fine = np.unique(np.concatenate((times, (times[1:] + times[:-1]) / 2.0,
                                     probes)))
    reads = fine if t0 is None else np.union1d(fine, [t0])
    scanned = np.isin(reads, fine)

    ref = Q.space.index[reference]
    ratios = np.empty(len(reads))
    plateau = {}
    kept = None
    for i, _, (alive,) in _grid_flow(
            Q.matrix, Q.lam, np.ones((len(Q.space.states), 1)), reads):
        t = reads[i]
        if t == t0:
            kept = alive.copy()
        if not scanned[i]:
            continue
        top = alive.max()
        if top < SURVIVAL_FLOOR:
            raise ConditioningImpossibleError(
                f"survival mass underflowed at grid time {t}")
        ratios[i] = alive[ref] / top
        if t in probes:
            plateau[float(t)] = survival_profile_error(Q, qsd, t, alive)
    ratios = ratios[scanned]
    coarse = ratios[np.isin(fine, times)]
    k = int(np.argmin(coarse))
    ratio = float(coarse[k])
    return SurvivalComparisonCertificate(
        reference=reference, horizon=float(times[-1]), ratio=ratio,
        worst_time=float(times[k]),
        reproduction=abs(ratio - float(ratios.min())), plateau=plateau), kept


@dataclass(frozen=True)
class MixingCertificate:
    """Explicit geometric mixing bound assembled from the two certificates.

    When valid, the conditioned law contracts in total variation by a factor
    ``1 - return_mass * survival_ratio`` every ``t0`` units of time, giving
    the stated exponential rate bound.
    """

    minorization: MinorizationCertificate
    comparison: SurvivalComparisonCertificate
    rate_bound: float

    @property
    def valid(self) -> bool:
        return self.minorization.valid and self.comparison.valid

    def to_dict(self) -> dict:
        return {"minorization": self.minorization.to_dict(),
                "survival_comparison": self.comparison.to_dict(),
                "rate_bound": self.rate_bound, "valid": self.valid}


def mixing_certificate(Q: SubGenerator, qsd: QsdResult, t0: float,
                       horizon: float | None = None) -> MixingCertificate:
    """Build both certificates around the law's modal state.

    The survival comparison is scanned on a uniform grid of 64 points over
    ``[0, horizon]`` (default ``8 * t0``); its pass also gives the profile
    plateau, so a horizon too deep for :func:`survival_profile_error`
    raises its :class:`NumericalError`, and a ``qsd`` from a law-only solve
    is refused with a :class:`DomainError` before any flow.  The same pass
    reads the survival function at ``t0``, one more read time, past the
    horizon where ``t0`` lies there, and hands it to
    :func:`certify_minorization`, which then flows only the indicator of
    the reference backward: one backward pass of the constant one serves
    both certificates.  The rate bound is ``-log(1 - product) / t0``, with
    ``product`` the return mass times the survival ratio, when both
    certificates are valid and ``product < 1``; otherwise nothing is
    certified and the bound is 0.
    """
    _profile_of(qsd, "mixing_certificate")
    _check_t0(t0)
    if horizon is None:
        horizon = 8.0 * t0
    reference = Q.space.states[int(np.argmax(qsd.law))]
    grid = np.linspace(0.0, horizon, 64)
    comp, alive = _comparison_pass(Q, reference, grid, qsd, t0)
    minor = certify_minorization(Q, t0, qsd, alive)
    product = minor.mass * comp.ratio
    certified = minor.valid and comp.valid and product < 1
    rate = -math.log1p(-product) / t0 if certified else 0.0
    return MixingCertificate(minorization=minor, comparison=comp,
                             rate_bound=rate)
