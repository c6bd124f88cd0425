"""Total-variation decay curves, rate fitting, and the mixing certificates.

The rate fitter is checked against curves with a known closed form (a
synthetic pure exponential must be recovered to machine precision), and the
certificates are re-derived through independent semigroup evaluations inside
the tests.
"""

import math
import pathlib
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdlab import convergence, solver
from qsdlab.convergence import (
    ConvergenceCurve,
    certify_minorization,
    certify_survival_comparison,
    convergence_curve,
    convergence_curves,
    fit_rate,
    mixing_certificate,
    survival_profile_error,
    tv_distance,
)
from qsdlab.config import load_config
from qsdlab.errors import (ConditioningImpossibleError, DomainError,
                           NoFitError)
from qsdlab.model import Model, build_model
from qsdlab.presets import logistic_1d, reference_2d
from qsdlab.solver import (POISSON_TAIL, SURVIVAL_FLOOR, assemble,
                           conditional_path, enumerate_space, evolve_function,
                           evolve_measure, solve_qsd)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


def test_tv_distance_hand_values():
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_tv_distance_is_a_metric_on_the_simplex(p, q):
    p = np.asarray(p) + 1e-9
    q = np.asarray(q) + 1e-9
    p /= p.sum()
    q /= q.sum()
    d = tv_distance(p, q)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(tv_distance(q, p))
    if d > 0:
        r = 0.5 * (p + q)
        assert tv_distance(p, q) <= tv_distance(p, r) + tv_distance(r, q) + 1e-12


# ---------------------------------------------------------------------------
# decay curves
# ---------------------------------------------------------------------------


def test_curves_decay_toward_the_stationary_law(logistic30_system):
    *_, generator, result = logistic30_system
    times = np.arange(0.25, 12.0 + 1e-9, 0.25)
    curve = convergence_curve(generator, result, (5,), times)
    assert curve.tv[0] > 1e-2
    assert curve.tv[-1] < 1e-9
    assert (np.diff(curve.survival) <= 1e-15).all()


def test_single_curve_is_the_matching_column_of_the_block(logistic30_system):
    *_, generator, result = logistic30_system
    times = np.arange(0.25, 6.0 + 1e-9, 0.25)
    initials = [(1,), (5,), (20,)]
    curves = convergence_curves(generator, result, initials, times)
    for initial, curve in zip(initials, curves):
        alone = convergence_curve(generator, result, initial, times)
        assert curve.initial == alone.initial == initial
        assert np.array_equal(curve.tv, alone.tv)
        assert np.array_equal(curve.survival, alone.survival)
        # and both have the bits of a path from the start vector alone
        laws, survival = conditional_path(
            generator, generator.space.point_mass(initial), times)
        assert np.array_equal(curve.tv,
                              0.5 * np.abs(laws - result.law).sum(axis=1))
        assert np.array_equal(curve.survival, survival)


def test_flat_survival_still_decreases_on_a_fine_grid(ref2d_system):
    """From (20, 20) the chain is far from the boundary, so its survival is
    1 to rounding for a while; the margin of ``POISSON_TAIL`` per grid
    time keeps it strictly decreasing even 0.005 apart."""
    *_, generator, result = ref2d_system
    times = np.arange(1, 401) * 0.005
    curve = convergence_curve(generator, result, (20, 20), times)
    assert curve.survival[0] > 1.0 - 2.0 * POISSON_TAIL
    assert (np.diff(curve.survival) < 0).all() and curve.survival.max() < 1.0


def test_flat_survival_still_decreases_along_dense_propagators(
        built_propagators):
    """A logistic chain settling at 40, started there and truncated at 100,
    keeps its survival within 1e-12 of 1 over 500 grid points.  There the
    curve runs on dense propagators, whose steps can round the mass up,
    and the same margin of ``POISSON_TAIL`` per grid time keeps it strictly
    decreasing."""
    model = Model.constant([2.0], [0.0], [[0.05]], 1.0)
    generator = assemble(model, enumerate_space(1, 100))
    result = solve_qsd(generator)
    times = np.arange(1, 501) * 0.01
    curve = convergence_curve(generator, result, (40,), times)
    assert built_propagators
    start = generator.space.point_mass((40,))
    assert evolve_measure(generator, start, times[-1]).sum() > 1.0 - 1e-12
    assert (np.diff(curve.survival) < 0).all() and curve.survival.max() < 1.0
    margins = 1.0 - np.arange(1, len(times) + 1) * POISSON_TAIL
    assert np.abs(curve.survival - margins).max() < 1e-12


@pytest.mark.parametrize("start", [(1, 1), (6, 4), (30, 0)])
def test_path_laws_match_the_measure_stepped_over_the_grid(start):
    """One power sequence per grid against the independent route: the
    measure flowed from grid time to grid time by ``evolve_measure``."""
    generator = assemble(reference_2d(), enumerate_space(2, 30))
    if start == (30, 0):
        mu0 = np.random.default_rng(3).random(len(generator.space))
        mu0 /= mu0.sum()
    else:
        mu0 = generator.space.point_mass(start)
    times = np.arange(1, 101) * 0.05
    laws, survivals = conditional_path(generator, mu0, times)
    nu, prev = mu0, 0.0
    for law, survival, t in zip(laws, survivals, times):
        nu = evolve_measure(generator, nu, t - prev)
        prev = t
        assert np.abs(law - nu / nu.sum()).sum() < 1e-13
        assert survival == pytest.approx(nu.sum(), rel=len(times) * POISSON_TAIL)


@pytest.mark.parametrize("name", ["logistic1d", "catastrophe1d",
                                  "multibirth1d"])
def test_profile_error_at_the_horizon_matches_expm(name):
    cfg = load_config(str(CONFIGS / f"{name}.cfg"))
    generator = assemble(build_model(cfg),
                         enumerate_space(cfg.r, cfg.truncation_n))
    result = solve_qsd(generator, cfg.tol, cfg.max_iter)
    t = cfg.t_max
    alive = sla.expm(t * generator.matrix.toarray()) @ np.ones(len(result.law))
    exact = np.max(np.abs(math.exp(result.decay_rate * t) * alive
                          - result.survival_profile))
    assert abs(survival_profile_error(generator, result, t) - exact) < 1e-12


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def _synthetic_curve(amplitude, rate, times):
    tv = amplitude * np.exp(-rate * times)
    return ConvergenceCurve(times=times, tv=tv,
                            survival=np.exp(-0.1 * times), initial=(1,))


def test_fit_recovers_a_pure_exponential_exactly():
    times = np.arange(0.1, 20.0, 0.1)
    fit = fit_rate(_synthetic_curve(0.8, 1.3, times))
    assert fit.rate == pytest.approx(1.3, rel=1e-12)
    assert fit.amplitude == pytest.approx(0.8, rel=1e-10)
    assert fit.max_log_residual < 1e-10
    assert fit.window[0] >= times[0] and fit.window[1] <= times[-1]


def test_fit_uses_only_the_requested_tv_window():
    times = np.arange(0.1, 30.0, 0.1)
    tv = 0.8 * np.exp(-1.3 * times) + 1e-7  # noise floor plateau
    curve = ConvergenceCurve(times=times, tv=tv,
                             survival=np.exp(-0.1 * times), initial=(1,))
    fit = fit_rate(curve, tv_window=(1e-5, 1e-1))
    assert fit.rate == pytest.approx(1.3, rel=1e-3)


def test_fit_refuses_curves_without_a_usable_window():
    times = np.arange(0.1, 5.0, 0.1)
    flat = ConvergenceCurve(times=times, tv=np.full(len(times), 0.4),
                            survival=np.exp(-0.1 * times), initial=(1,))
    with pytest.raises(NoFitError):
        fit_rate(flat)


def test_fit_refuses_nondecaying_curves():
    times = np.arange(0.1, 5.0, 0.1)
    rising = ConvergenceCurve(times=times,
                              tv=np.linspace(0.01, 0.09, len(times)),
                              survival=np.exp(-0.1 * times), initial=(1,))
    with pytest.raises(NoFitError):
        fit_rate(rising)


def test_fitted_rate_matches_the_spectral_gap(logistic30_system):
    *_, generator, result = logistic30_system
    import scipy.linalg as sla
    values = sla.eigvals(generator.matrix.toarray())
    real = np.sort(values.real)[::-1]
    gap = float(real[0] - real[1])
    times = np.arange(0.1, 12.0 + 1e-9, 0.1)
    fit = fit_rate(convergence_curve(generator, result, (5,), times))
    assert fit.rate == pytest.approx(gap, rel=0.05)


# ---------------------------------------------------------------------------
# stationarity error of the profile route
# ---------------------------------------------------------------------------


def test_profile_route_error_decays_with_the_horizon(logistic30_system):
    *_, generator, result = logistic30_system
    errors = [survival_profile_error(generator, result, t)
              for t in (2.0, 8.0, 20.0)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-8


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("passed", [False, True], ids=["flowed", "passed"])
def test_profile_error_refuses_times_outside_zero_to_infinity(
        logistic30_system, t, passed):
    """Checked up front: with ``alive`` passed, no flow would catch it."""
    *_, generator, result = logistic30_system
    alive = np.ones(len(result.law)) if passed else None
    with pytest.raises(DomainError, match="t must be finite and nonnegative"):
        survival_profile_error(generator, result, t, alive)


# ---------------------------------------------------------------------------
# minorization certificate
# ---------------------------------------------------------------------------


def test_minorization_mass_reverifies_against_the_semigroup(logistic30_system):
    *_, generator, result = logistic30_system
    cert = certify_minorization(generator, t0=1.0, qsd=result)
    assert cert.valid
    assert 0 < cert.mass <= 1.0
    assert cert.reproduction < 1e-9
    # independent re-derivation at the reported minimizer
    space = generator.space
    point = np.zeros(len(space.states))
    point[space.index[cert.minimizer]] = 1.0
    mu = evolve_measure(generator, point, 1.0)
    ratio = mu[space.index[cert.reference]] / mu.sum()
    assert ratio == pytest.approx(cert.mass, rel=1e-9, abs=1e-12)


def test_minorization_halved_steps_reproduce_the_mass(logistic30_system):
    *_, generator, result = logistic30_system
    cert = certify_minorization(generator, t0=1.0, qsd=result)
    space = generator.space
    point = np.zeros(len(space.states))
    point[space.index[cert.minimizer]] = 1.0
    mu = evolve_measure(generator, evolve_measure(generator, point, 0.5), 0.5)
    ratio = mu[space.index[cert.reference]] / mu.sum()
    assert abs(ratio - cert.mass) < 1e-9


def test_minorization_at_zero_horizon_is_not_a_certificate(logistic30_system):
    *_, generator, result = logistic30_system
    cert = certify_minorization(generator, t0=0.0, qsd=result)
    assert not cert.valid


# ---------------------------------------------------------------------------
# survival-ratio certificate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_certificates_reject_non_finite_times(logistic30_system, t):
    _, space, generator, qsd = logistic30_system
    with pytest.raises(DomainError, match="t0"):
        certify_minorization(generator, t, qsd=qsd)
    with pytest.raises(DomainError):
        certify_survival_comparison(generator, (1,), [1.0, t])


def test_survival_comparison_bounds_and_reproduces(logistic30_system):
    *_, generator, result = logistic30_system
    reference = generator.space.states[int(np.argmax(result.law))]
    times = np.linspace(0.0, 8.0, 33)
    cert = certify_survival_comparison(generator, reference, times)
    assert cert.valid
    assert 0 < cert.ratio <= 1.0
    assert cert.reproduction < 1e-9
    # the ratio at the reported worst time is reproduced independently
    space = generator.space
    point = np.zeros(len(space.states))
    point[space.index[reference]] = 1.0
    if cert.worst_time > 0:
        ref_alive = evolve_measure(generator, point, cert.worst_time).sum()
        best = 0.0
        for i in range(len(space.states)):
            start = np.zeros(len(space.states))
            start[i] = 1.0
            best = max(best, evolve_measure(generator, start, cert.worst_time).sum())
        assert ref_alive / best == pytest.approx(cert.ratio, rel=1e-9)


def test_survival_comparison_is_at_most_one_and_matches_a_coarse_scan(
        logistic30_system):
    *_, generator, result = logistic30_system
    space = generator.space
    times = np.linspace(0.0, 8.0, 17)
    for reference in (space.states[int(np.argmax(result.law))], (1,), (30,)):
        cert = certify_survival_comparison(generator, reference, times)
        assert cert.ratio <= 1.0
        # a separate scan that steps over the coarse grid only
        ref = space.index[reference]
        alive = np.ones(len(space.states))
        prev = 0.0
        coarse = []
        for t in times:
            alive = evolve_function(generator, alive, t - prev)
            prev = t
            coarse.append(alive[ref] / alive.max())
        assert abs(cert.ratio - min(coarse)) < 1e-12


def test_survival_comparison_at_zero_horizon_is_not_a_certificate(
        logistic30_system):
    *_, generator, result = logistic30_system
    reference = generator.space.states[int(np.argmax(result.law))]
    cert = certify_survival_comparison(generator, reference, [0.0])
    assert cert.horizon == 0.0 and cert.ratio == 1.0
    assert not cert.valid
    mixing = mixing_certificate(generator, result, t0=1.0, horizon=0.0)
    assert not mixing.valid
    assert mixing.rate_bound == 0.0


def test_survival_comparison_refuses_a_grid_past_survival_underflow():
    """Past the time where survival from every start underflows, the ratio
    would be 0/0; the comparison raises at the first such time of its
    doubled grid instead, with no runtime warning."""
    generator = assemble(logistic_1d(), enumerate_space(1, 2))
    times = np.linspace(0.0, 700.0, 8)
    fine = np.arange(0.0, 700.0 + 1e-9, 50.0)
    ones = np.ones(len(generator.space))
    first = next(t for t in fine
                 if evolve_function(generator, ones, t).max() < SURVIVAL_FLOOR)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConditioningImpossibleError,
                           match=f"underflowed at grid time {first}$"):
            certify_survival_comparison(generator, (1,), times)


@pytest.fixture(scope="module")
def ref2d30_system():
    generator = assemble(reference_2d(), enumerate_space(2, 30))
    return generator, solve_qsd(generator)


@pytest.mark.parametrize("horizon", [10.0, 7.3])
def test_plateau_is_read_from_the_comparison_pass(ref2d30_system, horizon):
    """At 7.3 the half horizon is one ulp off the grid midpoint, so it joins
    the doubled grid."""
    generator, result = ref2d30_system
    half = horizon / 2.0
    grid = np.linspace(0.0, horizon, 64)
    assert (half in (grid[1:] + grid[:-1]) / 2.0) == (horizon == 10.0)
    cert = mixing_certificate(generator, result, t0=1.0, horizon=horizon)
    assert sorted(cert.comparison.plateau) == [half, horizon]
    dense = generator.matrix.toarray()
    for t, gap in cert.comparison.plateau.items():
        assert abs(gap - survival_profile_error(generator, result, t)) < 1e-12
        alive = sla.expm(t * dense) @ np.ones(len(dense))
        exact = np.max(np.abs(math.exp(result.decay_rate * t) * alive
                              - result.survival_profile))
        assert abs(gap - exact) < 1e-12
    plain = certify_survival_comparison(generator, cert.comparison.reference,
                                        grid)
    assert plain.plateau == {}
    if horizon == 10.0:
        assert cert.comparison.to_dict() == plain.to_dict()


@pytest.mark.parametrize("name", ["ref2d", "neutral3d", "logistic1d",
                                  "catastrophe1d", "multibirth1d"])
def test_mixing_certificate_matches_the_standalone_certificates(name):
    """One survival pass serves both certificates: the minorization reads
    its survival at ``t0`` from the comparison pass, which may round
    apart from the minorization's own two-column flow, but by no more than
    1e-12; every state and time it reports is the same."""
    cfg = load_config(str(CONFIGS / f"{name}.cfg"))
    generator = assemble(build_model(cfg),
                         enumerate_space(cfg.r, cfg.truncation_n))
    result = solve_qsd(generator, tol=cfg.tol, max_iter=cfg.max_iter)
    cert = mixing_certificate(generator, result, t0=1.0, horizon=cfg.t_max)
    minor = certify_minorization(generator, 1.0, result)
    comp = certify_survival_comparison(generator, minor.reference,
                                       np.linspace(0.0, cfg.t_max, 64), result)
    rate = -math.log1p(-minor.mass * comp.ratio)
    assert abs(cert.minorization.mass - minor.mass) < 1e-12
    assert abs(cert.comparison.ratio - comp.ratio) < 1e-12
    assert abs(cert.rate_bound - rate) < 1e-12
    assert (cert.minorization.reference, cert.minorization.minimizer,
            cert.comparison.worst_time, cert.minorization.valid,
            cert.comparison.valid) == (
        minor.reference, minor.minimizer, comp.worst_time, minor.valid,
        comp.valid)
    assert cert.comparison.plateau.keys() == comp.plateau.keys()
    for t, gap in comp.plateau.items():
        assert abs(cert.comparison.plateau[t] - gap) < 1e-12


@pytest.mark.parametrize("t0", [2.0, 10.0], ids=["inside", "past"])
def test_mixing_certificate_flows_survival_once(logistic30_system,
                                                monkeypatch, t0):
    """The comparison pass reads survival at ``t0`` as one more time, and
    runs past its horizon of 5 to a ``t0`` that lies there; then only the
    indicator of the reference flows backward, as one column."""
    *_, generator, result = logistic30_system
    passes, flows = [], []

    def counting_passes(mat, lam, columns, times, *rest):
        passes.append((columns.shape[1], times[-1], t0 in times))
        return solver._grid_flow(mat, lam, columns, times, *rest)

    def counting_flows(Q, f, t):
        flows.append((f.shape, t))
        return evolve_function(Q, f, t)

    monkeypatch.setattr(convergence, "_grid_flow", counting_passes)
    monkeypatch.setattr(convergence, "evolve_function", counting_flows)
    cert = mixing_certificate(generator, result, t0=t0, horizon=5.0)
    assert passes == [(1, max(5.0, t0), True)]
    assert flows == [((len(generator.space), 1), t0)]
    monkeypatch.undo()
    minor = certify_minorization(generator, t0, result)
    assert abs(cert.minorization.mass - minor.mass) < 1e-12
    grid = np.linspace(0.0, 5.0, 64)
    comp = certify_survival_comparison(generator, minor.reference, grid,
                                       result)
    assert abs(cert.comparison.ratio - comp.ratio) < 1e-12
    assert cert.comparison.worst_time == comp.worst_time


@pytest.mark.parametrize("t0", [math.nan, -1.0, math.inf])
def test_mixing_certificate_checks_t0_before_its_pass(logistic30_system,
                                                      monkeypatch, t0):
    *_, generator, result = logistic30_system
    monkeypatch.setattr(convergence, "_grid_flow", None)
    with pytest.raises(DomainError, match="t0 must be finite"):
        mixing_certificate(generator, result, t0=t0, horizon=5.0)


def test_survival_profile_error_refuses_a_law_only_solve(logistic30_system):
    *_, generator, _ = logistic30_system
    law_only = solve_qsd(generator, profile=False)
    with pytest.raises(DomainError, match="needs the survival profile"):
        survival_profile_error(generator, law_only, 1.0)


def test_mixing_certificate_refuses_a_law_only_solve_before_any_flow(
        logistic30_system, monkeypatch):
    *_, generator, _ = logistic30_system
    law_only = solve_qsd(generator, profile=False)
    monkeypatch.setattr(convergence, "_grid_flow", None)
    monkeypatch.setattr(convergence, "evolve_function", None)
    with pytest.raises(DomainError, match="needs the survival profile"):
        mixing_certificate(generator, law_only, t0=1.0)


def test_mixing_certificate_assembles_a_positive_rate(logistic30_system):
    *_, generator, result = logistic30_system
    cert = mixing_certificate(generator, result, t0=1.0)
    assert cert.valid
    assert cert.rate_bound > 0
    product = cert.minorization.mass * cert.comparison.ratio
    assert cert.rate_bound == pytest.approx(-math.log1p(-product) / 1.0, rel=1e-12)
    payload = cert.to_dict()
    assert payload["valid"] is True
    assert payload["minorization"]["mass"] == pytest.approx(cert.minorization.mass)
