"""End-to-end acceptance gates, one test per shipped guarantee.

Each test prints a single ``criterion NN <name>: PASS|FAIL`` line so the
suite output doubles as a checklist.  Tolerances are part of the contract
and are asserted exactly as stated in the test bodies; every expected
number is either produced by an independent oracle inside the test (dense
eigensolver, closed form, exact float re-evaluation) or is a behavioural
bound (total-variation and relative-error budgets, wall-clock limits).
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg as sla

from qsdlab.convergence import (
    certify_minorization,
    certify_survival_comparison,
    convergence_curve,
    fit_rate,
    tv_distance,
)
from qsdlab.lyapunov import (
    PotentialParams,
    check_catastrophes,
    check_competition_dominance,
    check_conditional_drift,
    check_drift,
    check_multibirth,
    check_neutral_threshold,
    size_potential,
    size_potential_bracket,
)
from qsdlab.model import Model
from qsdlab.presets import (
    catastrophe_logistic_1d,
    logistic_1d,
    multibirth_uniform_1d,
    reference_2d,
    strong_intra_2d,
)
from qsdlab.simulate import (
    RngPlan,
    estimate_conditional,
    fleming_viot,
    occupation_measure,
    simulate_qprocess,
)
from qsdlab.solver import (
    assemble,
    enumerate_space,
    evolve_function,
    qprocess_generator,
    solve_qsd,
    transient_conditional,
)


@pytest.fixture
def gate(capfd):
    """One checklist line per criterion, written through pytest's capture
    so it is visible in plain ``pytest -v`` output."""
    def emit(number, name, ok):
        with capfd.disabled():
            print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return emit


def _dense_left_eigen(generator):
    """Independent route to (law, decay): dense nonsymmetric eigensolve."""
    dense = generator.matrix.toarray()
    values, left = sla.eig(dense, left=True, right=False)
    k = int(np.argmax(values.real))
    law = np.abs(left[:, k].real)
    return law / law.sum(), -float(values[k].real)


def _tv_to_vector(empirical, space, vector):
    """TV between an empirical law and an exact vector on a space; any
    empirical mass off the space counts in full."""
    on_support = np.array([empirical.mass_at(s) for s in space.states])
    off_support = 1.0 - on_support.sum()
    return 0.5 * (np.abs(on_support - vector).sum() + off_support)


# ---------------------------------------------------------------------------
# criterion 1: iterative solver against a dense eigensolver oracle
# ---------------------------------------------------------------------------


def test_criterion_01_solver_matches_dense_oracle_on_random_models(gate):
    rng = np.random.default_rng(20260819)
    combos = [(1, 0.5), (1, 1.0), (1, 2.0), (2, 0.5), (2, 1.0), (2, 2.0)]
    worst_tv = 0.0
    worst_gap = 0.0
    started = time.perf_counter()
    for i in range(20):
        r, gamma = combos[i % 6]
        # Steeper competition tails make the fastest states stiffer, so the
        # quadratic-death models run on smaller windows with gentler
        # coefficients; every space stays at or below 500 states.
        if gamma == 2.0:
            N = 30 if r == 1 else 18
            diag_lo, diag_hi = 0.3, 1.0
        else:
            N = 60 if r == 1 else 30
            diag_lo, diag_hi = 0.5, 2.0
        b = rng.uniform(0.5, 3.0, r)
        d = rng.uniform(0.0, 0.5, r)
        c = np.zeros((r, r))
        for j in range(r):
            c[j, j] = rng.uniform(diag_lo, diag_hi)
        for j in range(r):
            for k in range(r):
                if j != k:
                    c[j, k] = rng.uniform(0.0, 0.3) * c[j, j]
        model = Model.constant(b.tolist(), d.tolist(), c.tolist(), gamma)
        space = enumerate_space(r, N)
        assert len(space.states) <= 500
        generator = assemble(model, space)
        result = solve_qsd(generator)
        oracle_law, oracle_decay = _dense_left_eigen(generator)
        worst_tv = max(worst_tv, tv_distance(result.law, oracle_law))
        worst_gap = max(worst_gap, abs(result.decay_rate - oracle_decay))
    elapsed = time.perf_counter() - started
    ok = worst_tv < 1e-10 and worst_gap < 1e-10 and elapsed < 30.0
    gate(1, "solver-oracle equivalence", ok)
    assert worst_tv < 1e-10, f"worst TV against the dense oracle: {worst_tv:.3e}"
    assert worst_gap < 1e-10, f"worst decay-rate gap: {worst_gap:.3e}"
    assert elapsed < 30.0, f"ensemble took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criteria 2 and 3: the solved law is a conditional fixed point whose
# survival decays at exactly the solved rate
# ---------------------------------------------------------------------------


def test_criterion_02_conditional_evolution_fixes_the_solved_law(gate, ref2d_system):
    _, _, generator, result = ref2d_system
    worst = 0.0
    for t in (0.5, 1.0, 5.0):
        law_t, _ = transient_conditional(generator, result.law, t)
        worst = max(worst, tv_distance(law_t, result.law))
    ok = worst < 1e-8
    gate(2, "conditional fixed point", ok)
    assert worst < 1e-8, f"worst fixed-point TV: {worst:.3e}"


def test_criterion_03_survival_from_the_law_is_exactly_exponential(gate, ref2d_system):
    _, _, generator, result = ref2d_system
    worst = 0.0
    for t in np.linspace(0.0, 5.0, 21):
        _, survival = transient_conditional(generator, result.law, float(t))
        expected = math.exp(-result.decay_rate * t)
        worst = max(worst, abs(survival - expected) / expected)
    ok = worst < 1e-6
    gate(3, "mortality plateau", ok)
    assert worst < 1e-6, f"worst relative survival error: {worst:.3e}"


# ---------------------------------------------------------------------------
# criterion 4: exponential convergence with matching rates from far-apart
# starts, on the strongly intra-regulated two-type model
# ---------------------------------------------------------------------------


def test_criterion_04_convergence_is_exponential_with_a_common_rate(gate):
    model = strong_intra_2d()
    dominance = check_competition_dominance(model, 10000)
    space = enumerate_space(2, 40)
    generator = assemble(model, space)
    result = solve_qsd(generator)
    times = np.arange(0.05, 8.0 + 1e-12, 0.05)
    fits = []
    dominated = True
    for initial in ((1, 1), (20, 20)):
        curve = convergence_curve(generator, result, initial, times)
        fit = fit_rate(curve)
        fits.append(fit)
        # The fitted envelope, inflated by the worst log-residual of the
        # fit itself, must lie above the curve at every grid point of the
        # fitted window.
        lo, hi = fit.window
        mask = (curve.times >= lo) & (curve.times <= hi)
        envelope = (fit.amplitude * math.exp(fit.max_log_residual)
                    * np.exp(-fit.rate * curve.times[mask]))
        dominated = dominated and bool(
            (curve.tv[mask] <= envelope * (1.0 + 1e-9)).all())
    rate_gap = abs(fits[0].rate - fits[1].rate) / max(f.rate for f in fits)
    ok = (dominance.verdict == "pass-on-range" and dominated
          and rate_gap <= 0.10)
    gate(4, "exponential convergence rate", ok)
    assert dominance.verdict == "pass-on-range"
    assert dominated, "a TV curve escapes its fitted exponential envelope"
    assert rate_gap <= 0.10, f"fitted rates disagree by {rate_gap:.2%}"


# ---------------------------------------------------------------------------
# criterion 5: return-mass and survival-comparison certificates, each
# reproduced by an independent second route
# ---------------------------------------------------------------------------


def test_criterion_05_certificates_are_positive_and_reproducible(gate, ref2d_system):
    _, space, generator, result = ref2d_system
    minor = certify_minorization(generator, 2.0, qsd=result)

    # Second route for the return mass: the same two propagations composed
    # from two half-steps, re-minimized from scratch.
    size = len(space.states)
    indicator = np.zeros(size)
    indicator[space.index[minor.reference]] = 1.0
    hit = evolve_function(generator, evolve_function(generator, indicator, 1.0), 1.0)
    alive = evolve_function(generator, evolve_function(generator, np.ones(size), 1.0), 1.0)
    mass_again = float((hit / alive).min())

    grid = np.linspace(0.0, 8.0, 33)
    comp = certify_survival_comparison(generator, minor.reference, grid)
    doubled = np.linspace(0.0, 8.0, 65)
    comp_again = certify_survival_comparison(generator, minor.reference, doubled)

    ok = (minor.valid and minor.mass > 0
          and abs(mass_again - minor.mass) < 1e-9
          and minor.reproduction < 1e-9
          and comp.valid and comp.ratio > 0
          and abs(comp_again.ratio - comp.ratio) < 1e-9
          and comp.reproduction < 1e-9)
    gate(5, "return-mass and survival certificates", ok)
    assert minor.valid and minor.mass > 0
    assert abs(mass_again - minor.mass) < 1e-9, (
        f"half-step recomputation moved the mass by {abs(mass_again - minor.mass):.3e}")
    assert minor.reproduction < 1e-9
    assert comp.valid and comp.ratio > 0
    assert abs(comp_again.ratio - comp.ratio) < 1e-9, (
        f"doubled grid moved the ratio by {abs(comp_again.ratio - comp.ratio):.3e}")
    assert comp.reproduction < 1e-9


# ---------------------------------------------------------------------------
# criterion 6: the bounded potential, its drift, and the conditioned
# integral form of the drift
# ---------------------------------------------------------------------------


def test_criterion_06_potential_drift_machinery(gate, ref2d_system):
    # Bounds and the integral-comparison sandwich on 10^4 random triples.
    rng = np.random.default_rng(60)
    eps_pool = rng.uniform(0.01, 4.0, 50)
    bounds_ok = True
    sandwich_ok = True
    for _ in range(10**4):
        eps = float(eps_pool[rng.integers(0, len(eps_pool))])
        m = int(rng.integers(1, 2000))
        n = m + int(rng.integers(0, 2000))
        v_m = size_potential((m,), eps)
        v_n = size_potential((n,), eps)
        bounds_ok = bounds_ok and (1.0 <= v_m <= 1.0 + 1.0 / eps
                                   and 1.0 <= v_n <= 1.0 + 1.0 / eps)
        lower, upper = size_potential_bracket(m, n, eps)
        gap = v_n - v_m
        sandwich_ok = sandwich_ok and (lower - 1e-12 <= gap <= upper + 1e-12)

    # Witnessed affine drift bound on the single-type logistic model.
    drift = check_drift(logistic_1d(), eps=0.5, n_check=10**4)

    # Integral form along the exact conditioned path, from a start with
    # real boundary pressure so the inequality has an honest margin.
    model, space, generator, _ = ref2d_system
    mu0 = np.zeros(len(space.states))
    mu0[space.index[(30, 29)]] = 1.0
    times = np.arange(0.0, 5.0 + 1e-12, 0.01)
    conditioned = check_conditional_drift(
        model, generator, mu0, times, eps=PotentialParams.for_model(model).eps)

    ok = (bounds_ok and sandwich_ok
          and drift.verdict == "pass-on-range"
          and drift.offset > 0 and drift.coercivity > 0
          and conditioned.verdict == "pass-on-range"
          and conditioned.worst_margin > 0)
    gate(6, "potential drift machinery", ok)
    assert bounds_ok, "a potential value left [1, 1 + 1/eps]"
    assert sandwich_ok, "a potential gap left its integral bracket"
    assert drift.verdict == "pass-on-range"
    assert drift.offset > 0 and drift.coercivity > 0
    assert conditioned.verdict == "pass-on-range"
    assert conditioned.worst_margin > 0


# ---------------------------------------------------------------------------
# criterion 7: the coexistence threshold for exchangeable competition
# ---------------------------------------------------------------------------


def test_criterion_07_coexistence_threshold(gate):
    cases = [(3, 1.0, "pass-on-range"), (4, 1.0, "fail"),
             (9, 3.0, "pass-on-range")]
    verdicts_ok = True
    margins_ok = True
    for r, gamma, expected in cases:
        report = check_neutral_threshold(r=r, gamma=gamma)
        verdicts_ok = verdicts_ok and report.verdict == expected
        if expected == "pass-on-range":
            eps = report.constants["eps"]
            delta = report.constants["delta"]
            lhs = (r - 1) / gamma * (1.0 - eps / gamma) ** (gamma / eps - 1.0)
            margins_ok = margins_ok and delta > 0 and lhs <= 1.0 - delta
    ok = verdicts_ok and margins_ok
    gate(7, "coexistence threshold", ok)
    assert verdicts_ok, "a threshold verdict disagrees with the exact rule"
    assert margins_ok, "a reported (eps, delta) fails exact re-evaluation"


# ---------------------------------------------------------------------------
# criterion 8: Monte Carlo estimators against the exact solver, with
# byte-identical fixed-seed reruns
# ---------------------------------------------------------------------------


def test_criterion_08_monte_carlo_matches_the_solver(gate, ref2d_system):
    model, space, generator, _ = ref2d_system
    initial = (4, 4)
    mu0 = space.point_mass(initial)

    exact_3, _ = transient_conditional(generator, mu0, 3.0)
    started = time.perf_counter()
    naive = estimate_conditional(model, initial, 3.0, 10**5, RngPlan(2026))
    naive_seconds = time.perf_counter() - started
    naive_tv = _tv_to_vector(naive.law, space, exact_3)
    naive_again = estimate_conditional(model, initial, 3.0, 10**5, RngPlan(2026))
    naive_identical = (naive.law.weights == naive_again.law.weights
                       and naive.survivors == naive_again.survivors)

    exact_10, _ = transient_conditional(generator, mu0, 10.0)
    started = time.perf_counter()
    particles = fleming_viot(model, initial, 10**4, 10.0, RngPlan(808))
    fv_seconds = time.perf_counter() - started
    fv_tv = _tv_to_vector(particles.occupation, space, exact_10)
    particles_again = fleming_viot(model, initial, 10**4, 10.0, RngPlan(808))
    fv_identical = (particles.occupation.weights
                    == particles_again.occupation.weights
                    and particles.law.weights == particles_again.law.weights
                    and particles.deaths == particles_again.deaths)

    ok = (naive_tv < 0.05 and fv_tv < 0.05 and naive_identical
          and fv_identical and naive_seconds < 120.0 and fv_seconds < 120.0)
    gate(8, "Monte Carlo consistency", ok)
    assert naive_tv < 0.05, f"naive-conditioning TV: {naive_tv:.4f}"
    assert fv_tv < 0.05, f"particle-occupation TV: {fv_tv:.4f}"
    assert naive_identical, "fixed-seed naive rerun differs"
    assert fv_identical, "fixed-seed particle rerun differs"
    assert naive_seconds < 120.0, f"naive estimator took {naive_seconds:.1f}s"
    assert fv_seconds < 120.0, f"particle system took {fv_seconds:.1f}s"


# ---------------------------------------------------------------------------
# criterion 9: catastrophe and litter extensions keep every solver
# guarantee
# ---------------------------------------------------------------------------


def test_criterion_09_extension_channels(gate):
    passing = check_catastrophes(catastrophe_logistic_1d(0.5), 10000)
    failing = check_catastrophes(catastrophe_logistic_1d(2.0), 10000)
    litter = check_multibirth(multibirth_uniform_1d())
    checks_ok = (passing.verdict == "pass-on-range"
                 and failing.verdict == "fail"
                 and litter.verdict == "pass-on-range"
                 and litter.constants["mean_total_size"] == 2.0)

    # The extended models must keep the fixed-point and survival
    # guarantees of criteria 2 and 3 at the same tolerances.
    worst_tv = 0.0
    worst_rel = 0.0
    for model, N in ((catastrophe_logistic_1d(0.5), 40),
                     (multibirth_uniform_1d(), 50)):
        space = enumerate_space(1, N)
        generator = assemble(model, space)
        result = solve_qsd(generator)
        for t in (0.5, 1.0, 5.0):
            law_t, _ = transient_conditional(generator, result.law, t)
            worst_tv = max(worst_tv, tv_distance(law_t, result.law))
        for t in np.linspace(0.0, 5.0, 21):
            _, survival = transient_conditional(generator, result.law, float(t))
            expected = math.exp(-result.decay_rate * t)
            worst_rel = max(worst_rel, abs(survival - expected) / expected)

    ok = checks_ok and worst_tv < 1e-8 and worst_rel < 1e-6
    gate(9, "catastrophe and litter extensions", ok)
    assert passing.verdict == "pass-on-range"
    assert failing.verdict == "fail"
    assert litter.verdict == "pass-on-range"
    assert litter.constants["mean_total_size"] == 2.0
    assert worst_tv < 1e-8, f"worst extension fixed-point TV: {worst_tv:.3e}"
    assert worst_rel < 1e-6, f"worst extension survival error: {worst_rel:.3e}"


# ---------------------------------------------------------------------------
# criterion 10: the conditioned-forever chain on the two-state closed form
# ---------------------------------------------------------------------------


def test_criterion_10_qprocess_is_conservative_and_mixes(gate):
    model = logistic_1d()
    space = enumerate_space(1, 2)
    generator = assemble(model, space)
    result = solve_qsd(generator, tol=1e-15)

    transformed = qprocess_generator(model, result)
    row_defect = float(np.abs(np.asarray(transformed.sum(axis=1))).max())

    stationary = result.law * result.survival_profile
    stationary /= stationary.sum()
    path = simulate_qprocess(model, result, (1,), 1000.0, RngPlan(42).stream(0))
    occupation = occupation_measure(path, t_start=50.0)
    occupation_tv = _tv_to_vector(occupation, space, stationary)

    ok = row_defect < 1e-12 and occupation_tv < 0.05
    gate(10, "q-process", ok)
    assert row_defect < 1e-12, f"transformed rows sum to {row_defect:.3e}"
    assert occupation_tv < 0.05, f"occupation TV: {occupation_tv:.4f}"
