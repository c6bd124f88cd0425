"""Finite-range hypothesis checks and the size-potential machinery.

Worked oracles used here, all checkable by hand or by an independent
one-liner:

  * the size potential is the partial sum V(m) = sum_{j<=m} j^(-1-eps),
    so 1 <= V <= zeta(1+eps) <= 1 + 1/eps and integral comparison gives
    two-sided bounds for differences;
  * for the one-type logistic model (b=1, c=1) the potential drift at
    size n is  n*[V(n+1)-V(n)] + n^2*[V(n-1)-V(n)], which behaves like
    n^(-eps) - n^(1-eps) -> the sweep must certify negative drift with
    coercivity about 1/2 for eps = 1/2;
  * exchangeable coexistence: r types with equal competition coexist
    exactly when r < 1 + e*gamma (r=3 yes, r=4 no at gamma=1; r=9 yes
    at gamma=3);
  * total-loss rates: with death n^2 and loss rate a*n, smallness
    a*n <= delta*n^2 holds from the first size on with delta = a, so the
    check passes for a = 1/2 and fails for a = 2 with witness at n = 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdlab import lyapunov
from qsdlab.errors import DomainError, ValidationError
from qsdlab.lyapunov import (
    PotentialParams,
    _potential_drift,
    apply_generator,
    check_boundary_pressure,
    check_catastrophes,
    check_competition_dominance,
    check_conditional_drift,
    check_drift,
    check_growth_envelope,
    check_multibirth,
    check_neutral_threshold,
    sample_shells,
    size_potential,
    size_potential_bracket,
)
from qsdlab.model import Model
from qsdlab.presets import (
    catastrophe_logistic_1d,
    logistic_1d,
    mixed_dominance_2d,
    multibirth_uniform_1d,
    neutral,
    reference_2d,
    strong_intra_2d,
)
from qsdlab.solver import (POISSON_TAIL, assemble, enumerate_space,
                           evolve_measure)


# ---------------------------------------------------------------------------
# size potential
# ---------------------------------------------------------------------------


def test_potential_is_the_partial_zeta_sum():
    eps = 0.5
    expected = sum(j ** (-1.5) for j in range(1, 8))
    assert size_potential((3, 4), eps) == pytest.approx(expected, rel=1e-14)
    assert size_potential((7,), eps) == pytest.approx(expected, rel=1e-14)


def test_potential_vanishes_on_the_boundary():
    assert size_potential((0,), 0.5) == 0.0
    assert size_potential((0, 5), 0.5) == 0.0


def test_potential_starts_at_one():
    assert size_potential((1,), 0.25) == 1.0
    assert size_potential((1, 0), 0.25) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 5000),
       st.floats(0.02, 3.0, allow_nan=False))
def test_potential_bounds_and_bracket(m, n, eps):
    m, n = sorted((m, n))
    v_m = size_potential((m,), eps)
    v_n = size_potential((n,), eps)
    assert 1.0 <= v_m <= 1.0 + 1.0 / eps + 1e-12
    assert v_m <= v_n  # nondecreasing in the total size
    lower, upper = size_potential_bracket(m, n, eps)
    gap = v_n - v_m
    assert lower <= gap + 1e-12
    assert gap <= upper + 1e-12


def test_bracket_is_exact_integral_comparison():
    lower, upper = size_potential_bracket(3, 9, 0.5)
    assert lower == pytest.approx((10 ** -0.5 - 4 ** -0.5) / -0.5, rel=1e-14)
    assert upper == pytest.approx((3 ** -0.5 - 9 ** -0.5) / 0.5, rel=1e-14)
    zero = size_potential_bracket(5, 5, 0.5)
    assert zero == (0.0, 0.0)


def test_default_potential_window_sits_inside_the_exponent_gap():
    params = PotentialParams.for_model(reference_2d())
    assert 0.0 < params.eps < reference_2d().gamma


# ---------------------------------------------------------------------------
# generator application
# ---------------------------------------------------------------------------


def test_apply_generator_matches_hand_sum():
    model = logistic_1d()
    f = lambda n: float(n[0] ** 2)
    # at n=3: birth 3*(16-9) + death 9*(4-9)
    assert apply_generator(model, f, (3,)) == pytest.approx(3 * 7 - 9 * 5)


def test_apply_generator_counts_absorbing_moves():
    model = logistic_1d()
    f = lambda n: 1.0 if n[0] > 0 else 0.0
    # at n=1: birth keeps f at 1 (no change), death kills 1 -> -1
    assert apply_generator(model, f, (1,)) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# shell sampling
# ---------------------------------------------------------------------------


def test_one_type_shells_are_a_full_sweep():
    shells = sample_shells(1, 200)
    assert sorted(shells) == list(range(1, 201))
    assert all(shells[s] == [(s,)] for s in shells)


def test_multi_type_shells_cover_the_range_with_mixes():
    shells = sample_shells(2, 5000)
    assert max(shells) == 5000
    assert min(shells) == 2
    big = shells[5000]
    # balanced and lopsided representatives at the far end
    assert any(abs(s[0] - s[1]) <= 1 for s in big)
    assert any(min(s) == 1 for s in big)
    for size, states in shells.items():
        assert all(sum(s) == size and min(s) >= 1 for s in states)


def test_shell_checks_match_scalar_per_state_loops():
    # Reference: the per-state scalar arithmetic and running strict
    # comparisons of a plain loop over the shells.  The checkers must
    # reproduce it bit for bit, ties included, here with three types, a
    # non-integer gamma and state-dependent rates.
    base = np.array([[1.0, 2.0, 1.5], [1.2, 0.8, 2.0], [1.6, 1.4, 1.5]])
    model = Model.from_callbacks(
        r=3, gamma=1.05, birth=lambda n: np.full(3, 2.0),
        death=lambda n: np.full(3, 0.5),
        competition=lambda n: base * (1.0 + 1.0 / (1.0 + n[0])),
        catastrophe=lambda n: 0.3 * math.log1p(sum(n)))
    eps = PotentialParams.for_model(model).eps
    shells = sample_shells(3, 40)
    last = max(shells)
    dominance, pressure, loss = [], [], []
    for n in shells[last]:
        c = np.asarray(model.competition(n), dtype=float)
        diag = np.diag(c)
        dominance.append(float(diag.min()) / (
            float(c.sum() - diag.sum()) + float(diag.sum()) / last))
        arr = np.asarray(n, dtype=float)
        powered = (c @ arr) ** model.gamma
        edge = arr == 1
        bulk = float(np.sum((arr[~edge] / last) * powered[~edge]))
        pressure.append(bulk / last ** model.gamma)
        loss.append(model.catastrophe(n) / (
            float(diag.min()) * last ** model.gamma))
    report = check_competition_dominance(model, 40)
    assert report.verdict == "fail"
    assert report.constants["ratio_at_range_end"] == min(dominance)
    assert report.witness == shells[last][dominance.index(min(dominance))]
    report = check_boundary_pressure(model, 40)
    assert report.verdict == "fail"
    assert report.constants["scaled_pressure_at_range_end"] == min(pressure)
    assert report.witness == shells[last][pressure.index(min(pressure))]
    report = check_catastrophes(model, 40)
    assert report.constants["ratio_at_range_end"] == max(loss)
    drift = check_drift(model, eps, 40)
    assert list(drift.curve_values) == [
        max(apply_generator(model, lambda m: size_potential(m, eps), n)
            for n in shells[s]) for s in sorted(shells)]


# ---------------------------------------------------------------------------
# growth envelope
# ---------------------------------------------------------------------------


def test_envelope_passes_constant_coefficients():
    report = check_growth_envelope(reference_2d(), n_check=2000)
    assert report.verdict == "pass-on-range"


def test_envelope_recovers_fitted_exponents():
    model = Model.power_law(
        b=(2.0,), d=(0.5,), c=((1.0,),), gamma=1.0, beta1=0.3, beta2=0.5)
    stripped = Model.from_callbacks(
        r=1, gamma=1.0, birth=model.birth, death=model.death,
        competition=model.competition)
    report = check_growth_envelope(stripped, n_check=3000)
    assert report.verdict == "pass-on-range"
    assert report.constants["beta1"] == pytest.approx(0.3, abs=0.05)
    assert report.constants["beta2"] == pytest.approx(0.5, abs=0.05)


def test_envelope_fails_when_births_outrun_the_death_channel():
    grower = Model.from_callbacks(
        r=1, gamma=1.0,
        birth=lambda n: ((1.0 + float(n[0])) ** 1.5,),
        death=lambda n: (0.0,),
        competition=lambda n: ((1.0,),))
    report = check_growth_envelope(grower, n_check=2000)
    assert report.verdict == "fail"
    assert report.margins["exponent_margin"] < 0


@pytest.mark.parametrize("bad_birth", [0.0, math.nan])
def test_envelope_fails_on_a_positivity_violation_with_witness(bad_birth):
    dying = Model.from_callbacks(
        r=1, gamma=1.0,
        birth=lambda n: (1.0 if n[0] != 7 else bad_birth,),
        death=lambda n: (0.0,),
        competition=lambda n: ((1.0,),))
    report = check_growth_envelope(dying, n_check=50)
    assert report.verdict == "fail"
    assert report.witness == (7,)


# ---------------------------------------------------------------------------
# competition dominance
# ---------------------------------------------------------------------------


def test_dominance_passes_strong_self_competition():
    report = check_competition_dominance(strong_intra_2d(), n_check=4000)
    assert report.verdict == "pass-on-range"
    assert report.constants["ratio_at_range_end"] > 100


def test_dominance_fails_the_neutral_model_with_witness():
    report = check_competition_dominance(neutral(r=3), n_check=2000)
    assert report.verdict == "fail"
    # every state of the last shell ties; the first one is the witness
    assert report.witness == (1, 1, 1998)


# ---------------------------------------------------------------------------
# boundary pressure
# ---------------------------------------------------------------------------


def test_boundary_pressure_passes_scaled_cross_terms():
    report = check_boundary_pressure(mixed_dominance_2d(), n_check=3000)
    assert report.verdict == "pass-on-range"


def test_boundary_pressure_fails_for_flat_cross_competition():
    report = check_boundary_pressure(reference_2d(), n_check=3000)
    assert report.verdict == "fail"


# ---------------------------------------------------------------------------
# coexistence threshold
# ---------------------------------------------------------------------------


def test_threshold_verdicts_across_the_boundary():
    passing = check_neutral_threshold(r=3, gamma=1.0)
    failing = check_neutral_threshold(r=4, gamma=1.0)
    high_gamma = check_neutral_threshold(r=9, gamma=3.0)
    assert passing.verdict == "pass-on-range"
    assert failing.verdict == "fail"
    assert high_gamma.verdict == "pass-on-range"


def test_threshold_constants_reverify_exactly():
    for r, gamma in ((3, 1.0), (9, 3.0), (5, 2.0)):
        report = check_neutral_threshold(r=r, gamma=gamma)
        assert report.verdict == "pass-on-range"
        eps = report.constants["eps"]
        delta = report.constants["delta"]
        assert delta > 0
        lhs = (r - 1) / gamma * (1.0 - eps / gamma) ** (gamma / eps - 1.0)
        assert lhs <= 1.0 - delta


def _scanned_threshold(r, gamma):
    """Verdict, eps and delta of the search over 600 geometric exponents
    that the closed form replaced, step for step."""
    best_eps, best_factor = None, math.inf
    for x in np.geomspace(1e-4, 0.999, 600):
        factor = (r - 1) / gamma * math.exp((1.0 - x) / x * math.log1p(-x))
        if factor < best_factor:
            best_factor, best_eps = factor, x * gamma
    eps = delta = None
    if best_factor < 1.0:
        lhs = (r - 1) / gamma * (1.0 - best_eps / gamma) ** (
            gamma / best_eps - 1.0)
        eps, delta = float(best_eps), float((1.0 - lhs) * (1.0 - 1e-9))
    arithmetic = r < 1.0 + math.e * gamma
    if arithmetic and eps is not None:
        return "pass-on-range", eps, delta
    return ("inconclusive" if arithmetic else "fail"), eps, delta


def test_threshold_closed_form_has_the_bits_of_the_exponent_search():
    cases = [(r, float(gamma)) for r in range(1, 13)
             for gamma in np.geomspace(1e-3, 1e3, 61)]
    near = {}
    for r in range(2, 13):
        for s in (1e-4, 1e-5, -1e-5, -1e-4):
            near[r, s] = (r - 1) / math.e * (1.0 + s)
            cases.append((r, near[r, s]))
    for r, gamma in cases:
        report = check_neutral_threshold(r=r, gamma=gamma)
        assert report.checked_range == 1
        got = (report.verdict, report.constants.get("eps"),
               report.constants.get("delta"))
        assert got == _scanned_threshold(r, gamma), (r, gamma)
    # Just above the threshold's gamma the one exponent certifies; closer
    # in it cannot, though the arithmetic still holds; below it fails.
    expected = {1e-4: "pass-on-range", 1e-5: "inconclusive",
                -1e-5: "fail", -1e-4: "fail"}
    for r in (2, 3, 5):
        for s, verdict in expected.items():
            report = check_neutral_threshold(r=r, gamma=near[r, s])
            assert report.verdict == verdict, (r, s)
    report = check_neutral_threshold(r=3, gamma=near[3, 1e-5])
    assert "eps" not in report.constants
    assert report.notes == ["below the threshold but no constructive margin "
                            "found at the smallest exponent"]


def test_threshold_reads_the_neutral_preset():
    report = check_neutral_threshold(model=neutral(r=3))
    assert report.verdict == "pass-on-range"
    report = check_neutral_threshold(model=neutral(r=4))
    assert report.verdict == "fail"


def test_threshold_is_inconclusive_off_the_exchangeable_family():
    report = check_neutral_threshold(model=reference_2d())
    assert report.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# potential drift sweep
# ---------------------------------------------------------------------------


def test_drift_certifies_the_logistic_model():
    report = check_drift(logistic_1d(), eps=0.5, n_check=10000)
    assert report.verdict == "pass-on-range"
    assert report.coercivity > 0.4
    assert report.offset > 0
    # certified inequality re-checked here on a subsample
    for size in (10, 100, 5000, 10000):
        drift = apply_generator(
            logistic_1d(), lambda n: size_potential(n, 0.5), (size,))
        assert drift <= report.offset - report.coercivity * size ** report.exponent


def test_drift_fails_a_growing_model():
    grower = Model.from_callbacks(
        r=1, gamma=1.0,
        birth=lambda n: (3.0,),
        death=lambda n: (0.0,),
        competition=lambda n: ((1.0 / (1.0 + float(n[0])),),))  # washed out
    report = check_drift(grower, eps=0.5, n_check=500)
    assert report.verdict == "fail"
    assert report.witness is not None


def test_drift_rejects_eps_outside_the_window():
    with pytest.raises((DomainError, ValueError)):
        check_drift(logistic_1d(), eps=0.0)
    with pytest.raises((DomainError, ValueError)):
        check_drift(logistic_1d(), eps=-0.3)


# ---------------------------------------------------------------------------
# conditioned-moment inequality
# ---------------------------------------------------------------------------


def _conditional_ingredients(initial, n_max, t_max, h):
    model = logistic_1d()
    space = enumerate_space(1, n_max)
    generator = assemble(model, space)
    mu0 = np.zeros(len(space.states))
    mu0[space.index[initial]] = 1.0
    times = np.arange(0.0, t_max + 1e-12, h)
    return model, generator, mu0, times


def test_conditional_drift_margin_shrinks_with_the_grid():
    margins = {}
    for h in (0.002, 0.001):
        model, generator, mu0, times = _conditional_ingredients(
            (12,), 25, 3.0, h)
        report = check_conditional_drift(model, generator, mu0, times, eps=0.5)
        # interior start: leakage is nil, so the relation is an identity and
        # the honest verdict stays inconclusive at any resolution ...
        assert report.verdict == "inconclusive"
        margins[h] = abs(report.worst_margin)
    # ... while the quadrature honesty shows as second-order shrinkage
    assert margins[0.001] == pytest.approx(margins[0.002] / 4.0, rel=0.2)


def test_conditional_drift_passes_with_real_edge_pressure(ref2d_system):
    model, space, generator, _ = ref2d_system
    mu0 = np.zeros(len(space.states))
    mu0[space.index[(30, 29)]] = 1.0
    times = np.arange(0.0, 5.0 + 1e-12, 0.01)
    report = check_conditional_drift(model, generator, mu0, times,
                                     eps=PotentialParams.for_model(model).eps)
    assert report.verdict == "pass-on-range"
    assert report.worst_margin > 0
    assert report.smallest_constant > 0


def test_conditional_drift_flags_underresolved_grids():
    model, generator, mu0, times = _conditional_ingredients(
        (39,), 40, 1.0, 0.01)
    report = check_conditional_drift(model, generator, mu0, times, eps=0.25)
    assert report.verdict == "inconclusive"


def _stepped_moments(Q, mu0, times, F):
    """An independent route: the measure stepped from grid time to grid
    time by :func:`evolve_measure`, then normalized and contracted with
    ``F``."""
    nu, prev, means, survivals = mu0, 0.0, [], []
    for t in times:
        nu = evolve_measure(Q, nu, t - prev)
        prev = t
        survivals.append(nu.sum())
        means.append(nu / survivals[-1] @ F)
    return np.array(means), np.array(survivals), 0


@pytest.mark.parametrize("case", ["ref2d-edge", "ref2d-corner", "logistic",
                                  "underresolved"])
def test_conditional_drift_matches_the_stepped_laws(case, ref2d_system,
                                                    monkeypatch):
    if case.startswith("ref2d"):
        model, space, generator, _ = ref2d_system
        mu0 = np.zeros(len(space.states))
        mu0[space.index[(30, 29) if case == "ref2d-edge" else (1, 1)]] = 1.0
        times = np.arange(0.0, 5.0 + 1e-12, 0.01)
        eps = PotentialParams.for_model(model).eps
    elif case == "logistic":
        model, generator, mu0, times = _conditional_ingredients(
            (1,), 50, 5.0, 0.01)
        eps = 0.5
    else:
        model, generator, mu0, times = _conditional_ingredients(
            (39,), 40, 1.0, 0.01)
        eps = 0.25
    report = check_conditional_drift(model, generator, mu0, times, eps)
    monkeypatch.setattr(lyapunov, "conditional_moments", _stepped_moments)
    stepped = check_conditional_drift(model, generator, mu0, times, eps)
    assert report.verdict == stepped.verdict
    assert report.notes == stepped.notes
    for name in ("worst_margin", "quadrature_error", "smallest_constant"):
        assert getattr(report, name) == pytest.approx(
            getattr(stepped, name), rel=1e-12, abs=1e-13)
    data = report.to_dict()
    assert list(data) == ["name", "verdict", "eps", "t_max", "grid_points",
                          "worst_margin", "quadrature_error",
                          "smallest_constant", "products", "poisson_tail",
                          "notes"]
    assert data["poisson_tail"] == POISSON_TAIL
    lam_t = generator.lam * times[-1]
    assert 0 < data["products"] <= math.ceil(
        lam_t + 10.0 * math.sqrt(lam_t) + 30.0)


def test_potential_drift_matches_apply_generator():
    # Sizes past any cached potential table, litters, catastrophes and a
    # move onto the boundary from a one-individual state.
    cases = [(logistic_1d(), [(1,), (7,), (61,), (5000,)]),
             (multibirth_uniform_1d(), [(1,), (4,), (9000,)]),
             (catastrophe_logistic_1d(), [(1,), (2,), (3000,)]),
             (reference_2d(), [(1, 1), (2, 3), (3000, 2500)])]
    for eps in (0.25, 0.5):
        for model, states in cases:
            here, drift = _potential_drift(model.move_table(states), eps)
            for i, n in enumerate(states):
                assert here[i] == size_potential(n, eps)
                assert drift[i] == apply_generator(
                    model, lambda m: size_potential(m, eps), n)
    model, generator, mu0, times = _conditional_ingredients((5,), 10, 0.5, 0.1)
    with pytest.raises(ValidationError):
        check_conditional_drift(model, generator, mu0, times, eps=-0.5)


def test_conditional_drift_rejects_nonuniform_grids():
    model, generator, mu0, times = _conditional_ingredients(
        (5,), 10, 0.5, 0.1)
    bad_times = times.copy()
    bad_times[-1] += 0.05
    with pytest.raises(DomainError):
        check_conditional_drift(model, generator, mu0, bad_times, eps=0.5)


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------


def test_catastrophe_smallness_verdicts():
    assert check_catastrophes(catastrophe_logistic_1d()).verdict == "pass-on-range"
    steep = catastrophe_logistic_1d(rate_coef=2.0)
    report = check_catastrophes(steep)
    assert report.verdict == "fail"
    assert report.witness == (1,)


def test_catastrophe_check_accepts_models_without_the_channel():
    report = check_catastrophes(logistic_1d())
    assert report.verdict == "pass-on-range"
    assert report.constants["delta"] == 0.0


def test_multibirth_mean_litter_bound():
    report = check_multibirth(multibirth_uniform_1d())
    assert report.verdict == "pass-on-range"
    assert report.constants["mean_total_size"] == pytest.approx(2.0)


def test_multibirth_check_handles_single_births():
    report = check_multibirth(logistic_1d())
    assert report.verdict == "pass-on-range"
    assert report.constants["mean_total_size"] == pytest.approx(1.0)


def test_multibirth_state_dependent_law_uses_the_declared_bound():
    from qsdlab.model import LitterLaw

    def law(n):
        return {(1,): 0.5, (2,): 0.5} if n[0] % 2 else {(1,): 1.0}

    with_bound = Model.constant(
        b=(1.0,), d=(0.0,), c=((1.0,),), gamma=1.0,
        litter=LitterLaw(law, declared_mean_bound=1.5))
    report = check_multibirth(with_bound)
    assert report.verdict == "pass-on-range"
    assert report.constants["mean_total_size"] == pytest.approx(1.5)

    without_bound = Model.constant(
        b=(1.0,), d=(0.0,), c=((1.0,),), gamma=1.0, litter=LitterLaw(law))
    assert check_multibirth(without_bound).verdict == "inconclusive"


def test_reports_serialize_to_plain_dicts():
    report = check_neutral_threshold(r=3, gamma=1.0)
    payload = report.to_dict()
    assert payload["verdict"] == "pass-on-range"
    assert isinstance(payload["constants"]["delta"], float)
