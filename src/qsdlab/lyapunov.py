"""Finite-range certification of drift and shape hypotheses.

Every asymptotic hypothesis about a model (rate envelopes, self-regulation
dominating cross-pressure, drift of a bounded potential, smallness of
catastrophes) is checked on an explicit range of population sizes.  A check
never claims anything beyond its range: verdicts are ``pass-on-range`` with
explicitly witnessed constants, ``fail`` with a concrete witness state, or
``inconclusive`` when the sampled evidence cannot settle the question.

The bounded potential used throughout is a truncated power series in the
total population size: it is 1 at size one, increases toward a finite limit
``1 + 1/eps``, and is 0 on absorbed states.  Differences of the potential
between two sizes telescope, which gives sharp two-sided brackets without
summing the series.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .model import Model, MoveTable, is_absorbed, is_interior
from .solver import POISSON_TAIL, _lex_states, conditional_moments

PASS = "pass-on-range"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

# A log-log slope shallower than this counts as "bounded" for growth
# heuristics, and steeper than its negative as "decaying".
_FLAT_SLOPE = 0.05
# Relative slack when testing monotonicity of sampled curves.
_MONOTONE_SLACK = 1e-9
# Half-grid quadrature-error estimates are compared against margins with
# this safety factor, since they assume the asymptotic refinement regime.
_QUAD_SAFETY = 3.0
# Small shells are enumerated exhaustively until this many states are
# sampled; larger sizes get a geometric ladder of representatives.
_DENSE_BUDGET = 4000
# A dominance or bulk-pressure curve must reach this value at the range end.
_GROWTH_THRESHOLD = 10.0
# A loss-to-competition ratio at the range end must not exceed this value.
_DECAY_THRESHOLD = 0.1


# ---------------------------------------------------------------------------
# bounded size potential
# ---------------------------------------------------------------------------

def _potential_table(eps: float, size: int) -> np.ndarray:
    """Cumulative sums of j**-(1+eps); entry s is the potential at size s,
    with the bits it has in any longer table, since the sums run in order."""
    js = np.arange(1, size + 1, dtype=float)
    return np.concatenate(([0.0], np.cumsum(js ** -(1.0 + eps))))


def size_potential(n, eps: float) -> float:
    """Bounded potential of a state, a function of total size alone.

    Interior states map to ``sum(1/j**(1+eps) for j=1..|n|)``; absorbed
    states map to 0.  Values lie in ``[1, 1 + 1/eps)`` on the interior.
    """
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    if is_absorbed(n):
        return 0.0
    size = int(sum(n))
    return float(_potential_table(eps, size)[size])


def size_potential_bracket(smaller: int, larger: int, eps: float):
    """Two-sided bracket for the potential gap between two interior sizes.

    For total sizes ``1 <= smaller <= larger`` the gap ``V(larger) -
    V(smaller)`` is a tail sum of ``j**-(1+eps)``; integral comparison
    brackets it without evaluating the sum.  Returns ``(lower, upper)``.
    """
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    if not 1 <= smaller <= larger:
        raise DomainError(
            f"need 1 <= smaller <= larger, got {smaller}, {larger}")
    lower = ((smaller + 1) ** -eps - (larger + 1) ** -eps) / eps
    upper = (smaller ** -eps - larger ** -eps) / eps
    return lower, upper


def apply_generator(model: Model, f, n) -> float:
    """Evaluate ``sum(rate * (f(target) - f(n)))`` over all moves from n.

    ``f`` must accept every reachable target, including absorbed states.
    Summation follows the model's fixed move enumeration, so the result is
    bit-reproducible.
    """
    if len(n) != model.r:
        raise DomainError(f"state {n} has arity {len(n)}, model has {model.r}")
    if not is_interior(n):
        raise DomainError(f"state {n} is not interior")
    targets, rates, _ = model.transition_table(n)
    fn = f(n)
    total = 0.0
    for target, rate in zip(targets, rates):
        total += rate * (f(target) - fn)
    return float(total)


def _potential_drift(moves: MoveTable, eps: float):
    """``V(n)`` and ``(L V)(n)`` of the bounded potential at every state of
    ``moves``: the bits of :func:`apply_generator` with ``size_potential``,
    each generator sum taken over the state's moves in order."""
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    sizes = moves.states.sum(axis=1)
    reached = moves.targets.sum(axis=2)
    table = _potential_table(eps, int(max(sizes.max(), reached.max())))
    here = table[sizes]
    there = np.where(moves.absorbed(), 0.0, table[reached])
    return here, moves.sum(moves.rates * (there - here[:, None]))


@dataclass(frozen=True)
class PotentialParams:
    """A candidate exponent for the bounded potential plus its valid window."""

    eps: float
    window: tuple

    @classmethod
    def for_model(cls, model: Model, eps: float | None = None):
        """Window ``(0, gamma*(1 - beta2))``; default eps is the midpoint."""
        beta2 = model.beta2 if model.beta2 is not None else 0.0
        high = model.gamma * (1.0 - beta2)
        if high <= 0:
            raise ValidationError(
                f"no admissible potential exponent: gamma*(1-beta2) = {high}")
        if eps is None:
            eps = high / 2.0
        if not 0.0 < eps < high:
            raise DomainError(
                f"eps {eps} outside the admissible window (0, {high})")
        return cls(eps=float(eps), window=(0.0, float(high)))


# ---------------------------------------------------------------------------
# deterministic shell sampling
# ---------------------------------------------------------------------------

def _states_of_size(r: int, size: int):
    """All interior states of ``r >= 2`` types with the given total size.

    Lexicographic: the first ``r - 1`` coordinates run through the states of
    total size below ``size`` and the last one takes up the rest.
    """
    return [m + (size - sum(m),) for m in _lex_states(r - 1, size - 1)]


def _shell_representatives(r: int, size: int):
    """A small deterministic cross-section of the shell |n| = size, for
    ``r >= 2`` types."""
    reps = set()
    base, rem = divmod(size, r)
    if base >= 1:
        reps.add(tuple(base + (1 if i < rem else 0) for i in range(r)))
    for i in range(r):
        big = size - (r - 1)
        if big >= 1:
            corner = [1] * r
            corner[i] = big
            reps.add(tuple(corner))
        half = size // 2
        rest = size - half
        if half >= 1 and rest >= r - 1:
            lop = [rest // (r - 1)] * (r - 1)
            for k in range(rest - sum(lop)):
                lop[k % (r - 1)] += 1
            state = lop[:i] + [half] + lop[i:]
            if min(state) >= 1:
                reps.add(tuple(state))
    return sorted(reps)


def sample_shells(r: int, n_check: int):
    """Deterministic per-size samples of states up to total size n_check.

    Returns ``{size: [states]}``.  Small shells are enumerated exhaustively
    until the budget is spent; larger sizes get a geometric ladder of
    cross-section representatives (balanced, single-type-dominant, and
    half-loaded states).  One type means every shell is the single state.
    """
    if n_check < r:
        raise DomainError(f"n_check {n_check} below smallest size {r}")
    shells = {}
    if r == 1:
        for s in range(1, n_check + 1):
            shells[s] = [(s,)]
        return shells
    budget = _DENSE_BUDGET
    size = r
    while size <= n_check:
        states = _states_of_size(r, size)
        if len(states) > budget:
            break
        shells[size] = states
        budget -= len(states)
        size += 1
    if size <= n_check:
        ladder = np.unique(np.round(
            np.geomspace(size, n_check, 40)).astype(int))
        for s in ladder:
            shells[int(s)] = _shell_representatives(r, int(s))
    return shells


class _Sweep:
    """The sampled states in shell order, with their rates evaluated once.

    Shell ``k`` has total size ``sizes[k]`` and its states start at
    ``starts[k]``; ``shell`` maps each state to its shell.  Per state:
    ``states``, an int array of shape ``(m, r)``, ``b`` and ``d`` of shape
    ``(m, r)``, ``c`` of shape ``(m, r, r)`` and its diagonal ``diag``, and
    ``loss``, the catastrophe rates (``None`` without that channel), as the
    model's callables give them, for :meth:`Model.move_table` to read the
    moves out of every state in one pass; ``n`` and ``size``, the state and
    its size as floats, are derived on each use.  The checkers of one run
    share a sweep (build it with :func:`_sweep`, which keeps it on the
    model), so it keeps arrays alone, no Python object per state and
    nothing it can derive.
    """

    def __init__(self, model: Model, n_check: int):
        shells = sample_shells(model.r, n_check)
        ordered = sorted(shells)
        counts = [len(shells[s]) for s in ordered]
        states = [n for s in ordered for n in shells[s]]
        self.states = np.array(states, dtype=np.int64).reshape(-1, model.r)
        self.sizes = np.array(ordered, dtype=float)
        self.starts = np.cumsum([0] + counts[:-1])
        self.shell = np.repeat(np.arange(len(ordered)), counts)
        self.coefficients = model._coefficients(states)
        self.b, self.d, self.c, self.loss = self.coefficients
        self.diag = np.diagonal(self.c, axis1=1, axis2=2)

    @property
    def n(self) -> np.ndarray:
        return self.states.astype(float)

    @property
    def size(self) -> np.ndarray:
        return self.sizes[self.shell]

    def state(self, i) -> tuple:
        """Sampled state ``i`` as a tuple of ints."""
        return tuple(self.states[i].tolist())

    def size_power(self, expo: float) -> np.ndarray:
        """``size ** expo`` per state by scalar pow, which numpy's vectorised
        power does not match to the last bit."""
        return np.array([s ** expo for s in self.sizes.tolist()])[self.shell]


def _sweep(model: Model, n_check: int) -> _Sweep:
    """The sweep of ``model`` up to ``n_check``, built once for the checkers
    that ask for it in turn.  A model is immutable and its rates are
    functions of the state alone, so the sweep is memoised on the model
    itself (``Model._sweeps``) and goes with it."""
    sweeps = model._sweeps
    if n_check not in sweeps:
        sweeps[n_check] = _Sweep(model, n_check)
    return sweeps[n_check]


def _per_shell(sweep: _Sweep, values: np.ndarray, pick):
    """Per-shell extreme of per-state ``values`` and the index of the state
    attaining it.

    ``pick`` is ``np.argmin`` or ``np.argmax``.  Like them, and like a
    running strict comparison, a tie goes to the first state of the shell;
    the reported witnesses rely on that rule.
    """
    key = -values if pick is np.argmax else values
    first = np.lexsort((key, sweep.shell))[sweep.starts]
    return values[first], first


def _loglog_slope(sizes, values):
    """Least-squares slope of log(value) against log(size); None if unfit."""
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (sizes > 0) & (values > 0)
    if keep.sum() < 2:
        return None
    return float(np.polyfit(np.log(sizes[keep]), np.log(values[keep]), 1)[0])


def _nondecreasing(values) -> bool:
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        return True
    prev = values[:-1]
    return bool(np.all(values[1:] >= prev - _MONOTONE_SLACK * np.abs(prev)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport:
    """Outcome of one finite-range hypothesis check."""

    name: str
    verdict: str
    checked_range: int
    constants: dict = field(default_factory=dict)
    witness: tuple | None = None
    margins: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "checked_range": self.checked_range,
            "constants": dict(self.constants),
            "witness": list(self.witness) if self.witness is not None else None,
            "margins": dict(self.margins),
            "notes": list(self.notes),
        }


@dataclass
class DriftReport:
    """Outcome of the potential-drift sweep.

    On a pass the sweep witnesses ``(L V)(n) <= offset - coercivity *
    |n|**exponent`` at every sampled state.
    """

    verdict: str
    eps: float
    exponent: float
    offset: float
    coercivity: float
    curve_sizes: np.ndarray
    curve_values: np.ndarray
    checked_range: int
    witness: tuple | None = None
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": "potential-drift",
            "verdict": self.verdict,
            "eps": self.eps,
            "exponent": self.exponent,
            "offset": self.offset,
            "coercivity": self.coercivity,
            "curve_sizes": [int(s) for s in self.curve_sizes],
            "curve_values": [float(v) for v in self.curve_values],
            "checked_range": self.checked_range,
            "witness": list(self.witness) if self.witness is not None else None,
            "notes": list(self.notes),
        }


@dataclass
class ConditionalDriftReport:
    """Outcome of the conditioned-moment inequality along a time grid."""

    verdict: str
    eps: float
    times: np.ndarray
    worst_margin: float
    quadrature_error: float
    smallest_constant: float
    products: int          # sparse products, and one per step on propagators
    poisson_tail: float    # most Poisson mass dropped in the flow to a time
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": "conditional-drift",
            "verdict": self.verdict,
            "eps": self.eps,
            "t_max": float(self.times[-1]),
            "grid_points": int(len(self.times)),
            "worst_margin": self.worst_margin,
            "quadrature_error": self.quadrature_error,
            "smallest_constant": self.smallest_constant,
            "products": self.products,
            "poisson_tail": self.poisson_tail,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# rate-envelope check
# ---------------------------------------------------------------------------

def _declared_or_fitted_exponents(model, sizes, max_bd, min_cdiag, notes):
    """Resolve (beta1, beta2), fitting from top-decade shell curves if needed."""
    top = sizes >= sizes[-1] / 10.0
    beta1 = model.beta1
    if beta1 is None:
        slope = _loglog_slope(sizes[top], max_bd[top])
        beta1 = max(0.0, slope) if slope is not None else None
        if beta1 is not None:
            notes.append(f"beta1 fitted from the top decade: {beta1:.4g}")
    beta2 = model.beta2
    if beta2 is None:
        slope = _loglog_slope(sizes[top], min_cdiag[top])
        beta2 = -slope if slope is not None else None
        if beta2 is not None:
            notes.append(f"beta2 fitted from the top decade: {beta2:.4g}")
    return beta1, beta2


def check_growth_envelope(model: Model, n_check: int = 10000) -> AssumptionReport:
    """Power-law envelopes on per-capita rates, with witnessed constants.

    Verifies positivity of the rate coefficients at every sampled state,
    resolves the growth exponent of births/deaths and the decay exponent of
    self-competition (declared values win; otherwise fitted from the top
    decade), then tests the exponent arithmetic that keeps the death channel
    dominant: beta1 >= 0, beta2 < 1, beta1 + gamma*beta2 < gamma.
    """
    sw = _sweep(model, n_check)
    diag = sw.diag
    # Written as "not all positive" so that NaN rates fail too.
    positive = ((sw.b > 0).all(axis=1) & (sw.d >= 0).all(axis=1)
                & (sw.c >= 0).all(axis=(1, 2)) & (diag > 0).all(axis=1))
    if not positive.all():
        return AssumptionReport(
            name="growth-envelope", verdict=FAIL, checked_range=n_check,
            witness=sw.state(np.argmin(positive)),
            notes=["rate positivity fails: need b > 0, d >= 0, "
                   "c >= 0 with positive diagonal"])
    sizes = sw.sizes
    max_b, _ = _per_shell(sw, sw.b.max(axis=1), np.argmax)
    max_d, _ = _per_shell(sw, sw.d.max(axis=1), np.argmax)
    max_bd = np.maximum(max_b, max_d)
    min_cdiag, _ = _per_shell(sw, diag.min(axis=1), np.argmin)
    notes: list = []

    beta1, beta2 = _declared_or_fitted_exponents(
        model, sizes, max_bd, min_cdiag, notes)
    if beta1 is None or beta2 is None:
        return AssumptionReport(
            name="growth-envelope", verdict=INCONCLUSIVE, checked_range=n_check,
            notes=notes + ["could not resolve growth exponents from samples"])

    # Witnessed envelope constants on the sampled range.
    birth_bound = float(np.max(max_b / sizes ** beta1))
    death_bound = float(np.max(max_d / sizes ** beta1)) if max_d.max() > 0 else 0.0
    self_comp_lower = float(np.min(min_cdiag * sizes ** beta2))

    # Stability heuristic: with the resolved exponents the normalized curves
    # should be flat on the top half of the range.
    top = sizes >= sizes[-1] / 2.0
    drift_up = _loglog_slope(sizes[top], (max_bd / sizes ** beta1)[top])
    drift_dn = _loglog_slope(sizes[top], (min_cdiag * sizes ** beta2)[top])
    stable = True
    if drift_up is not None and drift_up > _FLAT_SLOPE:
        stable = False
        notes.append(f"birth/death envelope still grows like size^{drift_up:.3f} "
                     f"after removing size^{beta1:.3f}")
    if drift_dn is not None and drift_dn < -_FLAT_SLOPE:
        stable = False
        notes.append(f"self-competition keeps decaying like size^{drift_dn:.3f} "
                     f"after removing size^{-beta2:.3f}")

    margin = model.gamma - beta1 - model.gamma * beta2
    constants = {
        "beta1": float(beta1), "beta2": float(beta2),
        "birth_bound": birth_bound, "death_bound": death_bound,
        "self_competition_lower": self_comp_lower,
    }
    margins = {"exponent_margin": float(margin)}
    if beta1 < -1e-9 or beta2 >= 1.0 or margin <= 0:
        return AssumptionReport(
            name="growth-envelope", verdict=FAIL, checked_range=n_check,
            constants=constants, margins=margins,
            notes=notes + ["exponent arithmetic fails: need beta1 >= 0, "
                           "beta2 < 1 and beta1 + gamma*beta2 < gamma"])
    if not stable:
        return AssumptionReport(
            name="growth-envelope", verdict=INCONCLUSIVE, checked_range=n_check,
            constants=constants, margins=margins, notes=notes)
    return AssumptionReport(
        name="growth-envelope", verdict=PASS, checked_range=n_check,
        constants=constants, margins=margins, notes=notes)


# ---------------------------------------------------------------------------
# self-regulation vs cross-pressure
# ---------------------------------------------------------------------------

def _growth_report(name: str, n_check: int, sw: _Sweep, curve, arg,
                   constants: dict, bounded: str,
                   short: str) -> AssumptionReport:
    """Growth verdict on a per-shell minimum ``curve`` attained at the
    states ``arg``: pass when it is nondecreasing on the top half of the
    range and reaches ``_GROWTH_THRESHOLD`` at its end, fail with the last
    shell's minimizer as witness and the note ``bounded`` when its top-half
    log-log slope is flat, inconclusive with the note ``short`` otherwise."""
    sizes = sw.sizes
    top = sizes >= sizes[-1] / 2.0
    slope = _loglog_slope(sizes[top], curve[top])
    witness = None
    if _nondecreasing(curve[top]) and curve[-1] >= _GROWTH_THRESHOLD:
        verdict, notes = PASS, []
    elif slope is not None and slope < _FLAT_SLOPE:
        verdict, notes, witness = FAIL, [bounded], sw.state(arg[-1])
    else:
        verdict, notes = INCONCLUSIVE, [short]
    return AssumptionReport(
        name=name, verdict=verdict, checked_range=n_check,
        constants=constants,
        margins={"top_half_slope": slope if slope is not None else math.nan},
        witness=witness, notes=notes)


def check_competition_dominance(model: Model,
                                n_check: int = 10000) -> AssumptionReport:
    """Does self-competition outgrow cross-competition along every direction?

    Computes, per sampled state, ``min_i c_ii(n) / (sum of off-diagonal
    c_jk(n) + sum of diagonal c_jj(n)/|n|)`` and tracks the per-shell
    minimum.  Passes when the curve is nondecreasing on the top half of the
    range and clears a threshold of 10 at the far end; a flat curve is a
    failure with the minimizing state as witness; anything else is
    inconclusive.
    """
    sw = _sweep(model, n_check)
    diag = sw.diag
    diag_sum = diag.sum(axis=1)
    ratio = diag.min(axis=1) / (
        (sw.c.sum(axis=(1, 2)) - diag_sum) + diag_sum / sw.size)
    curve, minimizers = _per_shell(sw, ratio, np.argmin)
    return _growth_report(
        "competition-dominance", n_check, sw, curve, minimizers,
        {"ratio_at_range_end": float(curve[-1])},
        "dominance ratio stays bounded over the sampled range",
        "ratio grows but has not cleared the threshold on this range")


# ---------------------------------------------------------------------------
# pressure near one-individual edges
# ---------------------------------------------------------------------------

def check_boundary_pressure(model: Model, n_check: int = 10000,
                            comparison_coef: float | None = None
                            ) -> AssumptionReport:
    """Bulk competition pressure must dominate edge pressure, and grow.

    Splits each state's types into the bulk (count above one) and the edge
    (count exactly one).  Two clauses: the size-weighted bulk pressure must
    be at least ``comparison_coef`` times the edge pressure from some shell
    on (default coefficient ``r**-(1+gamma)``), and the bulk pressure itself
    must dominate ``|n|**max(beta1, gamma)`` with the same growth semantics
    as the dominance check.
    """
    if comparison_coef is None:
        comparison_coef = float(model.r) ** -(1.0 + model.gamma)
    beta1 = model.beta1
    if beta1 is None:
        beta1 = 0.0
    target = max(beta1, model.gamma)

    sw = _sweep(model, n_check)
    sizes = sw.sizes
    n, size = sw.n, sw.size
    powered = np.matmul(sw.c, n[:, :, None])[:, :, 0] ** model.gamma
    # Masked entries add exact zeros, and numpy sums rows of fewer than
    # eight entries left to right, so up to r = 7 these are the sums of the
    # bulk and the edge entries alone, bit for bit.
    edge = n == 1
    lhs = np.where(edge, 0.0, (n / size[:, None]) * powered).sum(axis=1)
    rhs = np.where(edge, powered, 0.0).sum(axis=1)
    bulk_curve, bulk_arg = _per_shell(sw, lhs / sw.size_power(target),
                                      np.argmin)

    # Clause 1: the comparison holds from the shell after the last violation.
    violations = np.flatnonzero(lhs < comparison_coef * rhs)
    clean = sw.shell[violations[-1]] + 1 if len(violations) else 0
    constants = {"comparison_coef": float(comparison_coef),
                 "exponent_target": float(target)}
    if clean == len(sizes) or sizes[clean] > n_check / 2:
        return AssumptionReport(
            name="boundary-pressure", verdict=FAIL, checked_range=n_check,
            constants=constants,
            witness=sw.state(violations[-1]) if len(violations) else None,
            notes=["edge pressure still beats bulk pressure in the top half "
                   "of the range"])
    constants["clean_from_size"] = int(sizes[clean])

    # Clause 2: growth of the scaled bulk pressure.
    constants["scaled_pressure_at_range_end"] = float(bulk_curve[-1])
    return _growth_report(
        "boundary-pressure", n_check, sw, bulk_curve, bulk_arg, constants,
        "scaled bulk pressure stays bounded over the sampled range",
        "bulk pressure grows but has not cleared the threshold")


# ---------------------------------------------------------------------------
# fully symmetric models: explicit coexistence threshold
# ---------------------------------------------------------------------------

def check_neutral_threshold(model: Model | None = None, r: int | None = None,
                            gamma: float | None = None) -> AssumptionReport:
    """Coexistence threshold for exchangeable competition: r < 1 + e*gamma.

    With all competition entries equal, coexistence of ``r`` types holds
    exactly when ``r < 1 + e*gamma``.  Beyond the arithmetic test this
    finds a constructive margin ``delta > 0`` with ``(r-1)/gamma * (1 -
    eps/gamma)**(gamma/eps - 1) <= 1 - delta`` and re-verifies it exactly
    in floating point before reporting it.  The factor is ``(r-1)/gamma *
    exp(g(eps/gamma))`` with ``g(x) = ((1-x)/x) log(1-x)``, which rises in
    x (``g'(x) = sum over k >= 0 of x**k/(k+2) > 0``), so the smallest
    exponent gives the widest margin and no search is needed: it is
    evaluated once, at ``x = 1e-4``.
    """
    notes: list = []
    if model is not None:
        r = model.r if r is None else r
        gamma = model.gamma if gamma is None else gamma
        flat = np.asarray(model.c_coef, dtype=float) if model.c_coef is not None else None
        if model.family != "constant" or flat is None or not (flat == flat.flat[0]).all():
            return AssumptionReport(
                name="neutral-threshold", verdict=INCONCLUSIVE,
                checked_range=0,
                notes=["competition is not exchangeable (constant and equal "
                       "across all pairs), so the threshold does not apply"])
    if r is None or gamma is None:
        raise ValidationError("need either a model or explicit r and gamma")
    if r < 1 or gamma <= 0:
        raise ValidationError(f"need r >= 1 and gamma > 0, got {r}, {gamma}")

    threshold = 1.0 + math.e * gamma
    arithmetic = r < threshold
    constants = {"threshold": threshold, "types": int(r), "gamma": float(gamma)}
    margins = {"threshold_margin": float(threshold - r)}

    x = 1e-4
    eps = x * gamma
    found = (r - 1) / gamma * math.exp((1.0 - x) / x * math.log1p(-x)) < 1.0
    if found:
        # Derive the reported margin from the same float expression that the
        # re-verification uses, so the certificate is self-consistent.
        lhs = (r - 1) / gamma * (1.0 - eps / gamma) ** (gamma / eps - 1.0)
        delta = (1.0 - lhs) * (1.0 - 1e-9)
        if not (delta > 0 and lhs <= 1.0 - delta):
            raise NumericalError("threshold certificate failed re-verification")
        constants["eps"] = float(eps)
        constants["delta"] = float(delta)

    if arithmetic and found:
        verdict = PASS
    elif not arithmetic:
        verdict = FAIL
        notes.append(f"{r} types is at or above the threshold {threshold:.6f}")
    else:
        verdict = INCONCLUSIVE
        notes.append("below the threshold but no constructive margin found "
                     "at the smallest exponent")
    return AssumptionReport(
        name="neutral-threshold", verdict=verdict, checked_range=1,
        constants=constants, margins=margins, notes=notes)


# ---------------------------------------------------------------------------
# potential drift sweep
# ---------------------------------------------------------------------------

def check_drift(model: Model, eps: float, n_check: int = 10000) -> DriftReport:
    """Sweep the generator applied to the bounded potential over shells.

    Tracks the per-shell worst value of ``(L V)(n)``, requires it to be
    negative from the middle of the range on, fits the coercive decay rate
    against ``|n|**(gamma - eps - gamma*beta2)`` on the top decade, and
    re-verifies the witnessed affine bound at every sampled state before
    reporting it.
    """
    PotentialParams.for_model(model, eps)
    exponent = model.gamma - eps - model.gamma * (model.beta2 or 0.0)

    sw = _sweep(model, n_check)
    sizes = sw.sizes
    drift = _potential_drift(
        model.move_table(map(tuple, sw.states.tolist()), sw.coefficients),
        eps)[1]
    curve, argmax = _per_shell(sw, drift, np.argmax)

    notes: list = []
    # Eventually negative on the range?
    positive = np.nonzero(curve >= 0)[0]
    if len(positive) and sizes[positive[-1]] > n_check / 2:
        return DriftReport(
            verdict=FAIL, eps=eps, exponent=exponent, offset=math.nan,
            coercivity=math.nan, curve_sizes=sizes, curve_values=curve,
            checked_range=n_check, witness=sw.state(argmax[positive[-1]]),
            notes=["generator applied to the potential is not eventually "
                   "negative on the range"])

    top = sizes >= sizes[-1] / 10.0
    u = sizes[top] ** exponent
    slope = float(np.polyfit(u, curve[top], 1)[0])
    if slope >= 0:
        return DriftReport(
            verdict=FAIL, eps=eps, exponent=exponent, offset=math.nan,
            coercivity=math.nan, curve_sizes=sizes, curve_values=curve,
            checked_range=n_check, witness=sw.state(argmax[-1]),
            notes=["no coercive decay: the drift curve does not fall like "
                   f"size^{exponent:.4g} on the top decade"])
    coercivity = -slope / 2.0
    offset = float(np.max(curve + coercivity * sizes ** exponent))
    if offset <= 0:
        notes.append("drift is negative over the whole range; offset clipped "
                     "to a nominal positive value")
        offset = 1e-12
    # Re-verify the affine bound exactly as reported.
    recheck = curve + coercivity * sizes ** exponent
    if not (recheck <= offset).all():
        raise NumericalError("drift bound failed re-verification")
    return DriftReport(
        verdict=PASS, eps=eps, exponent=exponent, offset=offset,
        coercivity=coercivity, curve_sizes=sizes, curve_values=curve,
        checked_range=n_check, notes=notes)


# ---------------------------------------------------------------------------
# conditioned-moment inequality along a semigroup trajectory
# ---------------------------------------------------------------------------

def check_conditional_drift(model: Model, Q, mu0, times,
                            eps: float) -> ConditionalDriftReport:
    """Integral form of the drift under conditioning on survival.

    Along the conditional laws from ``mu0`` on the truncated space of ``Q``
    at a uniform grid ``times[k]``, verifies for every k that

        mean of V at t_k - mean of V at t_0
            <= integral of [mean of LV - mean of V * mean of (L 1)] ds

    via the trapezoid rule, with the quadrature error estimated by
    half-grid comparison.  The right side evaluates the full generator
    (moves leaving the truncated space count), which makes the inequality
    conservative rather than tight.  Also reports the smallest constant C
    that would make the one-sided version with additive slack C + C**2
    hold at every grid point.

    The laws enter only through the means of V, LV and L1, taken by
    :func:`~qsdlab.solver.conditional_moments` from one power sequence or
    dense propagators, whichever costs less.  The report gives the
    ``products`` that flow made and ``poisson_tail``, the most Poisson mass
    discarded in the flow to any grid time on either way; it does not build
    up over the grid as the stepped laws' tail did.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 3:
        raise DomainError("need a 1-d grid with at least 3 points")
    steps = np.diff(times)
    if (steps <= 0).any() or not np.allclose(steps, steps[0], rtol=1e-9):
        raise DomainError("times must be a uniform increasing grid")

    space = Q.space
    bound = 1.0 + 1.0 / eps
    moves = model.move_table(space.states)
    v, drift = _potential_drift(moves, eps)
    kill = -moves.sum(moves.rates, moves.keep & moves.absorbed())

    means, _, products = conditional_moments(
        Q, mu0, times, np.column_stack((v, drift, kill)))
    mean_v, mean_drift, mean_kill = means.T
    integrand = mean_drift - mean_v * mean_kill

    h = float(steps[0])
    cumulative = np.concatenate(
        ([0.0], np.cumsum((integrand[1:] + integrand[:-1]) * (h / 2.0))))
    lhs = mean_v - mean_v[0]
    margin = cumulative - lhs
    worst = float(margin[1:].min())

    # Half-grid comparison on the even points.
    even = np.arange(0, len(times), 2)
    coarse = integrand[even]
    coarse_cum = np.concatenate(
        ([0.0], np.cumsum((coarse[1:] + coarse[:-1]) * h)))
    quad = float(np.max(np.abs(cumulative[even] - coarse_cum)) / 3.0)

    # The half-grid estimate is only trustworthy when the grid resolves the
    # integrand; a jump of a quarter of its scale within one step means both
    # grids alias the same transient.
    scale = float(np.max(np.abs(integrand)))
    step_change = float(np.max(np.abs(np.diff(integrand)))) if len(integrand) > 1 else 0.0
    resolved = scale == 0.0 or step_change <= 0.25 * scale

    # Smallest constant making the slack form hold pointwise in time.
    gap = mean_drift - mean_v * mean_kill
    need = np.maximum(-gap, 0.0)
    smallest = float(np.max((1.0 + np.sqrt(1.0 + 4.0 * need)) / 2.0))

    notes = [
        f"potential values lie in [1, {bound:.6g}]; the additive bound uses "
        "the full supremum 1 + 1/eps (a tail-only bound of 1/eps is not "
        "safe because the potential counts its first term)",
        "the drift side evaluates every move of the untruncated chain, so "
        "truncation leakage only widens the margin",
    ]
    band = _QUAD_SAFETY * quad
    if not resolved:
        verdict = INCONCLUSIVE
        notes.append("grid under-resolves the drift transient (the integrand "
                     "jumps within single steps); refine the grid")
    elif worst > band:
        verdict = PASS
    elif worst < -band:
        verdict = FAIL
    else:
        verdict = INCONCLUSIVE
        notes.append("margin within quadrature error; refine the grid")
    return ConditionalDriftReport(
        verdict=verdict, eps=eps, times=times, worst_margin=worst,
        quadrature_error=quad, smallest_constant=smallest, products=products,
        poisson_tail=POISSON_TAIL, notes=notes)


# ---------------------------------------------------------------------------
# catastrophe smallness
# ---------------------------------------------------------------------------

def check_catastrophes(model: Model, n_check: int = 10000) -> AssumptionReport:
    """Total-loss rates must stay below the quadratic death channel.

    One type: searches for a cutoff size n0 and constants with
    ``death(n) >= c_low * n**2`` and ``catastrophe(n) <= delta * c_low * n``
    with ``delta < 1`` beyond the cutoff.  Several types: tracks the ratio
    of the catastrophe rate to ``min_i c_ii(n) * |n|**gamma`` per shell and
    requires it to decay, to at most 0.1 at the range end.
    """
    if model.catastrophe is None:
        return AssumptionReport(
            name="catastrophe-smallness", verdict=PASS, checked_range=n_check,
            constants={"delta": 0.0},
            notes=["no catastrophe channel declared; the zero rate "
                   "satisfies every smallness bound"])

    sw = _sweep(model, n_check)
    loss = sw.loss
    if model.r == 1:
        # One type: the shells are exactly the states 1..n_check.
        ns = sw.n[:, 0]
        birth_total = ns * sw.b[:, 0]
        pressure = [x ** model.gamma for x in (sw.c[:, 0, 0] * ns).tolist()]
        death_total = ns * (sw.d[:, 0] + np.array(pressure))
        birth_bound = float(np.max(birth_total / ns))

        # Suffix envelopes: death_floor[i] = min over n >= i of death/n^2.
        death_floor = np.minimum.accumulate((death_total / ns ** 2)[::-1])[::-1]
        cutoff = 1
        while cutoff <= n_check // 2:
            i = cutoff - 1
            c_low = float(death_floor[i])
            if c_low > 0:
                delta = float(np.max((loss[i:] / ns[i:]) / c_low))
                if delta < 1.0:
                    return AssumptionReport(
                        name="catastrophe-smallness", verdict=PASS,
                        checked_range=n_check,
                        constants={"cutoff": int(cutoff), "delta": delta,
                                   "death_quadratic_lower": c_low,
                                   "birth_linear_upper": birth_bound},
                        margins={"delta_slack": 1.0 - delta})
            cutoff *= 2
        i = np.argmax(loss / (ns * death_floor))
        return AssumptionReport(
            name="catastrophe-smallness", verdict=FAIL, checked_range=n_check,
            witness=(int(ns[i]),),
            constants={"best_delta": float((loss / (ns * death_floor))[i]),
                       "birth_linear_upper": birth_bound},
            notes=["total-loss rate is not dominated by the quadratic death "
                   "channel with any margin below one"])

    sizes = sw.sizes
    curve, argmax = _per_shell(
        sw, loss / (sw.diag.min(axis=1) * sw.size_power(model.gamma)),
        np.argmax)

    top = sizes >= sizes[-1] / 2.0
    slope = _loglog_slope(sizes[top], curve[top])
    constants = {"ratio_at_range_end": float(curve[-1])}
    margins = {"top_half_slope": slope if slope is not None else float("nan")}
    if curve[-1] <= _DECAY_THRESHOLD and (
            slope is None or slope <= -_FLAT_SLOPE or curve[-1] == 0.0):
        return AssumptionReport(
            name="catastrophe-smallness", verdict=PASS, checked_range=n_check,
            constants=constants, margins=margins)
    if slope is not None and slope > -_FLAT_SLOPE and curve[-1] > _DECAY_THRESHOLD:
        return AssumptionReport(
            name="catastrophe-smallness", verdict=FAIL, checked_range=n_check,
            constants=constants, margins=margins,
            witness=sw.state(argmax[-1]),
            notes=["loss-to-competition ratio does not decay on the range"])
    return AssumptionReport(
        name="catastrophe-smallness", verdict=INCONCLUSIVE,
        checked_range=n_check, constants=constants, margins=margins,
        notes=["ratio is small but its decay is not clear on this range"])


# ---------------------------------------------------------------------------
# litter-size moments
# ---------------------------------------------------------------------------

def check_multibirth(model: Model) -> AssumptionReport:
    """Mean litter size must be finite and witnessed.

    Fixed litter laws get an exact mean; state-dependent laws pass only with
    a declared bound, and are inconclusive without one.
    """
    litter = model.litter
    if litter is None:
        return AssumptionReport(
            name="litter-moments", verdict=PASS, checked_range=0,
            constants={"mean_total_size": 1.0},
            notes=["single-progeny births; every litter has size one"])
    mean = litter.mean_total_size()
    if mean is not None:
        source = ("declared mean bound" if litter.state_dependent()
                  else "exact mean of the fixed law")
        return AssumptionReport(
            name="litter-moments", verdict=PASS, checked_range=0,
            constants={"mean_total_size": float(mean)}, notes=[source])
    return AssumptionReport(
        name="litter-moments", verdict=INCONCLUSIVE, checked_range=0,
        notes=["state-dependent litter law with no declared mean bound"])
