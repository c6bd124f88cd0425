"""Command-line front end.

Seven subcommands cover the workflow: ``solve`` the long-run law on a
truncated space, ``simulate`` the conditioned law by brute-force paths,
``fv`` the same by a particle system, ``qprocess`` the conditioned chain's
occupation statistics, ``check`` the finite-range hypothesis reports,
``converge`` distance-to-limit curves with rate fits, and ``certify`` the
mixing certificates.

Every run reads one INI configuration (see the ``configs`` directory for
examples), applies any command-line overrides, echoes the effective
settings into its JSON summary, and writes deterministic CSV/JSON outputs
into ``--out`` (or ``$QSDLAB_OUT``, or the working directory).

Exit codes: 0 success; 1 invalid configuration or state; 2 numerical
failure; 3 usage error.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .config import load_config
from .convergence import convergence_curves, fit_rate, mixing_certificate
from .errors import NoFitError, NumericalError, ValidationError
from .lyapunov import (INCONCLUSIVE, AssumptionReport, PotentialParams,
                       check_boundary_pressure, check_catastrophes,
                       check_competition_dominance, check_conditional_drift,
                       check_drift, check_growth_envelope, check_multibirth,
                       check_neutral_threshold)
from .model import build_model
from .simulate import (RngPlan, estimate_conditional, fleming_viot,
                       occupation_measure, simulate_qprocess)
from .solver import _Forked, assemble, enumerate_space, solve_qsd

_CONDITIONAL_CHECK_CAP = 20000


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


#: Command-line overrides: the config key each sets, its type and help.
_OVERRIDES = {
    "trunc": ("truncation.n", int, "override the truncation size"),
    "t": ("simulation.t_max", float, "override the time horizon"),
    "traj": ("simulation.trajectories", int, "override the trajectory count"),
    "seed": ("simulation.seed", int, "override the master seed"),
}

#: Each subcommand, its help, and the overrides whose keys it reads.
_SUBCOMMANDS = (
    ("solve", "long-run conditioned law on a truncated space", ("trunc",)),
    ("simulate", "conditioned law at a fixed time by many paths",
     ("t", "traj", "seed")),
    ("fv", "conditioned law by an interacting particle system",
     ("trunc", "t", "seed")),
    ("qprocess", "occupation statistics of the conditioned chain",
     ("trunc", "t", "seed")),
    ("check", "finite-range hypothesis reports", ("trunc",)),
    ("converge", "distance-to-limit curves and rate fits", ("trunc",)),
    ("certify", "mixing certificates and profile plateau", ("trunc", "t")),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qsdlab",
                     description="Long-run conditioned behavior of "
                                 "competitive birth-death populations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in _SUBCOMMANDS:
        # No abbreviations: ``--t`` must not stand for ``--trunc``.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", default=None,
                       help="output directory (default $QSDLAB_OUT or .)")
        for flag in flags:
            _, kind, text = _OVERRIDES[flag]
            p.add_argument(f"--{flag}", type=kind, default=None, help=text)
    sub.choices["certify"].add_argument(
        "--t0", type=float, default=1.0,
        help="return-time for the mixing certificate")
    return parser


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _out_dir(args) -> str:
    out = args.out or os.environ.get("QSDLAB_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _fmt(value):
    if isinstance(value, float):
        return "%.17g" % value
    return value


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _state_header(r):
    return [f"n{i + 1}" for i in range(r)]


def _summary(cfg, overrides, **extra) -> dict:
    payload = {"config": cfg.echo(), "overrides": overrides}
    payload.update(extra)
    return payload


def _apply_overrides(cfg, args) -> dict:
    """Set each given override through its config key's parser and bound."""
    return {name: cfg.override(name, getattr(args, flag))
            for flag, (name, _, _) in _OVERRIDES.items()
            if getattr(args, flag, None) is not None}


def _initials(cfg):
    if cfg.initials:
        return [tuple(state) for state in cfg.initials]
    base = (1,) * cfg.r
    mid = max(2, cfg.truncation_n // (2 * cfg.r))
    second = (mid,) * cfg.r
    if sum(second) > cfg.truncation_n or second == base:
        return [base]
    return [base, second]


def _solved(cfg, profile=True):
    """The model, space and generator of ``cfg`` and their solve; with
    ``profile=False``, a law-only one (see :func:`solve_qsd`)."""
    model = build_model(cfg)
    space = enumerate_space(cfg.r, cfg.truncation_n)
    Q = assemble(model, space)
    return model, space, Q, solve_qsd(Q, tol=cfg.tol, max_iter=cfg.max_iter,
                                      profile=profile)


def _empirical_rows(r, columns):
    """Union-of-support rows for several empirical laws, lexicographic."""
    support = sorted(set().union(*(law.weights for _, law in columns)))
    rows = []
    for state in support:
        rows.append(list(state) + [law.weights.get(state, 0.0)
                                   for _, law in columns])
    header = _state_header(r) + [name for name, _ in columns]
    return header, rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(cfg, args, out, overrides):
    model, space, Q, res = _solved(cfg)
    rows = [list(state) + [res.law[i], res.survival_profile[i]]
            for i, state in enumerate(space.states)]
    law_path = os.path.join(out, "qsd_law.csv")
    _write_csv(law_path, _state_header(cfg.r) + ["mass", "survival_profile"],
               rows)
    summary = _summary(
        cfg, overrides, decay_rate=res.decay_rate,
        law_residual=res.law_residual, profile_residual=res.profile_residual,
        iterations=res.iterations, states=len(space.states),
        uniformization_rate=Q.lam, decay_bracket=res.decay_bracket,
        edge_mass=res.edge_mass)
    summary_path = os.path.join(out, "solve_summary.json")
    _write_json(summary_path, summary)
    print(f"decay rate {res.decay_rate:.12g} on {len(space.states)} states "
          f"({res.iterations} iterations)")
    print(f"residuals: law {res.law_residual:.3g}, "
          f"profile {res.profile_residual:.3g}")
    print(f"wrote {law_path} and {summary_path}")
    return 0


def _cmd_simulate(cfg, args, out, overrides):
    initial = _initials(cfg)[0]
    total = cfg.trajectories
    est = estimate_conditional(build_model(cfg), initial, cfg.t_max, total,
                               RngPlan(cfg.seed))
    header, rows = _empirical_rows(cfg.r, [("mass", est.law)])
    law_path = os.path.join(out, "conditional_law.csv")
    _write_csv(law_path, header, rows)
    summary = _summary(cfg, overrides, initial=list(initial),
                       survival=est.survival,
                       survival_stderr=est.survival_stderr,
                       survivors=est.survivors, trajectories=total,
                       t=cfg.t_max, events=est.events)
    summary_path = os.path.join(out, "simulate_summary.json")
    _write_json(summary_path, summary)
    print(f"survival {est.survival:.6g} ({est.survivors}/{total} paths) "
          f"at t = {cfg.t_max:g} from {initial}")
    print(f"wrote {law_path} and {summary_path}")
    return 0


def _cmd_fv(cfg, args, out, overrides):
    model = build_model(cfg)
    Q = assemble(model, enumerate_space(cfg.r, cfg.truncation_n))
    # The particles never read the law: a forked child solves for it while
    # they run here, and its error wins over theirs, as when it ran first.
    with _Forked(lambda: solve_qsd(Q, tol=cfg.tol, max_iter=cfg.max_iter,
                                   profile=False)) as solve:
        initial = _initials(cfg)[0]
        result = fleming_viot(model, initial, cfg.particles, cfg.t_max,
                              RngPlan(cfg.seed))
    res = solve.result()
    header, rows = _empirical_rows(
        cfg.r, [("final_mass", result.law), ("occupation", result.occupation)])
    law_path = os.path.join(out, "particle_law.csv")
    _write_csv(law_path, header, rows)
    tv_final = result.law.tv_against(res)
    tv_occ = result.occupation.tv_against(res)
    summary = _summary(cfg, overrides, initial=list(initial),
                       particles=result.particles, deaths=result.deaths,
                       events=result.events, death_rate=result.death_rate,
                       decay_rate=res.decay_rate, tv_final=tv_final,
                       tv_occupation=tv_occ)
    summary_path = os.path.join(out, "fv_summary.json")
    _write_json(summary_path, summary)
    print(f"{result.particles} particles, {result.events} events, "
          f"{result.deaths} deaths (death rate {result.death_rate:.4g} vs "
          f"decay rate {res.decay_rate:.4g})")
    print(f"distance to solved law: final {tv_final:.4g}, "
          f"occupation {tv_occ:.4g}")
    print(f"wrote {law_path} and {summary_path}")
    return 0


def _cmd_qprocess(cfg, args, out, overrides):
    model, space, Q, res = _solved(cfg)
    initial = _initials(cfg)[0]
    plan = RngPlan(cfg.seed)
    path = simulate_qprocess(model, res, initial, cfg.t_max, plan.stream(0))
    burn_in = cfg.t_max / 2.0
    occupation = occupation_measure(path, t_start=burn_in)
    stationary = res.law * res.survival_profile
    rows = []
    for i, state in enumerate(space.states):
        emp = occupation.weights.get(state, 0.0)
        if emp or stationary[i] > 0:
            rows.append(list(state) + [emp, stationary[i]])
    occ_path = os.path.join(out, "occupation.csv")
    _write_csv(occ_path, _state_header(cfg.r) + ["occupation", "stationary"],
               rows)
    tv = occupation.tv_against((space, stationary))
    summary = _summary(cfg, overrides, initial=list(initial), t=cfg.t_max,
                       burn_in=burn_in, events=len(path.times) - 1,
                       tv_to_stationary=tv)
    summary_path = os.path.join(out, "qprocess_summary.json")
    _write_json(summary_path, summary)
    print(f"conditioned chain: {len(path.times) - 1} events over "
          f"t = {cfg.t_max:g}, burn-in {burn_in:g}")
    print(f"occupation distance to stationary law: {tv:.4g}")
    print(f"wrote {occ_path} and {summary_path}")
    return 0


def _cmd_check(cfg, args, out, overrides):
    model = build_model(cfg)
    n_check = cfg.n_check
    eps = cfg.eps if cfg.eps is not None else PotentialParams.for_model(model).eps
    reports = [
        check_growth_envelope(model, n_check),
        check_competition_dominance(model, n_check),
        check_boundary_pressure(model, n_check, comparison_coef=cfg.c_r),
        check_neutral_threshold(model=model),
        check_drift(model, eps, n_check),
        check_catastrophes(model, n_check),
        check_multibirth(model),
    ]
    space = enumerate_space(cfg.r, cfg.truncation_n)
    if len(space.states) <= _CONDITIONAL_CHECK_CAP:
        times = np.arange(0.0, 5.0 + 1e-12, 0.01)
        reports.append(check_conditional_drift(
            model, assemble(model, space),
            space.point_mass(_initials(cfg)[0]), times, eps))
    else:
        reports.append(AssumptionReport(
            name="conditional-drift", verdict=INCONCLUSIVE, checked_range=0,
            notes=[f"not run: the truncated space has {len(space.states)} "
                   f"states, above _CONDITIONAL_CHECK_CAP = "
                   f"{_CONDITIONAL_CHECK_CAP}"]))
    payload = _summary(cfg, overrides, eps=eps,
                       reports=[rep.to_dict() for rep in reports])
    report_path = os.path.join(out, "check_report.json")
    _write_json(report_path, payload)
    for rep in reports:
        data = rep.to_dict()
        print(f"{data['name']}: {data['verdict']}")
    print(f"wrote {report_path}")
    return 0


def _cmd_converge(cfg, args, out, overrides):
    model, space, Q, res = _solved(cfg, profile=False)
    grid = cfg.time_grid()
    times = grid[grid > 0]
    initials = _initials(cfg)
    curves = convergence_curves(Q, res, initials, times)
    header = ["t"]
    for initial in initials:
        tag = "_".join(str(v) for v in initial)
        header += [f"tv_{tag}", f"survival_{tag}"]
    rows = []
    for k, t in enumerate(times):
        row = [float(t)]
        for curve in curves:
            row += [float(curve.tv[k]), float(curve.survival[k])]
        rows.append(row)
    curves_path = os.path.join(out, "convergence_curves.csv")
    _write_csv(curves_path, header, rows)
    fits = []
    for initial, curve in zip(initials, curves):
        try:
            fit = fit_rate(curve)
            fits.append({"initial": list(initial), "rate": fit.rate,
                         "amplitude": fit.amplitude,
                         "window": list(fit.window), "points": fit.points,
                         "max_log_residual": fit.max_log_residual})
        except NoFitError as exc:
            fits.append({"initial": list(initial), "rate": None,
                         "note": str(exc)})
    summary = _summary(cfg, overrides, decay_rate=res.decay_rate, fits=fits)
    summary_path = os.path.join(out, "converge_summary.json")
    _write_json(summary_path, summary)
    for fit in fits:
        if fit.get("rate") is not None:
            print(f"from {tuple(fit['initial'])}: rate {fit['rate']:.6g} "
                  f"over window {fit['window'][0]:g}..{fit['window'][1]:g}")
        else:
            print(f"from {tuple(fit['initial'])}: no fit ({fit['note']})")
    print(f"wrote {curves_path} and {summary_path}")
    return 0


def _cmd_certify(cfg, args, out, overrides):
    model, space, Q, res = _solved(cfg)
    cert = mixing_certificate(Q, res, t0=args.t0, horizon=cfg.t_max)
    plateau = {f"t={t:g}": gap for t, gap in cert.comparison.plateau.items()}
    summary = _summary(cfg, overrides, decay_rate=res.decay_rate,
                       certificate=cert.to_dict(),
                       survival_profile_error=plateau)
    cert_path = os.path.join(out, "mixing_certificate.json")
    _write_json(cert_path, summary)
    minor = cert.minorization
    comp = cert.comparison
    print(f"return mass {minor.mass:.6g} at {minor.reference} "
          f"(t0 = {minor.t0:g}, reproduction {minor.reproduction:.2g})")
    print(f"survival ratio {comp.ratio:.6g} (worst t = {comp.worst_time:g}, "
          f"reproduction {comp.reproduction:.2g})")
    print(f"mixing rate bound {cert.rate_bound:.6g}; valid: {cert.valid}")
    print(f"wrote {cert_path}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "fv": _cmd_fv,
    "qprocess": _cmd_qprocess,
    "check": _cmd_check,
    "converge": _cmd_converge,
    "certify": _cmd_certify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        overrides = _apply_overrides(cfg, args)
        out = _out_dir(args)
        return _COMMANDS[args.command](cfg, args, out, overrides)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
