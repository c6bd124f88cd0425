"""Output checks for every benchmark invocation.

Each check reads the files one ``qsdlab`` CLI invocation wrote and returns
the list of problems found; an empty list means the output is correct.
References come from ``expected.json`` (recorded at the seed commit by
``record.py``, with oracles independent of qsdlab's own solver and
semigroup) and from an ARPACK shift-invert oracle computed here on the
assembled generator.

Tolerances, each named after the test that fixes it:

* ``TOL_SOLVE`` -- decay rate and law total variation against an oracle,
  as in acceptance criterion 01.
* ``TOL_PROFILE`` -- sup-norm of the survival profile against the right
  ARPACK eigenvector; the power iteration reaches about 1e-9 on the shipped
  configs.
* ``TOL_CERT`` -- certificate masses and ratios, as in criterion 05.
* ``TOL_FIT_REL`` -- relative error of fitted rates and amplitudes.  The
  curves reproduce to about 1e-12, far below the noisy-fit test's 1e-3.

Simulator outputs are checked byte for byte (SHA-256) at the configs'
seed 0.  At any other seed they are checked for internal consistency
(masses that are counts over the sample size, sums, summary fields) and
against the exact conditioned law within statistical bounds that a correct
simulator exceeds with probability below about 1e-6.  Particle-system and
q-process event counts have no closed-form law; they are checked against
their mean and standard deviation over many seeds, recorded with the other
references.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy.sparse.linalg import eigs

TOL_SOLVE = 1e-10
TOL_PROFILE = 1e-8
TOL_CERT = 1e-9
TOL_FIT_REL = 1e-6

#: Log of the false-alarm probability allowed to a statistical check.
_LOG_ALARM = math.log(1e6)

#: Occupation law of the particle system against the solved law, as in
#: acceptance criterion 08.  Over seeds 0-199 it has mean 0.018, standard
#: deviation 0.003 and maximum 0.027.
TV_FV_OCCUPATION_MAX = 0.05

#: Occupation law of the q-process against its stationary law.  Over seeds
#: 0-199 it has mean 0.025 and standard deviation 0.004, but a heavy right
#: tail (0.035 exceeded at 2.5% of the seeds, maximum 0.044): the 0.05 of
#: criterion 10 would raise a false alarm at about one seed in a thousand,
#: while an exponential tail fitted to the top seeds puts 0.1 beyond one in
#: a million.
TV_QPROCESS_OCCUPATION_MAX = 0.1


#: Standard deviations, over seeds, that a particle-system or q-process
#: count may stray from its mean over seeds.  Counts of these interacting or
#: reweighted paths are far more spread than Poisson counts of the same
#: size: over seeds 0-199, particle-system and q-process events have 3.3 and
#: 3.1 times the Poisson deviation.  Against their recorded spread, six
#: deviations leave a false alarm below about 1e-6 even if that spread is
#: underestimated by 20%.
COUNT_SDS = 6


def _close_spread(problems, what, got, spread):
    """A count against its ``{"mean", "sd"}`` over seeds."""
    _close(problems, f"{what} vs its spread over seeds", got, spread["mean"],
           COUNT_SDS * spread["sd"])


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def column_sha256(path, ncols):
    """SHA-256 of the first ``ncols`` columns of a CSV, header included."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    text = "\n".join(",".join(row[:ncols]) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def read_csv(path, r):
    """States and value columns of a CSV the CLI wrote."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    states = [tuple(int(v) for v in row[:r]) for row in body]
    columns = {name: np.array([float(row[r + k]) for row in body])
               for k, name in enumerate(header[r:])}
    return states, columns


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _close(problems, what, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{what}: {got!r} vs {want!r} (tolerance {tol:g})")


def _close_rel(problems, what, got, want, rel):
    _close(problems, what, got, want, rel * abs(want))


def _equal(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: {got!r} vs {want!r}")


class Oracle:
    """Quasi-stationary data of a config by ARPACK shift-invert, cached."""

    def __init__(self):
        self._cache = {}

    def qsd(self, config_path, trunc=None):
        key = (config_path, trunc)
        if key not in self._cache:
            self._cache[key] = _arpack_qsd(config_path, trunc)
        return self._cache[key]


def _arpack_qsd(config_path, trunc):
    from qsdlab.config import load_config
    from qsdlab.model import build_model
    from qsdlab.solver import assemble, enumerate_space

    cfg = load_config(config_path)
    N = cfg.truncation_n if trunc is None else trunc
    space = enumerate_space(cfg.r, N)
    Q = assemble(build_model(cfg), space)
    start = np.ones(len(space))
    _, left = eigs(Q.matrix.T.tocsc(), k=1, sigma=0, which="LM", tol=0,
                   v0=start)
    _, right = eigs(Q.matrix.tocsc(), k=1, sigma=0, which="LM", tol=0,
                    v0=start)
    law = np.abs(np.real(left[:, 0]))
    law /= law.sum()
    profile = np.abs(np.real(right[:, 0]))
    profile /= law @ profile
    decay = -float((law @ Q.matrix).sum())
    return {"r": cfg.r, "states": list(space.states), "law": law,
            "profile": profile, "decay_rate": decay}


# ---------------------------------------------------------------------------
# one check per subcommand
# ---------------------------------------------------------------------------

def check_solve(out, inv, expected, oracle, seed):
    ref = oracle.qsd(inv.config_path)
    summary = _read_json(os.path.join(out, "solve_summary.json"))
    states, cols = read_csv(os.path.join(out, "qsd_law.csv"), ref["r"])
    problems = []
    _equal(problems, "states", states, ref["states"])
    if problems:
        return problems
    _close(problems, "decay rate vs ARPACK", summary["decay_rate"],
           ref["decay_rate"], TOL_SOLVE)
    _close(problems, "decay rate vs recorded oracle", summary["decay_rate"],
           expected["decay_rate"], TOL_SOLVE)
    _close(problems, "law TV vs ARPACK",
           0.5 * float(np.abs(cols["mass"] - ref["law"]).sum()), 0.0,
           TOL_SOLVE)
    _close(problems, "survival profile vs ARPACK",
           float(np.abs(cols["survival_profile"] - ref["profile"]).max()),
           0.0, TOL_PROFILE)
    return problems


def check_check(out, inv, expected, oracle, seed):
    report = _read_json(os.path.join(out, "check_report.json"))
    verdicts = {rep["name"]: rep["verdict"] for rep in report["reports"]}
    problems = []
    _equal(problems, "verdicts", verdicts, expected["verdicts"])
    return problems


def check_converge(out, inv, expected, oracle, seed):
    summary = _read_json(os.path.join(out, "converge_summary.json"))
    problems = []
    _close(problems, "decay rate", summary["decay_rate"],
           expected["decay_rate"], TOL_SOLVE)
    fits = summary["fits"]
    if len(fits) != len(expected["fits"]):
        return problems + [f"{len(fits)} fits, expected "
                           f"{len(expected['fits'])}"]
    for got, want in zip(fits, expected["fits"]):
        tag = f"fit from {want['initial']}"
        _equal(problems, f"{tag} initial", got["initial"], want["initial"])
        if want["rate"] is None or got.get("rate") is None:
            _equal(problems, f"{tag} rate", got.get("rate"), want["rate"])
            continue
        _close_rel(problems, f"{tag} rate", got["rate"], want["rate"],
                   TOL_FIT_REL)
        _close_rel(problems, f"{tag} amplitude", got["amplitude"],
                   want["amplitude"], TOL_FIT_REL)
    return problems


def check_certify(out, inv, expected, oracle, seed):
    summary = _read_json(os.path.join(out, "mixing_certificate.json"))
    cert = summary["certificate"]
    minor = cert["minorization"]
    comp = cert["survival_comparison"]
    problems = []
    _close(problems, "decay rate", summary["decay_rate"],
           expected["decay_rate"], TOL_SOLVE)
    _equal(problems, "reference", minor["reference"], expected["reference"])
    _equal(problems, "valid", cert["valid"], expected["valid"])
    _close(problems, "return mass", minor["mass"], expected["mass"], TOL_CERT)
    _close(problems, "survival ratio", comp["ratio"], expected["ratio"],
           TOL_CERT)
    _close(problems, "rate bound", cert["rate_bound"], expected["rate_bound"],
           10 * TOL_CERT)
    for key, value in expected["plateau"].items():
        _close(problems, f"profile plateau {key}",
               summary["survival_profile_error"][key], value, TOL_CERT)
    return problems


def _tv_to_reference(weights, ref_states, ref_law):
    index = {state: i for i, state in enumerate(ref_states)}
    gap = np.array(ref_law, dtype=float)
    outside = 0.0
    for state, w in weights.items():
        if state in index:
            gap[index[state]] -= w
        else:
            outside += w
    return 0.5 * (float(np.abs(gap).sum()) + outside)


def _counts_problems(what, masses, total):
    """Masses that should be integer counts over ``total``."""
    problems = []
    counts = masses * total
    if not np.all(np.abs(counts - np.round(counts)) <= 1e-6):
        problems.append(f"{what}: masses are not counts over {total}")
    _close(problems, f"{what} sum", float(masses.sum()), 1.0, 1e-9)
    return problems


def check_simulate(out, inv, expected, oracle, seed):
    law_path = os.path.join(out, "conditional_law.csv")
    summary = _read_json(os.path.join(out, "simulate_summary.json"))
    r = len(summary["initial"])
    states, cols = read_csv(law_path, r)
    survivors, total = summary["survivors"], summary["trajectories"]
    problems = []
    if seed == 0:
        _equal(problems, "CSV sha256", sha256(law_path), expected["csv_sha256"])
    _equal(problems, "trajectories", total, expected["trajectories"])
    _equal(problems, "survival", summary["survival"], survivors / total)
    problems += _counts_problems("conditional law", cols["mass"], survivors)
    # Survivors are binomial around the exact survival probability; given
    # them, changing one path moves the law's TV by at most 1/survivors, so
    # TV exceeds its mean by sqrt(log(1/alarm) / (2 survivors)) with
    # probability at most alarm (McDiarmid).
    p = expected["survival_exact"]
    _close(problems, "survival vs exact", summary["survival"], p,
           math.sqrt(2 * _LOG_ALARM * p * (1 - p) / total))
    ref_states = [tuple(s) for s, _ in expected["law_exact"]]
    ref_law = np.array([m for _, m in expected["law_exact"]])
    tv = _tv_to_reference(dict(zip(states, cols["mass"])), ref_states, ref_law)
    mean_tv = float(np.sqrt(ref_law * (1 - ref_law)
                            / (2 * math.pi * survivors)).sum())
    _close(problems, "law TV vs exact", tv, 0.0,
           mean_tv + math.sqrt(_LOG_ALARM / (2 * survivors)))
    return problems


def check_fv(out, inv, expected, oracle, seed):
    law_path = os.path.join(out, "particle_law.csv")
    summary = _read_json(os.path.join(out, "fv_summary.json"))
    ref = oracle.qsd(inv.config_path, inv.trunc)
    states, cols = read_csv(law_path, ref["r"])
    particles, deaths = summary["particles"], summary["deaths"]
    problems = []
    if seed == 0:
        _equal(problems, "CSV sha256", sha256(law_path), expected["csv_sha256"])
    _equal(problems, "particles", particles, expected["particles"])
    _close(problems, "decay rate vs ARPACK", summary["decay_rate"],
           ref["decay_rate"], TOL_SOLVE)
    _close(problems, "death rate", summary["death_rate"],
           deaths / (particles * float(inv.option("--t"))), 1e-12)
    problems += _counts_problems("final law", cols["final_mass"], particles)
    _close(problems, "occupation sum", float(cols["occupation"].sum()), 1.0,
           1e-9)
    _close(problems, "tv_final", summary["tv_final"], _tv_to_reference(
        dict(zip(states, cols["final_mass"])), ref["states"], ref["law"]),
        1e-9)
    _close(problems, "tv_occupation", summary["tv_occupation"],
           _tv_to_reference(dict(zip(states, cols["occupation"])),
                            ref["states"], ref["law"]), 1e-9)
    for key in ("deaths", "events"):
        _close_spread(problems, key, summary[key], expected["spread"][key])
    _close(problems, "occupation TV to the law", summary["tv_occupation"], 0.0,
           TV_FV_OCCUPATION_MAX)
    return problems


def check_qprocess(out, inv, expected, oracle, seed):
    occ_path = os.path.join(out, "occupation.csv")
    summary = _read_json(os.path.join(out, "qprocess_summary.json"))
    ref = oracle.qsd(inv.config_path, inv.trunc)
    states, cols = read_csv(occ_path, ref["r"])
    problems = []
    if seed == 0:
        # The stationary column comes from the solve, so only the states
        # and the simulated occupation are pinned.
        _equal(problems, "occupation sha256", column_sha256(
            occ_path, ref["r"] + 1), expected["occupation_sha256"])
    _close(problems, "occupation sum", float(cols["occupation"].sum()), 1.0,
           1e-9)
    stationary = dict(zip(ref["states"], ref["law"] * ref["profile"]))
    got = dict(zip(states, cols["stationary"]))
    _close(problems, "stationary vs ARPACK", max(
        abs(got.get(s, 0.0) - w) for s, w in stationary.items()), 0.0,
        TOL_PROFILE)
    tv = _tv_to_reference(dict(zip(states, cols["occupation"])),
                          ref["states"], ref["law"] * ref["profile"])
    _close(problems, "tv_to_stationary", summary["tv_to_stationary"], tv,
           1e-9)
    _close(problems, "occupation TV to stationary", tv, 0.0,
           TV_QPROCESS_OCCUPATION_MAX)
    _close_spread(problems, "events", summary["events"],
                  expected["spread"]["events"])
    return problems


CHECKS = {
    "solve": check_solve,
    "check": check_check,
    "converge": check_converge,
    "certify": check_certify,
    "simulate": check_simulate,
    "fv": check_fv,
    "qprocess": check_qprocess,
}
