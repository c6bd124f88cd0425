"""Record the reference values the output checks compare against.

Run from the root of a source checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record.py

Every invocation of every workload runs once at seed 0.  Verdicts, fits,
certificate values and output digests are taken from its outputs; decay
rates come from the ARPACK oracle in ``checks.py`` and the exact
conditioned laws behind the simulator checks from ``expm_multiply``, so no
reference depends on qsdlab's own solver or semigroup.  The particle-system
and q-process invocations also run at seeds 1-100, two at a time, for the
mean and standard deviation of their counts.  The result is written to
``perfbench/expected.json``; recording takes about seven minutes on two
cores.
"""

import contextlib
import io
import json
import multiprocessing
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
from scipy.sparse.linalg import expm_multiply  # noqa: E402

import checks  # noqa: E402
from run import NPROC, OUT, WORK, WORKLOADS  # noqa: E402

#: Conditioned-law entries below this mass are left out of the reference.
LAW_FLOOR = 1e-12

#: Seeds over which the spread of counts is recorded, and the counts.
SPREAD_SEEDS = range(1, 101)
SPREAD_KEYS = {"fv": ("deaths", "events"), "qprocess": ("events",)}


def _load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _exact_conditional(inv, initial, t):
    """Survival probability and conditioned law at time ``t`` from
    ``initial``, on the config's truncated space."""
    from qsdlab.config import load_config
    from qsdlab.model import build_model
    from qsdlab.solver import assemble, enumerate_space

    cfg = load_config(inv.config_path)
    space = enumerate_space(cfg.r, cfg.truncation_n)
    Q = assemble(build_model(cfg), space)
    nu = expm_multiply(Q.matrix.T.tocsc() * t,
                       space.point_mass(tuple(initial)))
    survival = float(nu.sum())
    law = nu / survival
    keep = np.flatnonzero(law >= LAW_FLOOR)
    return survival, [[list(space.states[i]), float(law[i])] for i in keep]


def _counts(job):
    """Counts of one invocation at one seed."""
    import qsdlab.cli

    inv, seed = job
    with tempfile.TemporaryDirectory(dir=OUT) as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = qsdlab.cli.main(inv.argv(seed, out))
        if code != 0:
            raise RuntimeError(f"{inv.key} at seed {seed} exited {code}")
        summary = _load(out, WORK[inv.cmd][0])
    return [summary[key] for key in SPREAD_KEYS[inv.cmd]]


def _spread(inv):
    """Mean and standard deviation of the counts over ``SPREAD_SEEDS``."""
    with multiprocessing.Pool(NPROC) as pool:
        rows = pool.map(_counts, [(inv, seed) for seed in SPREAD_SEEDS])
    spread = {"seeds": [SPREAD_SEEDS[0], SPREAD_SEEDS[-1]]}
    for key, values in zip(SPREAD_KEYS[inv.cmd], zip(*rows)):
        spread[key] = {"mean": statistics.mean(values),
                       "sd": statistics.stdev(values)}
    return spread


def record(inv, out, oracle):
    if inv.cmd == "solve":
        return {"decay_rate": oracle.qsd(inv.config_path)["decay_rate"]}
    if inv.cmd == "check":
        report = _load(out, "check_report.json")
        return {"verdicts": {rep["name"]: rep["verdict"]
                             for rep in report["reports"]}}
    if inv.cmd == "converge":
        fits = _load(out, "converge_summary.json")["fits"]
        return {"decay_rate": oracle.qsd(inv.config_path)["decay_rate"],
                "fits": [{"initial": fit["initial"], "rate": fit.get("rate"),
                          "amplitude": fit.get("amplitude")} for fit in fits]}
    if inv.cmd == "certify":
        summary = _load(out, "mixing_certificate.json")
        cert = summary["certificate"]
        return {"decay_rate": oracle.qsd(inv.config_path)["decay_rate"],
                "reference": cert["minorization"]["reference"],
                "valid": cert["valid"],
                "mass": cert["minorization"]["mass"],
                "ratio": cert["survival_comparison"]["ratio"],
                "rate_bound": cert["rate_bound"],
                "plateau": summary["survival_profile_error"]}
    if inv.cmd == "simulate":
        summary = _load(out, "simulate_summary.json")
        survival, law = _exact_conditional(inv, summary["initial"],
                                            summary["t"])
        return {"csv_sha256": checks.sha256(
                    os.path.join(out, "conditional_law.csv")),
                "trajectories": summary["trajectories"],
                "survival_exact": survival, "law_exact": law}
    if inv.cmd == "fv":
        summary = _load(out, "fv_summary.json")
        return {"csv_sha256": checks.sha256(
                    os.path.join(out, "particle_law.csv")),
                "particles": summary["particles"], "spread": _spread(inv)}
    if inv.cmd == "qprocess":
        summary = _load(out, "qprocess_summary.json")
        r = len(summary["initial"])
        return {"occupation_sha256": checks.column_sha256(
                    os.path.join(out, "occupation.csv"), r + 1),
                "spread": _spread(inv)}
    raise ValueError(f"no reference for {inv.cmd}")


def main():
    os.chdir(ROOT)
    import qsdlab.cli

    oracle = checks.Oracle()
    invocations = {}
    for workload, invs in WORKLOADS.items():
        for k, inv in enumerate(invs):
            out = os.path.join(OUT, "record", workload, str(k))
            os.makedirs(out, exist_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = qsdlab.cli.main(inv.argv(0, out))
            if code != 0:
                raise SystemExit(f"{inv.key} exited {code}")
            invocations[inv.key] = record(inv, out, oracle)
            print(f"recorded {inv.key}")
    path = os.path.join(HERE, "expected.json")
    with open(path, "w") as fh:
        json.dump({"invocations": invocations}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
