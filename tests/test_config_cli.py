"""Configuration parsing and the command-line entry point.

The CLI is exercised in-process through ``main(argv)`` so exit codes and
written files are observed exactly as a shell would see them.
"""

import csv
import gc
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import qsdlab
from qsdlab import cli, config, convergence, lyapunov, solver
from qsdlab.cli import _build_parser, main
from qsdlab.config import load_config
from qsdlab.convergence import mixing_certificate
from qsdlab.errors import ValidationError
from qsdlab.model import build_model
from qsdlab.simulate import RngPlan, estimate_conditional
from qsdlab.solver import assemble, enumerate_space, evolve_function, solve_qsd

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """\
[model]
r = 1
gamma = 1.0
family = constant
b = 1.0
d = 0.0
c = 1.0

[truncation]
n = 25
"""

TWO_TYPE = """\
[model]
r = 2
gamma = 1.0
family = constant
b = 1.0, 1.0
d = 0.0, 0.0
c = 0.2, 0.02; 0.02, 0.2

[truncation]
n = 20

[simulation]
seed = 3
trajectories = 400
particles = 60
t_max = 2.0

[converge]
initials = (1,1); (5,5)
t_grid = 0:4:0.1
"""

TABULATED = """\
[model]
r = 1
gamma = 1.0
family = tabulated
b_table = 1.0, 1.5, 2.0, 2.0
d_table = 0.0, 0.1, 0.2, 0.3
c_table = 1.0, 1.0, 0.5, 0.5

[truncation]
n = 12
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_minimal_config_fills_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.r == 1
    assert cfg.truncation_n == 25
    assert cfg.tol == 1e-12
    assert cfg.seed == 0
    assert cfg.trajectories == 10000
    assert cfg.t_grid == (0.0, 20.0, 0.05)
    assert cfg.defaults_applied  # the fills are reported


def test_full_config_round_trips(tmp_path):
    cfg = load_config(write_cfg(tmp_path, TWO_TYPE))
    assert cfg.r == 2
    assert cfg.b == [1.0, 1.0]
    assert cfg.c == [[0.2, 0.02], [0.02, 0.2]]
    assert cfg.initials == [(1, 1), (5, 5)]
    assert cfg.t_grid == (0.0, 4.0, 0.1)
    model = build_model(cfg)
    assert model.r == 2
    _, rates, _ = model.transition_table((2, 3))
    assert rates[0] == pytest.approx(2.0)


def test_time_grid_expands_inclusively(tmp_path):
    cfg = load_config(write_cfg(tmp_path, TWO_TYPE))
    grid = cfg.time_grid()
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(4.0)
    assert len(grid) == 41


def test_unknown_keys_are_rejected(tmp_path):
    bad = MINIMAL + "\n[solver]\ntol = 1e-10\nspeed = fast\n"
    with pytest.raises(ValidationError, match="speed"):
        load_config(write_cfg(tmp_path, bad))


def test_unknown_sections_are_rejected(tmp_path):
    bad = MINIMAL + "\n[extras]\nx = 1\n"
    with pytest.raises(ValidationError):
        load_config(write_cfg(tmp_path, bad))


def test_dimension_mismatches_are_rejected(tmp_path):
    bad = MINIMAL.replace("b = 1.0", "b = 1.0, 2.0")
    with pytest.raises(ValidationError):
        load_config(write_cfg(tmp_path, bad))


def test_initial_states_must_be_interior(tmp_path):
    bad = TWO_TYPE.replace("(1,1); (5,5)", "(0,1); (5,5)")
    with pytest.raises(ValidationError):
        load_config(write_cfg(tmp_path, bad))


def test_multibirth_allows_zero_components_per_type(tmp_path):
    text = TWO_TYPE + "\n[extensions]\nmultibirth = (2,0):0.5, (0,1):0.5\n"
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.multibirth == {(2, 0): 0.5, (0, 1): 0.5}
    model = build_model(cfg)
    targets, _, _ = model.transition_table((3, 3))
    assert (5, 3) in targets and (3, 4) in targets


def test_multibirth_rejects_negative_probabilities(tmp_path):
    text = MINIMAL + "\n[extensions]\nmultibirth = 1:1.5, 2:-0.5\n"
    with pytest.raises(ValidationError, match=r"\[extensions\] multibirth"):
        load_config(write_cfg(tmp_path, text))


def test_multibirth_rejects_the_empty_litter(tmp_path):
    text = MINIMAL + "\n[extensions]\nmultibirth = 0:1.0\n"
    with pytest.raises(ValidationError):
        load_config(write_cfg(tmp_path, text))


def test_catastrophe_spec_parses_linear_form(tmp_path):
    text = MINIMAL + "\n[extensions]\ncatastrophe = linear 0.5\n"
    cfg = load_config(write_cfg(tmp_path, text))
    model = build_model(cfg)
    targets, rates, _ = model.transition_table((4,))
    assert targets[-1] == (0,)
    assert rates[-1] == pytest.approx(2.0)


FULL = {
    "model": {"r": "1", "gamma": "1.0", "family": "constant", "b": "1.0",
              "d": "0.0", "c": "1.0"},
    "truncation": {"n": "25"},
}

#: Every numeric key: how a number is written into it, and one number
#: outside its bound.  The tables are written under the constant family,
#: which does not read them: a written key is checked all the same.
NUMERIC_KEYS = {
    "model.r": ("{}", "0"),
    "model.gamma": ("{}", "0"),
    "model.b": ("{}", "0"),
    "model.d": ("{}", "-1"),
    "model.c": ("{}", "-1"),
    "model.beta1": ("{}", "-1"),
    "model.beta2": ("{}", "1"),
    "model.b_table": ("1.0, {}", "0"),
    "model.d_table": ("0.0, {}", "-1"),
    "model.c_table": ("1.0, {}", "-1"),
    "extensions.catastrophe": ("constant {}", "-1"),
    "extensions.multibirth": ("1:{}", "0.5"),
    "truncation.n": ("{}", "0"),
    "solver.tol": ("{}", "0"),
    "solver.max_iter": ("{}", "0"),
    "simulation.seed": ("{}", "-1"),
    "simulation.trajectories": ("{}", "0"),
    "simulation.particles": ("{}", "1"),
    "simulation.t_max": ("{}", "-1"),
    "check.n_check": ("{}", "0"),
    "check.eps": ("{}", "0"),
    "check.c_r": ("{}", "0"),
    "converge.initials": ("({})", "0"),
    "converge.t_grid": ("0:{}:0.1", "0"),
}


def render(sections):
    return "".join(f"[{section}]\n" + "".join(
        f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for section, keys in sections.items())


def test_every_key_but_the_family_is_numeric():
    assert set(NUMERIC_KEYS) == set(config._SCHEMA) - {"model.family"}


@pytest.mark.parametrize("name,bad", [
    (name, bad) for name, (_, outside) in NUMERIC_KEYS.items()
    for bad in ("nan", "inf", outside)])
def test_non_finite_and_out_of_bound_numbers_name_their_key(
        tmp_path, capsys, name, bad):
    section, key = name.split(".")
    form, _ = NUMERIC_KEYS[name]
    sections = {s: dict(keys) for s, keys in FULL.items()}
    sections.setdefault(section, {})[key] = form.format(bad)
    cfg = write_cfg(tmp_path, render(sections))
    label = f"[{section}] {key}"
    with pytest.raises(ValidationError, match=re.escape(label)):
        load_config(cfg)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert label in capsys.readouterr().err


def test_time_grid_point_count_is_bounded(tmp_path, capsys, monkeypatch):
    # 0:99999:1 has 100,000 points, the most allowed; one step more is not.
    edge = load_config(write_cfg(tmp_path, MINIMAL + "\n[converge]\n"
                                 "t_grid = 0:99999:1\n"))
    assert len(edge.time_grid()) == 100_000

    def no_grid(*args, **kwargs):
        raise AssertionError("the grid must not be built")

    monkeypatch.setattr(np, "arange", no_grid)
    for grid in ("0:100000:1", "0:1e9:1e-9", "0:1:1e-320"):
        cfg = write_cfg(tmp_path, MINIMAL + f"\n[converge]\nt_grid = {grid}\n")
        with pytest.raises(ValidationError, match=re.escape(
                "[converge] t_grid: about")):
            load_config(cfg)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "[converge] t_grid" in capsys.readouterr().err


def test_a_truncation_past_the_state_cap_is_refused_before_enumerating(
        tmp_path, capsys, monkeypatch):
    # C(20, 2) = 190 states against a cap of 100; C(14, 2) = 91 fit
    monkeypatch.setattr(solver, "MAX_STATES", 100)
    assert len(enumerate_space(2, 14)) == 91

    def no_states(*args):
        raise AssertionError("no state may be enumerated")

    monkeypatch.setattr(solver, "_lex_states", no_states)
    cfg = str(CONFIGS / "ref2d.cfg")
    assert main(["solve", "--config", cfg, "--trunc", "20",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "N = 20" in err and "190 states" in err
    assert not list(tmp_path.iterdir())


def test_defaults_applied_are_those_of_the_schema():
    # An [extensions] "none" default is recorded only when the section is
    # written: multibirth1d has one, ref2d has none.
    assert load_config(CONFIGS / "multibirth1d.cfg").defaults_applied == {
        "extensions.catastrophe": "none", "solver.tol": "1e-12",
        "solver.max_iter": "1000000"}
    assert load_config(CONFIGS / "ref2d.cfg").defaults_applied == {
        "solver.max_iter": "1000000"}


def test_missing_file_is_a_validation_problem():
    with pytest.raises((ValidationError, OSError)):
        load_config("/nonexistent/nowhere.cfg")


# ---------------------------------------------------------------------------
# command line: happy paths
# ---------------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_solve_writes_law_and_summary(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "qsd_law.csv")
    mass_col = rows[0].index("mass")
    masses = np.array([float(r[mass_col]) for r in rows[1:]])
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    summary = json.loads((out / "solve_summary.json").read_text())
    assert summary["decay_rate"] > 0
    assert summary["iterations"] > 0
    lo, hi = summary["decay_bracket"]
    assert lo <= summary["decay_rate"] <= hi
    assert summary["edge_mass"] == float(masses[-1])  # the state (25,)


def test_tabulated_summary_reproduces_its_run(tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--config", write_cfg(tmp_path, TABULATED),
                 "--out", str(out)]) == 0
    echo = json.loads((out / "solve_summary.json").read_text())["config"]
    assert echo["model.b_table"] == [1.0, 1.5, 2.0, 2.0]
    assert echo["model.d_table"] == [0.0, 0.1, 0.2, 0.3]
    assert echo["model.c_table"] == [1.0, 1.0, 0.5, 0.5]
    # a config rebuilt from the echo alone gives the same law, to the byte
    lines = ["[model]"]
    for key in ("r", "gamma", "family", "b_table", "d_table", "c_table"):
        value = echo[f"model.{key}"]
        if isinstance(value, list):
            value = ", ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    lines += ["[truncation]", f"n = {echo['truncation.n']}"]
    again = tmp_path / "again"
    rebuilt = write_cfg(tmp_path, "\n".join(lines) + "\n", "echo.cfg")
    assert main(["solve", "--config", rebuilt, "--out", str(again)]) == 0
    assert (again / "qsd_law.csv").read_bytes() == \
        (out / "qsd_law.csv").read_bytes()


def test_solve_truncation_override_matches_config(tmp_path):
    cfg_50 = write_cfg(tmp_path, MINIMAL.replace("n = 25", "n = 50"), "a.cfg")
    cfg_25 = write_cfg(tmp_path, MINIMAL, "b.cfg")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["solve", "--config", cfg_25, "--trunc", "50",
                 "--out", str(out_a)]) == 0
    assert main(["solve", "--config", cfg_50, "--out", str(out_b)]) == 0
    assert (out_a / "qsd_law.csv").read_bytes() == \
        (out_b / "qsd_law.csv").read_bytes()


def test_solve_output_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, TWO_TYPE)
    out_a = tmp_path / "first"
    out_b = tmp_path / "second"
    assert main(["solve", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "qsd_law.csv").read_bytes() == \
        (out_b / "qsd_law.csv").read_bytes()


def test_simulate_writes_conditional_law(tmp_path):
    cfg = write_cfg(tmp_path, TWO_TYPE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--t", "1.0"]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert 0 < summary["survival"] <= 1.0
    p, n = summary["survival"], summary["trajectories"]
    assert summary["survival_stderr"] == math.sqrt(p * (1.0 - p) / n)
    rows = read_csv(out / "conditional_law.csv")
    assert len(rows) > 1


def test_simulate_summary_counts_the_events_of_every_chunk(tmp_path):
    cfg = write_cfg(tmp_path, TWO_TYPE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--t", "1.0"]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    loaded = load_config(cfg)
    estimate = estimate_conditional(build_model(loaded), (1, 1), 1.0,
                                    summary["trajectories"],
                                    RngPlan(loaded.seed))
    assert summary["events"] == estimate.events > 0
    assert "threads" not in summary


def test_simulate_without_survivors_exits_two_on_every_path(tmp_path, capsys):
    cfg = str(CONFIGS / "neutral3d.cfg")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                 "--traj", "50"]) == 2
    assert "all 50 paths were absorbed before t = 5.0" in \
        capsys.readouterr().err


def test_fv_writes_particle_law(tmp_path):
    cfg = write_cfg(tmp_path, TWO_TYPE)
    out = tmp_path / "out"
    assert main(["fv", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "fv_summary.json").read_text())
    assert summary["deaths"] >= 0
    assert (out / "particle_law.csv").exists()


def test_qprocess_writes_occupation(tmp_path):
    cfg = write_cfg(tmp_path, TWO_TYPE)
    out = tmp_path / "out"
    assert main(["qprocess", "--config", cfg, "--out", str(out),
                 "--t", "30"]) == 0
    rows = read_csv(out / "occupation.csv")
    occ_col = rows[0].index("occupation")
    masses = np.array([float(r[occ_col]) for r in rows[1:]])
    assert masses.sum() == pytest.approx(1.0, abs=1e-9)


def test_check_reports_every_verdict(tmp_path):
    cfg = write_cfg(tmp_path, TWO_TYPE)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    names = {entry["name"] for entry in report["reports"]}
    assert "growth-envelope" in names
    assert all(entry["verdict"] in ("pass-on-range", "fail", "inconclusive")
               for entry in report["reports"])


def test_one_check_run_builds_one_sweep(tmp_path, monkeypatch):
    # The catastrophe config runs every checker that reads a shell sweep.
    built = []

    class CountingSweep(lyapunov._Sweep):
        def __init__(self, model, n_check):
            built.append(n_check)
            super().__init__(model, n_check)

    monkeypatch.setattr(lyapunov, "_Sweep", CountingSweep)
    cfg = str(CONFIGS / "catastrophe1d.cfg")
    for _ in range(2):
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert built == [load_config(cfg).n_check] * 2


def _module_container_sizes():
    """``len`` of every dict, list, set and weak container held at module
    level in a ``qsdlab`` module."""
    kinds = (dict, list, set, weakref.WeakKeyDictionary,
             weakref.WeakValueDictionary, weakref.WeakSet)
    return {(module.__name__, name): len(value)
            for module in (importlib.import_module(f"qsdlab.{info.name}")
                           for info in pkgutil.iter_modules(qsdlab.__path__))
            for name, value in vars(module).items()
            if not name.startswith("__") and isinstance(value, kinds)}


def test_runs_leave_no_state_at_module_level(tmp_path, monkeypatch):
    # Every shipped config has eps = 0.5, so an earlier test may already
    # have left whatever a run keeps for that value.
    text = (CONFIGS / "catastrophe1d.cfg").read_text()
    assert "eps = 0.5\n" in text
    cfg = write_cfg(tmp_path, text.replace("eps = 0.5\n", "eps = 0.123\n"))
    # Keep every built model alive, so that no weak entry can drop out.
    models = []

    def keeping(document):
        models.append(build_model(document))
        return models[-1]

    monkeypatch.setattr(cli, "build_model", keeping)
    gc.collect()
    before = _module_container_sizes()
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["solve", "--config", str(CONFIGS / "logistic1d.cfg"),
                 "--out", str(tmp_path)]) == 0
    assert len(models) == 2
    assert _module_container_sizes() == before


def test_default_initials_without_the_config_key(tmp_path, monkeypatch):
    text = (CONFIGS / "ref2d.cfg").read_text()
    assert "initials = (1,1); (20,20)\n" in text
    cfg = write_cfg(tmp_path, text.replace("initials = (1,1); (20,20)\n", ""))
    assert load_config(cfg).initials is None

    def curve_columns(*extra):
        out = tmp_path / "converge"
        assert main(["converge", "--config", cfg, "--out", str(out),
                     *extra]) == 0
        with open(out / "convergence_curves.csv", newline="") as handle:
            return next(csv.reader(handle))[1:]

    # The second start sits at N/(2r) per type while it fits in the space.
    assert curve_columns() == ["tv_1_1", "survival_1_1",
                               "tv_15_15", "survival_15_15"]
    assert curve_columns("--trunc", "3") == ["tv_1_1", "survival_1_1"]

    starts = []
    check_conditional_drift = cli.check_conditional_drift

    def spy(model, Q, mu0, times, eps):
        starts.append([Q.space.states[i] for i in np.flatnonzero(mu0)])
        return check_conditional_drift(model, Q, mu0, times, eps)

    monkeypatch.setattr(cli, "check_conditional_drift", spy)
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert starts == [[(1, 1)]]
    out = tmp_path / "simulate"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--traj", "20", "--t", "1"]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["initial"] == [1, 1]


def test_check_reports_a_skipped_conditional_drift(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(cli, "_CONDITIONAL_CHECK_CAP", 10)
    out = tmp_path / "out"
    cfg = str(CONFIGS / "logistic1d.cfg")
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    skipped = report["reports"][-1]
    assert skipped["name"] == "conditional-drift"
    assert skipped["verdict"] == "inconclusive"
    size = len(enumerate_space(1, load_config(cfg).truncation_n).states)
    assert size > 10
    assert skipped["notes"] == [
        f"not run: the truncated space has {size} states, above "
        "_CONDITIONAL_CHECK_CAP = 10"]
    assert "conditional-drift: inconclusive" in capsys.readouterr().out


def test_converge_writes_curves_and_fits(tmp_path):
    cfg = write_cfg(tmp_path, TWO_TYPE)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "convergence_curves.csv")
    assert len(rows) > 2
    summary = json.loads((out / "converge_summary.json").read_text())
    assert summary["fits"] and summary["fits"][0]["rate"] > 0


def test_certify_writes_the_mixing_certificate(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out),
                 "--t0", "1.0"]) == 0
    payload = json.loads((out / "mixing_certificate.json").read_text())
    cert = payload["certificate"]
    assert cert["valid"] is True
    assert cert["rate_bound"] > 0
    assert cert["minorization"]["mass"] > 0


_PROPAGATED = ["_propagated_flow", "_sequence_flow"]


@pytest.mark.parametrize("command, name, expected", [
    ("check", "logistic1d", _PROPAGATED),
    ("converge", "catastrophe1d", _PROPAGATED),
    ("check", "ref2d", ["_sequence_flow"]),
    ("certify", "neutral3d", ["_sequence_flow"] * 3),
], ids=["check-logistic1d", "converge-catastrophe1d", "check-ref2d",
        "certify-neutral3d"])
def test_each_command_flows_its_grid_the_cheaper_way(command, name, expected,
                                                     tmp_path, monkeypatch):
    """The stiff 40- and 50-state chains take dense propagators, which are
    built as one power-sequence flow of the identity; the 1,770- and
    4,060-state spaces take one power sequence.  ``certify`` also makes the
    two one-time flows of its minorization, backward and forward, and a
    one-time grid always takes the power sequence."""
    ways = []
    for each in ("_propagated_flow", "_sequence_flow"):
        def spy(*args, _each=each, _flow=getattr(solver, each)):
            ways.append(_each)
            return _flow(*args)
        monkeypatch.setattr(solver, each, spy)
    assert main([command, "--config", str(CONFIGS / f"{name}.cfg"),
                 "--out", str(tmp_path / "out")]) == 0
    assert ways == expected


@pytest.mark.parametrize("argv", [
    ["converge", "--config", str(CONFIGS / "catastrophe1d.cfg")],
    ["fv", "--config", str(CONFIGS / "ref2d.cfg"), "--trunc", "30", "--t",
     "2"]], ids=["converge", "fv"])
def test_converge_and_fv_solve_the_law_alone(tmp_path, monkeypatch, argv):
    """Neither command reads the survival profile: each solves for the law
    alone, with no fork, and writes the bytes that a full solve gives."""
    forks = []
    fork = os.fork

    def spy():
        forks.append(fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", spy)
    assert main(argv + ["--out", str(tmp_path / "alone")]) == 0
    assert forks == []
    monkeypatch.setattr(cli, "solve_qsd",
                        lambda Q, tol, max_iter, profile: solve_qsd(
                            Q, tol=tol, max_iter=max_iter))
    assert main(argv + ["--out", str(tmp_path / "full")]) == 0
    assert len(forks) == 1
    names = sorted(p.name for p in (tmp_path / "full").iterdir())
    assert sorted(p.name for p in (tmp_path / "alone").iterdir()) == names
    for name in names:
        assert ((tmp_path / "alone" / name).read_bytes()
                == (tmp_path / "full" / name).read_bytes())


def test_certify_reads_the_plateau_from_the_comparison_pass(tmp_path,
                                                            monkeypatch):
    """The plateau costs no flow of its own: ``certify`` makes exactly the
    flows and grid passes of the mixing certificate alone, the comparison
    pass first and then the minorization's one-column flow."""
    calls = []

    def counting(Q, f, t):
        calls.append(t)
        return evolve_function(Q, f, t)

    def counting_passes(mat, lam, columns, times):
        calls.append(tuple(times))
        yield from solver._grid_flow(mat, lam, columns, times)

    monkeypatch.setattr(convergence, "evolve_function", counting)
    monkeypatch.setattr(convergence, "_grid_flow", counting_passes)
    cfg = load_config(str(CONFIGS / "logistic1d.cfg"))
    model = build_model(cfg)
    Q = assemble(model, enumerate_space(cfg.r, cfg.truncation_n))
    res = solve_qsd(Q, tol=cfg.tol, max_iter=cfg.max_iter)
    cert = mixing_certificate(Q, res, t0=1.0, horizon=cfg.t_max)
    assert [type(call) for call in calls] == [tuple, float]
    alone = len(calls)
    calls.clear()
    out = tmp_path / "out"
    assert main(["certify", "--config", str(CONFIGS / "logistic1d.cfg"),
                 "--out", str(out)]) == 0
    assert len(calls) == alone
    payload = json.loads((out / "mixing_certificate.json").read_text())
    plateau = payload["survival_profile_error"]
    assert plateau == {"t=5": cert.comparison.plateau[5.0],
                       "t=10": cert.comparison.plateau[10.0]}


@pytest.mark.parametrize("name", ["ref2d", "neutral3d", "logistic1d",
                                  "catastrophe1d", "multibirth1d"])
def test_converge_keeps_survival_decreasing_on_every_config(tmp_path, name):
    """``convergence_curves`` raises if survival ever rises along the grid
    or passes 1; every shipped config runs through that check."""
    out = tmp_path / "out"
    assert main(["converge", "--config", str(CONFIGS / f"{name}.cfg"),
                 "--out", str(out)]) == 0
    with open(out / "convergence_curves.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    for column in (key for key in rows[0] if key.startswith("survival")):
        survival = np.array([float(row[column]) for row in rows])
        assert (np.diff(survival) < 0).all() and survival.max() < 1.0


def test_certify_at_zero_horizon_does_not_certify(tmp_path):
    out = tmp_path / "out"
    assert main(["certify", "--config", write_cfg(tmp_path, MINIMAL),
                 "--out", str(out), "--t", "0"]) == 0
    cert = json.loads((out / "mixing_certificate.json").read_text())[
        "certificate"]
    assert cert["minorization"]["valid"] is True
    assert cert["survival_comparison"]["valid"] is False
    assert cert["valid"] is False
    assert cert["rate_bound"] == 0.0


def test_out_env_variable_is_honored(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, MINIMAL)
    target = tmp_path / "from_env"
    monkeypatch.setenv("QSDLAB_OUT", str(target))
    assert main(["solve", "--config", cfg]) == 0
    assert (target / "qsd_law.csv").exists()


#: Run in a fresh interpreter: the modules that ``solve``, ``simulate`` and
#: then the flows of ``check``, ``converge`` and ``certify`` leave loaded,
#: out of ``scipy.special`` and ``scipy.sparse.linalg``, which the package
#: never imports.
_LAZY_PROBE = """
import contextlib, io, json, sys
from qsdlab.cli import main
lazy = ("scipy.special", "scipy.sparse.linalg")
report = {}
for command in ("solve", "simulate", "check", "converge", "certify"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", sys.argv[1], "--out", sys.argv[2]])
    report[command] = [code, [m for m in lazy if m in sys.modules]]
print(json.dumps(report))
"""


def test_flow_modules_load_only_when_a_flow_runs(tmp_path):
    import qsdlab
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(qsdlab.__file__).parent.parent),
                    env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE, str(CONFIGS / "logistic1d.cfg"),
         str(tmp_path)], env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == {
        command: [0, []]
        for command in ("solve", "simulate", "check", "converge", "certify")}


# ---------------------------------------------------------------------------
# command line: failure modes
# ---------------------------------------------------------------------------


def test_missing_config_exits_one(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "gone.cfg")]) == 1


def test_invalid_config_exits_one(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL.replace("gamma = 1.0", "gamma = -1"))
    assert main(["solve", "--config", cfg]) == 1


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0"])
def test_non_finite_tolerance_exits_one(tmp_path, capsys, tol):
    cfg = write_cfg(tmp_path, MINIMAL + f"\n[solver]\ntol = {tol}\n")
    with pytest.raises(ValidationError, match=r"\[solver\] tol"):
        load_config(cfg)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "[solver] tol" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags,label", [
    ("solve", ["--trunc", "0"], "[truncation] n"),
    ("simulate", ["--t", "nan"], "[simulation] t_max"),
    ("certify", ["--t", "inf"], "[simulation] t_max"),
    ("fv", ["--t", "nan"], "[simulation] t_max"),
    ("qprocess", ["--t", "inf"], "[simulation] t_max"),
    ("simulate", ["--traj", "0"], "[simulation] trajectories"),
    ("simulate", ["--traj", "-5"], "[simulation] trajectories"),
    ("simulate", ["--seed", "-1"], "[simulation] seed"),
    ("certify", ["--t0", "nan"], "t0"),
])
def test_bad_overrides_exit_one_naming_the_key(tmp_path, capsys, command,
                                               flags, label):
    cfg = write_cfg(tmp_path, MINIMAL)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), *flags]
    assert main(argv) == 1
    assert label in capsys.readouterr().err


def test_numerical_failure_exits_two(tmp_path):
    text = MINIMAL + "\n[solver]\nmax_iter = 3\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flag", ["--t0", "--t"])
def test_over_long_certify_flow_exits_two(tmp_path, capsys, flag):
    argv = ["certify", "--config", str(CONFIGS / "logistic1d.cfg"),
            "--out", str(tmp_path), flag, "1e300"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "past the cap" in err and "Traceback" not in err


def test_usage_errors_exit_three(tmp_path):
    assert main(["frobnicate"]) == 3
    assert main([]) == 3
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["solve", "--config", cfg, "--no-such-flag"]) == 3
    # Options that no command reads any more, and --t0 off certify.
    assert main(["simulate", "--config", cfg, "--threads", "2"]) == 3
    assert main(["solve", "--config", cfg, "--nmax", "30"]) == 3
    assert main(["solve", "--config", cfg, "--t0", "1"]) == 3


#: The overrides each command reads; it rejects every other one.
READS = {"solve": ("--trunc",), "simulate": ("--t", "--traj", "--seed"),
         "fv": ("--trunc", "--t", "--seed"),
         "qprocess": ("--trunc", "--t", "--seed"), "check": ("--trunc",),
         "converge": ("--trunc",), "certify": ("--trunc", "--t")}


@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_takes_only_the_overrides_it_reads(tmp_path, capsys,
                                                        command):
    cfg = write_cfg(tmp_path, MINIMAL)
    parser = _build_parser()
    for flag in ("--trunc", "--t", "--traj", "--seed"):
        argv = [command, "--config", cfg, "--out", str(tmp_path), flag, "3"]
        if flag in READS[command]:
            assert getattr(parser.parse_args(argv), flag[2:]) == 3
        else:
            assert main(argv) == 3
            assert f"unrecognized arguments: {flag} 3" in \
                capsys.readouterr().err
