"""Self-tests of the benchmark harness.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench
"""

import importlib
import json
import os
import signal
import statistics
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layertrace  # noqa: E402
import run  # noqa: E402

SIMULATE = run.Invocation("simulate", "multibirth1d", ("--traj", "20000"))
SOLVE = run.Invocation("solve", "catastrophe1d")
FV = run.Invocation("fv", "ref2d", ("--trunc", "30", "--t", "20"))


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _runner(workload, invocation, corrupt=None, seed=0):
    """A runner for one invocation whose outputs ``corrupt`` may edit."""
    runner = run.Runner(workload, seed=seed)
    runner.invocations = [invocation]
    runner.prepare()
    if corrupt is not None:
        real = runner.cli.main

        def main(argv):
            code = real(argv)
            corrupt(argv[argv.index("--out") + 1])
            return code
        runner.cli = types.SimpleNamespace(main=main)
    return runner


def test_clean_outputs_pass():
    runner = _runner("montecarlo", SIMULATE)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 0)


def test_particle_counts_far_from_seed_0_pass():
    # 273,169 events against 277,942 at seed 0: more than five Poisson
    # deviations, but within the spread of the events over seeds.
    runner = _runner("montecarlo", FV, seed=2090029943)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 0)


def test_one_flipped_byte_in_a_csv_fails_the_invocation():
    def flip(out):
        path = os.path.join(out, "conditional_law.csv")
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        at = data.index(b"\n") + 1 + len(data[data.index(b"\n") + 1:]) // 2
        while not chr(data[at]).isdigit():
            at += 1
        data[at] = ord("7") if data[at] != ord("7") else ord("3")
        with open(path, "wb") as fh:
            fh.write(bytes(data))

    runner = _runner("montecarlo", SIMULATE, flip)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_decay_rate_off_by_1e_9_fails_the_invocation():
    def shift(out):
        path = os.path.join(out, "solve_summary.json")
        with open(path) as fh:
            summary = json.load(fh)
        summary["decay_rate"] += 1e-9
        with open(path, "w") as fh:
            json.dump(summary, fh)

    runner = _runner("solve", SOLVE, shift)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_host_speed_probes_during_a_step_and_takes_them_out():
    handler = signal.getsignal(signal.SIGALRM)
    with run.HostSpeed(during=True) as speed:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass

    during = len(speed.samples) - 2 * run.PROBES_AROUND
    assert during >= 5
    assert speed.seconds == pytest.approx(
        0.5 - sum(speed.samples[run.PROBES_AROUND:-run.PROBES_AROUND]),
        abs=0.01)
    assert speed.scaled == pytest.approx(
        speed.seconds * run.PROBE_REF_S / statistics.median(speed.samples))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traced_run_restores_every_binding_and_balances(tmp_path):
    import qsdlab.cli
    import qsdlab.solver

    originals = {(module, func): getattr(importlib.import_module(module), func)
                 for module, func, *_ in layertrace.WRAPS}
    solve_qsd = qsdlab.solver.solve_qsd

    runner = _runner("solve", SOLVE)
    metrics, passes = run.run_traced(runner, 0.0,
                                     str(tmp_path / "spans.json"))

    assert qsdlab.cli.solve_qsd is qsdlab.solver.solve_qsd is solve_qsd
    for (module_name, func_name), original in originals.items():
        assert getattr(sys.modules[module_name], func_name) is original
    assert runner.failed == 0
    assert passes == 1
    with open(tmp_path / "spans.json") as fh:
        spans = json.load(fh)
    assert layertrace.invocation_balance(spans) == 0
    layers = ("config.load_s", "model.build_s", "solver.self_s",
              "convergence.self_s", "lyapunov.self_s", "simulate.self_s",
              "cli.self_s")
    assert sum(metrics[name] for name in layers) == pytest.approx(
        metrics["trace.wall_s"], abs=1e-6)
    assert metrics["solver.solve_iterations"] > 0


def test_benchmark_json_names_what_the_runs_report(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        run.WORKLOADS)
    runner = _runner("solve", SOLVE)
    metrics, _ = run.run_traced(runner, 0.0, str(tmp_path / "spans.json"))
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(metrics)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert entry["unit"] == run.unit_of(entry["name"])
