"""Closed-loop benchmark of the qsdlab command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve --seed 0 --seconds 25 --trace 0

One client issues ``qsdlab.cli.main([...])`` invocations back to back in
this single process, so interpreter start-up is paid once; it is measured
on its own as ``setup_s`` (a fresh interpreter until ``qsdlab.cli`` is
imported).  A pass runs the workload's invocations once, in order, and
passes repeat until ``--seconds`` have elapsed (at least one).  Every
output is checked (see ``checks.py``) outside the timed region; an
invocation fails on a nonzero exit, an exception or a failed check.

The speed of a shared host drifts by up to 40% over seconds to minutes, for
the benchmark and for a fixed loop alike.  So a fixed pure-Python loop, the
probe, is timed around each timed step and, for invocations of untraced
passes, every 50 ms during it; the step's time is scaled by the reference
probe time over the median probe time (see ``HostSpeed``).  ``setup_s`` and
``wall_s`` are seconds at the reference host speed.  The unscaled times are
printed as ``setup_raw_s`` and ``wall_raw_s``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics of the traced
passes (see ``layertrace.py``); the spans are written to ``.perfbench_out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS and OpenMP read their thread counts when numpy is first imported.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, str(NPROC))

SETUP_REPEATS = 5

#: Iterations of the probe loop, about 1 ms of work.
PROBE_LOOPS = 8_000

#: Probe time at the reference host speed, the probe's median time on the
#: 2-vCPU host of NOTES.md.  Scaled times are seconds at this speed.
PROBE_REF_S = 0.001

#: Seconds between probes while an invocation runs.
PROBE_INTERVAL_S = 0.05

#: Probes just before and just after each step, so that a step shorter than
#: the interval, or one that stays in C code throughout, still has some.
PROBES_AROUND = 5

SIMULATORS = ("simulate", "fv", "qprocess")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: subcommand, config name under ``configs/``, overrides."""

    cmd: str
    config: str
    extra: tuple = ()

    @property
    def key(self):
        return " ".join((self.cmd, self.config) + self.extra)

    @property
    def config_path(self):
        return os.path.join("configs", self.config + ".cfg")

    def option(self, flag):
        """Value of an override flag as a string, or None."""
        if flag not in self.extra:
            return None
        return self.extra[self.extra.index(flag) + 1]

    @property
    def trunc(self):
        value = self.option("--trunc")
        return None if value is None else int(value)

    def argv(self, seed, out):
        args = [self.cmd, "--config", self.config_path, *self.extra,
                "--out", out]
        if self.cmd in SIMULATORS:
            args += ["--seed", str(seed)]
        return args


# Why each workload: see NOTES.md.  ``simulate`` on neutral3d is left out of
# every workload because it exits 2 by design (no path survives to t = 5).
WORKLOADS = {
    "solve": [Invocation("solve", name) for name in
              ("ref2d", "neutral3d", "logistic1d", "catastrophe1d",
               "multibirth1d")],
    "transient": [Invocation("check", "ref2d"),
                  Invocation("check", "logistic1d"),
                  Invocation("converge", "catastrophe1d"),
                  Invocation("certify", "neutral3d")],
    "montecarlo": [Invocation("simulate", "ref2d"),
                   Invocation("simulate", "multibirth1d", ("--traj", "20000")),
                   Invocation("fv", "ref2d", ("--trunc", "30", "--t", "20")),
                   Invocation("qprocess", "ref2d",
                              ("--trunc", "30", "--t", "10000"))],
}

#: Metrics the untraced run reports in its result line.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def unit_of(name):
    if name.endswith("_per_s") or name == "solver.uniformization_rate":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("bytes_computed") or name == "cli.bytes_written":
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


class HostSpeed:
    """Times one step, and the probe loop around it and, with ``during``,
    every ``PROBE_INTERVAL_S`` while it runs.

    The probes during the step run from SIGALRM in this thread, so their
    own time is taken out of the step's.  After the ``with`` block,
    ``seconds`` is the step's time and ``scaled`` that time at the
    reference host speed, by the median probe time.
    """

    def __init__(self, during):
        self.during = during
        self.samples = []

    def _probe(self, *_):
        started = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i % 7
        self.samples.append(time.perf_counter() - started)

    def __enter__(self):
        for _ in range(PROBES_AROUND):
            self._probe()
        if self.during:
            self._handler = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                             PROBE_INTERVAL_S)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._started
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
            self.seconds -= sum(self.samples[PROBES_AROUND:])
        for _ in range(PROBES_AROUND):
            self._probe()
        self.scaled = (self.seconds * PROBE_REF_S
                       / statistics.median(self.samples))


def measure_setup(repeats=SETUP_REPEATS):
    """Median seconds from a fresh interpreter to ``qsdlab.cli`` imported,
    scaled and unscaled.

    One untimed start first writes the bytecode caches, which a user pays
    once per install.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import qsdlab.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    raw, times = [], []
    for _ in range(repeats):
        # No probes during the start: this process only waits for it.
        with HostSpeed(during=False) as speed:
            subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        raw.append(speed.seconds)
        times.append(speed.scaled)
    return statistics.median(times), statistics.median(raw)


def stamp():
    """Where and on what the numbers were measured."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "qsdlab"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"nproc": NPROC, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


#: Simulator summaries: file, work count and the rate metric it feeds.
WORK = {"simulate": ("simulate_summary.json", "trajectories", "ssa_paths_per_s"),
        "fv": ("fv_summary.json", "events", "fv_events_per_s"),
        "qprocess": ("qprocess_summary.json", "events",
                     "qprocess_events_per_s")}


def _work_done(inv, out):
    """SSA paths, or particle-system or q-process events, of an invocation."""
    if inv.cmd not in WORK:
        return 0
    name, count, _ = WORK[inv.cmd]
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)[count]


def _clear(folder):
    os.makedirs(folder, exist_ok=True)
    for name in os.listdir(folder):
        os.remove(os.path.join(folder, name))


class Runner:
    """Runs passes of one workload and keeps what each invocation did."""

    def __init__(self, workload, seed):
        import checks
        import qsdlab.cli

        self.cli = qsdlab.cli
        self.checks = checks
        self.workload = workload
        self.invocations = WORKLOADS[workload]
        self.seed = seed
        with open(os.path.join(os.path.dirname(__file__),
                               "expected.json")) as fh:
            self.expected = json.load(fh)["invocations"]
        self.oracle = checks.Oracle()
        self.attempted = 0
        self.failed = 0

    def prepare(self):
        """Compute every oracle before timing starts."""
        for inv in self.invocations:
            if inv.cmd in ("solve", "fv", "qprocess"):
                self.oracle.qsd(inv.config_path, inv.trunc)

    def run_pass(self, tracer=None):
        """One pass; returns per-invocation ``(inv, seconds, scaled seconds,
        work, bytes)``."""
        done = []
        for k, inv in enumerate(self.invocations):
            out = os.path.join(OUT, self.workload, str(k))
            _clear(out)
            argv = inv.argv(self.seed, out)
            if tracer is not None:
                tracer.invocation = self.attempted
            captured = io.StringIO()
            error = None
            # Traced passes probe only around the invocation, so that no
            # probe lands in a span.
            with HostSpeed(during=tracer is None) as speed:
                try:
                    with contextlib.redirect_stdout(captured), \
                            contextlib.redirect_stderr(captured):
                        code = self.cli.main(argv)
                except Exception:  # a crash counts as a failed invocation
                    code, error = None, traceback.format_exc()
            seconds, at_ref = speed.seconds, speed.scaled
            self.attempted += 1
            problems = self._check(inv, out, code, error, captured.getvalue())
            if problems:
                self.failed += 1
                print(f"FAILED {inv.key} (seed {self.seed}):", file=sys.stderr)
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)
                done.append((inv, seconds, at_ref, 0, 0))
                continue
            written = sum(os.path.getsize(os.path.join(out, name))
                          for name in os.listdir(out))
            done.append((inv, seconds, at_ref, _work_done(inv, out),
                         written))
        return done

    def _check(self, inv, out, code, error, output):
        if error is not None:
            return [error]
        if code != 0:
            return [f"exit code {code}", output]
        try:
            return self.checks.CHECKS[inv.cmd](
                out, inv, self.expected[inv.key], self.oracle, self.seed)
        except (OSError, LookupError, TypeError, ValueError) as exc:
            return [f"unreadable output: {exc!r}"]


def _medians(passes, column):
    """Each invocation's median over the passes of one row column."""
    return [statistics.median(p[k][column] for p in passes)
            for k in range(len(passes[0]))]


def summarize(passes):
    """End-to-end timings from several passes of ``run_pass`` rows: each
    invocation's median over the passes, summed over the pass (``wall_s``
    at the reference host speed, ``wall_raw_s`` unscaled) and per
    subcommand (``<cmd>_s``), plus the work rates of the simulators."""
    medians = _medians(passes, 2)
    metrics = {"wall_s": sum(medians),
               "wall_raw_s": sum(_medians(passes, 1))}
    work = {}
    for (inv, _, _, done, _), seconds in zip(passes[0], medians):
        name = f"{inv.cmd}_s"
        metrics[name] = metrics.get(name, 0.0) + seconds
        work[inv.cmd] = work.get(inv.cmd, 0) + done
    for cmd, (_, _, rate) in WORK.items():
        if cmd in work:
            metrics[rate] = work[cmd] / metrics[f"{cmd}_s"]
    return metrics


def run_untraced(runner, seconds):
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(runner.run_pass())
    print("pass walls, raw and scaled " + json.dumps(
        [[round(sum(row[c] for row in p), 4) for c in (1, 2)]
         for p in passes]))
    return summarize(passes), len(passes)


def run_traced(runner, seconds, spans_path):
    """Alternate untraced and traced passes; per-layer metrics per traced
    pass, and the tracing overhead against the untraced passes."""
    import layertrace

    tracer = layertrace.Tracer()
    untraced, written = [], []
    started = time.perf_counter()
    while not untraced or time.perf_counter() - started < seconds:
        # Every other pair runs its traced pass first, so that neither kind
        # of pass always meets the process warm or cold.
        if len(untraced) % 2 == 0:
            untraced.append(runner.run_pass())
        tracer.install()
        try:
            done = runner.run_pass(tracer)
        finally:
            tracer.restore()
        written.append(sum(row[4] for row in done))
        if len(untraced) < len(written):
            untraced.append(runner.run_pass())
    passes = len(untraced)
    metrics = layertrace.layer_metrics(tracer.spans, passes)
    metrics["cli.bytes_written"] = statistics.median(written)
    # Mean per traced pass, like the layer metrics, so that they add up.
    metrics["trace.wall_s"] = sum(
        s["end"] - s["start"] for s in tracer.spans
        if s["parent"] is None) / 1e9 / passes
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - summarize(untraced)["wall_raw_s"])
    balance = layertrace.invocation_balance(tracer.spans)
    if balance:
        raise RuntimeError(f"layer self times miss an invocation's wall time "
                           f"by {balance} ns")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return metrics, passes


def _print_metrics(title, metrics):
    print(title)
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:.6g} {unit_of(name)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed; 0 is the configs' own")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qsdlab", "cli.py")):
        print(f"no qsdlab sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]

    setup = measure_setup() if not args.trace else None
    runner = Runner(args.workload, args.seed)
    runner.prepare()
    print("stamp " + json.dumps(stamp(), sort_keys=True))
    if args.trace:
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json")
        metrics, passes = run_traced(runner, args.seconds, spans_path)
        wall = metrics["trace.wall_s"]
        shares = {"solver.solve": metrics["solver.solve_s"] / wall,
                  "solver.semigroup": metrics["solver.semigroup_s"] / wall,
                  "simulate": metrics["simulate.self_s"] / wall}
        print("layer shares of traced wall time "
              + json.dumps({k: round(v, 4) for k, v in shares.items()}))
        _print_metrics(f"per-layer metrics, {args.workload}, {passes} traced "
                       f"passes (spans in {spans_path})", metrics)
        reported = metrics
    else:
        metrics, passes = run_untraced(runner, args.seconds)
        metrics["setup_s"], metrics["setup_raw_s"] = setup
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics["error_rate"] = runner.failed / runner.attempted
        _print_metrics(f"end-to-end metrics, {args.workload}, median of "
                       f"{passes} passes", metrics)
        reported = {name: metrics[name] for name in END_TO_END}
    print(f"invocations: {runner.attempted} attempted, {runner.failed} failed")
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
