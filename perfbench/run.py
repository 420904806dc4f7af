#!/usr/bin/env python3
"""Closed-loop benchmark of the ermakov pipeline.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One client, one process, one thread.  Each iteration parses the workload's
configs and runs them one after another through ``ermakov.runner.run_config``
into a scratch directory; the next iteration starts when the previous one has
finished.  ``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced iterations with iterations that run under
the layer wrappers of ``tracing.py`` and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, so the run stays on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 7
SETUP_PROBES = 4  # kernel repeats just before and just after each set-up child
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10

# The speed of a shared 2-core machine drifts by up to 1.7x within seconds,
# and the drift moves a run's median iteration time by 20-30 %.  A short
# fixed kernel, timed next to every timed piece of work, measures that speed;
# reported times are scaled to the speed at which the kernel takes
# PROBE_REF_S (its uncontended time on the 2-core x86_64 reference machine).
PROBE_ROUNDS = 200
PROBE_REPEATS = 3  # kernel repeats per reading between configs
PROBE_REF_S = 6.0e-4
_PROBE_X = np.linspace(0.0, 1.0, 64)

# Fresh interpreter on the `ermakov check` path: import, parse, build_problem.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ermakov
from ermakov.cli import main
t1 = time.perf_counter()
codes = [main(["check", path]) for path in sys.argv[2:]]
print(json.dumps({"import_s": t1 - t0, "codes": codes, "module": ermakov.__file__}))
"""


def _kernel() -> None:
    acc = 0.0
    for i in range(PROBE_ROUNDS):
        acc += float((np.cos(_PROBE_X * i) + _PROBE_X)[3])
        format(acc, ".17g")


def probe(repeats: int = 1) -> float:
    """Mean seconds of a fixed kernel of interpreter work, small numpy calls
    and float formatting, the mix the pipeline spends its time on.

    One untimed pass first refills the caches the pipeline evicted, so the
    reading does not depend on what the pipeline left behind.  Collection is
    off, so garbage the pipeline left is not swept inside the kernel either.
    """
    gc.disable()
    try:
        _kernel()
        start = time.perf_counter()
        for _ in range(repeats):
            _kernel()
        return (time.perf_counter() - start) / repeats
    finally:
        gc.enable()


def import_ermakov():
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ermakov
        import ermakov.runner
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ermakov from {SRC}: {exc}")
    if Path(ermakov.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported ermakov from {ermakov.__file__}, not from {SRC}")
    return ermakov


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(ermakov) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ermakov": ermakov.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def measure_setup(configs: list[Path]) -> tuple[list[tuple[float, float]], list[float]]:
    """(wall seconds, scaled seconds) and in-process import time of fresh
    `ermakov check` runs.

    Every config must check with exit code 0 in every sample.
    """
    walls, imports = [], []
    for _ in range(SETUP_SAMPLES):
        before = probe(SETUP_PROBES)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, configs)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - start
        walls.append((elapsed, elapsed * 2.0 * PROBE_REF_S / (before + probe(SETUP_PROBES))))
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup child failed ({proc.returncode}):\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if any(code != 0 for code in result["codes"]):
            sys.exit(f"perfbench: `ermakov check` exit codes {result['codes']}:\n{proc.stderr}")
        if Path(result["module"]).resolve().parent.parent != SRC:
            sys.exit(f"perfbench: setup child imported ermakov from {result['module']}")
        imports.append(result["import_s"])
    return walls, imports


class Loop:
    """Closed-loop iterations over one workload's configs, with the output gate."""

    def __init__(self, ermakov, configs: list[Path], out: Path):
        self.runner = ermakov.runner
        self.configs = configs
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.reference_digests: dict[str, str] = {}
        self._reported = set()

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if reason not in self._reported:
            self._reported.add(reason)
            print(f"perfbench: iteration failed: {reason}", file=sys.stderr)

    def iterate(self, around=contextlib.nullcontext) -> tuple[tuple[float, float], list]:
        """One pass over every config: ((wall seconds, scaled seconds), reports).

        The speed probe runs before each config and after the last one,
        outside the timed region; each config's wall time is scaled by the
        mean of the probes on either side of it.  ``around()`` supplies a
        context for each config's timed region (the tracer's iteration span).
        """
        reports, wall, scaled = [], 0.0, 0.0
        before = probe(PROBE_REPEATS)
        for path in self.configs:
            with around():
                start = time.perf_counter()
                config = self.runner.parse_config(path)
                report, _ = self.runner.run_config(config, output_dir=self.out / path.stem)
                elapsed = time.perf_counter() - start
            after = probe(PROBE_REPEATS)
            wall += elapsed
            scaled += elapsed * 2.0 * PROBE_REF_S / (before + after)
            before = after
            reports.append(report)
        return (wall, scaled), reports

    def check(self, reports) -> bool:
        """Gate outside the timed region: verdicts and byte-identical outputs."""
        bad = [r.problem_kind for r in reports if r.verdict != "pass"]
        if bad:
            self._fail(f"verdict fail on {bad}")
            return False
        digests = gate.file_digests(self.out)
        if digests != self.reference_digests:
            changed = sorted(k for k in digests.keys() | self.reference_digests.keys()
                             if digests.get(k) != self.reference_digests.get(k))
            self._fail(f"output bytes differ from the first iteration: {changed[:5]}")
            return False
        return True

    def run(self, seconds: float, tracer=None) -> tuple[list, list]:
        """Iterate until ``seconds`` of wall time have passed.

        Returns (wall seconds, scaled seconds) of the untraced and of the
        traced iterations that passed the gate.  With a tracer, every second
        iteration runs with the layer wrappers installed, and they are removed
        again before the next one, so untraced iterations never run wrapped
        code and slow drift of the machine affects both kinds alike.
        """
        times: dict[bool, list] = {False: [], True: []}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.attempted += 1
            traced = tracer is not None and self.attempted % 2 == 1
            try:
                if traced:
                    with tracer.installed():
                        timing, reports = self.iterate(
                            functools.partial(tracer.iteration_span, self.attempted))
                    tracer.speed[self.attempted] = timing[1] / timing[0]
                else:
                    timing, reports = self.iterate()
            except Exception as exc:  # the loop must keep running
                self._fail(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                continue
            if self.check(reports):
                times[traced].append(timing)
        return times[False], times[True]


def tail(times: list[float]) -> tuple[int, float]:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(times)
    for pct in TAIL_LADDER:
        if n * (100 - pct) / 100 >= TAIL_BEYOND:
            break
    else:
        pct = 50  # fewer than 2 * TAIL_BEYOND samples: the median is the tail
    return pct, float(np.percentile(times, pct, method="higher"))


def warm_and_capture(ermakov, loop: Loop):
    """First iteration, untimed: fills caches, records the reference bytes and
    what the accuracy gate needs from each executed sector."""
    from tracing import capture_sectors  # imports the package

    cases = []
    for path in loop.configs:
        results: list = []
        with capture_sectors(results):
            config = ermakov.runner.parse_config(path)
            report, _ = ermakov.runner.run_config(config, output_dir=loop.out / path.stem)
        if report.verdict != "pass":
            return None
        suffix = "csv" if config.output_format == "csv" else "jsonl"
        for result in results:
            setup, amp = result.setup, result.amplitude
            mid = amp.grid.size // 2
            requests = tuple(request for request, _, _ in result.trajectories)
            cases.append(gate.SectorCase(
                fields_file=loop.out / path.stem / f"{result.label}_fields.{suffix}",
                trajectory_files=tuple(
                    loop.out / path.stem / f"{result.label}_trajectory_{i}.{suffix}"
                    for i in range(1, len(requests) + 1)
                ),
                requests=requests,
                profile=setup.profile,
                weight=setup.sector.weight,
                k=setup.k,
                C=setup.C,
                m=setup.profile.m,
                q_mid=float(amp.grid[mid]),
                rho_mid=float(amp.rho[mid]),
                drho_mid=float(amp.drho[mid]),
            ))
    return cases


# per-layer metrics taken from the tracer, in report order
LAYER_ROWS = (
    ("runner.parse_s", "s"), ("problems.build_s", "s"), ("bases.mathieu_char_s", "s"),
    ("linear.pair_s", "s"), ("linear.ivp_calls", "count"), ("linear.nfev", "count"),
    ("catalog.omega2_calls", "count"), ("catalog.omega2_s", "s"),
    ("pinney.amplitude_s", "s"), ("fields.field_s", "s"), ("fields.trajectory_s", "s"),
    ("fields.trajectory_nfev", "count"), ("runner.execute_self_s", "s"),
    ("runner.certify_s", "s"), ("runner.emit_s", "s"), ("trace.iteration_s", "s"),
    ("trace.remainder_s", "s"),
)
COUNTERS = [name for name, unit in LAYER_ROWS if unit == "count"]


def median(values):
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ermakov = import_ermakov()
    from tracing import Tracer  # imports the package, so only after import_ermakov

    env = environment(ermakov)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    configs = workloads.write_configs(args.workload, args.seed, work / "configs")

    setup_walls, import_times = measure_setup(configs)

    loop = Loop(ermakov, configs, work / "out")
    loop.attempted = 1
    cases = warm_and_capture(ermakov, loop)
    if cases is None:
        loop._fail("verdict fail on the first iteration")
    sectors = len(cases or ())
    loop.reference_digests = gate.file_digests(loop.out)
    emit_bytes = gate.total_bytes(loop.out)

    tracer = Tracer() if args.trace else None
    times, traced_times = loop.run(args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    amp_digits, traj_digits = math.nan, math.nan
    if cases is not None:
        amp_digits, traj_digits = gate.accuracy(cases)
        if not gate.accuracy_ok(amp_digits, traj_digits):
            print(f"perfbench: accuracy gate failed: amp_digits {amp_digits:.3f} "
                  f"(min {gate.AMP_DIGITS_MIN}), traj_digits {traj_digits:.3f} "
                  f"(min {gate.TRAJ_DIGITS_MIN})", file=sys.stderr)
            loop.failed = loop.attempted  # every passing iteration wrote these bytes

    scaled = [s for _, s in times] or [math.nan]
    if not times:
        print("perfbench: no iteration passed", file=sys.stderr)
    pct, tail_s = tail(scaled)
    walls = [wall for wall, _ in times] or [math.nan]
    wall_pct, wall_tail = tail(walls)
    n = len(times)
    # (name, value, unit, note, reported in the JSON line)
    rows = [
        ("setup_s", median([s for _, s in setup_walls]), "s",
         f"median of {len(setup_walls)} fresh interpreters", True),
        ("run_s_p50", median(scaled), "s", f"n={n}", True),
        ("run_s_tail", tail_s, "s", f"p{pct}, n={n}", True),
        ("sectors_per_s", sectors * n / sum(scaled), "1/s",
         f"{sectors} sectors x {n} iterations", True),
        ("fail_ratio", loop.failed / loop.attempted, "ratio",
         f"{loop.failed}/{loop.attempted} iterations", False),
        ("amp_digits", amp_digits, "digits", f"{sectors} sectors", True),
        ("traj_digits", traj_digits, "digits",
         f"{sum(len(c.requests) for c in cases or ())} trajectories", True),
        ("peak_rss_mb", peak_rss_mb, "MB", "benchmark process", True),
        ("setup_wall_s", median([w for w, _ in setup_walls]), "s", "unscaled", False),
        ("run_wall_s_p50", median(walls), "s", f"unscaled, n={n}", False),
        ("run_wall_s_tail", wall_tail, "s", f"unscaled, p{wall_pct}, n={n}", False),
        ("speed_factor", median([s / w for w, s in times] or [math.nan]), "ratio",
         "scaled / wall time, median over iterations", False),
    ]
    if tracer is not None:
        per_iter = [v for k, v in sorted(tracer.layer_times().items()) if k > 0]
        layer = {name: median([it.get(name, 0.0) for it in per_iter])
                 for name in {name for it in per_iter for name in it}}
        for name in COUNTERS:
            values = {it.get(name, 0.0) for it in per_iter}
            if len(values) > 1:
                print(f"perfbench: counter {name} differs between iterations: {sorted(values)}",
                      file=sys.stderr)
            layer[name] = per_iter[0].get(name, 0.0)
        traced = [s for _, s in traced_times] or [math.nan]
        per = f"per iteration, median of {len(per_iter)}"
        rows = [(name, layer.get(name, 0.0), unit, per, True) for name, unit in LAYER_ROWS]
        rows += [
            ("cli.import_s", median([t * s / w for t, (w, s) in zip(import_times, setup_walls)]),
             "s",
             f"median of {len(import_times)} fresh interpreters", True),
            ("runner.emit_bytes", emit_bytes, "bytes", "per iteration", True),
            ("runner.emit_mb_per_s", emit_bytes / 1e6 / layer["runner.emit_s"], "MB/s",
             "emit_bytes / emit_s", True),
            ("trace.overhead", median(traced) / median(scaled), "ratio",
             f"traced p50 / untraced p50, n={len(traced_times)}/{n}", True),
        ]
        tracer.write(work / "spans.jsonl")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, value, unit, note, _ in rows:
        print(f"{name:<24} {value:>14.6g} {unit:<7} ({note})")
    correct = cases is not None and loop.failed == 0
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _, reported in rows if reported}
    result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {"env": env, "args": vars(args), "setup": setup_walls, "untraced": times,
         "traced": traced_times,
         **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
