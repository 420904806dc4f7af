"""Spans and counters around the package's public layer entry points.

The package has no tracing of its own.  This module replaces the layer entry
points, as the pipeline looks them up, with timing wrappers for the length of
a ``with`` block, and puts every original back on exit.  Spans (name, start,
end, parent, iteration) are kept in memory and written out when the run ends.

The frequency callback ``FrequencyProfile.omega2_array`` runs once per
right-hand-side evaluation, tens of thousands of times per iteration, so it
is recorded as a per-iteration call count and total time charged to the
enclosing span instead of as individual spans.

Every span belongs to exactly one layer metric, and a metric sums the *self*
time of its spans (duration minus the time of directly nested spans and
callback calls).  The layer self times therefore add up to the traced
iteration time, which is the sum of the iteration spans (one per config, the
timed region around ``parse_config`` and ``run_config``); the iteration
spans' own self time is the remainder.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from ermakov import bases, catalog, fields, linear, problems, runner

ITERATION = "bench.iteration"

# span name -> per-layer metric that its self time is charged to
SELF_TIME_METRIC = {
    ITERATION: "trace.remainder_s",
    "runner.parse_config": "runner.parse_s",
    "runner.run_config": "runner.emit_s",
    "problems.build_problem": "problems.build_s",
    "bases.mathieu_char_value": "bases.mathieu_char_s",
    "runner.execute_sector": "runner.execute_self_s",
    "linear.build_pair": "linear.pair_s",
    "linear.solve_ivp": "linear.pair_s",
    "pinney.pinney_amplitude": "pinney.amplitude_s",
    "pinney.el_invariant": "pinney.amplitude_s",
    "pinney.invariant_drift": "pinney.amplitude_s",
    "fields.physical_amplitude": "fields.field_s",
    "fields.momentum_field": "fields.field_s",
    "fields.quantum_potential_ep": "fields.field_s",
    "fields.trajectory": "fields.trajectory_s",
    "fields.solve_ivp": "fields.trajectory_s",
    "runner.certify": "runner.certify_s",
}

# (owner, attribute, span name): the names the pipeline resolves at call time
_SPAN_TARGETS = (
    (runner, "parse_config", "runner.parse_config"),
    (runner, "run_config", "runner.run_config"),
    (runner, "build_problem", "problems.build_problem"),
    (problems, "mathieu_char_value", "bases.mathieu_char_value"),
    (bases, "mathieu_char_value", "bases.mathieu_char_value"),
    (runner, "execute_sector", "runner.execute_sector"),
    (problems.SectorSetup, "build_pair", "linear.build_pair"),
    (runner, "pinney_amplitude", "pinney.pinney_amplitude"),
    (runner, "el_invariant", "pinney.el_invariant"),
    (runner, "invariant_drift", "pinney.invariant_drift"),
    (runner, "physical_amplitude", "fields.physical_amplitude"),
    (runner, "momentum_field", "fields.momentum_field"),
    (runner, "quantum_potential_ep", "fields.quantum_potential_ep"),
    (runner, "trajectory", "fields.trajectory"),
    (runner, "certify", "runner.certify"),
)
# solve_ivp as bound in each module: span plus call and nfev counters
_SOLVER_TARGETS = (
    (linear, "linear.solve_ivp", "linear.ivp_calls", "linear.nfev"),
    (fields, "fields.solve_ivp", None, "fields.trajectory_nfev"),
)


@contextmanager
def patched(replacements):
    """Set ``owner.attr = new`` for each triple; restore the originals on exit."""
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
        for owner, attr, original in originals:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"wrapper on {owner.__name__}.{attr} was not removed")


@contextmanager
def capture_sectors(sink: list):
    """Append every SectorResult that ``run_config`` produces to ``sink``."""
    original = runner.execute_sector

    def execute_sector(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    with patched([(runner, "execute_sector", execute_sector)]):
        yield


class Tracer:
    """In-memory span recorder for one traced loop."""

    def __init__(self):
        # span: [name, start, end, parent index, iteration, child seconds]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.iteration = -1
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.speed: dict[int, float] = {}  # iteration -> speed factor of the run loop

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.iteration, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def iteration_span(self, iteration: int):
        self.iteration = iteration
        with self.span(ITERATION):
            yield

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _wrap_solver(self, fn, name, calls_counter, nfev_counter):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                sol = fn(*args, **kwargs)
            finally:
                self._close(index)
            counts = self.counters[self.iteration]
            if calls_counter:
                counts[calls_counter] += 1
            counts[nfev_counter] += sol.nfev
            return sol

        return wrapper

    def _wrap_leaf(self, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if self._stack:
                    self.spans[self._stack[-1]][5] += elapsed
                counts = self.counters[self.iteration]
                counts["catalog.omega2_calls"] += 1
                counts["catalog.omega2_s"] += elapsed

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        replacements = [
            (owner, attr, self._wrap(vars(owner)[attr], name))
            for owner, attr, name in _SPAN_TARGETS
        ]
        replacements += [
            (module, "solve_ivp", self._wrap_solver(vars(module)["solve_ivp"], *names))
            for module, *names in _SOLVER_TARGETS
        ]
        omega2 = vars(catalog.FrequencyProfile)["omega2_array"]
        replacements.append((catalog.FrequencyProfile, "omega2_array", self._wrap_leaf(omega2)))
        with patched(replacements):
            yield self

    def layer_times(self) -> dict[int, dict[str, float]]:
        """Per iteration: summed self time of each layer metric, plus counters.

        Times are scaled by the iteration's speed factor, as the end-to-end
        times are; counts are not.
        """
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, iteration, child in self.spans:
            out[iteration][SELF_TIME_METRIC[name]] += (end - start) - child
            if name == ITERATION:
                out[iteration]["trace.iteration_s"] += end - start
        for iteration, counts in self.counters.items():
            out[iteration].update(counts)
        for iteration, values in out.items():
            factor = self.speed.get(iteration, 1.0)
            for name in values:
                if name.endswith("_s"):
                    values[name] *= factor
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, iteration, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "iteration": iteration}) + "\n")
            for iteration, counts in sorted(self.counters.items()):
                fh.write(json.dumps({"iteration": iteration, "counters": counts}) + "\n")
