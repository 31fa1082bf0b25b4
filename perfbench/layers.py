"""Traced in-process run: per-layer spans around the package's public functions.

The benchmark installs its own span wrappers; the program is not edited.  A
wrapper replaces a function under every module-level name that refers to it
(``config_space.walk_census`` and ``amplitudes.walk_census`` alike), so calls
between modules are seen wherever the caller looks the name up.  Per-step
helpers such as ``signed_angle`` are not wrapped.

Each span records its name, start, end, parent span and job index.  Spans are
kept in memory; self time is a span's duration minus that of its child spans
(one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import io
import json
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _census_counts(args, kwargs, result):
    return {"walks": sum(result.values()), "buckets": len(result)}


# (module, function, counts taken from (args, kwargs, result))
WRAPPED = [
    ("config_space", "walk_census", _census_counts),
    ("config_space", "validate_path", lambda a, k, r: {"configs": len(_first(a, k).configs)}),
    ("config_space", "path_from_json_dict", None),
    ("homotopy", "total_angle", lambda a, k, r: {"steps": _first(a, k).n_steps}),
    ("homotopy", "classify", None),
    ("amplitudes", "resolved_kernel", None),
    ("amplitudes", "path_amplitude", None),
    ("amplitudes", "anyonic_kernel", None),
    ("exchange", "build_exchange_path", lambda a, k, r: {"steps": _first(a, k).n_steps}),
    ("exchange", "step_factors", lambda a, k, r: {"steps": _first(a, k).n_steps}),
    ("exchange", "dephasing_exponent", None),
    ("exchange", "theta_sweep", None),
    ("exchange", "exchange_phase", None),
    ("cli", "main", None),  # the root span of each job
]

# per-layer metrics with their units; see README.md for what each should move
LAYER_METRICS = [
    ("config_space.walk_census.s", "s"),
    ("config_space.walk_census.calls", "count"),
    ("config_space.walk_census.walks", "count"),
    ("config_space.walk_census.buckets", "count"),
    ("config_space.walk_census.walks_per_s", "1/s"),
    ("config_space.validate_path.s", "s"),
    ("config_space.validate_path.calls", "count"),
    ("config_space.validate_path.configs", "count"),
    ("config_space.path_from_json_dict.s", "s"),
    ("homotopy.total_angle.s", "s"),
    ("homotopy.total_angle.calls", "count"),
    ("homotopy.total_angle.steps", "count"),
    ("homotopy.classify.self_s", "s"),
    ("amplitudes.resolved_kernel.self_s", "s"),
    ("amplitudes.budget_refusals", "count"),
    ("amplitudes.path_amplitude.self_s", "s"),
    ("amplitudes.anyonic_kernel.s", "s"),
    ("exchange.build_exchange_path.s", "s"),
    ("exchange.build_exchange_path.steps", "count"),
    ("exchange.step_factors.self_s", "s"),
    ("exchange.step_factors.steps", "count"),
    ("exchange.dephasing_exponent.self_s", "s"),
    ("exchange.theta_sweep.self_s", "s"),
    ("exchange.exchange_phase.s", "s"),
    ("exchange.exchange_phase.calls", "count"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_frac", "fraction"),
]

# counts that must repeat exactly between passes and runs
EXACT = [name for name, unit in LAYER_METRICS if unit in ("count", "bytes")]


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "counts", "error")

    def __init__(self, name, parent, job):
        self.name, self.parent, self.job = name, parent, job
        self.start = self.end = 0.0
        self.counts = self.error = None

    def record(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job, self.counts, self.error]


class Tracer:
    """Span wrappers, installed for one traced pass and removed after it."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module, the package itself included
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job: int | None = None
        self._saved: list[tuple] = []

    def span(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.stack[-1] if self.stack else None, self.job)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, fn_name, count in WRAPPED:
            original = getattr(self.modules[module_name], fn_name)
            wrapper = self.span(f"{module_name}.{fn_name}", original, count)
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def call_main(cli, argv) -> tuple[str, str, int]:
    """Run ``cli.main(argv)`` in-process, capturing stdout, stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return out.getvalue(), err.getvalue(), rc


def layer_values(spans: list[Span], stdout_bytes: int, failed_jobs: set[int]) -> dict:
    """Per-layer totals of one traced pass over the jobs that met their contract.

    A failed job's partial work is left out: at the seed commit the NaN
    dephase job crashes after a varying number of steps, because NaN breaks
    the ordering of its grid, so its counts would not repeat.
    """
    spans = [s if s.job not in failed_jobs else None for s in spans]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is not None and span.parent is not None:
            child_time[span.parent] += span.end - span.start
    total, self_time, calls, counts = {}, {}, {}, {}
    refusals = 0
    for i, span in enumerate(spans):
        if span is None:
            continue
        duration = span.end - span.start
        total[span.name] = total.get(span.name, 0.0) + duration
        self_time[span.name] = self_time.get(span.name, 0.0) + duration - child_time[i]
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, n in (span.counts or {}).items():
            counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + n
        if span.name == "amplitudes.resolved_kernel" and span.error == "BudgetExceeded":
            refusals += 1
    values = {"amplitudes.budget_refusals": refusals, "cli.stdout_bytes": stdout_bytes}
    for name, unit in LAYER_METRICS:
        if name in values:
            continue
        layer, _, field = name.rpartition(".")
        if field == "s":
            values[name] = total.get(layer, 0.0)
        elif field == "self_s":
            values[name] = self_time.get(layer, 0.0)
        elif field == "calls":
            values[name] = calls.get(layer, 0)
        elif unit == "count":
            values[name] = counts.get(name, 0)
    census_s = values["config_space.walk_census.s"]
    walks = values["config_space.walk_census.walks"]
    values["config_space.walk_census.walks_per_s"] = walks / census_s if census_s > 0 else 0.0
    return values


def run_traced(cli, modules, jobs, refs, seconds, deadline, import_s, spans_file):
    """Alternate untraced and traced in-process passes for ``seconds``.

    Returns (metrics, attempted, failed, problems).  Times are medians over
    the traced passes; counts must repeat exactly in every traced pass.
    Per-layer values cover the jobs that met their contract.
    """
    tracer = Tracer(modules)
    untraced, traced, passes = [], [], []
    attempted, failed, problems = 0, 0, []
    started = time.perf_counter()
    while len(traced) < 1 or (time.perf_counter() - started < seconds and time.perf_counter() < deadline):
        for tracing in (False, True):
            tracer.spans, tracer.stack = [], []
            stdout_bytes, failed_jobs = 0, set()
            if tracing:
                tracer.install()
            t0 = time.perf_counter()
            try:
                for index, job in enumerate(jobs):
                    tracer.job = index
                    out, err, rc = call_main(cli, job.argv)
                    verdict = job.check(out, err, rc)
                    if tracing and job.census_key is not None:
                        walks = sum(
                            s.counts["walks"] for s in tracer.spans
                            if s.job == index and s.name == "config_space.walk_census" and s.counts
                        )
                        expected = refs[job.census_key]["walks"]
                        if verdict is None and walks not in (0, expected):
                            verdict = ("wrong", f"census counted {walks} walks, reference {expected}")
                    attempted += 1
                    if verdict is None:
                        stdout_bytes += len(out.encode("utf-8"))
                    else:
                        failed += 1
                        failed_jobs.add(index)
                        problems.append((job.name, verdict))
            finally:
                tracer.uninstall()
            elapsed = time.perf_counter() - t0
            if tracing:
                traced.append(elapsed)
                passes.append(layer_values(tracer.spans, stdout_bytes, failed_jobs))
            else:
                untraced.append(elapsed)

    with open(spans_file, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.record()) + "\n")

    metrics = {}
    for name, unit in LAYER_METRICS:
        if name in ("cli.import_s", "trace.overhead_frac"):
            continue
        values = [p[name] for p in passes]
        if name in EXACT:
            if len(set(values)) != 1:
                problems.append((name, ("wrong", f"count differs between passes: {values}")))
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics, attempted, failed, problems
