"""Benchmark of the anyonsim command line: time to answer on three workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the program is run from ``src/``
as ``python -m anyonsim.cli`` with ``PYTHONPATH=src``.  A closed loop with one
client: jobs run one at a time as subprocesses, each started when the last
has exited, and a pass is one run of the workload's fixed job list (see
jobs.py and README.md).  Passes repeat for ``--seconds``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (medians over passes).  With ``--trace 1`` the job list is
run in-process through ``cli.main`` instead, alternating untraced and traced
passes, and the metrics are the per-layer ones (layers.py).  Every output is
checked against its oracle-verified reference in both modes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import jobs
import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

SETUP_PROBES = 15  # no-work invocations per run; setup_s is their median
IMPORT_PROBES = 7  # fresh interpreters timing ``import anyonsim.cli`` in a traced run
RUN_LIMIT_S = 160.0  # no pass starts, and no job runs, past this point of a run

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ANYONSIM_BUDGET", None)  # the budget jobs rely on the default
    return env


class Runner:
    """Runs CLI jobs as subprocesses, reading each child's resource use with wait4."""

    def __init__(self, run_dir: str, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        self.out = open(os.path.join(run_dir, "stdout"), "w+", encoding="utf-8")
        self.err = open(os.path.join(run_dir, "stderr"), "w+", encoding="utf-8")

    def close(self) -> None:
        self.out.close()
        self.err.close()

    def run(self, argv) -> tuple[str, str, int, float, float, float]:
        """(stdout, stderr, exit code, wall s, user+sys cpu s, max rss MB) of one job."""
        for fh in (self.out, self.err):
            fh.seek(0)
            fh.truncate()
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "anyonsim.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=self.out, stderr=self.err, env=self.env, cwd=ROOT,
        )
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(1.0, self.deadline - started), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - started
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        self.out.seek(0)
        self.err.seek(0)
        out, err = self.out.read(), self.err.read()
        if timed_out.is_set():
            err += "\nbenchmark: timed out\n"
            rc = -9
        return out, err, rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure_setup(runner: Runner, probe) -> float:
    """Median wall time of the no-work invocation, after one unmeasured warm-up."""
    times = []
    for i in range(SETUP_PROBES + 1):
        out, err, rc, wall, _, _ = runner.run(probe.argv)
        verdict = probe.check(out, err, rc)
        if verdict is not None:
            raise SystemExit(f"benchmark: the no-work invocation failed: {verdict[1]}")
        if i:
            times.append(wall)
    return statistics.median(times)


def measure_import(env: dict) -> float:
    code = "import time; t = time.perf_counter(); import anyonsim.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def tail(samples: list[float]) -> str:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in (99, 90, 50):
        beyond = len(ordered) - int(len(ordered) * p / 100)
        if beyond >= 10:
            return f"p{p} {ordered[len(ordered) - beyond]:.4f}"
    return "no percentile has 10 samples beyond it"


def run_untraced(runner, job_list, setup_s, seconds, deadline):
    passes, attempted, failed, problems = [], 0, 0, []
    job_walls = []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started < seconds and time.perf_counter() < deadline):
        wall = cpu = rss = 0.0
        for job in job_list:
            out, err, rc, job_wall, job_cpu, job_rss = runner.run(job.argv)
            wall, cpu, rss = wall + job_wall, cpu + job_cpu, max(rss, job_rss)
            job_walls.append(job_wall)
            verdict = job.check(out, err, rc)
            attempted += 1
            if verdict is not None:
                failed += 1
                problems.append((job.name, verdict))
        passes.append((wall, cpu, rss))
    walls = [p[0] for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p[1] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p[2] for p in passes),
    }
    print(f"wall_s per pass: median {metrics['wall_s']:.4f} s over {len(walls)} passes; {tail(walls)}")
    print(f"wall time per job: median {statistics.median(job_walls):.4f} s over {len(job_walls)} jobs; {tail(job_walls)}")
    units = dict(END_TO_END)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, attempted, failed, problems


def metadata() -> dict:
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def measure(args, run_dir: str, deadline: float):
    """(metrics, attempted, failed, problems) of one run; inputs go to run_dir."""
    refs = jobs.load_refs(BENCH_DIR)
    job_list = jobs.make_jobs(args.workload, args.seed, refs, run_dir)
    if args.trace:
        sys.path.insert(0, SRC)
        import anyonsim
        from anyonsim import amplitudes, cli, config_space, exchange, homotopy

        modules = {"anyonsim": anyonsim, "amplitudes": amplitudes, "cli": cli,
                   "config_space": config_space, "exchange": exchange, "homotopy": homotopy}
        values, attempted, failed, problems = layers.run_traced(
            cli, modules, job_list, refs, args.seconds, deadline,
            measure_import(child_env()), os.path.join(WORK_DIR, f"spans-{args.workload}.jsonl"),
        )
        units = dict(layers.LAYER_METRICS)
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, attempted, failed, problems
    runner = Runner(run_dir, deadline)
    try:
        setup_s = measure_setup(runner, jobs.setup_probe(run_dir))
        return run_untraced(runner, job_list, setup_s, args.seconds, deadline)
    finally:
        runner.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "anyonsim", "cli.py")):
        print(f"benchmark: no anyonsim sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)  # concurrent runs do not collide
    try:
        metrics, attempted, failed, problems = measure(args, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir)

    reported = set()
    for name, (kind, why) in problems:
        if name not in reported:
            reported.add(name)
            print(f"benchmark: {kind}: {name}: {why}", file=sys.stderr)
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    print("meta " + json.dumps(metadata()))
    correct = not any(kind == "wrong" for _, (kind, _) in problems)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
