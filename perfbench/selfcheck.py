"""Self-check of the benchmark's inputs and output checks.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  It verifies that

1. the same seed gives byte-identical argv and input files;
2. another seed keeps every job's instance geometry and changes its parameters;
3. the program's real outputs pass their checks, and every corruption of an
   expected output is reported as a wrong answer: each number or string of
   each output perturbed in turn, a census table with one count off, and a
   refusal with the wrong error name;
4. BENCHMARK.json declares exactly the metrics the benchmark reports;
5. without the program's sources the benchmark exits non-zero and prints no
   result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import jobs
import layers
import run

WORK = os.path.join(run.WORK_DIR, "selfcheck")


def fail(message: str) -> None:
    raise SystemExit(f"selfcheck: FAIL: {message}")


def generate(workload: str, seed: int, work_dir: str, refs: dict):
    os.makedirs(work_dir, exist_ok=True)
    job_list = jobs.make_jobs(workload, seed, refs, work_dir)
    argv = [[a.replace(work_dir, "<work>") for a in job.argv] for job in job_list]
    files = {}
    for name in sorted(os.listdir(work_dir)):
        with open(os.path.join(work_dir, name), "rb") as fh:
            files[name] = fh.read()
    return job_list, argv, files


def check_seeds(refs: dict) -> None:
    for workload in jobs.WORKLOADS:
        a_jobs, a_argv, a_files = generate(workload, 7, os.path.join(WORK, "a", workload), refs)
        _, b_argv, b_files = generate(workload, 7, os.path.join(WORK, "b", workload), refs)
        if a_argv != b_argv or a_files != b_files:
            fail(f"{workload}: seed 7 twice gives different argv or files")
        c_jobs, c_argv, c_files = generate(workload, 8, os.path.join(WORK, "c", workload), refs)
        if [j.geometry for j in a_jobs] != [j.geometry for j in c_jobs]:
            fail(f"{workload}: seeds 7 and 8 give different instance geometry")
        for job, argv7, argv8 in zip(a_jobs, a_argv, c_argv):
            if argv7 == argv8 and job.name != "winding":
                fail(f"{workload}: job {job.name} has the same parameters under seeds 7 and 8")
        for files in (a_files, c_files):
            for name, data in files.items():
                if name == "walk.json" and len(json.loads(data)["configs"]) != jobs.WALK_CONFIGS:
                    fail(f"{workload}: walk file {name} has the wrong length")
        if workload == "paths" and a_files == c_files:
            fail("paths: seeds 7 and 8 give the same walk file")
    print("selfcheck: seeds reproduce inputs exactly and keep the geometry: ok")


def _perturb(value):
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.001 + 1e-3
    return value + "x"


def _json_corruptions(doc):
    """Copies of doc with one leaf changed, one copy per leaf."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        yield _perturb(doc)
        return
    for key, value in items:
        for changed in _json_corruptions(value):
            copied = copy.copy(doc)
            copied[key] = changed
            yield copied


def corruptions(out: str):
    if out.startswith("{"):
        for doc in _json_corruptions(json.loads(out)):
            yield json.dumps(doc) + "\n"
        return
    lines = out.split("\n")
    for row in (1, 2, len(lines) // 2, len(lines) - 2):
        fields = lines[row].split(",")
        for col in range(len(fields)):
            changed = list(fields)
            changed[col] = "corrupt" if col == 1 else repr(_perturb(float(fields[col])))
            yield "\n".join(lines[:row] + [",".join(changed)] + lines[row + 1:])


def check_outputs(refs: dict) -> None:
    sys.path.insert(0, run.SRC)
    from anyonsim import cli

    job_list = jobs.make_jobs("small_kernels", 11, refs, WORK) + jobs.make_jobs("paths", 11, refs, WORK)
    job_list.append(jobs.setup_probe(WORK))
    cases = 0
    for job in job_list:
        out, err, rc = layers.call_main(cli, job.argv)
        verdict = job.check(out, err, rc)
        if job.name == "nan_dt_grid":
            continue  # refused with a traceback at the seed commit; see README.md
        if verdict is not None:
            fail(f"{job.name}: the real output fails its check: {verdict}")
        if rc == 0:
            for bad in corruptions(out):
                cases += 1
                if (job.check(bad, err, rc) or ("", ""))[0] != "wrong":
                    fail(f"{job.name}: corrupted output passes: {bad[:200]!r}")
            if job.check(out, err, 2)[0] != "error":
                fail(f"{job.name}: an exit code of 2 is not reported")
        else:
            wrong_name = err.replace(err.split(":")[1], " SomeOtherError")
            cases += 2
            if job.check(out, wrong_name, rc)[0] != "wrong" or job.check("{}", "", 0)[0] != "wrong":
                fail(f"{job.name}: a wrong refusal or an accepted request passes")

    # a reference census with one count off must make the real output wrong
    corrupted = copy.deepcopy(refs)
    for ref in corrupted.values():
        ref["census"][0][2] += 1
    good = jobs.make_jobs("small_kernels", 12, refs, WORK)
    for job, bad_job in zip(good, jobs.make_jobs("small_kernels", 12, corrupted, WORK)):
        if job.census_key is None:
            continue
        out, err, rc = layers.call_main(cli, job.argv)
        cases += 1
        if job.argv != bad_job.argv or job.check(out, err, rc) is not None:
            fail(f"{job.name}: the job changes with its reference table")
        if (bad_job.check(out, err, rc) or ("",))[0] != "wrong":
            fail(f"{job.name}: a corrupted census table is not reported")
    print(f"selfcheck: real outputs pass and {cases} corrupted expected outputs are reported: ok")


def check_declaration() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != run.END_TO_END:
        fail(f"end_to_end {declared} != reported {run.END_TO_END}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != layers.LAYER_METRICS:
        fail("per_layer metrics differ from layers.LAYER_METRICS")
    if [w["name"] for w in spec["workloads"]] != list(jobs.WORKLOADS):
        fail("workloads differ from jobs.WORKLOADS")
    print("selfcheck: BENCHMARK.json matches the reported metrics: ok")


def check_bare_directory() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if done.returncode == 0 or done.stdout.strip():
        fail("the benchmark does not fail without the program's sources")
    print("selfcheck: without sources the benchmark exits non-zero with no result: ok")


def main() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    refs = jobs.load_refs(run.BENCH_DIR)
    check_seeds(refs)
    check_declaration()
    check_bare_directory()
    check_outputs(refs)
    shutil.rmtree(WORK, ignore_errors=True)
    print("selfcheck: all passed")


if __name__ == "__main__":
    main()
