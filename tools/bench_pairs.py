"""Paired benchmark runs of two checkouts, written as one BENCH JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_24.json

PARENT and CHANGE are the roots of two source checkouts.  For each workload
of the change's BENCHMARK.json, pair i (i = 1..10) runs
``perfbench/run.py --workload W --seed i --seconds S --trace 0`` once in each
checkout, S being the file's ``run_seconds``, the parent first in odd pairs
and the change first in even ones, so a drift of the host over the session
falls on both sides.  Only such pairs compare: medians of runs made in
different sessions have moved by far more than any change they were meant
to show.  Three workloads at 30 s take about half an hour.

The file holds, per workload and end-to-end metric of the change's
BENCHMARK.json: both medians, the parent's interquartile range, the pairs the
change won, and the change's median relative to the parent's against the
metric's bound.  It also lists every run that was not correct or had a failed
job, the seeds, the host's CPU count and Python version, and each side's
``src/`` line and code-line counts (code lines are not blank, comments or
docstrings, the count CI logs).  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import statistics
import subprocess
import sys

PAIRS = 10


def src_counts(root: str) -> dict:
    """The lines and the code lines of the .py files under root/src."""
    total = code = 0
    for path in sorted(pathlib.Path(root, "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        total += len(lines)
        code += sum(
            1 for n, line in enumerate(lines, 1)
            if n not in docstrings and line.strip() and not line.lstrip().startswith("#")
        )
    return {"lines": total, "code_lines": code}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one untraced benchmark run in the checkout root, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit"] = done.returncode
    if done.returncode or done.stderr:
        result["stderr"] = done.stderr[-2000:]
    return result


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    """Both medians, the parent IQR, the pairs won and the bound of one end-to-end metric."""
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    pairs = [
        (p["metrics"][name]["value"], c["metrics"][name]["value"])
        for p, c in zip(parent, change)
        if name in p["metrics"] and name in c["metrics"]
    ]
    if not pairs:
        return {"pairs": 0}
    before = statistics.median(p for p, _ in pairs)
    after = statistics.median(c for _, c in pairs)
    worse = sign * (after - before) / before if before else 0.0
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent_median": before,
        "change_median": after,
        "parent_iqr": iqr([p for p, _ in pairs]) if len(pairs) > 1 else 0.0,
        "pairs": len(pairs),
        "change_won": sum(sign * (c - p) < 0 for p, c in pairs),
        "relative_worsening": worse,
        "bound": metric["bound"],
        "within_bound": worse <= metric["bound"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the change checkout")
    parser.add_argument("--out", required=True, help="the BENCH JSON file to write")
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    seeds = list(range(1, PAIRS + 1))
    sides = {"parent": args.parent, "change": args.change}
    report = {
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
        "seeds": seeds,
        "seconds": seconds,
        "order": "the parent runs first in pairs with an odd seed, the change in the others",
        "src": {side: src_counts(root) for side, root in sides.items()},
        "workloads": {},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {"parent": [], "change": []}
        for seed in seeds:
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for side in order:
                result = run_once(sides[side], workload, seed, seconds)
                result["seed"] = seed
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: correct {result.get('correct')} "
                      f"failed {result.get('failed')}", file=sys.stderr)
        bad = [
            {"side": side, **{k: r.get(k) for k in ("seed", "correct", "failed", "attempted", "exit", "stderr")}}
            for side in ("parent", "change") for r in runs[side]
            if r.get("correct") is not True or r.get("failed") != 0 or r["exit"] != 0
        ]
        report["workloads"][workload] = {
            "metrics": {
                m["name"]: summarize(m, runs["parent"], runs["change"]) for m in benchmark["end_to_end"]
            },
            "bad_runs": bad,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
