"""Compare two checkouts of cpasim on benchmark workloads, in alternating
pairs, and write a JSON summary.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload fig3_sweeps --workload steady_batch \
        --pairs 10 --seconds 25 --seed 1 --out BENCH_8.json

Each tree runs its own ``bench/run.py --trace 0`` in a fresh interpreter,
from its own root, one run at a time.  ``--workload`` may be repeated; the
workloads run one after the other.  Pair i uses seed ``--seed + i``; the
parent runs first in even-numbered pairs (counting from 0) and the change
first in odd ones.  Per workload, the summary holds every run's result,
each end-to-end metric's median and quartiles per side, the pairs each side
won (by the metric's ``better`` direction in the change's
``BENCHMARK.json``), the gain test (the change wins at least nine tenths of
the pairs and the medians differ by more than the parent's interquartile
range), and how much worse the change's median is than the parent's, as a
fraction, against the metric's bound.  A metric is UNRESOLVED when the
parent's interquartile range exceeds the bound times the parent's median,
unless every run of the change beats every run of the parent: its runs
then spread too widely to call it unchanged.  The machine, Python, numpy
and scipy versions and the repeat count are recorded once, and so are the
line counts of each tree's ``src/cpasim/*.py``, all lines (``src_lines``)
and code lines only (``src_code_lines``: no docstrings, comments or blank
lines), which are also printed, the code lines of each module
(``module_code_lines``), printed for the modules whose count differs, and
the code lines of ``tests/*.py`` (``tests_code_lines``), also printed, so
that code moved from the package into the tests shows as a move.
Before each run a fixed stdlib-only loop is timed in this process, and its
rate is stored beside that run's metrics (``calibration_per_s``): it tells
how fast the machine was at that moment, so that files from different
sittings can be compared.  No gate reads it.  Only the standard library is
used; both trees should be in the same bytecode state (both with or both
without ``__pycache__``), since the set-up probe times imports.

A gain must be measured with the same benchmark code on both sides, so
the two trees' ``BENCHMARK.json`` and the files under ``bench/`` (apart from
``results/``, ``.work/`` and ``__pycache__``) must be identical.

Exit status: 0 when the change passes, 1 when any run is incorrect, the
change fails a larger share of its operations than the parent, or a
metric's median is worse than the parent's by more than its bound (OUTSIDE
BOUND); each reason is printed to standard error.  2 for usage errors and
when the benchmark code differs, naming the first file that differs.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tokenize
from importlib import metadata


# what a benchmark run leaves under bench/, not benchmark code
NOT_BENCHMARK_CODE = {"results", ".work", "__pycache__"}
# the calibration loop's length: about 13 ms on a 2-CPU machine
CALIBRATION_STEPS = 200_000
# the tokens that hold no code
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def benchmark_files(tree: str) -> set[str]:
    """``BENCHMARK.json`` and the files under ``bench/``, relative to
    ``tree``, without what a run leaves there."""
    files = {"BENCHMARK.json"}
    for root, dirs, names in os.walk(os.path.join(tree, "bench")):
        dirs[:] = [d for d in dirs if d not in NOT_BENCHMARK_CODE]
        files.update(os.path.relpath(os.path.join(root, name), tree) for name in names)
    return files


def first_benchmark_difference(a: str, b: str) -> str | None:
    """The first file, in sorted order, of the benchmark code that differs
    between trees ``a`` and ``b`` or is missing from one; None when the
    code is identical."""
    for name in sorted(benchmark_files(a) | benchmark_files(b)):
        try:
            with open(os.path.join(a, name), "rb") as fa, \
                    open(os.path.join(b, name), "rb") as fb:
                if fa.read() == fb.read():
                    continue
        except FileNotFoundError:
            pass
        return name
    return None


def src_lines(tree: str) -> int:
    """The number of lines in ``tree``'s ``src/cpasim/*.py``."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "cpasim", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def code_lines(source: str) -> int:
    """The lines of Python ``source`` that hold code: not blank, not only a
    ``#`` comment, and not part of a docstring (the string that opens a
    module, class or function body, as ``ast`` finds it).  A line of a
    multi-line statement or of another string counts."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def module_code_lines(tree: str, package: str = os.path.join("src", "cpasim")
                      ) -> dict[str, int]:
    """``code_lines`` of each of ``tree``'s ``<package>/*.py`` (by default
    ``src/cpasim``), by file name, in sorted order."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(tree, package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)] = code_lines(fh.read())
    return counts


def calibration_rate(steps: int = CALIBRATION_STEPS) -> float:
    """Steps per second of a fixed loop of float multiply-adds in this
    interpreter."""
    start = time.perf_counter()
    x = 0.0
    for k in range(steps):
        x = 0.5 * x + k
    return steps / (time.perf_counter() - start)


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    calibration = calibration_rate()
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["calibration_per_s"] = calibration
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def summarize(runs: dict[str, list[dict]], spec: dict) -> dict:
    metrics = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        wins = {"change": 0, "parent": 0, "ties": 0}
        for a, b in zip(values["parent"], values["change"]):
            d = sign * (b - a)
            wins["change" if d > 0 else "parent" if d < 0 else "ties"] += 1
        q = {side: quartiles(v) for side, v in values.items()}
        p_med, c_med = q["parent"][1], q["change"][1]
        spread = q["parent"][2] - q["parent"][0]
        worse_by = (-sign * (c_med - p_med) / abs(p_med)) if p_med else 0.0
        separated = (min(sign * v for v in values["change"])
                     > max(sign * v for v in values["parent"]))
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": {"median": p_med, "quartiles": [q["parent"][0], q["parent"][2]],
                       "values": values["parent"]},
            "change": {"median": c_med, "quartiles": [q["change"][0], q["change"][2]],
                       "values": values["change"]},
            "wins": wins,
            "change_over_parent": c_med / p_med if p_med else None,
            "gain": (wins["change"] >= 0.9 * len(values["parent"])
                     and sign * (c_med - p_med) > spread),
            "worse_by": worse_by,
            "within_bound": worse_by <= m["bound"],
            "parent_spread": spread / abs(p_med) if p_med else None,
            "unresolved": spread > m["bound"] * abs(p_med) and not separated,
        }
    return metrics


def failures(summary: dict) -> list[str]:
    """Why a summary fails the comparison (empty when it passes): an
    incorrect run, a larger share of failed operations in the change, or a
    metric outside its bound."""
    reasons = []
    for workload, w in summary["workloads"].items():
        if not w["all_correct"]:
            reasons.append(f"{workload}: a run is incorrect")
        share = {side: w["failed"][side] / max(1, w["attempted"][side])
                 for side in ("parent", "change")}
        if share["change"] > share["parent"]:
            reasons.append(f"{workload}: the change fails {share['change']:.3g} "
                           f"of its operations, the parent {share['parent']:.3g}")
        for name, m in w["metrics"].items():
            if not m["within_bound"]:
                reasons.append(f"{workload}: {name} OUTSIDE BOUND, worse by "
                               f"{m['worse_by']:.3g} (bound {m['bound']})")
    return reasons


def report_line(workload: str, name: str, m: dict, pairs: int) -> str:
    """One metric's line of the printed report."""
    return (f"{workload} {name:12s} parent {m['parent']['median']:.4g} "
            f"[{m['parent']['quartiles'][0]:.4g}, {m['parent']['quartiles'][1]:.4g}]"
            f"  change {m['change']['median']:.4g} "
            f"[{m['change']['quartiles'][0]:.4g}, {m['change']['quartiles'][1]:.4g}]"
            f"  change wins {m['wins']['change']}/{pairs}"
            f"{'  GAIN' if m['gain'] else ''}"
            f"{'' if m['within_bound'] else '  OUTSIDE BOUND'}"
            f"{'  UNRESOLVED' if m['unresolved'] else ''}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--out", required=True, help="summary JSON to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "bench", "run.py")):
            ap.error(f"no bench/run.py under {tree}")
    differs = first_benchmark_difference(trees["parent"], trees["change"])
    if differs is not None:
        ap.error(f"the trees' benchmark code differs: {differs}")
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in args.workload:
        if workload not in [w["name"] for w in spec["workloads"]]:
            ap.error(f"unknown workload {workload!r}")

    modules = {side: module_code_lines(tree) for side, tree in trees.items()}
    summary = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "order": "parent first in even pairs (from 0), change first in odd",
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "src_code_lines": {side: sum(m.values()) for side, m in modules.items()},
        "module_code_lines": modules,
        "tests_code_lines": {side: sum(module_code_lines(tree, "tests").values())
                             for side, tree in trees.items()},
        "workloads": {},
    }
    lines, code = summary["src_lines"], summary["src_code_lines"]
    print(f"src/cpasim lines: parent {lines['parent']}, change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d}); code lines: parent "
          f"{code['parent']}, change {code['change']} "
          f"({code['change'] - code['parent']:+d})")
    for name in sorted(modules["parent"].keys() | modules["change"].keys()):
        before, after = modules["parent"].get(name, 0), modules["change"].get(name, 0)
        if before != after:
            print(f"  {name} code lines: parent {before}, change {after} "
                  f"({after - before:+d})")
    tests = summary["tests_code_lines"]
    print(f"tests code lines: parent {tests['parent']}, change {tests['change']} "
          f"({tests['change'] - tests['parent']:+d})")
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(trees[side], workload, seed, args.seconds))
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} "
                  "first): " + ", ".join(
                      f"{side} {runs[side][-1]['metrics']['work_per_s']['value']:.4g}"
                      for side in ("parent", "change")) + " work/s", file=sys.stderr)
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs)
                          for side, rs in runs.items()},
            "metrics": summarize(runs, spec),
            "runs": runs,
        }
        # written after each workload, so a long comparison keeps what it has
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
        for name, m in summary["workloads"][workload]["metrics"].items():
            print(report_line(workload, name, m, args.pairs))
    reasons = failures(summary)
    for reason in reasons:
        print(f"FAIL {reason}", file=sys.stderr)
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
