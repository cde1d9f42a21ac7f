"""Run one workload of the cpasim benchmark and print its metrics.

    python3 bench/run.py --workload fig3_sweeps --seed 1 --seconds 15 --trace 0

Run from the repository root.  The workload's inputs are built from
``--seed``; passes over them repeat for about ``--seconds`` seconds (at least
one whole pass); then the first pass's outputs are checked against the
oracles and every later pass must reproduce them exactly.  With
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are reported, with
``--trace 1`` the per-layer ones, from traced passes that alternate with
untraced ones.  The last line of standard output is the JSON result; the
same result, with details, goes to ``bench/results/``, and a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

from tracer import LAYERS, ROOT as ROOT_SPAN, Tracer, layer_of, totals, write_spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
RESULTS = os.path.join(BENCH, "results")
WORK = os.path.join(BENCH, ".work")
# numpy's BLAS would otherwise start one thread per CPU
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
IMPORT_PROBES = 3
PROBE_TIMEOUT = 60.0


def child_env() -> dict:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, BENCH] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh interpreter to first call: ``import cpasim`` and the workload's
    inputs, timed from process start until the child says it is ready."""
    cmd = [sys.executable, os.path.join(BENCH, "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline().strip()
            ready = perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {line!r}")
        times.append(ready)
    return times


def import_seconds() -> dict:
    """Cumulative import time of ``cpasim`` and of ``cpasim.dynamics``, from
    ``python -X importtime``, median of IMPORT_PROBES fresh interpreters."""
    found: dict[str, list[float]] = {"cpasim": [], "cpasim.dynamics": []}
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$")
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cpasim"],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT, check=True)
        for line in proc.stderr.splitlines():
            m = pattern.match(line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {name: statistics.median(v) for name, v in found.items()}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile up to 99 that leaves at
    least ten samples beyond it (nearest rank); the largest sample when there
    are ten or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = max(10, n // 100)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def layer_metrics(tracer, pass_dir: str, sim_time: float) -> dict:
    t = totals(tracer)
    calls, total, own = t["calls"], t["total"], t["self"]
    c = tracer.counters
    m = {
        "steady.solve_calls": calls["steady.solve_steady_states"],
        "steady.roots_returned": c["steady.roots_returned"],
        "steady.solve_s": total["steady.solve_steady_states"],
        "steady.solve_self_s": own["steady.solve_steady_states"],
        "steady.build_polynomial_calls": calls["steady.build_polynomial"],
        "steady.build_polynomial_s": total["steady.build_polynomial"],
        "steady.classify_stability_calls": calls["steady.classify_stability"],
        "steady.classify_stability_s": total["steady.classify_stability"],
        "sweep.scan_folds_calls": calls["sweep.scan_folds"],
        "sweep.scan_folds_s": total["sweep.scan_folds"],
        "sweep.trace_hysteresis_s": total["sweep.trace_hysteresis"],
        "sweep.trace_hysteresis_self_s": own["sweep.trace_hysteresis"],
        "sweep.polynomial_builds": c["sweep.polynomial_builds"],
        "sweep.folds_found": c["sweep.folds_found"],
        "sweep.polynomial_builds_per_fold": (
            c["sweep.polynomial_builds"] / c["sweep.folds_found"]
            if c["sweep.folds_found"] else 0.0),
        "cpa.verify_calls": calls["cpa.verify_cpa"],
        "cpa.verify_s": total["cpa.verify_cpa"],
        "cpa.verify_self_s": own["cpa.verify_cpa"],
        "dynamics.integrate_calls": calls["dynamics.integrate"],
        "dynamics.integrate_s": total["dynamics.integrate"],
        "dynamics.rhs_calls": calls["dynamics.mean_field_rhs"],
        "dynamics.rhs_calls_per_time": (calls["dynamics.mean_field_rhs"] / sim_time
                                        if sim_time else 0.0),
        "dynamics.rhs_s": total["dynamics.mean_field_rhs"],
        "dynamics.solve_ivp_s": total["dynamics.solve_ivp"],
        "dynamics.stepper_self_s": (total["dynamics.solve_ivp"]
                                    - total["dynamics.mean_field_rhs"]),
        "dynamics.post_s": total["dynamics.integrate"] - total["dynamics.solve_ivp"],
        "io.emit_csv_s": total["io.emit_csv"],
        "io.emit_svg_s": total["io.emit_svg"],
        "io.bytes_written": sum(os.path.getsize(os.path.join(pass_dir, f))
                                for f in os.listdir(pass_dir)),
        "trace.run_s": total[ROOT_SPAN],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for name, v in own.items()
                                   if layer_of(name) == layer)
    return m


@dataclass
class Pass:
    seconds: float
    traced: bool
    op_seconds: list
    attempted: int
    errors: list
    fingerprint: str
    layers: dict | None  # per-layer metrics of a traced pass
    tracer: object


def measure(w, inputs, seconds: float, trace: bool, work: str):
    """Whole passes until the next one would end after ``seconds``; with
    tracing, untraced and traced passes alternate, at least one of each.
    Returns the first pass's outputs, kept for the checks, and every pass's
    record; later passes keep only a fingerprint of their outputs."""
    first = None
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_dir = os.path.join(work, f"pass{len(passes)}")
        os.mkdir(pass_dir)
        tracer = Tracer() if traced else None
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = perf_counter()
            with tracer.root() if traced else contextlib.nullcontext():
                res = w.run_pass(inputs, pass_dir)
            dt = perf_counter() - t0
        layers = layer_metrics(tracer, pass_dir, w.sim_time(inputs)) if traced else None
        passes.append(Pass(dt, traced, res.op_seconds, len(res.outputs), res.errors,
                           w.fingerprint(res), layers, tracer))
        if first is None:
            first = res
        else:
            shutil.rmtree(pass_dir)
        elapsed = perf_counter() - start
        if elapsed + dt > seconds and (not trace or len(passes) >= 2):
            return first, passes


def run(args, spec: dict) -> tuple[dict, dict]:
    if not os.path.isdir(os.path.join(SRC, "cpasim")):
        raise SystemExit(f"error: no cpasim sources under {SRC}")
    os.environ.update(ONE_THREAD)
    sys.path[:0] = [SRC, TESTS, BENCH]

    import cpasim

    if os.path.dirname(os.path.abspath(cpasim.__file__)) != os.path.join(SRC, "cpasim"):
        raise SystemExit(f"error: cpasim imported from {cpasim.__file__}, not {SRC}")
    import numpy as np

    import checks
    from workloads import WORKLOADS

    declared = spec["per_layer" if args.trace else "end_to_end"]

    w = WORKLOADS[args.workload]
    metrics = {}
    if args.trace:
        imports = import_seconds()
        metrics["cpasim.import_s"] = imports["cpasim"]
        metrics["dynamics.import_s"] = imports["cpasim.dynamics"]
    else:
        setups = setup_seconds(args.workload, args.seed)
        metrics["setup_s"] = statistics.median(setups)

    inputs = w.build(args.seed)
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        w.warm_up(inputs, work)
        first, passes = measure(w, inputs, args.seconds, bool(args.trace), work)

        t_checks = perf_counter()
        differing = [k for k, p in enumerate(passes)
                     if p.fingerprint != passes[0].fingerprint]
        if w.name == "fig3_sweeps":
            rep = checks.check_fig3(first.outputs)
        elif w.name == "steady_batch":
            rep = checks.check_steady(inputs, first.outputs, first.warnings,
                                      np.random.default_rng([args.seed, 1]))
        else:
            rep = checks.check_time(inputs, first.outputs, cpasim.cli.fig4_preset())
        for k in differing:
            rep.problems.append(f"pass {k} outputs differ from pass 0")
        check_seconds = perf_counter() - t_checks

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if args.trace:
        for name in traced[0].layers:
            metrics[name] = statistics.fmean(p.layers[name] for p in traced)
        untraced = statistics.fmean(p.seconds for p in plain)
        metrics["trace.untraced_run_s"] = untraced
        metrics["trace.overhead"] = metrics["trace.run_s"] / untraced - 1.0
        write_spans(os.path.join(RESULTS, f"spans-{w.name}-seed{args.seed}.csv"),
                    [p.tracer for p in traced])
    else:
        # an operation's latency is the median over the passes that repeat
        # it, so a burst of machine noise in one pass does not reach the tail
        op_seconds = [statistics.median(times)
                      for times in zip(*(p.op_seconds for p in plain))]
        tail_value, tail_pct = tail(op_seconds)
        metrics["run_s"] = statistics.median(p.seconds for p in plain)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics["op_p50_ms"] = 1e3 * statistics.median(op_seconds)
        metrics["op_tail_ms"] = 1e3 * tail_value
        metrics["work_per_s"] = (w.work(inputs) * len(plain)
                                 / sum(p.seconds for p in plain))

    attempted = sum(p.attempted for p in passes)
    errors = [e for p in passes for e in p.errors]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"error: metrics {sorted(metrics)} differ from "
                         f"BENCHMARK.json's {sorted(names)}")
    result = {
        "correct": not rep.problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    details = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "pass_seconds": [p.seconds for p in passes],
        "pass_traced": [p.traced for p in passes],
        "checks": dict(rep.counts), "check_seconds": check_seconds,
        "problems": rep.problems[:50],
        "errors": errors[:50],
    }
    if not args.trace:
        details["setup_seconds"] = setups
        details["op_samples"] = len(op_seconds)
        details["op_tail_percentile"] = tail_pct
    with open(os.path.join(RESULTS, f"{w.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    return result, details


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    result, details = run(args, spec)
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"passes {len(details['pass_seconds'])}, operations attempted "
          f"{result['attempted']}, failed {result['failed']}")
    print("checks: " + ", ".join(f"{k} {v}" for k, v in details["checks"].items()))
    for line in details["problems"] + details["errors"]:
        print(f"PROBLEM {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
