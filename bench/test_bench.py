"""The benchmark's own tests: every check fails on a wrong result, the
tracer's exact counts repeat, and the layers' self times add up to the pass.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest

import checks
from run import layer_metrics
from tracer import LAYERS, SPANS, Tracer
from workloads import PANELS, WORKLOADS, fig3_figure, panel, relaxation

from cpasim import cli


def problems(rep, what):
    return [p for p in rep.problems if p.startswith(what + ":")]


@pytest.fixture(scope="module")
def figure(tmp_path_factory):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fig3_figure("fig3b", 4.5, str(tmp_path_factory.mktemp("fig3")))


@pytest.fixture(scope="module")
def steady_pass():
    points = WORKLOADS["steady_batch"].build(5)
    small = [next(pt for pt in points if pt[0] == fam)
             for fam in ("weak", "window", "above")] * 2
    return small, WORKLOADS["steady_batch"].run_pass(small, "")


@pytest.fixture(scope="module")
def time_outputs():
    ops = WORKLOADS["time_evolution"].build(5)
    inputs = ([op for op in ops if op[0] == "panel"]
              + [op for op in ops if op[0] == "relax"][:3])
    outputs = [panel(*arg) if kind == "panel" else relaxation(arg)
               for kind, arg in inputs]
    return inputs, outputs


def test_fig3_checks_pass_on_the_program(figure):
    rep = checks.check_fig3([figure])
    assert rep.problems == []
    assert rep.counts["fold matches oracle"] >= 1


def test_fig3_shifted_curve_point_is_caught(figure):
    f = copy.deepcopy(figure)
    q = f.curve.points[len(f.curve.points) // 2]
    q.n_c *= 1.0 + 1e-6
    assert len(problems(checks.check_fig3([f]), "curve point is a root")) == 1


def test_fig3_swapped_branch_label_is_caught(figure):
    f = copy.deepcopy(figure)
    f.report.branch_location = type(f.report.branch_location).INSIDE_BISTABLE_STABLE
    rep = checks.check_fig3([f])
    assert problems(rep, "branch location") and problems(rep, "marker branch")


def test_fig3_wrong_pattern_fold_and_csv_are_caught(figure, tmp_path):
    f = copy.deepcopy(figure)
    f.curve.pattern = type(f.curve.pattern).CONVENTIONAL_BISTABLE
    x, n = f.folds[-1]
    f.folds[-1] = (x * (1.0 + 1e-5), n)
    stem = str(tmp_path / "short")
    with open(figure.stem + ".csv", encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(stem + ".csv", "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    with open(figure.stem + ".svg", encoding="utf-8") as src, \
            open(stem + ".svg", "w", encoding="utf-8") as dst:
        dst.write(src.read())
    f.stem = stem
    rep = checks.check_fig3([f])
    for what in ("pattern", "fold matches oracle", "CSV shape"):
        assert problems(rep, what), what


def test_fig3_unnulled_output_is_caught(figure):
    f = copy.deepcopy(figure)
    f.report.residual_out = 1e-9 * f.report.input_intensity
    assert problems(checks.check_fig3([f]), "outputs nulled")


def test_steady_checks_pass_on_the_program(steady_pass):
    points, res = steady_pass
    rep = checks.check_steady(points, res.outputs, res.warnings,
                              np.random.default_rng(0))
    assert rep.problems == []
    assert rep.counts["dense root count"] == len(points)


def test_steady_wrong_roots_are_caught(steady_pass):
    points, res = steady_pass
    outputs = copy.deepcopy(res.outputs)
    i_win = next(i for i, (fam, _) in enumerate(points) if fam == "window")
    outputs[i_win][0].n_c *= 1.0 + 1e-6
    flipped = outputs[i_win][1]
    flipped.stability = type(flipped.stability)(
        "Stable" if str(flipped.stability) == "Unstable" else "Unstable")
    del outputs[i_win][2]
    rep = checks.check_steady(points, outputs, res.warnings[1:],
                              np.random.default_rng(0))
    for what in ("root is a zero", "stability matches oracle", "odd root count",
                 "three roots in a window", "dense root count", "warnings"):
        assert problems(rep, what), what


def test_time_checks_pass_on_the_program(time_outputs):
    inputs, outputs = time_outputs
    rep = checks.check_time(inputs, outputs, cli.fig4_preset())
    assert rep.problems == []
    assert rep.counts["relaxes to root"] == 3
    assert rep.counts["oscillates at delta"] == len(PANELS)


def test_time_wrong_results_are_caught(time_outputs):
    inputs, outputs = time_outputs
    outputs = copy.deepcopy(outputs)
    roots, _ = outputs[1]
    roots[0] = replace(roots[0], n_c=roots[0].n_c + 1e-3)
    outputs[2][1].state[-1, 4] = -0.6
    outputs[0].out_intensity[:] = outputs[0].out_intensity.max()
    rep = checks.check_time(inputs, outputs, cli.fig4_preset())
    for what in ("relaxes to root", "Bloch bound", "output dip", "oscillates at delta"):
        assert problems(rep, what), what


EXACT = ("steady.solve_calls", "steady.roots_returned",
         "steady.build_polynomial_calls", "steady.classify_stability_calls",
         "sweep.scan_folds_calls", "sweep.polynomial_builds", "sweep.folds_found",
         "cpa.verify_calls", "dynamics.integrate_calls", "dynamics.rhs_calls",
         "io.bytes_written")


def traced_pass(workload, inputs, tmp_path, k):
    out = tmp_path / f"pass{k}"
    out.mkdir()
    tracer = Tracer()
    with tracer.installed(), tracer.root():
        WORKLOADS[workload].run_pass(inputs, str(out))
    return layer_metrics(tracer, str(out), WORKLOADS[workload].sim_time(inputs))


@pytest.mark.parametrize("workload, size", [("fig3_sweeps", 1),
                                            ("steady_batch", 60),
                                            ("time_evolution", 3)])
def test_exact_counts_repeat_and_self_times_add_up(workload, size, tmp_path):
    inputs = WORKLOADS[workload].build(11)
    if workload == "time_evolution":
        inputs = [op for op in inputs if op[0] == "relax"]
    inputs = inputs[:size]
    first = traced_pass(workload, inputs, tmp_path, 0)
    second = traced_pass(workload, inputs, tmp_path, 1)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    busy = {"fig3_sweeps": "sweep.polynomial_builds",
            "steady_batch": "steady.solve_calls",
            "time_evolution": "dynamics.rhs_calls"}[workload]
    assert first[busy] > 0
    for m in (first, second):
        layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        assert layers == pytest.approx(m["trace.run_s"], rel=1e-9)


def test_tracer_restores_the_program():
    import importlib

    before = [getattr(importlib.import_module(mod), attr) for mod, attr, *_ in SPANS]
    with Tracer().installed():
        pass
    after = [getattr(importlib.import_module(mod), attr) for mod, attr, *_ in SPANS]
    assert before == after
