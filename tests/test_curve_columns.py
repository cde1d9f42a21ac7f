"""A hysteresis curve is the kernel's columns in one row order, by input
intensity, then photon number, set by the curve itself: the CSV, the SVG and
follow_sweep read the rows as they are and give the bytes and selections of
the reference writers below, which each sort the curve's points on their
own."""

import warnings
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_curve_geometry import curve_params, positive_folds
from test_sweep import reproduce_span
from cpasim import io
from cpasim.cli import fig3_preset
from cpasim.model import Stability
from cpasim.sweep import (
    CurvePoint,
    HysteresisCurve,
    PatternClass,
    classify_pattern,
    follow_sweep,
    trace_hysteresis,
)

FIG3 = [(tag, dtls) for tag in ("fig3a", "fig3b", "fig3c") for dtls in (4.5, 1.5)]


# The references: each sorts the curve's points by attribute.

def reference_csv(curve, gs):
    lines = ["input_intensity,n_c,output_intensity,stability,branch_id"]
    for q in sorted(curve.points, key=attrgetter("input_intensity", "n_c")):
        lines.append(f"{q.input_intensity * gs:.17g},{q.n_c:.17g},"
                     f"{q.output_intensity * gs:.17g},{q.stability.value},"
                     f"{q.branch_id}")
    return "\n".join(lines) + "\n"


def reference_svg(curve, gs, title):
    pts = sorted(curve.points,
                 key=attrgetter("branch_id", "input_intensity", "n_c"))
    inputs = np.array([q.input_intensity for q in pts])
    outputs = np.array([q.output_intensity for q in pts])
    xs, ys = inputs * gs, outputs * gs
    xr = io._axis_range(xs.tolist() or [0.0])
    yr = io._axis_range(ys.tolist() or [0.0])
    plot = io._Plot(xr, yr, "input intensity", "output intensity", title)
    palette = ["#1f5fa8", "#c23b22", "#2e8b57", "#8860b2", "#b8860b"]
    lo = 0
    for i in range(1, len(pts) + 1):
        same_branch = i < len(pts) and pts[i].branch_id == pts[lo].branch_id
        if same_branch and pts[i].stability is pts[i - 1].stability:
            continue
        if i - lo >= 2:
            plot.polyline(xs[lo:i], ys[lo:i],
                          palette[pts[lo].branch_id % len(palette)],
                          io._DASH[pts[i - 1].stability.value])
        lo = i - 1 if same_branch else i
    if pts:
        n_c = np.array([q.n_c for q in pts])
        for f_in, f_n in curve.folds:
            near = np.argmin(np.abs(inputs - f_in) + np.abs(n_c - f_n))
            plot.diamond(f_in * gs, pts[near].output_intensity * gs)
    n_a = n_b = 0
    for m in curve.cpa_markers:
        if m.observable:
            n_a += 1
            tag = f"A{n_a}"
        else:
            n_b += 1
            tag = f"B{n_b} (unobservable)"
        plot.dot(m.input_intensity * gs, m.output_intensity * gs, tag)
    plot.text(io._ML + 10, io._MT + 18, f"pattern: {curve.pattern}")
    return plot.render()


def reference_follow_sweep(curve, direction):
    by_node = {}
    for q in curve.points:
        by_node.setdefault(q.input_intensity, []).append(q)
    selected, current = [], None
    for intensity in sorted(by_node, reverse=(direction == "down")):
        pts = sorted(by_node[intensity], key=lambda q: q.n_c)
        stable = [q for q in pts if q.stability is Stability.STABLE] or pts
        if current is None:
            pick = stable[0] if direction == "up" else stable[-1]
        else:
            same = [q for q in stable if q.branch_id == current.branch_id]
            pick = same[0] if same else min(
                stable, key=lambda q: abs(q.n_c - current.n_c))
        selected.append(pick)
        current = pick
    if direction == "down":
        selected.reverse()
    return selected


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("curves")


def quiet_trace(p, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return trace_hysteresis(p, grid)


def assert_rows_match_the_references(curve, outdir):
    for gs in (1.0, 2.5):
        emit = outdir / "curve"
        io.emit_csv(curve, emit.with_suffix(".csv"), gamma_scale=gs)
        io.emit_svg(curve, emit.with_suffix(".svg"), gamma_scale=gs, title="t")
        assert emit.with_suffix(".csv").read_bytes() == reference_csv(
            curve, gs).encode()
        assert emit.with_suffix(".svg").read_bytes() == reference_svg(
            curve, gs, "t").encode()
    for direction in ("up", "down"):
        assert follow_sweep(curve, direction) == reference_follow_sweep(
            curve, direction)


def with_repeats(p, nodes, repeat):
    """A grid of ``nodes`` inputs plus the positive folds' inputs, with the
    nodes ``repeat`` and the first fold's input given twice."""
    folds = [x for x, _ in positive_folds(p)]
    base = np.linspace(0.0, 1.5 * max(folds, default=1.0), nodes)
    return np.sort(np.concatenate([base, folds, base[repeat], folds[:1]]))


@pytest.mark.parametrize("key", FIG3)
def test_the_fig3_grids_match_the_references(key, outdir):
    p = fig3_preset(*key)
    curve = quiet_trace(p, np.linspace(0.0, reproduce_span(p), 301))
    assert_rows_match_the_references(curve, outdir)


@pytest.mark.parametrize("key", [("fig3b", 1.5), ("fig3c", 4.5)])
def test_repeated_inputs_match_the_references(key, outdir):
    # a repeated input's states are the same states twice; its rows stay
    # together, ascending in n_c
    p = fig3_preset(*key)
    grid = with_repeats(p, 23, [3, 4, 4, 9])
    curve = quiet_trace(p, grid)
    assert_rows_match_the_references(curve, outdir)
    rows = list(zip(curve.input_intensity.tolist(), curve.n_c.tolist()))
    assert rows == sorted(rows)
    fold = min(x for x, _ in positive_folds(p))
    at_fold = curve.n_c[curve.input_intensity == fold].tolist()
    assert len(at_fold) >= 2 and at_fold == sorted(at_fold)


def test_the_empty_curve_matches_the_references(outdir):
    curve = trace_hysteresis(fig3_preset("fig3c", 4.5), [])
    assert curve.points == [] and curve.n_c.size == 0
    assert_rows_match_the_references(curve, outdir)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(curve_params(), st.integers(2, 12),
       st.lists(st.integers(0, 11), max_size=3), st.integers(0, 2 ** 32 - 1))
@example(fig3_preset("fig3c", 4.5), 9, [1, 1], 0)
@example(fig3_preset("fig3a", 4.5), 5, [0], 1)  # a window anchored at I = 0
def test_rows_match_the_references(outdir, p, nodes, repeat, seed):
    curve = quiet_trace(p, with_repeats(p, nodes, [k % nodes for k in repeat]))
    assert_rows_match_the_references(curve, outdir)
    # the same rows given in any order make the same curve
    order = np.random.default_rng(seed).permutation(curve.n_c.size)
    shuffled = HysteresisCurve(
        curve.input_intensity[order], curve.n_c[order],
        curve.output_intensity[order], curve.stability[order].tolist(),
        curve.branch_id[order], folds=curve.folds, pattern=curve.pattern,
        cpa_markers=curve.cpa_markers)
    assert shuffled.points == curve.points
    assert classify_pattern(shuffled) is curve.pattern


def test_a_sweep_starts_on_its_end_of_a_bistable_edge(outdir):
    # two stable states at both inputs: up starts on the lower branch and
    # down on the upper one, and each stays on its branch
    s = Stability.STABLE
    curve = HysteresisCurve([2.0, 1.0, 2.0, 1.0], [5.5, 1.0, 1.2, 5.0],
                            [0.4, 0.1, 0.2, 0.3], [s] * 4, [2, 0, 0, 2],
                            folds=[], pattern=PatternClass.MONOSTABLE,
                            cpa_markers=[])
    assert [q.n_c for q in follow_sweep(curve, "up")] == [1.0, 1.2]
    assert [q.n_c for q in follow_sweep(curve, "down")] == [5.0, 5.5]
    assert_rows_match_the_references(curve, outdir)


def test_the_repr_holds_every_digit():
    # the benchmark's fingerprint of a figure hashes the curve's repr
    p = fig3_preset("fig3c", 4.5)
    curve = quiet_trace(p, np.linspace(0.0, reproduce_span(p), 11))
    text = repr(curve)
    for column in (curve.input_intensity, curve.n_c, curve.output_intensity,
                   curve.branch_id):
        assert repr(column.tolist()) in text


def test_a_figure_builds_no_curve_points(monkeypatch, outdir):
    # solve, classify and write fig3c/4.5 from the columns alone; the points
    # view is built once, on first access, and then kept
    built = []
    init = CurvePoint.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CurvePoint, "__init__", counting_init)
    p = fig3_preset("fig3c", 4.5)
    curve = quiet_trace(p, np.linspace(0.0, reproduce_span(p), 301))
    assert classify_pattern(curve) is curve.pattern
    assert curve.pattern is PatternClass.CONVENTIONAL_BISTABLE
    io.emit_csv(curve, outdir / "fig3c.csv")
    io.emit_svg(curve, outdir / "fig3c.svg")
    assert built == []
    assert curve.points is curve.points
    assert len(built) == curve.n_c.size > 0
