import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cpasim
from cpasim import io
from cpasim.cpa import verify_cpa
from cpasim.dynamics import integrate, vacuum_state
from cpasim.errors import IoError, ParseError, ValidationError
from cpasim.io import (
    RunConfig,
    emit_csv,
    emit_svg,
    parse_config,
    read_csv,
)
from cpasim.model import SystemParams
from cpasim.sweep import BoundaryMap, boundary_map, trace_hysteresis


def small_curve(p=None):
    p = p or SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, delta_tls=1.0,
                          delta_c=0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return trace_hysteresis(p, np.linspace(0.0, 5.0, 21))


def test_import_leaves_yaml_out():
    # yaml is imported by parse_config, its only user, so `import cpasim`
    # does not pay for it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cpasim.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cpasim; print('yaml' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    assert out.stdout.strip() == "False"


class TestParseConfig:
    def test_minimal_cavity(self):
        cfg = parse_config("kappa: 20\ng: 1\n")
        assert cfg.params.kappa_l == 10.0 and cfg.params.kappa_r == 10.0
        assert cfg.params.g == 1.0
        assert cfg.gamma == 1.0 and cfg.deltas == []

    def test_asymmetric_mirrors(self):
        cfg = parse_config("kappa_l: 4\nkappa_r: 6\n")
        assert cfg.params.kappa_l == 4.0 and cfg.params.kappa_r == 6.0

    def test_no_cavity_config_for_boundary_maps(self):
        cfg = parse_config("beta_min: 0.01\nbeta_max: 0.1\ng_fixed: 1.0\n"
                           "delta_tls_fixed: 4.5\n")
        assert cfg.params is None
        assert cfg.beta_grid().shape == (201,)

    def test_auto_detuning_applies_absorption_condition(self):
        from cpasim.cpa import cpa_cavity_detuning
        text = ("kappa: 20\ng: 1\ndelta_tls: 4.5\ng_nl_mag: 4.99\n"
                "phi: 3.141592653589793\ncpa_auto_detuning: true\n")
        cfg = parse_config(text)
        assert cfg.params.delta_c == pytest.approx(
            cpa_cavity_detuning(cfg.params), abs=0.0)

    def test_rejections(self):
        cases = [
            ("kappa: [1, 2\n", ParseError),          # YAML syntax
            ("- 1\n- 2\n", ParseError),              # not a mapping
            ("kappa: 20\nturbo: 9\n", ParseError),   # unknown key
            ("kappa: twenty\n", ParseError),         # type
            ("input_points: 2.5\nkappa: 20\n", ParseError),
            ("cpa_auto_detuning: 3\nkappa: 20\n", ParseError),
            ("deltas: []\nkappa: 20\n", ParseError),
            ("kappa: 20\nkappa_l: 10\nkappa_r: 10\n", ValidationError),
            ("kappa_l: 10\n", ValidationError),      # missing partner
            ("kappa: -2\n", ValidationError),
            ("kappa: 20\ndelta_c: 1\ncpa_auto_detuning: true\n", ValidationError),
            ("g: 1\n", ValidationError),             # atom without a cavity
            ("cpa_auto_detuning: true\n", ValidationError),
            ("kappa: 20\ninput_min: 2\ninput_max: 1\n", ValidationError),
            ("kappa: 20\nt_end: -1\n", ValidationError),
            ("kappa: 20\ntol_res: 0\n", ParseError),   # no such key
            ("kappa: 20\ntol_stab: 1000\n", ParseError),
            ("kappa: 20\ninitial_state: [1, 2]\n", ValidationError),
            ("gamma: 0\nkappa: 20\n", ValidationError),
        ]
        for text, exc in cases:
            with pytest.raises(exc):
                parse_config(text)

    @pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
    @pytest.mark.parametrize("key", sorted(
        k for k, read in io._READERS.items() if read in (io._number, io._numbers)))
    def test_non_finite_numbers_are_rejected(self, key, value):
        entry = f"[0, 0, 0, 0, {value}]" if io._READERS[key] is io._numbers else value
        with pytest.raises(ValidationError, match=f"key '{key}' must .*finite"):
            parse_config(f"{key}: {entry}\n")

    @pytest.mark.parametrize("count", [2 ** 63 - 1, 2 ** 63, io.MAX_POINTS + 1])
    @pytest.mark.parametrize("key", sorted(
        k for k, read in io._READERS.items() if read is io._count))
    def test_grid_counts_are_bounded(self, key, count):
        # 2**63 - 1 and 2**63 died in np.linspace with a raw IndexError;
        # the bound is checked before any grid exists
        with pytest.raises(ValidationError, match=f"{key} must be at most {io.MAX_POINTS}"):
            parse_config(f"{key}: {count}\n")
        cfg = parse_config(f"{key}: {io.MAX_POINTS}\n")
        assert getattr(cfg, key) == io.MAX_POINTS

    def test_yaml_error_carries_location(self):
        with pytest.raises(ParseError, match="line"):
            parse_config("kappa: 20\n  bad indent: [\n")

    def test_empty_document_has_no_cavity(self):
        cfg = parse_config("")
        assert cfg.params is None

    def test_sweep_grid_requires_bounds(self):
        cfg = parse_config("kappa: 20\n")
        with pytest.raises(ValidationError):
            cfg.input_grid()
        cfg2 = parse_config("kappa: 20\ninput_max: 10\ninput_points: 11\n")
        grid = cfg2.input_grid()
        assert grid[0] == 0.0 and grid[-1] == 10.0 and len(grid) == 11


# parse_config on YAML-ish documents: only ParseError and ValidationError
# may escape.  The scalars mix numbers in every YAML spelling, the YAML 1.1
# specials, tags, anchors, dates, and plain text; the keys are the config's
# own, near misses and non-string keys.

_FUZZ_KEYS = sorted(io._READERS) + [
    "Kappa", "kappa ", "1", "0.5", "true", "null", "~", "<<", "? [a]", "- kappa"]
_FUZZ_SCALARS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.integers(10 ** 300, 10 ** 320).map(str),
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:+.3e}"),
    st.sampled_from([
        ".inf", "-.inf", ".nan", "true", "no", "on", "null", "~", "''", "0x1F",
        "0o17", "0b101", "1_000", "1:30", "1e3", "1.0e+400", "2020-01-01",
        "2020-13-45", "2001-12-14t21:59:43.10-05:00", "!!int ''", "!!int 0x",
        "!!float .", "!!float abc", "!!timestamp x", "!!bool maybe",
        "!!binary aGk=", "!!str 1", "!!set [1]", "!!python/name:os.system",
        "&a 1", "*a", "&b [*b]", "[]", "{}", "{kappa: 1}", "|\n  text",
        "[" * 1200 + "]" * 1200]),
    st.text(max_size=8),
)
_FUZZ_VALUES = st.one_of(
    _FUZZ_SCALARS,
    st.lists(_FUZZ_SCALARS, max_size=6).map(lambda xs: "[" + ", ".join(xs) + "]"),
    st.lists(_FUZZ_SCALARS, min_size=1, max_size=6).map(
        lambda xs: "".join(f"\n  - {x}" for x in xs)),
)
_FUZZ_LINES = st.tuples(st.sampled_from(_FUZZ_KEYS), _FUZZ_VALUES).map(
    lambda kv: f"{kv[0]}: {kv[1]}")
_FUZZ_DOCS = st.one_of(
    st.lists(_FUZZ_LINES, max_size=8).map("\n".join),
    st.text(max_size=40),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_FUZZ_DOCS)
def test_parse_config_raises_only_its_own_errors(text):
    try:
        cfg = parse_config(text)
    except (ParseError, ValidationError):
        return
    assert isinstance(cfg, RunConfig)


@pytest.mark.parametrize("text", [
    "1: 2\n",  # a non-string key
    "null: 1\n",
    "1: 2\nturbo: 3\n",  # keys of two types
    "kappa: 2020-13-45\n",  # a date the loader cannot build
    "kappa: !!int ''\n",
    "kappa: !!float abc\n",
    "kappa: !!timestamp x\n",
    "kappa: !!bool maybe\n",
    pytest.param("kappa: " + "1" * 5000 + "\n", id="past-the-digit-limit"),
    pytest.param("kappa: " + "[" * 3000 + "]" * 3000 + "\n", id="deep-nesting"),
])
def test_malformed_documents_are_parse_errors(text):
    with pytest.raises(ParseError):
        parse_config(text)


def test_a_duplicated_key_is_a_parse_error():
    # the loader would keep the last value silently
    with pytest.raises(ParseError, match="at line 3, column 1") as exc:
        parse_config("kappa: 1\ng: 1\nkappa: 20\n")
    assert "found duplicate key 'kappa'" in str(exc.value)

@pytest.mark.parametrize("key", ["kappa", "beta_min", "deltas"])
def test_an_integer_past_the_float_range_is_not_finite(key):
    value = "1" + "0" * 400
    entry = f"[{value}]" if io._READERS[key] is io._numbers else value
    with pytest.raises(ValidationError, match=f"key '{key}' must be a finite real number"):
        parse_config(f"{key}: {entry}\n")


def test_the_first_bad_key_in_the_document_is_reported_under_any_hash_seed():
    # the keys were once checked in the order of a set of strings, so the
    # key named depended on the interpreter's hash seed
    code = ("from cpasim.io import parse_config\n"
            "try:\n"
            "    parse_config('kappa: 20\\ng: x\\ndelta_c: y\\nphi: z\\n')\n"
            "except Exception as exc:\n"
            "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cpasim.__file__)))
    messages = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        messages.add(out.stdout)
    assert messages == {"key 'g' must be a number, got 'x'\n"}


class TestCSV:
    def test_sweep_schema_and_round_trip(self, tmp_path):
        curve = small_curve()
        path = tmp_path / "sweep.csv"
        emit_csv(curve, path)
        header, rows = read_csv(path)
        assert header == ["input_intensity", "n_c", "output_intensity",
                          "stability", "branch_id"]
        assert len(rows) == len(curve.points)
        # 17 significant digits survive the text round trip bit-exactly
        by_key = {(float(r[0]), float(r[1])): r for r in rows}
        for q in curve.points:
            row = by_key[(q.input_intensity, q.n_c)]
            assert float(row[2]) == q.output_intensity
            assert row[3] in ("Stable", "Unstable", "Marginal")

    def test_rows_sorted_and_deterministic(self, tmp_path):
        curve = small_curve()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(curve, a)
        emit_csv(curve, b)
        assert a.read_bytes() == b.read_bytes()
        _, rows = read_csv(a)
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_empty_curve_writes_header_only(self, tmp_path):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0)
        curve = trace_hysteresis(p, [])
        path = tmp_path / "empty.csv"
        emit_csv(curve, path)
        header, rows = read_csv(path)
        assert header[0] == "input_intensity" and rows == []

    def test_boundary_schema(self, tmp_path):
        bm = boundary_map(1.0, 1.0, 4.5, np.linspace(0.005, 0.1, 7))
        path = tmp_path / "bm.csv"
        emit_csv(bm, path)
        header, rows = read_csv(path)
        assert header == ["beta", "g_c", "delta_tls_c", "feasible"]
        assert all(r[3] in ("true", "false") for r in rows)

    def test_trace_schema(self, tmp_path):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, omega_d=2.0)
        trace = integrate(p, 0.0, vacuum_state(), 1.0, 0.5)
        path = tmp_path / "tr.csv"
        emit_csv(trace, path)
        header, rows = read_csv(path)
        assert header == ["t", "n_c", "out_intensity"]
        assert float(rows[0][0]) == 0.0

    def test_cpa_single_row(self, tmp_path, fig3_params):
        report = verify_cpa(fig3_params[("fig3c", 4.5)])
        path = tmp_path / "cpa.csv"
        emit_csv(report, path)
        header, rows = read_csv(path)
        assert header[:4] == ["n_c_cpa", "delta_c_required", "omega_d_cpa",
                              "input_intensity"]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["feasible"] == "true"
        assert row["branch_location"] == "InsideBistableStable"
        assert float(row["n_c_cpa"]) == pytest.approx(2.25, abs=1e-9)

    def test_gamma_rescaling(self, tmp_path):
        # rates and intensities scale with gamma, photon numbers do not,
        # times scale inversely
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, omega_d=2.0)
        trace = integrate(p, 0.0, vacuum_state(), 1.0, 0.5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(trace, a)
        emit_csv(trace, b, gamma_scale=2.0)
        _, rows_a = read_csv(a)
        _, rows_b = read_csv(b)
        for ra, rb in zip(rows_a, rows_b):
            assert float(rb[0]) == pytest.approx(float(ra[0]) / 2.0)
            assert float(rb[1]) == float(ra[1])
            assert float(rb[2]) == pytest.approx(float(ra[2]) * 2.0)

    def test_unwritable_path_raises(self):
        curve = small_curve()
        with pytest.raises(IoError):
            emit_csv(curve, "/nonexistent-dir/x.csv")

    def test_unknown_payload_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            emit_csv(object(), tmp_path / "x.csv")


@pytest.mark.parametrize("emit", [emit_csv, emit_svg])
@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_a_gamma_scale_must_be_positive_and_finite(tmp_path, emit, scale):
    # 0 used to write inf/NaN rows for a trace (with a raw RuntimeWarning),
    # -1 negative intensities and NaN NaN rows; no file is written
    p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, omega_d=2.0)
    path = tmp_path / "x.out"
    for result in (integrate(p, 0.0, vacuum_state(), 1.0, 0.5), small_curve()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^gamma_scale must be "
                               "(positive|a finite real number)"):
                emit(result, path, gamma_scale=scale)
    assert not path.exists()


class TestSVG:
    def test_curve_svg_is_wellformed_with_conventions(self, tmp_path,
                                                      fig3_params):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = trace_hysteresis(fig3_params[("fig3c", 4.5)],
                                     np.linspace(0.0, 37.5, 251))
        path = tmp_path / "curve.svg"
        emit_svg(curve, path, title="demo")
        text = path.read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert 'stroke-dasharray="7 5"' in text  # unstable branches dashed
        assert "A1" in text                      # labeled absorption dot
        assert "ConventionalBistable" in text

    def test_unobservable_marker_is_b_series(self, tmp_path, fig3_params):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = trace_hysteresis(fig3_params[("fig3b", 4.5)],
                                     np.linspace(0.0, 37.5, 151))
        path = tmp_path / "curve.svg"
        emit_svg(curve, path)
        assert "B1" in path.read_text()

    def test_boundary_svg_has_shaded_region(self, tmp_path):
        bm = boundary_map(1.0, 1.0, 4.5, np.linspace(0.005, 0.1, 50))
        path = tmp_path / "bm.svg"
        emit_svg(bm, path)
        text = path.read_text()
        ET.fromstring(text)
        assert "#add8e6" in text

    def test_boundary_svg_shades_each_feasible_run(self, tmp_path):
        # runs [0, 1], [3] and [6, 8] of the mask: a band from the run's
        # first beta to its last
        axis = np.linspace(0.01, 0.09, 9)
        mask = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
        bm = BoundaryMap(axis=axis, g_c_curve=axis, delta_c_curve=axis,
                         region_mask=mask)
        path = tmp_path / "bm.svg"
        emit_svg(bm, path)
        bands = [r for r in ET.fromstring(path.read_text()).iter()
                 if r.get("fill") == "#add8e6"]
        px = (axis - axis[0]) / (axis[-1] - axis[0])  # fractions of the axis
        widths = [float(r.get("width")) for r in bands]
        assert len(bands) == 3 and widths[1] == 0.0
        assert widths[0] / widths[2] == pytest.approx(
            (px[1] - px[0]) / (px[8] - px[6]), rel=1e-5)

    def test_trace_svg(self, tmp_path):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, omega_d=2.0)
        trace = integrate(p, 0.0, vacuum_state(), 2.0, 0.1)
        path = tmp_path / "tr.svg"
        emit_svg(trace, path)
        ET.fromstring(path.read_text())

    def test_cpa_svg_marks_operating_point(self, tmp_path, fig3_params):
        report = verify_cpa(fig3_params[("fig3c", 4.5)])
        path = tmp_path / "cpa.svg"
        emit_svg(report, path)
        text = path.read_text()
        ET.fromstring(text)
        assert "A1" in text and "bistable window" in text
        assert "InsideBistableStable" in text

    def test_cpa_svg_infeasible_report(self, tmp_path, fig3_params):
        from dataclasses import replace
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = verify_cpa(replace(fig3_params[("fig3c", 4.5)], g=0.2))
        path = tmp_path / "cpa_bad.svg"
        emit_svg(report, path)
        text = path.read_text()
        ET.fromstring(text)
        assert "infeasible: CouplingBelowCritical" in text
        assert "nan" not in text

    def test_unknown_payload_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            emit_svg(42, tmp_path / "x.svg")
