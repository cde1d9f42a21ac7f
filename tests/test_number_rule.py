"""The number rule (``model._finite_real``) at every public numeric argument:
a bool, a string, a complex, None, NaN, an int past the float range and
(where the argument must be finite) an infinity are rejected naming the
argument, and each spelling of a valid number gives the same result."""

import math
import pickle
import re

import numpy as np
import pytest

from cpasim import steady
from cpasim.cli import fig3_preset
from cpasim.cpa import cpa_input_amplitude, critical_coupling, critical_detuning
from cpasim.dynamics import integrate, vacuum_state
from cpasim.errors import ParseError, ValidationError
from cpasim.io import emit_csv, emit_svg, parse_config
from cpasim.model import SystemParams, intracavity_field, parametric_denominator
from cpasim.sweep import boundary_map, scan_folds, trace_hysteresis

P = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, omega_d=2.0)
POLY = steady.build_polynomial(P)
FIG3C = fig3_preset("fig3c", 4.5)


def _integrate(**args):
    call = dict(delta=0.0, initial=vacuum_state(), t_end=1.0, sample_dt=0.5)
    call.update(args)
    return integrate(P, **call)


def _initial(v):
    return _integrate(initial=[0.0, 0.0, v, 0.0, -0.5])


# (id, the call at the value v, the name its ValueError gives, a valid
# value, whether inf is valid)
CASES = [
    *((f"SystemParams.{name}",
       lambda v, name=name: SystemParams(**{"kappa_l": 1.0, "kappa_r": 1.0, name: v}),
       name, 2.0, False)
      for name in ("kappa_l", "kappa_r", "g", "delta_c", "delta_tls", "g_nl_mag",
                   "phi", "omega_d", "gamma")),
    ("solve_node.omega_d", lambda v: steady.solve_node(POLY, v),
     "drive omega_d", 2.0, False),
    ("solve_curve_columns.drives", lambda v: steady.solve_curve_columns(POLY, [1.0, v]),
     "drive omega_d", 2.0, False),
    ("critical_coupling.beta", lambda v: critical_coupling(v, 4.5, 1.0), "beta", 2.0, False),
    ("critical_coupling.delta_tls", lambda v: critical_coupling(0.02, v, 1.0),
     "delta_tls", 2.0, False),
    ("critical_coupling.gamma", lambda v: critical_coupling(0.02, 4.5, v),
     "gamma", 2.0, False),
    ("critical_detuning.g", lambda v: critical_detuning(v, 0.02, 1.0), "g", 2.0, False),
    ("critical_detuning.beta", lambda v: critical_detuning(1.0, v, 1.0),
     "beta", 2.0, False),
    ("critical_detuning.gamma", lambda v: critical_detuning(1.0, 0.02, v),
     "gamma", 2.0, False),
    ("cpa_input_amplitude.n_c_cpa", lambda v: cpa_input_amplitude(P, v),
     "n_c_cpa", 2.0, False),
    ("parametric_denominator.n_c", lambda v: parametric_denominator(v, P),
     "n_c", 2.0, False),
    ("intracavity_field.n_c", lambda v: intracavity_field(v, P), "n_c", 2.0, False),
    ("trace_hysteresis.input_grid", lambda v: trace_hysteresis(FIG3C, [0.0, v]),
     "input_grid entry", 2.0, False),
    ("scan_folds.span", lambda v: scan_folds(FIG3C, v), "span", 2.0, True),
    ("boundary_map.gamma", lambda v: boundary_map(v, 1.0, 20.0, [0.01, 0.02]),
     "gamma", 2.0, False),
    ("boundary_map.g_fixed", lambda v: boundary_map(1.0, v, 20.0, [0.01, 0.02]),
     "g_fixed", 2.0, False),
    ("boundary_map.delta_tls_fixed", lambda v: boundary_map(1.0, 1.0, v, [0.01, 0.02]),
     "delta_tls_fixed", 2.0, False),
    ("boundary_map.beta_grid", lambda v: boundary_map(1.0, 1.0, 20.0, [0.01, v]),
     "beta_grid entry", 2.0, False),
    ("integrate.delta", lambda v: _integrate(delta=v), "delta", 2.0, False),
    ("integrate.t_end", lambda v: _integrate(t_end=v), "t_end", 2.0, False),
    ("integrate.sample_dt", lambda v: _integrate(sample_dt=v), "sample_dt", 1.0, False),
    ("integrate.rtol", lambda v: _integrate(rtol=v), "rtol", 1.0, False),
    ("integrate.atol", lambda v: _integrate(atol=v), "atol", 1.0, False),
    ("integrate.initial", _initial, "initial state entry", 2.0, False),
]

BAD = [True, np.True_, "1", 1j, None, math.nan, 10 ** 400, math.inf]
BAD_IDS = ["True", "np.True_", "str", "complex", "None", "nan", "10**400", "inf"]


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_a_value_that_is_no_finite_real_number_is_a_value_error_naming_it(case, value):
    _, call, name, _, inf_ok = case
    if inf_ok and value == math.inf:
        call(value)
        return
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{name} must be a finite real number, got {value!r}") + "$"):
        call(value)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_each_spelling_of_a_valid_number_gives_the_same_result(case):
    # a Python int, numpy's float64, float32 and int64 are held as the
    # Python float of the same value, so the results keep their bits
    _, call, _, valid, _ = case
    want = pickle.dumps(call(valid))
    for spelling in (int(valid), np.float64(valid), np.float32(valid), np.int64(valid)):
        assert pickle.dumps(call(spelling)) == want, type(spelling)


def test_an_infinite_span_gives_every_fold():
    assert scan_folds(FIG3C, math.inf) == steady.build_polynomial(FIG3C).folds
    assert scan_folds(FIG3C, np.float64(math.inf)) == scan_folds(FIG3C, math.inf)


@pytest.mark.parametrize("emit", [emit_csv, emit_svg])
@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
def test_a_gamma_scale_that_is_no_finite_real_number_is_a_validation_error(
        tmp_path, emit, value):
    path = tmp_path / "x.out"
    with pytest.raises(ValidationError, match="^" + re.escape(
            f"gamma_scale must be a finite real number, got {value!r}") + "$"):
        emit(boundary_map(1.0, 1.0, 20.0, [0.01, 0.02]), path, gamma_scale=value)
    assert not path.exists()


@pytest.mark.parametrize("text, error, message", [
    ("true", ParseError, "must be a number, got True"),
    ("'1'", ParseError, "must be a number, got '1'"),
    ("1j", ParseError, "must be a number, got '1j'"),
    ("null", ParseError, "must be a number, got None"),
    (".nan", ValidationError, "must be a finite real number, got nan"),
    ("1" + "0" * 400, ValidationError, "must be a finite real number, got 1000"),
    (".inf", ValidationError, "must be a finite real number, got inf"),
    ("1e400", ValidationError, "must be a finite real number, got inf"),
])
def test_a_config_number_keeps_its_parse_and_validation_errors(text, error, message):
    # the YAML type gate is a ParseError; the number rule a ValidationError
    with pytest.raises(error, match=re.escape(f"key 'delta_c' {message}")):
        parse_config(f"kappa: 20\ndelta_c: {text}\n")


@pytest.mark.parametrize("text, value", [
    ("1e-3", 1e-3), ("1E5", 1e5), ("2e10", 2e10), ("1.0e200", 1e200),
    ("-1e-3", -1e-3), (".5e3", 500.0), ("+1e5", 1e5), ("1.0e+5", 1e5)])
def test_an_exponent_float_is_a_config_number(text, value):
    # YAML 1.1's float needs a dot and a signed exponent; YAML 1.2's does not
    cfg = parse_config(f"kappa: 20\ndelta_c: {text}\ng_fixed: {text}\n")
    assert cfg.params.delta_c == value and cfg.g_fixed == value


def test_the_exponent_float_leaves_the_safe_loader_as_it_is():
    import yaml

    parse_config("kappa: 20\ng: 1e-3\n")
    assert yaml.safe_load("g: 1e-3") == {"g": "1e-3"}
