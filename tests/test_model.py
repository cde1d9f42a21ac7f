import importlib
import math

import numpy as np
import pytest

import cpasim
from cpasim.errors import ParametricSingularity
from cpasim.model import (
    SystemParams,
    atomic_expectations,
    balanced_input_fields,
    dressed_cavity,
    drive_for_input_intensity,
    input_intensity_for_drive,
    intracavity_field,
    output_fields,
    parametric_denominator,
    saturation_denominator,
    soc_effective_params,
)

from oracles import field_gain_pieces


def random_params(rng, driven=True):
    return SystemParams(
        kappa_l=rng.uniform(2.0, 15.0),
        kappa_r=rng.uniform(2.0, 15.0),
        g=rng.uniform(0.1, 2.0),
        delta_c=rng.uniform(-6.0, 6.0),
        delta_tls=rng.uniform(-4.0, 4.0),
        g_nl_mag=rng.uniform(0.0, 0.4),
        phi=rng.uniform(0.0, 2.0 * math.pi),
        omega_d=rng.uniform(0.5, 5.0) if driven else 0.0,
    )


class TestSystemParams:
    def test_total_decay_sums_mirrors(self):
        p = SystemParams(kappa_l=3.0, kappa_r=7.0, g=1.0)
        assert p.kappa == 10.0

    def test_phi_normalized_into_principal_range(self):
        p = SystemParams(kappa_l=1.0, kappa_r=1.0, g=1.0, phi=5.0 * math.pi)
        assert abs(p.phi - math.pi) < 1e-12
        # -1e-20 % (2 pi) rounds to 2 pi itself, outside the range
        assert SystemParams(kappa_l=1.0, kappa_r=1.0, phi=-1e-20).phi == 0.0

    @pytest.mark.parametrize("value", [
        10, np.int64(10), np.int32(10), np.float32(10.0), np.float64(10.0)],
        ids=["int", "int64", "int32", "float32", "float64"])
    def test_a_real_scalar_is_held_as_a_python_float(self, value):
        # np.int64 and np.float32 were rejected, and an int was held as one
        p = SystemParams(kappa_l=value, kappa_r=1.0, omega_d=value)
        assert type(p.kappa_l) is float and p.kappa_l == 10.0
        assert type(p.omega_d) is float and p.omega_d == 10.0

    def test_a_python_float_is_held_as_given(self):
        kappa_l = 10.5
        assert SystemParams(kappa_l=kappa_l, kappa_r=1.0).kappa_l is kappa_l

    @pytest.mark.parametrize("value", [
        True, False, np.True_, "10", 1j, None, 10 ** 400, math.inf,
        np.float32("nan"), np.float64("-inf")],
        ids=["True", "False", "np.True_", "str", "complex", "None", "10**400",
             "inf", "float32-nan", "float64-inf"])
    def test_a_bool_or_a_non_finite_or_non_real_value_is_rejected(self, value):
        # kappa_l=True was held as a bool
        with pytest.raises(ValueError, match="^kappa_l must be a finite real number"):
            SystemParams(kappa_l=value, kappa_r=1.0)

    @pytest.mark.parametrize("field,value", [
        ("kappa_l", -1.0), ("kappa_r", 0.0), ("g", -0.5),
        ("g_nl_mag", -0.1), ("gamma", 0.0), ("omega_d", -1.0),
    ])
    def test_rejects_nonphysical_rates(self, field, value):
        kwargs = dict(kappa_l=1.0, kappa_r=1.0, g=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SystemParams(**kwargs)

    def test_complex_pump_amplitude(self):
        p = SystemParams(kappa_l=1.0, kappa_r=1.0, g=1.0,
                         g_nl_mag=2.0, phi=math.pi / 2)
        assert p.g_nl == pytest.approx(2.0j)


# names that only tests used, gone from the library, with their modules
REMOVED = {
    "cpa": ("cpa_invariance_check", "INVARIANCE_RTOL", "BETA_MATCH_ATOL"),
    "dynamics": ("settle",),
    "errors": ("PreconditionViolated",),
    "model": ("effective_cavity_params", "EffectiveCavity"),
    "steady": ("self_consistency_residual", "oracle_scan_bound"),
}


def test_the_package_exports_only_names_it_holds():
    for module, names in REMOVED.items():
        held = importlib.import_module(f"cpasim.{module}")
        for name in names:
            assert not hasattr(cpasim, name) and not hasattr(held, name), name
            assert name not in cpasim.__all__
    assert len(set(cpasim.__all__)) == len(cpasim.__all__)
    for name in cpasim.__all__:
        assert hasattr(cpasim, name), name


class TestEffectiveCavity:
    def test_matches_complex_susceptibility(self, rng):
        # closed forms against the same quantities assembled by plain
        # complex arithmetic
        for _ in range(50):
            p = random_params(rng)
            n = rng.uniform(0.0, 30.0)
            kappa0, delta0, _ = dressed_cavity(n, p)
            k0, d0, _, _ = field_gain_pieces(n, p)
            assert kappa0 == pytest.approx(k0, rel=1e-12)
            assert delta0 == pytest.approx(d0, rel=1e-12, abs=1e-12)

    def test_atom_stiffens_loss_and_pulls_detuning(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, delta_c=2.0,
                         delta_tls=3.0)
        kappa0, delta0, _ = dressed_cavity(0.0, p)
        assert kappa0 > 0.5 * p.kappa
        assert delta0 != p.delta_c

    def test_saturation_grows_linearly_in_photon_number(self):
        p = SystemParams(kappa_l=1.0, kappa_r=1.0, g=0.7, delta_tls=1.2)
        d0 = saturation_denominator(0.0, p)
        assert d0 == pytest.approx(0.25 + 1.44)
        assert saturation_denominator(10.0, p) == pytest.approx(
            d0 + 2.0 * 0.49 * 10.0)


class TestSOCEffectiveParams:
    def test_beta_shared_by_different_crystal_settings(self):
        # three settings engineered to land on the same effective decay
        configs = [(9.98, 2.0 * math.pi / 3.0), (9.98, 4.0 * math.pi / 3.0),
                   (4.99, math.pi)]
        betas = []
        for mag, phi in configs:
            p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0,
                             g_nl_mag=mag, phi=phi)
            betas.append(soc_effective_params(p)[0])
        for b in betas:
            assert abs(b - 0.02) < 1e-12

    def test_no_crystal_reduces_to_bare_half_kappa(self):
        p = SystemParams(kappa_l=4.0, kappa_r=4.0, g=1.0, delta_c=1.5)
        beta, det = soc_effective_params(p)
        assert beta == pytest.approx(4.0)
        assert det == pytest.approx(1.5)


class TestFieldsAndDrive:
    def test_intracavity_field_solves_self_consistency(self, rng):
        # |c(n)|^2 evaluated at a self-consistent n must reproduce n
        from cpasim.steady import solve_steady_states
        hits = 0
        while hits < 20:
            p = random_params(rng)
            try:
                states = solve_steady_states(p)
            except Exception:
                continue
            for s in states:
                if s.n_c <= 1e-12:
                    continue
                c = intracavity_field(s.n_c, p)
                assert abs(c) ** 2 == pytest.approx(s.n_c, rel=1e-8)
                hits += 1

    def test_singular_denominator_raises(self):
        # zero detunings make delta0 vanish, so the denominator crosses zero
        # where kappa0(n) = 2|G|: 0.4 + 0.5/(0.25 + 2n) = 1  ->  n = 7/24
        p = SystemParams(kappa_l=0.4, kappa_r=0.4, g=1.0, g_nl_mag=0.5,
                         phi=0.0, omega_d=1.0)
        n_sing = 7.0 / 24.0
        assert abs(parametric_denominator(n_sing, p)) < 1e-9
        with pytest.raises(ParametricSingularity):
            intracavity_field(n_sing, p)

    def test_output_obeys_input_output_relation(self, rng):
        for _ in range(20):
            p = random_params(rng)
            c = complex(rng.normal(), rng.normal())
            a_in_l, a_in_r = balanced_input_fields(p)
            out_l, out_r = output_fields(c, a_in_l, a_in_r, p)
            assert out_l == pytest.approx(
                math.sqrt(p.kappa_l) * c - a_in_l, rel=1e-12)
            assert out_r == pytest.approx(
                math.sqrt(p.kappa_r) * c - a_in_r, rel=1e-12)

    def test_balanced_inputs_sum_to_drive(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, omega_d=30.0)
        a_l, a_r = balanced_input_fields(p)
        assert a_l == pytest.approx(a_r)
        assert math.sqrt(p.kappa_l) * a_l + math.sqrt(p.kappa_r) * a_r \
            == pytest.approx(30.0)

    def test_drive_intensity_round_trip(self, rng):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0)
        for _ in range(20):
            intensity = rng.uniform(0.0, 100.0)
            om = drive_for_input_intensity(intensity, p)
            assert input_intensity_for_drive(om, p) == pytest.approx(
                intensity, abs=1e-12)
        assert drive_for_input_intensity(22.5, p) == pytest.approx(30.0)

    def test_negative_intensity_rejected(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0)
        with pytest.raises(ValueError):
            drive_for_input_intensity(-1.0, p)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, [1.0, -1.0], [math.nan, 1.0]])
    def test_a_negative_or_nan_intensity_or_drive_is_rejected(self, bad):
        # input_intensity_for_drive(-1.0) used to return 0.025, and
        # drive_for_input_intensity(nan) nan; arrays are checked too
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0)
        for convert in (drive_for_input_intensity, input_intensity_for_drive):
            with pytest.raises(ValueError, match="must be nonnegative"):
                convert(bad if np.ndim(bad) == 0 else np.array(bad), p)

    def test_arrays_convert_elementwise(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0)
        drives = drive_for_input_intensity(np.array([0.0, 22.5]), p)
        assert drives.tolist() == [0.0, drive_for_input_intensity(22.5, p)]
        assert input_intensity_for_drive(drives, p).tolist() == [
            0.0, input_intensity_for_drive(float(drives[1]), p)]


class TestAtomicExpectations:
    def test_inversion_and_coherence_bounded(self, rng):
        for _ in range(50):
            p = random_params(rng)
            c = complex(rng.normal(), rng.normal()) * 3.0
            sm, sz = atomic_expectations(c, p)
            assert -0.5 - 1e-12 <= sz <= 0.0
            assert abs(sm) ** 2 + sz ** 2 <= 0.25 + 1e-12

    def test_vacuum_leaves_atom_in_ground_state(self):
        p = SystemParams(kappa_l=1.0, kappa_r=1.0, g=1.0, delta_tls=2.0)
        sm, sz = atomic_expectations(0.0 + 0.0j, p)
        assert sm == 0.0
        assert sz == pytest.approx(-0.5)
