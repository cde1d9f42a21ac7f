import math
import re
from dataclasses import replace

import pytest

from cpasim.cpa import (
    DETUNING_MATCH_RTOL,
    RADICAND_ATOL,
    BranchLocation,
    cooperativity,
    cpa_cavity_detuning,
    cpa_input_amplitude,
    cpa_operating_point,
    cpa_photon_number,
    critical_coupling,
    critical_detuning,
    verify_cpa,
)
from cpasim.errors import (
    AsymmetricMirrors,
    Infeasible,
    NonPositiveBeta,
)
from cpasim.model import SystemParams

from criteria import cpa_invariance_check
from oracles import soc_setting_for_beta


class TestConditionStack:
    def test_photon_number_for_demo_detunings(self, fig3_params):
        assert cpa_photon_number(fig3_params[("fig3c", 4.5)]) \
            == pytest.approx(2.25, abs=1e-12)
        assert cpa_photon_number(fig3_params[("fig3c", 1.5)]) \
            == pytest.approx(11.25, abs=1e-12)

    def test_photon_number_negative_beta_raises(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, g_nl_mag=6.0,
                         phi=math.pi)
        with pytest.raises(NonPositiveBeta):
            cpa_photon_number(p)

    def test_photon_number_uncoupled_atom_is_minus_inf(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=0.0, g_nl_mag=4.99,
                         phi=math.pi)
        assert cpa_photon_number(p) == -math.inf

    def test_required_detuning_tracks_crystal_shift(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, g_nl_mag=3.0,
                         phi=1.1, delta_tls=0.0)
        assert cpa_cavity_detuning(p) == pytest.approx(6.0 * math.sin(1.1))

    def test_required_detuning_demo_value(self, fig3_params):
        assert cpa_cavity_detuning(fig3_params[("fig3c", 4.5)]) \
            == pytest.approx(0.18, abs=1e-12)

    def test_drive_for_operating_point(self, fig3_params):
        p = fig3_params[("fig3c", 4.5)]
        omega_d, intensity = cpa_input_amplitude(p, 2.25)
        assert omega_d == pytest.approx(30.0, rel=1e-12)
        assert intensity == pytest.approx(22.5, rel=1e-12)

    def test_drive_needs_symmetric_mirrors(self):
        p = SystemParams(kappa_l=9.0, kappa_r=11.0, g=1.0)
        with pytest.raises(AsymmetricMirrors):
            cpa_input_amplitude(p, 1.0)

    def test_drive_rejects_negative_photon_number(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0)
        with pytest.raises(Infeasible):
            cpa_input_amplitude(p, -0.5)

    def test_cooperativity_weak_coupling_regime(self, fig3_params):
        for p in fig3_params.values():
            assert cooperativity(p) == pytest.approx(0.05)
            assert cooperativity(p) < 1.0


class TestCriticalBoundary:
    def test_critical_coupling_resonant_reduction(self):
        assert critical_coupling(0.5, 0.0, 1.0) == pytest.approx(0.5)
        assert critical_coupling(0.02, 0.0, 1.0) == pytest.approx(0.1)

    def test_critical_pair_are_inverses(self, rng):
        for _ in range(30):
            beta = rng.uniform(0.005, 2.0)
            delta = rng.uniform(0.0, 5.0)
            g_c = critical_coupling(beta, delta, 1.0)
            assert critical_detuning(g_c, beta, 1.0) == pytest.approx(
                delta, rel=1e-9, abs=1e-9)

    def test_critical_detuning_boundary_is_exact_zero(self):
        assert critical_detuning(0.5, 0.5, 1.0) == 0.0

    def test_radicand_rounding_at_the_boundary_is_zero(self):
        # radicand = g^2 - 1/4 at beta = 1/2, gamma = 1
        at_boundary = 0.5 - 0.25 * RADICAND_ATOL
        below = 0.5 - 2.0 * RADICAND_ATOL
        assert -RADICAND_ATOL < at_boundary ** 2 - 0.25 < 0.0
        assert critical_detuning(at_boundary, 0.5, 1.0) == 0.0
        with pytest.raises(Infeasible):
            critical_detuning(below, 0.5, 1.0)

    def test_critical_detuning_below_boundary_raises(self):
        with pytest.raises(Infeasible):
            critical_detuning(0.4, 0.5, 1.0)

    def test_negative_beta_raises_everywhere(self):
        with pytest.raises(NonPositiveBeta):
            critical_coupling(-0.1, 0.0, 1.0)
        with pytest.raises(NonPositiveBeta):
            critical_detuning(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("call, named", [
        # nan and inf came back as g_c before
        (lambda: critical_coupling(math.nan, 0.0, 1.0), "beta"),
        (lambda: critical_coupling(math.inf, 0.0, 1.0), "beta"),
        (lambda: critical_coupling(-math.inf, 0.0, 1.0), "beta"),
        (lambda: critical_coupling(0.02, math.nan, 1.0), "delta_tls"),
        (lambda: critical_coupling(0.02, -math.inf, 1.0), "delta_tls"),
        (lambda: critical_detuning(math.nan, 0.5, 1.0), "g"),
        (lambda: critical_detuning(math.inf, 0.5, 1.0), "g"),
        (lambda: critical_detuning(1.0, math.nan, 1.0), "beta"),
        (lambda: critical_detuning(1.0, math.inf, 1.0), "beta"),
    ])
    def test_a_non_finite_argument_is_a_value_error_naming_it(self, call, named):
        with pytest.raises(ValueError, match=re.escape(f"{named} must be a finite real number")):
            call()


class TestVerify:
    def test_conventional_operating_point_is_absorbing(self, fig3_params):
        report = verify_cpa(fig3_params[("fig3c", 4.5)])
        assert report.feasible
        assert report.reasons == []
        assert report.n_c_cpa == pytest.approx(2.25, abs=1e-9)
        assert report.residual_out < 1e-12 * report.input_intensity
        assert report.branch_location is BranchLocation.INSIDE_BISTABLE_STABLE
        lo, hi = report.fold_window
        assert lo < report.input_intensity < hi

    def test_wrong_cavity_detuning_is_reported(self, fig3_params):
        p = replace(fig3_params[("fig3c", 4.5)], delta_c=0.5)
        report = verify_cpa(p)
        assert not report.feasible
        assert "CavityDetuningMismatch" in report.reasons

    def test_cavity_detuning_matches_within_its_tolerance(self, fig3_params):
        p = fig3_params[("fig3c", 4.5)]
        required = cpa_cavity_detuning(p)
        tol = DETUNING_MATCH_RTOL * max(p.gamma, abs(required))
        for offset, mismatch in ((0.5, False), (-0.5, False), (2.0, True),
                                 (-2.0, True)):
            q = replace(p, delta_c=required + offset * tol)
            assert ("CavityDetuningMismatch" in cpa_operating_point(q).reasons
                    ) is mismatch

    def test_weak_coupling_failure_reasons(self):
        phi = math.pi
        mag, _ = soc_setting_for_beta(0.02, phi)
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=0.5, delta_tls=4.5,
                         g_nl_mag=mag, phi=phi)
        p = replace(p, delta_c=cpa_cavity_detuning(p))
        report = verify_cpa(p)
        assert not report.feasible
        assert "CouplingBelowCritical" in report.reasons
        assert "DetuningExceedsCritical" in report.reasons
        assert "NonPositivePhotonNumber" in report.reasons
        assert report.branch_location is None

    def test_branch_location_strings_are_canonical(self):
        assert {b.value for b in BranchLocation} >= {
            "OutsideBistableStable", "InsideBistableStable",
            "InsideBistableUnstable", "Monostable"}


class TestInvariance:
    def test_demo_crystal_settings_predict_same_point(self):
        # the fixed demo magnitudes carry a few-ulp spread in beta, which the
        # 1/beta^2 amplification turns into ~1e-12 relative in n; compare the
        # predictions directly at that honest resolution
        configs = [(9.98, 2.0 * math.pi / 3.0), (9.98, 4.0 * math.pi / 3.0),
                   (4.99, math.pi)]
        ns = []
        for mag, phi in configs:
            p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, delta_tls=4.5,
                             g_nl_mag=mag, phi=phi)
            ns.append(cpa_photon_number(p))
        assert ns[1] == pytest.approx(ns[0], rel=5e-12)
        assert ns[2] == pytest.approx(ns[0], rel=5e-12)

    def test_settings_nudged_onto_shared_beta_are_invariant(self, rng):
        for _ in range(5):
            phi1 = rng.uniform(0.5 * math.pi + 0.2, 1.5 * math.pi - 0.2)
            phi2 = rng.uniform(0.5 * math.pi + 0.2, 1.5 * math.pi - 0.2)
            mag1, beta1 = soc_setting_for_beta(0.02, phi1)
            mag2, _ = soc_setting_for_beta(beta1, phi2)
            pair = []
            for mag, phi in ((mag1, phi1), (mag2, phi2)):
                p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0,
                                 delta_tls=1.5, g_nl_mag=mag, phi=phi)
                pair.append(replace(p, delta_c=cpa_cavity_detuning(p)))
            assert cpa_invariance_check(*pair)

    def test_differing_atom_rejected(self, fig3_params):
        p1 = fig3_params[("fig3c", 4.5)]
        with pytest.raises(ValueError, match="differ in g;"):
            cpa_invariance_check(p1, replace(p1, g=1.1))

    def test_differing_beta_rejected(self, fig3_params):
        p1 = fig3_params[("fig3c", 4.5)]
        with pytest.raises(ValueError, match="^beta values differ"):
            cpa_invariance_check(p1, replace(p1, g_nl_mag=5.1))
