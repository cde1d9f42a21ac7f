import math
import warnings

import pytest

from cpasim.cli import FIG4_DELTAS, build_parser, fig3_preset, fig4_preset, main
from cpasim.cpa import cpa_cavity_detuning, cpa_photon_number
from cpasim.io import read_csv

MONOSTABLE = """\
kappa: 20
g: 1
delta_tls: 1
delta_c: 0.7
omega_d: 2
input_max: 5
input_points: 21
"""

CPA_AUTO = """\
kappa: 20
g: 1
delta_tls: 4.5
g_nl_mag: 4.99
phi: 3.141592653589793
cpa_auto_detuning: true
"""


def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(list(argv))


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reproduce_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig9"])


class TestSteady:
    def test_lists_roots(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MONOSTABLE)
        assert run("steady", "--config", cfg) == 0
        out = capsys.readouterr().out
        assert "n_c" in out and "Stable" in out

    def test_config_required(self):
        assert run("steady") == 2

    def test_bad_yaml_is_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "kappa: [1, 2\n")
        assert run("steady", "--config", cfg) == 2

    def test_invalid_physics_is_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "kappa: -3\n")
        assert run("steady", "--config", cfg) == 2

    def test_missing_file_is_exit_2(self, tmp_path):
        assert run("steady", "--config", str(tmp_path / "nope.yaml")) == 2


class TestCpa:
    def test_feasible_point(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CPA_AUTO)
        assert run("cpa", "--config", cfg, "--out", str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "cpa.csv")
        row = dict(zip(header, rows[0]))
        assert row["feasible"] == "true"
        assert float(row["n_c_cpa"]) == pytest.approx(2.25, abs=1e-9)
        assert "branch_location  = InsideBistableStable" in capsys.readouterr().out

    def test_svg_output(self, tmp_path):
        cfg = write_cfg(tmp_path, CPA_AUTO)
        assert run("cpa", "--config", cfg, "--out", str(tmp_path),
                   "--csv", "--svg") == 0
        assert (tmp_path / "cpa.svg").exists()

    def test_infeasible_point_is_exit_3_with_csv(self, tmp_path):
        # coupling far below critical: report written, feasibility exit code
        cfg = write_cfg(tmp_path, CPA_AUTO.replace("g: 1", "g: 0.2"))
        assert run("cpa", "--config", cfg, "--out", str(tmp_path)) == 3
        header, rows = read_csv(tmp_path / "cpa.csv")
        row = dict(zip(header, rows[0]))
        assert row["feasible"] == "false" and row["reasons"]


class TestSweep:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MONOSTABLE)
        assert run("sweep", "--config", cfg, "--out", str(tmp_path),
                   "--csv", "--svg") == 0
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.svg").exists()
        assert "pattern: Monostable" in capsys.readouterr().out
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 21

    def test_svg_only_skips_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, MONOSTABLE)
        out = tmp_path / "svg_only"
        assert run("sweep", "--config", cfg, "--out", str(out), "--svg") == 0
        assert (out / "sweep.svg").exists()
        assert not (out / "sweep.csv").exists()

    def test_missing_grid_is_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "kappa: 20\ng: 1\nomega_d: 2\n")
        assert run("sweep", "--config", cfg, "--out", str(tmp_path)) == 2

    def test_asymmetric_mirrors_at_matched_detuning(self, tmp_path, capsys):
        # fig3c's crystal with kappa_l != kappa_r: no absorption marker, but
        # the curve itself is fine
        cfg = write_cfg(tmp_path, (
            "kappa_l: 9\nkappa_r: 11\ng: 1\ndelta_tls: 4.5\ng_nl_mag: 4.99\n"
            "phi: 3.141592653589793\ncpa_auto_detuning: true\n"
            "input_max: 37.5\ninput_points: 31\n"))
        assert run("sweep", "--config", cfg, "--out", str(tmp_path)) == 0
        assert "pattern: ConventionalBistable" in capsys.readouterr().out
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert {row[4] for row in rows} == {"0", "1", "2"}


class TestBoundary:
    CFG = "beta_min: 0.005\nbeta_max: 0.1\nbeta_points: 40\ng_fixed: 1\ndelta_tls_fixed: 4.5\n"

    def test_writes_map(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.CFG)
        assert run("boundary", "--config", cfg, "--out", str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "boundary.csv")
        assert header[0] == "beta" and len(rows) == 40
        assert "grid nodes feasible" in capsys.readouterr().out

    def test_gamma_rescales_axis(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        run("boundary", "--config", cfg, "--out", str(tmp_path / "a"))
        run("boundary", "--config", cfg, "--out", str(tmp_path / "b"),
            "--gamma", "2")
        _, rows_a = read_csv(tmp_path / "a" / "boundary.csv")
        _, rows_b = read_csv(tmp_path / "b" / "boundary.csv")
        assert float(rows_b[0][0]) == pytest.approx(2 * float(rows_a[0][0]))

    def test_missing_fixed_pair_is_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "beta_min: 0.01\nbeta_max: 0.1\n")
        assert run("boundary", "--config", cfg, "--out", str(tmp_path)) == 2


class TestEvolve:
    def test_per_delta_files(self, tmp_path):
        text = MONOSTABLE + "t_end: 2\nsample_dt: 0.5\ndeltas: [0.1, 1]\n"
        cfg = write_cfg(tmp_path, text)
        assert run("evolve", "--config", cfg, "--out", str(tmp_path)) == 0
        assert (tmp_path / "evolve_delta0.1.csv").exists()
        assert (tmp_path / "evolve_delta1.csv").exists()
        header, rows = read_csv(tmp_path / "evolve_delta1.csv")
        assert header == ["t", "n_c", "out_intensity"]
        assert float(rows[0][1]) == 0.0  # vacuum start

    def test_t_end_required(self, tmp_path):
        cfg = write_cfg(tmp_path, MONOSTABLE)
        assert run("evolve", "--config", cfg, "--out", str(tmp_path)) == 2

    def test_divergent_run_is_exit_4(self, tmp_path, capsys):
        # pure parametric gain far above threshold: the field blows up and
        # the integrator gives up at the divergence cutoff
        text = ("kappa: 0.1\ng_nl_mag: 50\nomega_d: 1\n"
                "t_end: 50\nsample_dt: 0.05\n")
        cfg = write_cfg(tmp_path, text)
        assert run("evolve", "--config", cfg, "--out", str(tmp_path)) == 4
        assert "numerical failure" in capsys.readouterr().err


class TestReproduce:
    def test_fig2_boundary(self, tmp_path):
        assert run("reproduce", "fig2", "--out", str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "fig2_boundary.csv")
        assert header == ["beta", "g_c", "delta_tls_c", "feasible"]
        assert len(rows) == 200

    def test_fig2_rejects_config(self, tmp_path):
        cfg = write_cfg(tmp_path, MONOSTABLE)
        assert run("reproduce", "fig2", "--config", cfg,
                   "--out", str(tmp_path)) == 2


class TestPresets:
    def test_fig3_presets_satisfy_absorption_detuning(self):
        for tag in ("fig3a", "fig3b", "fig3c"):
            for dtls in (4.5, 1.5):
                p = fig3_preset(tag, dtls)
                assert p.kappa == 20.0 and p.g == 1.0
                assert p.delta_c == pytest.approx(cpa_cavity_detuning(p),
                                                  abs=1e-12)

    def test_fig3c_effective_decay(self):
        p = fig3_preset("fig3c", 4.5)
        beta = 0.5 * p.kappa + 2.0 * p.g_nl_mag * math.cos(p.phi)
        assert beta == pytest.approx(0.02, abs=1e-12)

    def test_fig4_preset_drives_at_absorption_input(self):
        p = fig4_preset()
        n = cpa_photon_number(p)
        assert n == pytest.approx(2.25, abs=1e-9)
        assert p.omega_d == pytest.approx(p.kappa * math.sqrt(n), rel=1e-12)
        assert set(FIG4_DELTAS) == {0.01, 0.1, 1.0}
