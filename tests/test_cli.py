import math
import re
import warnings

import pytest

from cpasim import cli
from cpasim.cli import FIG4_DELTAS, build_parser, fig3_preset, fig4_preset, main
from cpasim.cpa import cpa_cavity_detuning, cpa_photon_number
from cpasim.errors import ValidationError
from cpasim.io import MAX_POINTS, RunConfig, read_csv

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


class TestOverrides:
    # fig3c/4.5 at its absorption drive: three roots, Stable, Unstable, Stable
    AT_CPA = CPA_AUTO + "omega_d: 30\n"

    def test_steady_tolerances_apply(self, tmp_path, capsys):
        # the library's one residual and stability tolerance table
        cfg = write_cfg(tmp_path, self.AT_CPA)
        assert run("steady", "--config", cfg) == 0
        labels = [line.split()[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert labels == ["Stable", "Unstable", "Stable"]

    @pytest.mark.parametrize("value", ["0", "-2", "nan", "inf"])
    def test_gamma_must_be_positive_and_finite(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path, MONOSTABLE)
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg, "--out", str(out), "--svg",
                   "--gamma", value) == 2
        assert re.search(r"--gamma must be (positive and finite|a finite real number)",
                         capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", [["sweep"], ["cpa"], ["boundary"],
                                         ["evolve"], ["reproduce", "fig2"],
                                         ["steady"]])
    @pytest.mark.parametrize("flag", ["--tol-res", "--tol-stab"])
    def test_no_command_takes_the_tolerances(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "1e-9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key", ["tol_res", "tol_stab"])
    def test_tolerance_config_keys_are_unknown(self, tmp_path, capsys, key):
        # `steady` read these keys and every other command ignored them:
        # with tol_stab 1000, steady labelled the CPA state Marginal and
        # sweep wrote the same curve as without it
        cfg = write_cfg(tmp_path, self.AT_CPA + f"input_max: 40\n{key}: 1000\n")
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg, "--out", str(out)) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--gamma", "2"], ["--out", "x"],
                                      ["--csv"], ["--svg"]])
    def test_steady_writes_no_file_and_takes_no_file_flags(self, tmp_path, argv):
        # steady prints its roots; the flags of the file-writing commands
        # did nothing there (--gamma 5 printed the same bytes)
        cfg = write_cfg(tmp_path, self.AT_CPA)
        with pytest.raises(SystemExit) as exc:
            main(["steady", "--config", cfg, *argv])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, text", [
        ("evolve", MONOSTABLE + "t_end: .inf\n"),
        ("boundary", "beta_min: 0.005\nbeta_max: .inf\ng_fixed: 1\n"
                     "delta_tls_fixed: 4.5\n"),
        ("evolve", MONOSTABLE + "t_end: 2\ndeltas: [.nan]\n"),
        ("sweep", MONOSTABLE.replace("input_max: 5", "input_max: .inf")),
    ], ids=["t_end", "beta_max", "deltas", "input_max"])
    def test_non_finite_config_numbers_are_exit_2(self, tmp_path, capsys,
                                                  command, text):
        # these printed a raw conversion error, wrote a CSV of NaN betas,
        # failed the integration (exit 4) and leaked a numpy RuntimeWarning
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, code, message", [
        *((command, "kappa: 20\ng: 1.0e+200\n", 4, "numerical failure: ")
          for command in ("steady", "cpa")),
        *((command, "kappa: 20\ng: 1\ndelta_tls: 1.0e+200\ninput_max: 5\n", 4,
           "numerical failure: ") for command in ("steady", "cpa", "sweep")),
        *((command, "kappa: 20\ng: 1\ngamma: 1.0e-300\ninput_max: 5\n", 4,
           "numerical failure: ") for command in ("steady", "cpa", "sweep")),
        *((command, "kappa_l: 1.0e+308\nkappa_r: 1.0e+308\n", 2,
           "error: kappa_l + kappa_r = 1e+308 + 1e+308 overflows")
          for command in ("steady", "cpa")),
    ], ids=["g-steady", "g-cpa", "delta_tls-steady", "delta_tls-cpa", "delta_tls-sweep",
            "gamma-steady", "gamma-cpa", "gamma-sweep", "kappa-steady", "kappa-cpa"])
    def test_extreme_but_finite_parameters_are_one_line_errors(
            self, tmp_path, capsys, command, text, code, message):
        # these ended in a raw OverflowError or ZeroDivisionError traceback
        # (exit 1), or, at an infinite kappa, in "(no steady states found)";
        # the gamma sweep printed numpy RuntimeWarnings before its one line
        cfg = write_cfg(tmp_path, text)
        argv = [command, "--config", cfg]
        if command != "steady":
            argv += ["--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("command, text", [
        ("sweep", MONOSTABLE.replace("input_points: 21", f"input_points: {2 ** 63}")),
        ("boundary", "beta_min: 0.005\nbeta_max: 0.1\ng_fixed: 1\n"
                     f"delta_tls_fixed: 4.5\nbeta_points: {2 ** 63}\n"),
    ])
    def test_huge_grid_is_exit_2(self, tmp_path, capsys, command, text):
        # both died in np.linspace with a raw IndexError (exit 1)
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out", str(out)) == 2
        assert f"must be at most {MAX_POINTS}" in capsys.readouterr().err
        assert not out.exists()

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


class TestExitCodes:
    def test_a_value_error_from_the_computation_is_exit_4(self, tmp_path,
                                                          capsys, monkeypatch):
        # any ValueError past the checked inputs (numpy, scipy, the library)
        # is a numerical failure, not a config error
        def failing(p, grid):
            raise ValueError("array must not contain infs or NaNs")

        monkeypatch.setattr(cli, "trace_hysteresis", failing)
        cfg = write_cfg(tmp_path, MONOSTABLE)
        assert run("sweep", "--config", cfg, "--out", str(tmp_path)) == 4
        assert "numerical failure" in capsys.readouterr().err


    @pytest.mark.parametrize("omega_d", ["1.0e+160", "1.0e+150"])
    def test_a_huge_drive_is_exit_4_naming_it(self, tmp_path, capsys, omega_d):
        # the square of 1e160 overflows; at 1e150 P overflows near its root
        cfg = write_cfg(tmp_path, f"kappa: 20\ng: 1\ndelta_tls: 4.5\nomega_d: {omega_d}\n")
        assert run("steady", "--config", cfg) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: drive omega_d = {float(omega_d)!r} "
                              "is too large")

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

    @pytest.mark.parametrize("command, text", [
        ("evolve", MONOSTABLE + "t_end: 2\nsample_dt: 3\n"),
        ("reproduce", "t_end: 0.05\n"),  # the default sample_dt is 0.1
    ])
    def test_sample_spacing_past_the_end_is_exit_2(self, tmp_path, capsys,
                                                   command, text):
        # checked where it enters, as a config error, before integrating
        cfg = write_cfg(tmp_path, text)
        argv = [command, *(["fig4"] if command == "reproduce" else []),
                "--config", cfg, "--out", str(tmp_path / "out")]
        assert run(*argv) == 2
        assert "sample_dt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text", [
        ("evolve", MONOSTABLE + "t_end: 1\nsample_dt: 1.0e-18\n"),
        ("reproduce", "sample_dt: 1.0e-18\n"),
    ])
    def test_too_many_samples_is_exit_2(self, tmp_path, capsys, command, text):
        # evolve asked numpy for 6.94 EiB and died with a raw
        # _ArrayMemoryError; now the count is checked before anything is
        # allocated
        cfg = write_cfg(tmp_path, text)
        argv = [command, *(["fig4"] if command == "reproduce" else []),
                "--config", cfg, "--out", str(tmp_path / "out")]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "sample_dt" in err and str(MAX_POINTS) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text", [
        ("evolve", MONOSTABLE + "t_end: 2\nsample_dt: 0.5\n"),
        ("reproduce", "t_end: 2\nsample_dt: 0.5\n"),
    ])
    def test_deltas_that_name_one_file_are_exit_2(self, tmp_path, capsys, command,
                                                  text):
        # both are written as ..._delta0.1: the second run replaced the
        # first's files silently
        cfg = write_cfg(tmp_path, text + "deltas: [0.1, 0.10000001]\n")
        argv = [command, *(["fig4"] if command == "reproduce" else []),
                "--config", cfg, "--out", str(tmp_path / "out")]
        assert run(*argv) == 2
        assert "deltas 0.1 and 0.10000001 both write" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sample_count_bound_is_exact(self):
        # integrate samples ceil(t_end / sample_dt) + 1 times
        cfg = RunConfig(params=None, sample_dt=1.0)
        assert cli._evolution_times(cfg, MAX_POINTS - 1.0, 1.0) == (MAX_POINTS - 1.0, 1.0)
        with pytest.raises(ValidationError, match=str(MAX_POINTS)):
            cli._evolution_times(cfg, MAX_POINTS - 0.5, 1.0)

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
