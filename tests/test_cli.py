import pytest

import interferolab.sweep as sweep_mod
from interferolab.cli import load_config_file, main, resolve_config, build_parser
from interferolab.sweep import UsageError


def run(args):
    return main(args)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run([
            "--family", "optimal", "--axis", "n",
            "--n-min", "2", "--n-max", "3", "--n-step", "1",
            "--eta", "0.9", "--phi-grid", "90", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "wrote 2 rows" in capsys.readouterr().out

    def test_usage_error_from_bad_flag(self, capsys):
        assert run(["--family", "squeezed"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_from_bad_combination(self, tmp_path, capsys):
        code = run([
            "--family", "mm", "--m-prime", "3",
            "--n-min", "2", "--n-max", "3", "--n-step", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "m_prime" in capsys.readouterr().err

    def test_validation_failure_exit(self, tmp_path, capsys, monkeypatch):
        from interferolab.protocol import ValidationCell, ValidationReport

        bad = ValidationReport(
            (ValidationCell("rho", 2, -1, 0.9, 0.3, 0.5, (1, 0)),), 1e-10
        )
        monkeypatch.setattr(sweep_mod, "validate_closed_forms", lambda *a, **k: bad)
        code = run([
            "--n-min", "2", "--n-max", "3", "--n-step", "1",
            "--phi-grid", "90", "--validate", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "validation failure" in capsys.readouterr().err

    # binomials of 1030 and above overflow double
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("family, n, top", [("optimal", 515, 1030), ("mm", 520, 1037)])
    def test_non_finite_row_is_a_validation_failure(self, family, n, top, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run([
            "--family", family, "--m-prime", "3", "--eta", "0.9",
            "--n-min", str(n), "--n-max", str(n), "--phi-grid", "8", "--out", str(out),
        ])
        assert code == 2
        assert f"validation failure: sweep={n} (top index {top})" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_on_unwritable_output(self, tmp_path, capsys):
        code = run([
            "--n-min", "2", "--n-max", "2", "--n-step", "1",
            "--phi-grid", "90", "--out", str(tmp_path / "missing" / "x.csv"),
        ])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_io_error_on_missing_external(self, tmp_path, capsys):
        code = run([
            "--n-min", "2", "--n-max", "2", "--n-step", "1",
            "--phi-grid", "90", "--out", str(tmp_path / "x.csv"),
            "--external", str(tmp_path / "absent.csv"),
        ])
        assert code == 3


class TestConfigResolution:
    def test_file_then_flags_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "family=mm\nm-prime=2\nn-min=4\nn-max=8\nn-step=2\nphi-grid=90\n"
            f"out={tmp_path / 'file.csv'}\n"
        )
        args = build_parser().parse_args(
            ["--config", str(conf), "--n-max", "6", "--out", str(tmp_path / "flag.csv")]
        )
        cfg, emit_plot = resolve_config(args)
        assert cfg.state_family == "mm"
        assert cfg.mm_m_prime == 2
        assert cfg.n_range == (4.0, 6.0, 2.0)  # flag overrode the max only
        assert cfg.output_path == str(tmp_path / "flag.csv")
        assert emit_plot is False

    def test_defaults_without_any_input(self):
        cfg, emit_plot = resolve_config(build_parser().parse_args([]))
        assert cfg.state_family == "optimal"
        assert cfg.sweep_axis == "n"
        assert cfg.fixed_eta == 0.9
        assert cfg.n_range == (2.0, 30.0, 1.0)
        assert cfg.phi_grid_points == 720

    def test_config_file_booleans_and_comments(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment\n\nvalidate=true\nemit-plot=yes\n")
        updates = load_config_file(conf)
        assert updates == {"validate": True, "emit_plot": True}

    def test_config_file_rejects_unknown_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("frobnicate=1\n")
        with pytest.raises(UsageError, match="unknown key"):
            load_config_file(conf)

    def test_config_file_rejects_bad_line(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("just-a-word\n")
        with pytest.raises(UsageError, match="key=value"):
            load_config_file(conf)

    def test_noon_baseline_spelling_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("family=noon-baseline\n")
        assert run(["--config", str(conf), "--out", str(tmp_path / "x.csv")]) == 1
        assert "noon-baseline" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestSingleRoundOnly:
    # two round trips cancel phi (see test_protocol), so there is no
    # multi-round sweep to ask for
    def test_rounds_flag_rejected(self, tmp_path, capsys):
        assert run(["--rounds", "2", "--out", str(tmp_path / "x.csv")]) == 1
        assert "--rounds" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_rounds_config_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("rounds=2\n")
        assert run(["--config", str(conf), "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown key 'rounds'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestPlotFlag:
    def test_emit_plot_writes_script(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run([
            "--n-min", "2", "--n-max", "3", "--n-step", "1",
            "--phi-grid", "90", "--out", str(out), "--emit-plot",
        ])
        assert code == 0
        assert (tmp_path / "run.gp").exists()
        assert "plot script" in capsys.readouterr().out
