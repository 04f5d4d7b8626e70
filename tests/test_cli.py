import gc
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import interferolab.cli as cli_mod
import interferolab.sweep as sweep_mod
from interferolab.cli import KEYS, build_parser, load_config_file, main, resolve_config
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

    @pytest.mark.parametrize("argv, flag", [
        (["--n-min", "2", "--n-max", "3"], "n-min"),
        (["--axis", "eta", "--n", "2"], "n"),
    ], ids=["n-axis", "eta-axis"])
    def test_mm_top_index_error_names_the_flag_of_the_axis(self, argv, flag, tmp_path, capsys):
        code = run(["--family", "mm", "--m-prime", "3", *argv, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.rstrip().endswith(f"raise {flag} above 3")

    def test_eta_range_overshooting_max_by_rounding_ends_at_max(self, tmp_path):
        # 0.09 + 13 * 0.07 is 1.0000000000000002, within the row count's slack of max
        out = tmp_path / "eta.csv"
        code = run(["--axis", "eta", "--eta-min", "0.09", "--eta-max", "1", "--eta-step", "0.07",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 14
        assert lines[-1].split(",")[0] == "1"

    def test_validation_failure_exit(self, tmp_path, capsys, monkeypatch):
        import interferolab.protocol as protocol_mod
        from interferolab.protocol import ValidationCell, ValidationReport

        bad = ValidationReport(
            (ValidationCell("rho", 2, -1, 0.9, 0.3, 0.5, (1, 0)),), 1e-10
        )
        # run_sweep looks the gate up in protocol when --validate asks for it
        monkeypatch.setattr(protocol_mod, "validate_closed_forms", lambda *a, **k: bad)
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
        assert not (tmp_path / "x.csv").exists()

    def test_io_error_on_malformed_external(self, tmp_path, capsys):
        comp = tmp_path / "comp.csv"
        comp.write_text("2,0.5\n3\n")
        code = run([
            "--n-min", "2", "--n-max", "3", "--phi-grid", "90",
            "--out", str(tmp_path / "x.csv"), "--external", str(comp),
        ])
        assert code == 3
        assert f"{comp}:2: expected two comma-separated columns" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unmatched_external_is_listed_in_the_summary(self, tmp_path, capsys):
        comp = tmp_path / "comp.csv"
        comp.write_text("2,0.5\n99,0.25\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([
                "--n-min", "2", "--n-max", "3", "--phi-grid", "90",
                "--out", str(tmp_path / "x.csv"), "--external", str(comp),
            ])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        assert "comparison values matching no sweep value: 99.0" in out.splitlines()

    @pytest.mark.parametrize("argv", [
        ["--n-step", "nan"],
        ["--n-max", "inf"],
        ["--axis", "eta", "--eta-min", "nan"],
        ["--axis", "eta", "--n", "1e308", "--eta-min", "0.5", "--eta-max", "0.5"],  # 2n overflows
    ])
    def test_usage_error_from_non_finite_setting(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run([*argv, "--phi-grid", "8", "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, conf, message", [
        (["--phi-grid", "1"], b"", "phi grid needs at least 2 points"),
        (["--m-prime", "-1"], b"", "m-prime must be >= 0"),
        (["--n-min", "0.5"], b"", "mean photon number 0.5 below 1"),
        (["--n-min", "2.25"], b"", "photon number 2.25 gives non-integer top Fock index 4.5"),
        ([], b"axis=diagonal\n", "unknown axis 'diagonal'"),  # argparse's choices skip files
        ([], b"\xef\xbb\xbfaxis=diagonal\n", "unknown axis 'diagonal'"),  # not key '\ufeffaxis'
        ([], b"family=mm\nn-min=\xff\n", "run.conf:2: byte 16 (0xff) is not UTF-8"),
        ([], b"\xef\xbb\xbfn-min=\xff\n", "run.conf:1: byte 9 (0xff) is not UTF-8"),
        # the retired M&M state at m_prime = 0 is --family mm --m-prime 0
        (["--family", "no"], b"", "invalid choice: 'no'"),
        ([], b"family=no\n", "unknown family 'no'"),
        # every family prints the three reference columns a noon row printed
        (["--family", "noon"], b"", "invalid choice: 'noon'"),
        ([], b"family=noon\n", "unknown family 'noon'"),
    ], ids=["phi-grid-1", "negative-m-prime", "n-below-1", "half-top-index", "axis-from-file",
            "axis-after-byte-order-mark", "undecodable-byte", "undecodable-after-byte-order-mark",
            "retired-no-family", "retired-no-family-from-file", "retired-noon-family",
            "retired-noon-family-from-file"])
    def test_usage_error_from_out_of_range_setting(self, argv, conf, message, tmp_path, capsys):
        conf_path = tmp_path / "run.conf"
        conf_path.write_bytes(conf)
        out = tmp_path / "x.csv"
        assert run([*argv, "--config", str(conf_path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    def test_false_config_booleans_write_the_csv_alone(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("validate=false\nemit-plot=off\n")
        assert load_config_file(conf) == {"validate": False, "emit_plot": False}
        out = tmp_path / "run.csv"
        assert run(["--config", str(conf), "--n-min", "2", "--n-max", "3", "--phi-grid", "8",
                    "--out", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf", "run.csv"]
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1 and printed[0].startswith("wrote 2 rows")  # no report, no script

    @pytest.mark.parametrize("line", ["n-min=abc", "phi-grid=2.5", "validate=maybe"])
    def test_config_file_rejects_bad_value(self, line, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(f"# comment\n{line}\n")
        key, _, raw = line.partition("=")
        with pytest.raises(UsageError, match=re.escape(f"{conf}:2: bad value for {key}: {raw!r}")):
            load_config_file(conf)

    # one value per key; booleans are bare flags on the command line
    SAMPLES = {
        "family": "mm", "axis": "eta", "eta": "0.8", "n": "7", "n-min": "4", "n-max": "9",
        "n-step": "0.5", "eta-min": "0.6", "eta-max": "0.95", "eta-step": "0.05",
        "m-prime": "2", "phi-grid": "90", "validate": None, "external": "comp.csv",
        "out": "x.csv", "emit-plot": None,
    }

    @pytest.mark.parametrize("key", list(KEYS))
    def test_flag_and_config_key_agree(self, key, tmp_path):
        value = self.SAMPLES[key]
        flag = [f"--{key}"] if value is None else [f"--{key}", value]
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key}={'true' if value is None else value}\n")
        from_flag = resolve_config(build_parser().parse_args(flag))
        from_file = resolve_config(build_parser().parse_args(["--config", str(conf)]))
        assert from_flag == from_file
        assert from_flag != resolve_config(build_parser().parse_args([]))

    def test_byte_order_mark_leaves_the_csv_unchanged(self, tmp_path):
        csvs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            conf = tmp_path / "run.conf"
            conf.write_bytes(bom + b"family=mm\nm-prime=1\nn-min=3\nn-max=4\nphi-grid=8\n")
            out = tmp_path / f"{len(bom)}.csv"
            assert run(["--config", str(conf), "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

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

    def test_csv_named_like_the_script_rejected(self, tmp_path, capsys):
        # the script goes to the CSV path with suffix .gp, which would be the CSV itself
        out = tmp_path / "run.gp"
        code = run([
            "--n-min", "2", "--n-max", "3", "--n-step", "1",
            "--phi-grid", "90", "--out", str(out), "--emit-plot",
        ])
        assert code == 1
        assert "would overwrite" in capsys.readouterr().err
        assert not out.exists()


def test_run_exits_with_the_code_of_main_and_the_collector_off(monkeypatch):
    # run() ends the process, so it leaves the collector as it found it only here
    monkeypatch.setattr(cli_mod, "main", lambda: 2)
    try:
        with pytest.raises(SystemExit) as exc:
            cli_mod.run()
        assert exc.value.code == 2
        assert not gc.isenabled()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        gc.enable()


class TestModuleEntryPoint:
    ROOT = Path(__file__).resolve().parent.parent

    def run_module(self, args, cwd, preexec_fn=None):
        env = dict(os.environ)
        src = str(self.ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        return subprocess.run(
            [sys.executable, "-m", "interferolab", *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn,
        )

    def test_import_loads_only_numpy_and_stdlib(self, tmp_path):
        # every CLI run pays for what the import loads (setup_s in bench/), and so
        # does every --help, usage error and config check, which load no numpy, and
        # no dataclasses or inspect: the engine loads at the first row, and a
        # sweep runs on it alone; the Fock containers, the states and the Kraus
        # oracle with its gate load only for --validate, the references never,
        # and no run and no public name loads dataclasses
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import interferolab.cli\n"
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))\n"
            "def package():\n"
            "    print('numpy' in sys.modules, 'dataclasses' in sys.modules,\n"
            "          'inspect' in sys.modules,\n"
            "          *sorted(m for m in sys.modules if m.startswith('interferolab.')))\n"
            "package()\n"
            "open('bad.cfg', 'w').write('n-min=two\\n')\n"
            "for args, code in ((['--family', 'squeezed'], 1),\n"
            "                   (['--config', 'bad.cfg'], 1),\n"
            "                   (['--n-min', '2', '--n-max', '4'], 0),\n"
            "                   (['--family', 'mm', '--n-min', '5', '--n-max', '7'], 0),\n"
            "                   (['--family', 'mm', '--n-min', '5', '--n-max', '7',\n"
            "                     '--validate'], 0)):\n"
            "    assert interferolab.cli.main([*args, '--phi-grid', '8', '--out', 'x.csv']) == code\n"
            "    package()\n"
            "for name in interferolab.__all__:\n"
            "    getattr(interferolab, name)\n"
            "assert 'dataclasses' not in sys.modules, 'a public name loads dataclasses'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        loaded = set(lines[0].split())
        assert "interferolab" in loaded
        assert "numpy" not in loaded
        assert loaded - {"interferolab", "numpy"} <= set(sys.stdlib_module_names)
        assert not {"dataclasses", "inspect"} & loaded
        states = [line.split() for line in lines if line.startswith(("True", "False"))]
        numpy_loaded = [state[0] == "True" for state in states]
        dataclasses_loaded = [state[1] == "True" for state in states]
        inspect_loaded = [state[2] == "True" for state in states]
        package = [set(state[3:]) for state in states]
        front = {"interferolab.cli", "interferolab.sweep"}
        engine_only = front | {"interferolab.engine"}
        # after the import, a usage error and a bad config-file line
        assert package[:3] == [front] * 3
        assert numpy_loaded == [False] * 3 + [True] * 3
        assert inspect_loaded[:3] == [False] * 3  # numpy loads inspect
        # every value type is a named tuple, so no run loads dataclasses
        assert dataclasses_loaded == [False] * 6
        assert package[3:5] == [engine_only] * 2  # after an optimal and an mm sweep
        assert "interferolab.protocol" in package[5]  # --validate
        assert "interferolab.estimation" not in package[5]
        assert package[5] == engine_only | {"interferolab.protocol", "interferolab.fock"}
        assert "concurrent" not in loaded  # rows run on the calling thread

    def test_package_resolves_every_public_name(self):
        # interferolab/__init__ loads each name's module on first use
        import interferolab

        assert [n for n in interferolab.__all__ if getattr(interferolab, n, None) is None] == []
        assert set(interferolab.__all__) <= set(dir(interferolab))
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            interferolab.no_such_name

    # (max - min) / step overflows to inf, so the row count is not a number;
    # or it is finite but far too large to list.  The child runs under a
    # 1.5 GiB address-space limit, so a check that lists the rows first
    # fails here with a MemoryError instead of exhausting the machine.
    @pytest.mark.parametrize("argv", [
        ["--n-step", "1e-320"],
        ["--axis", "eta", "--eta-step", "1e-320"],
        ["--n-step", "1e-300"],
        ["--axis", "eta", "--n", "10", "--eta-step", "1e-300"],
    ], ids=["n", "eta", "n-count", "eta-count"])
    def test_tiny_range_step_is_a_usage_error(self, argv, tmp_path):
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

        proc = self.run_module([*argv, "--phi-grid", "8", "--out", "x.csv"], tmp_path,
                               preexec_fn=limit_memory)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error:")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    # 1e8 points would need a 763 MiB index array in the row's grid fold,
    # more than half the child's 1.5 GiB limit: the check refuses it first
    def test_huge_phi_grid_is_a_usage_error(self, tmp_path):
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

        proc = self.run_module(["--phi-grid", "100000000", "--out", "x.csv"], tmp_path,
                               preexec_fn=limit_memory)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("usage error: phi grid of 100000000 points")
        assert f"more than {sweep_mod.MAX_PHI_GRID}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    # an --out without a file name has no CSV to write and no name to derive
    # the plot script's or the validation reports' from
    @pytest.mark.parametrize("extra", [[], ["--validate"], ["--emit-plot"]],
                             ids=["plain", "validate", "emit-plot"])
    @pytest.mark.parametrize("out", ["", ".", "/"], ids=["empty", "dot", "root"])
    def test_output_path_without_a_file_name_is_a_usage_error(self, out, extra, tmp_path):
        proc = self.run_module(["--n-max", "4", "--phi-grid", "8", "--out", out, *extra],
                               tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("usage error:")
        assert "names no file" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    # the process entry (run) and an in-process main() write the same bytes; the
    # summary's elapsed seconds are the one thing that may differ
    @pytest.mark.parametrize("argv", [
        ["--family", "optimal", "--n-max", "6", "--emit-plot"],
        ["--family", "mm", "--n-min", "5", "--n-max", "8", "--validate"],
        ["--family", "optimal", "--n-min", "1.5", "--n-max", "3", "--n-step", "0.5"],
    ], ids=["optimal-plot", "mm-validate", "optimal-half-integer"])
    def test_module_run_matches_in_process_main(self, argv, tmp_path, monkeypatch, capsys):
        argv = [*argv, "--phi-grid", "90", "--out", "x.csv"]
        child, parent = tmp_path / "child", tmp_path / "parent"
        child.mkdir()
        parent.mkdir()
        proc = self.run_module(argv, child)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.chdir(parent)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert proc.stderr == captured.err == ""

        def elapsed_masked(text):
            return re.sub(r"\(\d+\.\d\ds\)", "(elapsed)", text)

        assert elapsed_masked(proc.stdout) == elapsed_masked(captured.out)
        names = sorted(p.name for p in child.iterdir())
        assert names == sorted(p.name for p in parent.iterdir())
        assert len(names) == 1 + 2 * ("--validate" in argv) + ("--emit-plot" in argv)
        for name in names:
            assert (child / name).read_bytes() == (parent / name).read_bytes(), name

    def test_console_script_is_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((self.ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        assert project["project"]["scripts"] == {"interferolab": "interferolab.cli:run"}

    # binomials of 1030 and above overflow double, so a row with top index 40000
    # must fail; it does so before building anything d x d (a 40001 x 40001
    # table would need 12.8 GB, far above the child's 1.5 GiB limit) or even its
    # amplitudes (at top index 2e8 they alone would need 1.5 GiB), and the
    # row's error names the first binomial row that overflows
    @pytest.mark.parametrize("family, n, printed, top", [
        pytest.param("optimal", "20000", "20000", 40000, id="optimal"),
        pytest.param("mm", "20000", "20000", 40000, id="mm"),
        pytest.param("optimal", "1e8", "100000000", 200000000, id="optimal-1e8"),
        pytest.param("mm", "1e8", "100000000", 200000000, id="mm-1e8"),
    ])
    def test_row_past_the_binomial_limit_fails_before_building_it(self, family, n, printed,
                                                                  top, tmp_path):
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

        proc = self.run_module(["--family", family, "--m-prime", "0", "--eta", "1.0",
                                "--n-min", n, "--n-max", n, "--out", "x.csv"],
                               tmp_path, preexec_fn=limit_memory)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"validation failure: sweep={printed} (top index {top}): ")
        assert "binomials of 1030 overflow" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    # transmissivities so small that the Holevo dispersion overflows or the
    # NOON error is inf: above every double, or with its factor n * eta^(n/2)
    # underflowed to zero
    @pytest.mark.parametrize("argv, message", [
        (["--family", "optimal", "--n-min", "2", "--n-max", "2", "--eta", "1e-300"], None),
        (["--axis", "eta", "--n", "10", "--eta-min", "1e-80", "--eta-max", "1e-80",
          "--eta-step", "0.1"], "noon is inf"),
        (["--family", "optimal", "--axis", "eta", "--n", "10", "--eta-min", "1e-63",
          "--eta-max", "1e-63", "--eta-step", "0.1"], "noon is inf"),
    ], ids=["holevo-overflow", "noon-zero-division", "noon-inf"])
    def test_tiny_transmissivity_is_a_validation_failure(self, argv, message, tmp_path):
        proc = self.run_module([*argv, "--phi-grid", "8", "--out", "x.csv"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("validation failure:")
        assert message is None or message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_readme_option_table_lists_every_key_and_family(self):
        table = [line for line in (self.ROOT / "README.md").read_text(encoding="utf-8")
                 .splitlines() if line.startswith("| `--")]
        assert {f"--{key}" for key in KEYS} | {"--config"} <= {
            flag for line in table for flag in re.findall(r"--[a-z-]+", line)}
        families = [re.search(r"`--family \{([a-z,]+)\}`", line) for line in table]
        assert [m[1].split(",") for m in families if m] == [list(sweep_mod.FAMILIES)]

    def test_help_lists_every_key(self, tmp_path):
        proc = self.run_module(["--help"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        flags = set(re.findall(r"--[a-z-]+", proc.stdout))
        assert {f"--{key}" for key in KEYS} | {"--config"} <= flags

    def test_small_sweep_writes_csv(self, tmp_path):
        proc = self.run_module(["--n-min", "2", "--n-max", "3", "--phi-grid", "90"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "wrote 2 rows -> sweep.csv" in proc.stdout
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == sweep_mod.CSV_HEADER
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "3"]
