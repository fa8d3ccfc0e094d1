"""CLI: config loading, run/sweep/certify/plot subcommands, exit codes."""

import os

import numpy as np
import pytest

from locodl import cli, harness

QUAD_CONFIG = """\
[problem]
source = quadratic
d = 8
n = 4
kappa = 100
data_seed = 3

[run]
seeds = 0,1
stop_metric = psi
stop_ratio = 1e-6
max_iters = 100000
cadence = 50

[algo:loco]
algorithm = locodl
compressor = rand_k
k = 2
"""


@pytest.fixture
def quad_config_path(tmp_path):
    path = tmp_path / "quad.ini"
    path.write_text(QUAD_CONFIG)
    return str(path)


def run_cli(args):
    return cli.main(args)


class TestLoadConfig:
    def test_parses_sections(self, quad_config_path):
        configs, out = cli.load_config(quad_config_path)
        assert len(configs) == 1
        cfg = configs[0]
        assert cfg.algorithm == "locodl"
        assert cfg.compressor == "rand_k"
        assert cfg.k == 2
        assert cfg.seeds == (0, 1)
        assert out is None

    def test_missing_file_is_input_error(self, tmp_path):
        assert run_cli(["run", str(tmp_path / "absent.ini")]) == cli.EXIT_INPUT

    def test_missing_algo_section(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[problem]\nsource = quadratic\nd = 4\nn = 2\n[run]\n")
        assert run_cli(["run", str(path)]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("problem, message", [
        ("source = quadratic\nd = 4\n", "[problem] is missing key 'n'"),
        ("source = quadratic\nd = five\nn = 2\n", "[problem] d = 'five' is not a valid value"),
    ])
    def test_bad_key_exits_2_and_names_it(self, tmp_path, capsys, problem, message):
        path = tmp_path / "bad.ini"
        path.write_text(f"[problem]\n{problem}[algo:a]\n")
        assert run_cli(["run", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
        assert message in capsys.readouterr().err

    def test_unknown_source(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[problem]\nsource = mnist\nd = 4\nn = 2\n[algo:a]\n")
        assert run_cli(["run", str(path)]) == cli.EXIT_INPUT


class TestRun:
    def test_writes_traces_and_manifest(self, quad_config_path, tmp_path, capsys):
        out = tmp_path / "results"
        assert run_cli(["run", quad_config_path, "--out", str(out)]) == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == ["loco_rand_k2_0.csv", "loco_rand_k2_1.csv"]
        header = (out / csvs[0]).read_text().split("\n")[0]
        assert header == ",".join(harness.CSV_COLUMNS)
        assert (out / "manifest.txt").exists()
        table = capsys.readouterr().out
        assert "gamma" in table and "tau" in table

    def test_rerun_is_byte_identical(self, quad_config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["run", quad_config_path, "--out", str(out1)])
        run_cli(["run", quad_config_path, "--out", str(out2)])
        for name in ("loco_rand_k2_0.csv", "loco_rand_k2_1.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_chi_exits_3_and_names_condition(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(QUAD_CONFIG + "chi = 5.0\n")
        assert run_cli(["run", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "2*rho - rho^2*(1+omega_av) - chi >= 0" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the iterates overflow by design
    @pytest.mark.parametrize("algo", ["algorithm = gd\n",
                                      "algorithm = diana\ncompressor = rand_k\nk = 2\n"])
    def test_diverging_run_exits_4(self, tmp_path, capsys, algo):
        path = tmp_path / "diverge.ini"
        path.write_text(QUAD_CONFIG.replace("stop_metric = psi", "stop_metric = sqdist")
                        .replace("algorithm = locodl\ncompressor = rand_k\nk = 2\n",
                                 algo + "gamma = 5\n"))
        assert run_cli(["run", str(path), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_CONVERGENCE
        assert "diverged" in capsys.readouterr().err

    def test_env_var_output_dir(self, quad_config_path, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
        monkeypatch.chdir(tmp_path)
        assert run_cli(["run", quad_config_path]) == 0
        assert any(target.glob("*.csv"))

    def test_seeds_override(self, quad_config_path, tmp_path):
        out = tmp_path / "s"
        run_cli(["run", quad_config_path, "--out", str(out), "--seeds", "7"])
        assert sorted(p.name for p in out.glob("*.csv")) == ["loco_rand_k2_7.csv"]

    def test_resolved_table_round_trips(self, quad_config_path, tmp_path, capsys):
        out1 = tmp_path / "r1"
        run_cli(["run", quad_config_path, "--out", str(out1)])
        table = capsys.readouterr().out.strip().split("\n")
        header = table[0].split("\t")
        row = dict(zip(header, table[1].split("\t")))
        override = "".join(f"{key} = {row[key]}\n" for key in ("gamma", "chi", "rho", "p"))
        path2 = tmp_path / "explicit.ini"
        path2.write_text(QUAD_CONFIG + override)
        out2 = tmp_path / "r2"
        assert run_cli(["run", str(path2), "--out", str(out2)]) == 0
        assert (out1 / "loco_rand_k2_0.csv").read_bytes() \
            == (out2 / "loco_rand_k2_0.csv").read_bytes()


class TestSweep:
    def test_kappa_sweep_summary_and_slope(self, quad_config_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli(["sweep", quad_config_path, "--vary", "kappa=20,60,200",
                        "--out", str(out)])
        assert code == 0
        lines = (out / "sweep_summary.csv").read_text().strip().split("\n")
        assert lines[0] == "label,vary,value,median_bits_to_target"
        assert len([ln for ln in lines if ln.startswith("loco,kappa")]) == 3
        assert any(ln.startswith("loco,slope") for ln in lines)
        assert "fitted log-log slope" in capsys.readouterr().out

    def test_reference_is_solved_once_per_kappa(self, quad_config_path, tmp_path,
                                                monkeypatch):
        path = tmp_path / "two_blocks.ini"
        path.write_text(QUAD_CONFIG + "\n[algo:plain]\nalgorithm = locodl\n"
                        "compressor = identity\n")
        calls = []
        solve = harness.solve_reference

        def counting(problem, *args, **kwargs):
            calls.append(problem.kappa)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(harness, "solve_reference", counting)
        assert run_cli(["sweep", str(path), "--vary", "kappa=20,60,200",
                        "--out", str(tmp_path / "sweep")]) == 0
        assert len(calls) == 3

    def test_empty_vary_exits_2(self, quad_config_path):
        assert run_cli(["sweep", quad_config_path, "--vary", "kappa="]) == cli.EXIT_INPUT

    def test_unknown_vary_key_exits_2(self, quad_config_path):
        assert run_cli(["sweep", quad_config_path, "--vary", "mu=1,2,3"]) == cli.EXIT_INPUT


class TestCertify:
    def test_identity_passes(self, capsys):
        assert run_cli(["certify", "identity", "--d", "8", "--trials", "10000"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_rand_one_all_coordinates(self, capsys):
        code = run_cli(["certify", "rand_k", "--d", "10", "--k", "1",
                        "--trials", "20000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "variance ratio" in out

    def test_misdeclared_omega_fails(self, capsys):
        code = run_cli(["certify", "rand_k", "--d", "10", "--k", "1",
                        "--trials", "20000", "--declared-omega", "1.0"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_compressor_exits_2(self):
        assert run_cli(["certify", "topk", "--trials", "10000"]) == cli.EXIT_INPUT

    def test_too_few_trials_exits_2(self):
        assert run_cli(["certify", "identity", "--trials", "100"]) == cli.EXIT_INPUT


class TestPlot:
    @pytest.fixture
    def trace_csvs(self, quad_config_path, tmp_path):
        out = tmp_path / "traces"
        run_cli(["run", quad_config_path, "--out", str(out)])
        return sorted(str(p) for p in out.glob("*.csv"))

    def test_svg_structure(self, trace_csvs, tmp_path, capsys):
        svg = tmp_path / "plot.svg"
        assert run_cli(["plot", *trace_csvs, "--y", "lyapunov",
                        "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 1   # both seeds share one series key
        assert 'class="legend"' in text
        assert "1e-" in text    # decade tick labels on the log axis

    def test_two_series_two_polylines(self, quad_config_path, tmp_path):
        extra = tmp_path / "two.ini"
        extra.write_text(QUAD_CONFIG + "\n[algo:plain]\nalgorithm = locodl\n"
                         "compressor = identity\n")
        out = tmp_path / "t2"
        run_cli(["run", str(extra), "--out", str(out), "--seeds", "0"])
        csvs = sorted(str(p) for p in out.glob("*.csv"))
        svg = tmp_path / "two.svg"
        assert run_cli(["plot", *csvs, "--y", "lyapunov", "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.count("<polyline") == 2
        assert text.count('<text') >= 2

    def test_schema_mismatch_exits_2(self, tmp_path):
        bogus = tmp_path / "bogus.csv"
        bogus.write_text("a,b\n1,2\n")
        assert run_cli(["plot", str(bogus), "--out", str(tmp_path / "x.svg")]) \
            == cli.EXIT_INPUT

    def test_missing_csv_exits_2(self, tmp_path):
        assert run_cli(["plot", str(tmp_path / "none.csv"),
                        "--out", str(tmp_path / "x.svg")]) == cli.EXIT_INPUT


class TestEntry:
    def test_entry_raises_system_exit(self, quad_config_path, tmp_path):
        import sys
        argv = sys.argv
        sys.argv = ["locodl", "run", quad_config_path, "--out", str(tmp_path / "e")]
        try:
            with pytest.raises(SystemExit) as excinfo:
                cli.entry()
            assert excinfo.value.code == 0
        finally:
            sys.argv = argv
