"""CLI: config loading, run/sweep/certify/plot subcommands, exit codes."""

import csv
import math
import re
from array import array
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import GRAM_PAST_MEMORY
from locodl import cli, compressors, harness, svgplot
from locodl.errors import InputError

import oracle

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


DIRICHLET_CONFIG = """\
[problem]
source = dirichlet
d = 6
alpha = 1.0
n = 5
kappa = 10

[run]
stop_metric = sqdist
stop_ratio = 1e-3

[algo:loco]
algorithm = locodl
"""


# a second block whose compressor is refused, after the valid [algo:loco] (d = 8)
BAD_COMPRESSOR_BLOCKS = [
    pytest.param("\n[algo:plain]\nalgorithm = locodl\ncompressor = identity\nk = 3\n",
                 "compressor 'identity' takes no k, got k = 3", id="k_for_identity"),
    pytest.param("\n[algo:odd]\nalgorithm = locodl\ncompressor = bogus\n",
                 "unknown compressor 'bogus'", id="unknown"),
    pytest.param("\n[algo:sparse]\nalgorithm = locodl\ncompressor = rand_k\n",
                 "compressor 'rand_k' needs a k", id="no_k_for_rand_k"),
    pytest.param("\n[algo:sparse]\nalgorithm = locodl\ncompressor = rand_k\nk = 0\n",
                 "[algo:sparse] k = 0: rand_k needs 1 <= k <= d = 8", id="k_zero"),
    pytest.param("\n[algo:sparse]\nalgorithm = locodl\ncompressor = rand_k_natural\nk = 9\n",
                 "[algo:sparse] k = 9: rand_k_natural needs 1 <= k <= d = 8", id="k_above_d"),
]

# a second block whose schedule is refused, after the valid [algo:loco] (stop_metric = psi)
BAD_SCHEDULE_BLOCKS = [
    pytest.param("\n[algo:gd]\nalgorithm = gd\ncompressor = identity\n",
                 "[algo:gd] stop_metric psi is defined only for locodl", id="psi_for_gd"),
    pytest.param("\n[algo:gd]\nalgorithm = gd\np = 0.5\n",
                 "[algo:gd] p: gd takes only gamma", id="p_for_gd"),
    pytest.param("\n[algo:gd]\nalgorithm = gd\nchi = 0.3\n",
                 "[algo:gd] chi: gd takes only gamma", id="chi_for_gd"),
    pytest.param("\n[algo:sn]\nalgorithm = scaffnew\nrho = 0.5\n",
                 "[algo:sn] rho: scaffnew takes only gamma, p",
                 id="rho_for_scaffnew"),
    pytest.param("\n[algo:dn]\nalgorithm = diana\ncompressor = rand_k\nk = 2\np = 0.5\n",
                 "[algo:dn] p: diana takes only gamma", id="p_for_diana"),
]

# the quadratic config with a stop metric that baseline blocks may use
SQDIST_CONFIG = QUAD_CONFIG.replace("stop_metric = psi", "stop_metric = sqdist")

# a second block whose baseline override is refused (exit 3), after the valid [algo:loco]
BAD_BASELINE_OVERRIDES = [
    pytest.param("\n[algo:g]\nalgorithm = gd\ngamma = 0\n",
                 "[algo:g] gamma = 0.0: gd needs a finite positive gamma", id="gd_gamma_zero"),
    pytest.param("\n[algo:g]\nalgorithm = gd\ngamma = nan\n",
                 "[algo:g] gamma = nan: gd needs a finite positive gamma", id="gd_gamma_nan"),
    pytest.param("\n[algo:d]\nalgorithm = diana\ncompressor = rand_k\nk = 2\ngamma = -1\n",
                 "[algo:d] gamma = -1.0: diana needs a finite positive gamma",
                 id="diana_gamma_negative"),
    pytest.param("\n[algo:s]\nalgorithm = scaffnew\ngamma = inf\n",
                 "[algo:s] gamma = inf: scaffnew needs a finite positive gamma",
                 id="scaffnew_gamma_inf"),
    pytest.param("\n[algo:s]\nalgorithm = scaffnew\np = 0\n",
                 "[algo:s] p = 0.0: scaffnew needs 0 < p <= 1", id="scaffnew_p_zero"),
    pytest.param("\n[algo:s]\nalgorithm = scaffnew\np = 1.5\n",
                 "[algo:s] p = 1.5: scaffnew needs 0 < p <= 1", id="scaffnew_p_above_one"),
]

# a second locodl block whose overrides break a convergence condition (exit 3), after a valid
# block: the condition needs the problem's L, so it is checked once the problem is built
BAD_LOCODL_OVERRIDES = [
    pytest.param("\n[algo:bad]\nalgorithm = locodl\nchi = 5\n",
                 "configuration error: [algo:bad] condition 2*rho - rho^2*(1+omega_av) - chi >= 0 "
                 "violated", id="chi_five"),
    pytest.param("\n[algo:bad]\nalgorithm = locodl\nchi = nan\n",
                 "configuration error: [algo:bad] condition 2*rho - rho^2*(1+omega_av) - chi >= 0 "
                 "violated", id="chi_nan"),
    pytest.param("\n[algo:bad]\nalgorithm = locodl\ngamma = 5\n",
                 "configuration error: [algo:bad] stepsize condition 0 < gamma < 2/L violated: "
                 "gamma=5.0, 2/L=2.0", id="gamma_above_two_over_l"),
]

# a second block that gives a compressor to a baseline that sends full vectors (exit 2)
BAD_BASELINE_COMPRESSORS = [
    pytest.param("\n[algo:g]\nalgorithm = gd\ncompressor = rand_k\nk = 2\n",
                 "[algo:g] compressor = rand_k: gd sends full vectors, so it takes only identity",
                 id="rand_k_for_gd"),
    pytest.param("\n[algo:s]\nalgorithm = scaffnew\ncompressor = natural\n",
                 "[algo:s] compressor = natural: scaffnew sends full vectors, so it takes only "
                 "identity", id="natural_for_scaffnew"),
]

# a key no section of its kind takes, each in an otherwise valid config
UNKNOWN_KEYS = [
    pytest.param("kappa = 100", "kapa = 1e4", "[problem] kapa is not a known key", id="problem"),
    pytest.param("stop_ratio = 1e-6", "stop_ratoi = 1e-6", "[run] stop_ratoi is not a known key",
                 id="run"),
    pytest.param("compressor = rand_k\nk = 2", "compresor = rand_k\nk = 2",
                 "[algo:loco] compresor is not a known key", id="algo"),
    pytest.param("d = 8", "d = 8\npath = data.txt",
                 "[problem] path is not a known key (choose from source, d, n, kappa, data_seed)",
                 id="path_for_quadratic"),
    pytest.param("[run]", "[runs]", "unknown section [runs]", id="section"),
    pytest.param("[problem]", "[DEFAULT]\nseeds = 1\n\n[problem]", "unknown section [DEFAULT]",
                 id="default_section"),
]


def libsvm_config(tmp_path):
    """A LibSVM config (40 rows, d = 2) whose [algo:a] block is valid."""
    data_path = tmp_path / "tiny.libsvm"
    data_path.write_text("".join(f"{1 if i % 2 else -1} 1:1 2:{i % 3}\n" for i in range(40)))
    return (f"[problem]\nsource = libsvm\npath = {data_path}\nn = 4\nkappa = 10\n\n"
            "[run]\nstop_metric = sqdist\nstop_ratio = 1e-3\n\n"
            "[algo:a]\nalgorithm = locodl\ncompressor = identity\n")


# a block whose k exceeds the d of the LibSVM file, known only once the file is read
LIBSVM_K_ABOVE_D = ("\n[algo:b]\nalgorithm = locodl\ncompressor = rand_k\nk = 3\n",
                    "[algo:b] k = 3: rand_k needs 1 <= k <= d = 2")


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

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--vary", "kappa=10,100"]],
                             ids=["run", "sweep"])
    def test_missing_dataset_exits_2_names_it_and_writes_nothing(self, tmp_path, capsys,
                                                                 command):
        # the load fails while every block is prepared, before the output directory exists
        data_path = tmp_path / "absent.libsvm"
        path = tmp_path / "libsvm.ini"
        path.write_text(f"[problem]\nsource = libsvm\npath = {data_path}\nn = 4\nkappa = 10\n\n"
                        "[algo:a]\nalgorithm = locodl\n")
        out = tmp_path / "out"
        argv = [command[0], str(path), *command[1:], "--out", str(out)]
        assert run_cli(argv) == cli.EXIT_INPUT
        assert f"{data_path}: No such file or directory" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("old, new, message", [
        ("n = 4", "n = 0", "n must be at least 1, got 0"),
        ("cadence = 50", "cadence = 0", "cadence must be at least 1, got 0"),
        ("cadence = 50", "cadence = 50\nround_cadence = 0",
         "round_cadence must be at least 1, got 0"),
        ("d = 8", "d = 0", "quadratic d must be at least 1, got 0"),
        ("kappa = 100", "kappa = 0", "kappa must be finite and at least 1, got 0.0"),
        ("kappa = 100", "kappa = 0.5", "kappa must be finite and at least 1, got 0.5"),
        ("kappa = 100", "kappa = inf", "kappa must be finite and at least 1, got inf"),
        ("data_seed = 3", "data_seed = -1", "data_seed must be non-negative, got -1"),
        ("seeds = 0,1", "seeds = 0,-1", "[run] seeds = '0,-1': seeds must be non-negative"),
        ("seeds = 0,1", "seeds = ,", "[run] seeds = ',' names no seed"),
        ("seeds = 0,1", "seeds = 0,1,0", "[run] seeds = '0,1,0' repeats a seed"),
        ("stop_ratio = 1e-6", "stop_ratio = nan",
         "stop_ratio must be finite and positive, got nan"),
        ("stop_ratio = 1e-6", "stop_ratio = inf",
         "stop_ratio must be finite and positive, got inf"),
        ("stop_ratio = 1e-6", "stop_ratio = 0",
         "stop_ratio must be finite and positive, got 0.0"),
        ("max_iters = 100000", "max_iters = -1", "max_iters must be non-negative, got -1"),
    ], ids=["n", "cadence", "round_cadence", "d", "kappa_zero", "kappa_half", "kappa_inf",
            "data_seed", "seeds", "seeds_empty", "seeds_repeated", "stop_ratio_nan",
            "stop_ratio_inf", "stop_ratio_zero", "max_iters"])
    def test_out_of_range_key_exits_2_and_names_it(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "bad.ini"
        path.write_text(QUAD_CONFIG.replace(old, new, 1))
        assert run_cli(["run", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["dirichlet", "libsvm"])
    def test_logistic_kappa_one_exits_2_and_names_it(self, tmp_path, capsys, source):
        problem = "source = dirichlet\nd = 6\nalpha = 1.0\n"
        if source == "libsvm":
            data_path = tmp_path / "data.libsvm"
            data_path.write_text("".join(f"{1 if i % 2 else -1} 1:1 2:{i % 3}\n"
                                         for i in range(40)))
            problem = f"source = libsvm\npath = {data_path}\n"
        path = tmp_path / "bad.ini"
        path.write_text(DIRICHLET_CONFIG.replace("source = dirichlet\nd = 6\nalpha = 1.0\n",
                                                 problem).replace("kappa = 10", "kappa = 1"))
        assert run_cli(["run", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
        assert "kappa must exceed 1 for a logistic problem, got 1.0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_dirichlet_alpha_exits_2_and_names_it(self, tmp_path, capsys, alpha):
        path = tmp_path / "bad.ini"
        path.write_text(DIRICHLET_CONFIG.replace("alpha = 1.0", f"alpha = {alpha}"))
        assert run_cli(["run", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
        assert f"alpha must be finite and positive, got {alpha}" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", UNKNOWN_KEYS)
    def test_unknown_key_exits_2_and_names_it(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "bad.ini"
        path.write_text(QUAD_CONFIG.replace(old, new, 1))
        out = tmp_path / "o"
        assert run_cli(["run", str(path), "--out", str(out)]) == cli.EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("[problem]\nsource = quadratic\n[problem]\n", "section 'problem' already exists"),
        ("[problem]\nn = 2\nn = 3\n", "option 'n' in section 'problem' already exists"),
        ("[problem]\nn\n", "Source contains parsing errors"),
        ("n = 2\n[problem]\n", "File contains no section headers"),
        ("[problem]\nsource = quadratic\nd = 4\nn = 2\n[run]\nstop_metric = 100%\n[algo:a]\n",
         "unknown stop metric '100%'"),
    ], ids=["duplicate_section", "duplicate_key", "key_without_value", "no_section", "percent"])
    def test_malformed_ini_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        out = tmp_path / "o"
        assert run_cli(["run", str(path), "--out", str(out)]) == cli.EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_exits_2_and_names_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes(QUAD_CONFIG.encode() + b"# caf\xe9\n")
        out = tmp_path / "o"
        assert run_cli(["run", str(path), "--out", str(out)]) == cli.EXIT_INPUT
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_required_keys_alone_give_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.ini"
        path.write_text("[problem]\nsource = quadratic\nd = 4\nn = 2\n[algo:a]\n")
        configs, out = cli.load_config(str(path))
        assert configs == [harness.ExperimentConfig(problem={"source": "quadratic", "d": 4},
                                                    n=2, label="a")]
        assert out is None

    def test_overrides_are_held_in_schedule_order(self, tmp_path):
        path = tmp_path / "overrides.ini"
        path.write_text(QUAD_CONFIG + "p = 0.5\nrho = 0.4\ngamma = 0.1\nchi = 0.2\n")
        (config,) = cli.load_config(str(path))[0]
        assert list(config.overrides.items()) \
            == [("gamma", 0.1), ("chi", 0.2), ("rho", 0.4), ("p", 0.5)]

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
    @pytest.mark.parametrize("algo, cadence", [
        ("algorithm = gd\n", "cadence = 50\n"),
        ("algorithm = diana\ncompressor = rand_k\nk = 2\n", "cadence = 50\n"),
        # no record falls before the overflowed gradient difference reaches the compressor
        ("algorithm = diana\ncompressor = rand_k\nk = 2\n",
         "cadence = 5000\nround_cadence = 5000\n"),
    ], ids=["gd", "diana", "diana_unrecorded"])
    def test_diverging_run_exits_4(self, tmp_path, capsys, algo, cadence):
        path = tmp_path / "diverge.ini"
        path.write_text(QUAD_CONFIG.replace("stop_metric = psi", "stop_metric = sqdist")
                        .replace("cadence = 50\n", cadence)
                        .replace("algorithm = locodl\ncompressor = rand_k\nk = 2\n",
                                 algo + "gamma = 5\n"))
        assert run_cli(["run", str(path), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_CONVERGENCE
        name = algo.split("\n")[0].split(" = ")[1]
        assert re.search(rf"{name} run diverged: .* at iteration \d+$",
                         capsys.readouterr().err.strip())

    def test_non_finite_libsvm_value_exits_2_and_names_the_line(self, tmp_path, capsys):
        data_path = tmp_path / "nan.libsvm"
        rows = [f"{1 if i % 2 else -1} 1:1 2:{i % 3}\n" for i in range(40)]
        rows[6] = "+1 1:nan 2:1\n"
        data_path.write_text("".join(rows))
        config = tmp_path / "nan.ini"
        config.write_text(f"[problem]\nsource = libsvm\npath = {data_path}\nn = 4\n"
                          "kappa = 10\n\n[algo:loco]\nalgorithm = locodl\n")
        assert run_cli(["run", str(config), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
        assert f"{data_path}: line 7: non-finite feature value '1:nan'" \
            in capsys.readouterr().err

    def test_libsvm_index_too_large_for_an_array_exits_2_and_names_the_line(self, tmp_path,
                                                                              capsys):
        data_path = tmp_path / "huge.libsvm"
        rows = [f"{1 if i % 2 else -1} 1:1 2:{i % 3}\n" for i in range(40)]
        rows[4] = "+1 1:1 99999999999999999999:1\n"
        data_path.write_text("".join(rows))
        config = tmp_path / "huge.ini"
        config.write_text(f"[problem]\nsource = libsvm\npath = {data_path}\nn = 4\n"
                          "kappa = 10\n\n[algo:loco]\nalgorithm = locodl\n")
        assert run_cli(["run", str(config), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
        assert (f"{data_path}: line 5: feature index 99999999999999999999 is too large"
                in capsys.readouterr().err)

    @GRAM_PAST_MEMORY
    def test_libsvm_index_too_large_for_its_gram_exits_2_and_names_the_line(self, tmp_path,
                                                                             capsys):
        # 4 rows of a million columns fit; the d x d Gram that sets mu (7.28 TiB) does not
        data_path = tmp_path / "wide.libsvm"
        data_path.write_text("-1 1:1\n1 1:1 1000000:1\n-1 2:1\n1 3:1\n")
        config = tmp_path / "wide.ini"
        config.write_text(f"[problem]\nsource = libsvm\npath = {data_path}\nn = 2\n"
                          "kappa = 10\n\n[run]\nstop_metric = sqdist\n\n"
                          "[algo:gd]\nalgorithm = gd\n")
        assert run_cli(["run", str(config), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {data_path}: line 2: feature index 1000000 is too large: "
            "its 1000000 x 1000000 Gram entries do not fit in memory\n")

    def test_libsvm_label_error_names_the_file(self, tmp_path, capsys):
        data_path = tmp_path / "labels.libsvm"
        data_path.write_text("".join(f"{i % 3} 1:1 2:{i}\n" for i in range(40)))
        config = tmp_path / "labels.ini"
        config.write_text(f"[problem]\nsource = libsvm\npath = {data_path}\nn = 4\n"
                          "kappa = 10\n\n[algo:loco]\nalgorithm = locodl\n")
        assert run_cli(["run", str(config), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
        assert f"{data_path}: unsupported label alphabet" in capsys.readouterr().err

    def test_non_utf8_libsvm_file_exits_2_and_names_it(self, tmp_path, capsys):
        config = tmp_path / "latin1.ini"
        config.write_text(libsvm_config(tmp_path))
        with open(tmp_path / "tiny.libsvm", "ab") as fh:
            fh.write(b"+1 1:1 2:1 # caf\xe9\n")
        assert run_cli(["run", str(config), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
        assert f"{tmp_path / 'tiny.libsvm'}: not UTF-8 text" in capsys.readouterr().err

    def test_libsvm_path_that_is_a_directory_exits_2_and_names_it(self, tmp_path, capsys):
        data_path = tmp_path / "dir.libsvm"
        data_path.mkdir()
        config = tmp_path / "dir.ini"
        config.write_text(f"[problem]\nsource = libsvm\npath = {data_path}\nn = 4\n"
                          "kappa = 10\n\n[algo:loco]\nalgorithm = locodl\n")
        assert run_cli(["run", str(config), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
        assert f"{data_path}: Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--vary", "kappa=20,60,200"]])
    def test_out_that_is_a_file_exits_2_before_any_run(self, quad_config_path, tmp_path, capsys,
                                                       monkeypatch, command):
        def refuse(*args):
            raise AssertionError("a run started before --out was checked")

        monkeypatch.setattr(harness, "run_single", refuse)
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli([command[0], quad_config_path, *command[1:], "--out", str(out)]) \
            == cli.EXIT_INPUT
        assert f"File exists: '{out}'" in capsys.readouterr().err

    def test_seeds_override(self, quad_config_path, tmp_path):
        out = tmp_path / "s"
        run_cli(["run", quad_config_path, "--out", str(out), "--seeds", "7"])
        assert sorted(p.name for p in out.glob("*.csv")) == ["loco_rand_k2_7.csv"]

    def test_negative_seeds_flag_exits_2_and_names_it(self, quad_config_path, tmp_path,
                                                       capsys):
        out = tmp_path / "s"
        assert run_cli(["run", quad_config_path, "--out", str(out), "--seeds=-1"]) \
            == cli.EXIT_INPUT
        assert "--seeds = '-1': seeds must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seeds=,", "--seeds="])
    def test_empty_seeds_flag_exits_2_and_names_it(self, quad_config_path, tmp_path, capsys,
                                                    flag):
        out = tmp_path / "s"
        assert run_cli(["run", quad_config_path, "--out", str(out), flag]) == cli.EXIT_INPUT
        assert f"--seeds = {flag.split('=', 1)[1]!r} names no seed" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_seeds_flag_exits_2_and_names_it(self, quad_config_path, tmp_path,
                                                       capsys):
        out = tmp_path / "s"
        assert run_cli(["run", quad_config_path, "--out", str(out), "--seeds", "0,0"]) \
            == cli.EXIT_INPUT
        assert "--seeds = '0,0' repeats a seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block, message", BAD_COMPRESSOR_BLOCKS)
    def test_bad_compressor_exits_2_before_any_trace(self, tmp_path, capsys, block, message):
        self.assert_refused_before_any_trace(tmp_path, capsys, block, message)

    @pytest.mark.parametrize("block, message", BAD_SCHEDULE_BLOCKS)
    def test_bad_schedule_exits_2_before_any_trace(self, tmp_path, capsys, block, message):
        self.assert_refused_before_any_trace(tmp_path, capsys, block, message)

    def test_libsvm_k_above_d_exits_2_before_any_trace(self, tmp_path, capsys):
        self.assert_refused_before_any_trace(tmp_path, capsys, *LIBSVM_K_ABOVE_D,
                                             base=libsvm_config(tmp_path))

    @pytest.mark.parametrize("block, message", BAD_BASELINE_OVERRIDES)
    def test_bad_baseline_override_exits_3_before_any_trace(self, tmp_path, capsys, block,
                                                            message):
        self.assert_refused_before_any_trace(tmp_path, capsys, block, message,
                                             base=SQDIST_CONFIG, code=cli.EXIT_CONFIG)

    @pytest.mark.parametrize("block, message", BAD_LOCODL_OVERRIDES)
    def test_bad_locodl_override_exits_3_before_any_trace(self, tmp_path, capsys, block,
                                                          message):
        self.assert_refused_before_any_trace(tmp_path, capsys, block, message,
                                             base=QUAD_CONFIG.replace("[algo:loco]", "[algo:ok]"),
                                             code=cli.EXIT_CONFIG)

    @pytest.mark.parametrize("block, message", BAD_BASELINE_COMPRESSORS)
    def test_compressor_for_a_full_vector_baseline_exits_2_before_any_trace(self, tmp_path,
                                                                           capsys, block,
                                                                           message):
        self.assert_refused_before_any_trace(tmp_path, capsys, block, message, base=SQDIST_CONFIG)

    @staticmethod
    def assert_refused_before_any_trace(tmp_path, capsys, block, message, base=QUAD_CONFIG,
                                        code=cli.EXIT_INPUT):
        path = tmp_path / "bad.ini"
        path.write_text(base + block)
        out = tmp_path / "o"
        assert run_cli(["run", str(path), "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_run_stopped_by_max_iters_records_its_final_state(self, tmp_path, capsys):
        path = tmp_path / "short.ini"
        path.write_text(QUAD_CONFIG.replace("max_iters = 100000", "max_iters = 10")
                        .replace("cadence = 50", "cadence = 100\nround_cadence = 1000"))
        out = tmp_path / "o"
        assert run_cli(["run", str(path), "--out", str(out), "--seeds", "0"]) == 0
        with open(out / "loco_rand_k2_0.csv", newline="", encoding="utf-8") as fh:
            t = [row["t"] for row in csv.DictReader(fh)]
        assert t == ["0", "10"]
        table = capsys.readouterr().out.strip().split("\n")
        row = dict(zip(table[0].split("\t"), table[1].split("\t")))
        assert row["bits_to_target"] == "-"

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

    def test_summary_quotes_a_label_with_a_comma(self, tmp_path):
        path = tmp_path / "comma.ini"
        path.write_text(QUAD_CONFIG.replace("[algo:loco]", "[algo:a,b]"))
        out = tmp_path / "sweep"
        assert run_cli(["sweep", str(path), "--vary", "kappa=20,60,200",
                        "--out", str(out)]) == 0
        with open(out / "sweep_summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "vary", "value", "median_bits_to_target"]
        assert len(rows) == 5
        assert all(len(row) == 4 for row in rows)
        assert [row[:2] for row in rows[1:]] == [["a,b", "kappa"]] * 3 + [["a,b", "slope"]]

    def test_empty_vary_exits_2(self, quad_config_path):
        assert run_cli(["sweep", quad_config_path, "--vary", "kappa="]) == cli.EXIT_INPUT

    def test_unknown_vary_key_exits_2(self, quad_config_path):
        assert run_cli(["sweep", quad_config_path, "--vary", "mu=1,2,3"]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("vary, message", [
        ("kappa=abc,1,2", "--vary kappa = 'abc' is not a valid value"),
        ("n=4,5.5,6", "--vary n = '5.5' is not a valid value"),
    ])
    def test_bad_vary_value_exits_2_and_names_it(self, quad_config_path, tmp_path, capsys,
                                                  vary, message):
        assert run_cli(["sweep", quad_config_path, "--vary", vary,
                        "--out", str(tmp_path / "sweep")]) == cli.EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()   # refused before any run

    def test_zero_clients_exit_2_before_any_run(self, quad_config_path, tmp_path, capsys):
        assert run_cli(["sweep", quad_config_path, "--vary", "n=2,0,3",
                        "--out", str(tmp_path / "sweep")]) == cli.EXIT_INPUT
        assert "n must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_logistic_kappa_one_exits_2_before_any_run(self, tmp_path, capsys):
        path = tmp_path / "dirichlet.ini"
        path.write_text(DIRICHLET_CONFIG)
        assert run_cli(["sweep", str(path), "--vary", "kappa=10,1",
                        "--out", str(tmp_path / "sweep")]) == cli.EXIT_INPUT
        assert "kappa must exceed 1 for a logistic problem, got 1.0" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("block, message", BAD_COMPRESSOR_BLOCKS)
    def test_bad_compressor_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                   block, message):
        self.assert_refused_before_any_run(tmp_path, capsys, monkeypatch, block, message)

    @pytest.mark.parametrize("block, message", BAD_SCHEDULE_BLOCKS)
    def test_bad_schedule_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                 block, message):
        self.assert_refused_before_any_run(tmp_path, capsys, monkeypatch, block, message)

    def test_libsvm_k_above_d_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        self.assert_refused_before_any_run(tmp_path, capsys, monkeypatch, *LIBSVM_K_ABOVE_D,
                                           base=libsvm_config(tmp_path), vary="kappa=5,10,20")

    @pytest.mark.parametrize("block, message", BAD_BASELINE_OVERRIDES)
    def test_bad_baseline_override_exits_3_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                          block, message):
        self.assert_refused_before_any_run(tmp_path, capsys, monkeypatch, block, message,
                                           base=SQDIST_CONFIG, code=cli.EXIT_CONFIG)

    @pytest.mark.parametrize("block, message", BAD_LOCODL_OVERRIDES)
    def test_bad_locodl_override_exits_3_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                        block, message):
        self.assert_refused_before_any_run(tmp_path, capsys, monkeypatch, block, message,
                                           base=QUAD_CONFIG.replace("[algo:loco]", "[algo:ok]"),
                                           code=cli.EXIT_CONFIG)

    @pytest.mark.parametrize("block, message", BAD_BASELINE_COMPRESSORS)
    def test_compressor_for_a_full_vector_baseline_exits_2_before_any_run(self, tmp_path, capsys,
                                                                         monkeypatch, block,
                                                                         message):
        self.assert_refused_before_any_run(tmp_path, capsys, monkeypatch, block, message,
                                           base=SQDIST_CONFIG)

    @pytest.mark.parametrize("vary", ["kappa=10,10,20", "kappa=10,20,10,40", "kappa=1e2,100,20",
                                      "n=2,3,2"])
    def test_repeated_vary_value_exits_2_before_any_build(self, quad_config_path, tmp_path,
                                                          capsys, monkeypatch, vary):
        builds = []
        monkeypatch.setattr(harness, "build_problem", lambda config: builds.append(config))
        assert run_cli(["sweep", quad_config_path, "--vary", vary,
                        "--out", str(tmp_path / "sweep")]) == cli.EXIT_INPUT
        assert f"--vary {vary!r} repeats a {vary.split('=')[0]} value" in capsys.readouterr().err
        assert builds == []
        assert not (tmp_path / "sweep").exists()

    @staticmethod
    def assert_refused_before_any_run(tmp_path, capsys, monkeypatch, block, message,
                                      base=QUAD_CONFIG, vary="kappa=20,60,200",
                                      code=cli.EXIT_INPUT):
        path = tmp_path / "bad.ini"
        path.write_text(base + block)
        runs = []
        run_single = harness.run_single

        def counting(*args):
            runs.append(args[-1])
            return run_single(*args)

        monkeypatch.setattr(harness, "run_single", counting)
        assert run_cli(["sweep", str(path), "--vary", vary,
                        "--out", str(tmp_path / "sweep")]) == code
        assert message in capsys.readouterr().err
        assert runs == []


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

    def test_same_figures_as_criterion_1(self, capsys):
        # criterion 1 draws its probe from seed 0, then certifies rand-1 on d = 16 first
        rng = np.random.default_rng(0)
        probe = rng.standard_normal(16)
        probe[np.abs(probe) < 1e-3] = 1e-3
        spec = compressors.make_spec("rand_k", 16, k=1)
        _, bias_score, ratio = compressors.certification(spec, probe, 100_000, rng)
        assert run_cli(["certify", "rand_k", "--d", "16", "--k", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert f"max |mean - x| / (4 se)  = {bias_score:.4f}  [pass]" in out
        assert f"empirical variance ratio = {ratio:.6f}" in out

    def test_unknown_compressor_exits_2(self):
        assert run_cli(["certify", "topk", "--trials", "10000"]) == cli.EXIT_INPUT

    def test_negative_seed_exits_2_and_names_it(self, capsys):
        assert run_cli(["certify", "identity", "--seed", "-1"]) == cli.EXIT_INPUT
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, d", [(["identity", "--d", "0"], "0"),
                                         (["rand_k", "--d", "-3", "--k", "1"], "-3")],
                             ids=["identity_d_0", "rand_k_d_-3"])
    def test_nonpositive_d_exits_2_and_names_it(self, capsys, argv, d):
        assert run_cli(["certify", *argv]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert f"--d must be positive, got {d}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["identity", "natural", "l1_selection"])
    def test_k_for_a_kind_without_k_exits_2(self, capsys, kind):
        assert run_cli(["certify", kind, "--k", "3", "--trials", "10000"]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert f"compressor '{kind}' takes no k, got k = 3" in captured.err
        assert captured.out == ""

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
        assert text.count("<polyline") == 2   # one line per seed's trace
        root = ElementTree.fromstring(text)
        for line in root.iter("{http://www.w3.org/2000/svg}polyline"):
            xs = [float(point.split(",")[0]) for point in line.get("points").split()]
            assert xs == sorted(xs), "a line steps backward in x"
        assert text.count('class="legend"') == 2   # both seeds share one legend entry
        assert "1e-" in text    # decade tick labels on the log axis

    @pytest.mark.parametrize("x, y", [("t", "lyapunov"), ("bits_per_client", "sqdist_mean"),
                                      ("rounds", "obj_gap")])
    def test_svg_bytes_equal_the_oracle(self, trace_csvs, tmp_path, monkeypatch, x, y):
        calls = []
        render = svgplot.render

        def recording(series, **labels):
            calls.append((series, labels))
            return render(series, **labels)

        monkeypatch.setattr(svgplot, "render", recording)
        svg = tmp_path / "plot.svg"
        assert run_cli(["plot", *trace_csvs, "--x", x, "--y", y, "--out", str(svg)]) == 0
        [(series, labels)] = calls
        assert svg.read_bytes() == oracle.render(series, **labels).encode("utf-8")

    @pytest.mark.parametrize("series", [
        [("a", [([0.0, 1.0, math.nan, 3.0, math.inf, -math.inf, 6.0],
                 [1.0, math.nan, 2.0, math.inf, 3.0, 4.0, 1e-3])])],
        [("a", [([0.0, 1.0, 2.0, 3.0], [0.0, -1.0, 5.0, -0.0])]),
         ("b", [([1.0, 2.0], [0.0, -2.0])]),
         ("c", [([4.0, 5.0], [1e-12, 1e3]), ([], [])])],
        [("a", [([2.5, 2.5, 2.5], [1.0, 10.0, 100.0])])],
        [("a", [([7.0], [0.5])]), ("b", [([7.0], [0.5])])],
        [("a", [([-0.0, 0.0, 1.0], [3.0, 3.0, 3.0])])],
        [("a", [(array("d", [0.0, 1e6, 2e6]), array("d", [1e-300, 1e300, math.nan]))])],
    ], ids=["non_finite", "y_at_most_zero", "single_x", "single_point", "signed_zero_x",
            "arrays_and_extreme_y"])
    def test_render_equals_the_oracle_byte_for_byte(self, series):
        assert svgplot.render(series, x_label="x<", y_label="y&") \
            == oracle.render(series, x_label="x<", y_label="y&")

    @pytest.mark.parametrize("series", [[], [("a", [([1.0], [0.0])])],
                                        [("a", [([math.nan, 1.0], [1.0, -1.0])])]])
    def test_nothing_to_plot_raises_the_oracle_error(self, series):
        with pytest.raises(InputError) as raised:
            svgplot.render(series)
        with pytest.raises(InputError) as expected:
            oracle.render(series)
        assert str(raised.value) == str(expected.value)

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

    def test_svg_is_well_formed_for_any_label(self, trace_csvs, tmp_path):
        column = harness.CSV_COLUMNS.index("algorithm")
        with open(trace_csvs[0], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[column] = "gd<1>&co"
        odd = tmp_path / "odd.csv"
        with open(odd, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        svg = tmp_path / "odd.svg"
        assert run_cli(["plot", str(odd), "--x", "t", "--y", "lyapunov",
                        "--out", str(svg)]) == 0
        root = ElementTree.parse(svg).getroot()
        texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "gd<1>&co rand_k2" in texts
        assert {"t", "lyapunov"} <= set(texts)

    @pytest.fixture
    def locodl_and_gd_csvs(self, tmp_path):
        config = tmp_path / "mixed.ini"
        config.write_text(QUAD_CONFIG.replace("stop_metric = psi", "stop_metric = sqdist")
                          + "\n[algo:g]\nalgorithm = gd\n")
        out = tmp_path / "mixed"
        assert run_cli(["run", str(config), "--out", str(out), "--seeds", "0"]) == 0
        return str(out / "loco_rand_k2_0.csv"), str(out / "g_identity_0.csv")

    def test_points_without_a_finite_x_are_dropped(self, locodl_and_gd_csvs, tmp_path):
        # a baseline's lyapunov column is NaN, so only the locodl series has points
        svg = tmp_path / "mixed.svg"
        assert run_cli(["plot", *locodl_and_gd_csvs, "--x", "lyapunov",
                        "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.count("<polyline") == 1
        assert "nan" not in text

    def test_no_finite_x_exits_2_and_names_it(self, locodl_and_gd_csvs, tmp_path, capsys):
        svg = tmp_path / "gd.svg"
        assert run_cli(["plot", locodl_and_gd_csvs[1], "--x", "lyapunov",
                        "--out", str(svg)]) == cli.EXIT_INPUT
        assert "no point has a finite lyapunov" in capsys.readouterr().err
        assert not svg.exists()

    def test_schema_mismatch_exits_2(self, tmp_path):
        bogus = tmp_path / "bogus.csv"
        bogus.write_text("a,b\n1,2\n")
        assert run_cli(["plot", str(bogus), "--out", str(tmp_path / "x.svg")]) \
            == cli.EXIT_INPUT

    @pytest.mark.parametrize("flag", ["--x", "--y"])
    def test_unknown_column_exits_2_and_lists_columns(self, trace_csvs, tmp_path, capsys,
                                                       flag):
        svg = tmp_path / "bogus.svg"
        assert run_cli(["plot", *trace_csvs, flag, "bogus", "--out", str(svg)]) \
            == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{flag} 'bogus' is not a trace column" in err
        assert ", ".join(harness.CSV_COLUMNS) in err
        assert not svg.exists()

    def test_malformed_row_exits_2(self, trace_csvs, tmp_path):
        broken = tmp_path / "broken.csv"
        with open(trace_csvs[0], encoding="utf-8") as fh:
            broken.write_text(fh.read() + "locodl,quadratic,4\n")
        assert run_cli(["plot", str(broken), "--out", str(tmp_path / "x.svg")]) \
            == cli.EXIT_INPUT

    def test_libsvm_path_with_a_comma_round_trips(self, tmp_path):
        directory = tmp_path / "comma,dir"
        directory.mkdir()
        data_path = directory / "tiny.libsvm"
        rng = np.random.default_rng(8)
        data_path.write_text("".join(
            f"{rng.choice([-1, 1])} 1:{rng.random()!r} 2:{rng.random()!r} 4:{rng.random()!r}\n"
            for _ in range(200)))
        config = tmp_path / "libsvm.ini"
        config.write_text(f"[problem]\nsource = libsvm\npath = {data_path}\nn = 4\n"
                          "kappa = 10\n\n[run]\nstop_ratio = 1e-4\n\n"
                          "[algo:loco]\nalgorithm = locodl\n")
        out = tmp_path / "traces"
        assert run_cli(["run", str(config), "--out", str(out)]) == 0
        (trace,) = out.glob("*.csv")
        with open(trace, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        column = harness.CSV_COLUMNS.index("dataset")
        assert rows[0] == harness.CSV_COLUMNS
        assert len(rows) > 2
        assert all(len(row) == len(harness.CSV_COLUMNS) for row in rows)
        assert {row[column] for row in rows[1:]} == {str(data_path)}
        svg = tmp_path / "comma.svg"
        assert run_cli(["plot", str(trace), "--y", "lyapunov", "--out", str(svg)]) == 0
        assert svg.read_text().count("<polyline") == 1

    def test_missing_csv_exits_2(self, tmp_path):
        assert run_cli(["plot", str(tmp_path / "none.csv"),
                        "--out", str(tmp_path / "x.svg")]) == cli.EXIT_INPUT

    def test_directory_exits_2_and_names_it(self, tmp_path, capsys):
        assert run_cli(["plot", str(tmp_path), "--out", str(tmp_path / "x.svg")]) \
            == cli.EXIT_INPUT
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err

    def test_non_utf8_csv_exits_2_and_names_it(self, trace_csvs, tmp_path, capsys):
        latin1 = tmp_path / "latin1.csv"
        with open(trace_csvs[0], "rb") as fh:
            latin1.write_bytes(fh.read().replace(b"locodl", b"locodl\xe9", 1))
        assert run_cli(["plot", str(latin1), "--out", str(tmp_path / "x.svg")]) \
            == cli.EXIT_INPUT
        assert f"{latin1}: not UTF-8 text" in capsys.readouterr().err


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
