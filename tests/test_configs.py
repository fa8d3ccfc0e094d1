"""The shipped configs and README's grammar: each config loads, `run` prints the bits its
traces hold, and the grammar lists the keys `load_config` reads."""

import configparser
import csv
import os
import statistics

import pytest

from locodl import cli, harness
from locodl.algorithms import SCHEDULE_KEYS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "configs")
CONFIGS = sorted(name for name in os.listdir(CONFIG_DIR) if name.endswith(".ini"))


def read_trace(path):
    """A written CSV back as an ExperimentTrace of float columns (the varying ones)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return harness.ExperimentTrace(
        {name: [float(row[name]) for row in rows] for name in harness.VARYING_COLUMNS}, {})


@pytest.mark.parametrize("name", CONFIGS)
def test_config_loads(name, tmp_path, monkeypatch):
    # the a5a config names its dataset relative to the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "a5a").write_text(
        "".join(f"{1 if i % 2 else -1} 1:1 {2 + i % 5}:1\n" for i in range(200)))
    configs, _ = cli.load_config(os.path.join(CONFIG_DIR, name))
    assert configs
    assert len({config.label for config in configs}) == len(configs)


def test_run_table_gives_the_median_bits_of_the_written_traces(tmp_path, capsys):
    path = os.path.join(CONFIG_DIR, "quadratic_small.ini")
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_OK
    table = [line.split("\t") for line in capsys.readouterr().out.strip().split("\n")]
    rows = [dict(zip(table[0], cells)) for cells in table[1:]]
    configs, _ = cli.load_config(path)
    assert [row["label"] for row in rows] == [config.label for config in configs]
    for config, row in zip(configs, rows):
        bits = [harness.bits_to_target(read_trace(out / f"{config.label}_{row['compressor']}"
                                                        f"_{seed}.csv"),
                                       config.stop_ratio, config.stop_column)
                for seed in config.seeds]
        assert row["bits_to_target"] == str(statistics.median(bits))


def test_readme_grammar_lists_the_keys_load_config_reads():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    grammar = readme.split("### Config grammar", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(grammar)
    assert parser.sections() == ["problem", "run", "algo:mylabel"]
    assert set(parser["problem"]) == set(cli.PROBLEM_FIELDS).union(*cli.SOURCE_KEYS.values())
    assert list(parser["run"]) == list(cli.RUN_KEYS)
    assert list(parser["algo:mylabel"]) == list(cli.ALGO_KEYS) \
        == ["algorithm", "compressor", "k", *SCHEDULE_KEYS["locodl"]]
