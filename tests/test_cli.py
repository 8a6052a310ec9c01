import argparse
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FUZZ_EXAMPLES, VALUE_TEXT, method_lines, text_file_bytes
from mimoshare import cli, csi
from mimoshare.cli import _CONFIG_SPEC, _build_parser, _flag, _merge_config, main
from mimoshare.csi import (CsiDataset, FixedPointFormat, Layer, encode_csi_binary, load_capture,
                           sidecar_text)
from mimoshare.sched import SelectionMethod, SusParams
from mimoshare.sweeps import (CSV_HEADER, SweepRow, SweepTable, _RangeError, sweep_layer_grid,
                              sweep_total_users)
from mimoshare.zfmetrics import IllConditionedError, zf_combiner

DATA_DIR = Path(__file__).parent / "data"
MINI_CFG = str(DATA_DIR / "mini_grid.cfg")


def run_cli(*args):
    return main([str(a) for a in args])


def test_mini_grid_produces_expected_outputs(tmp_path):
    out = tmp_path / "run"
    assert run_cli("sweep-grid", "--config", MINI_CFG, "--out", out) == 0
    csv_lines = (out / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) == 1 + (5 * 5 - 1)
    assert (out / "summary.txt").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["alpha"] == 0.6
    assert meta["seed"] == 7
    assert meta["m_antennas"] == 16


def test_same_config_twice_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("sweep-grid", "--config", MINI_CFG, "--out", out_a) == 0
    assert run_cli("sweep-grid", "--config", MINI_CFG, "--out", out_b) == 0
    for name in ("sweep.csv", "summary.txt", "meta.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_tiny_grid_row_count(tmp_path):
    out = tmp_path / "tiny"
    code = run_cli(
        "sweep-grid", "--config", MINI_CFG, "--out", out,
        "--ground-range", "0:1", "--aerial-range", "0:1",
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 3 data rows


def test_flag_overrides_config_file(tmp_path):
    out = tmp_path / "o"
    assert run_cli("sweep-grid", "--config", MINI_CFG, "--out", out, "--seed", 2) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["seed"] == 2


def test_sweep_total_summary_mentions_methods(tmp_path):
    out = tmp_path / "total"
    code = run_cli(
        "sweep-total", "--config", MINI_CFG, "--out", out,
        "--k-range", "1:8", "--trials", "3",
    )
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "method=sus: peak sum_se=" in summary
    assert "method=random: peak sum_se=" in summary
    assert "max users with mean individual SE >= 8" in summary


def test_generate_then_ingest_roundtrip(tmp_path):
    gen_dir = tmp_path / "capture"
    assert run_cli("generate", "--config", MINI_CFG, "--out", gen_dir) == 0
    for name in ("terrestrial.bin", "terrestrial.bin.cfg", "aerial.bin", "aerial.bin.cfg"):
        assert (gen_dir / name).exists()

    ingest_dir = tmp_path / "ingested"
    code = run_cli(
        "ingest",
        "--csi", f"{gen_dir / 'terrestrial.bin'},{gen_dir / 'aerial.bin'}",
        "--out", ingest_dir,
    )
    assert code == 0
    meta = json.loads((ingest_dir / "meta.json").read_text())
    assert meta["records_terrestrial"] == 41
    assert meta["records_aerial"] == 41
    assert meta["mode"] == "ingest"

    # generate makes its own data: named captures are not read, and not its mode
    regen_dir = tmp_path / "regenerated"
    code = run_cli(
        "generate", "--config", MINI_CFG, "--out", regen_dir,
        "--csi", f"{gen_dir / 'terrestrial.bin'},{gen_dir / 'aerial.bin'}",
    )
    assert code == 0
    assert json.loads((regen_dir / "meta.json").read_text())["mode"] == "generate"

    # captured data drives a sweep through the same pipeline
    sweep_dir = tmp_path / "sweep"
    code = run_cli(
        "sweep-grid", "--config", MINI_CFG, "--out", sweep_dir,
        "--csi", f"{gen_dir / 'terrestrial.bin'},{gen_dir / 'aerial.bin'}",
        "--ground-range", "0:2", "--aerial-range", "0:2",
    )
    assert code == 0
    assert (sweep_dir / "sweep.csv").exists()


def test_generated_captures_keep_the_generators_timesteps(tmp_path):
    # a sidecar that wrote the interval as :g does (1.23457) gave 4 of the
    # 3,241 terrestrial timesteps 1 ms off the generator's, row 2965 first
    flags = ["--trajectory-length-m", "4", "--trajectory-speed-mps", "1",
             "--sample-interval-ms", "1.2345678"]
    assert run_cli("generate", "--out", tmp_path, *flags) == 0
    scenario = cli._scenario_from(_merge_config(_build_parser().parse_args(["generate", *flags])))
    _, (_, codes, timesteps), _ = csi._generated_source(scenario)
    for layer in Layer:
        captured = load_capture(tmp_path / f"{layer.value}.bin")
        np.testing.assert_array_equal(captured.timesteps_ms, timesteps[codes == layer.code])


def test_generated_sidecars_keep_the_snr_target_exactly(tmp_path):
    # written as :g writes it, 20.123456789 dB read back as 20.1235 while
    # meta.json kept it whole
    assert run_cli("generate", "--config", MINI_CFG, "--snr-db", "20.123456789",
                   "--out", tmp_path) == 0
    assert json.loads((tmp_path / "meta.json").read_text())["snr_db"] == 20.123456789
    for layer in Layer:
        lines = (tmp_path / f"{layer.value}.bin.cfg").read_text().splitlines()
        values = dict(line.split(" = ") for line in lines)
        assert float(values["snr_db"]) == 20.123456789


def test_truncated_capture_fails_without_partial_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(255))
    (tmp_path / "bad.bin.cfg").write_text("m_antennas = 64\nlayer = terrestrial\n")
    out = tmp_path / "out"
    code = run_cli("sweep-total", "--csi", bad, "--out", out, "--k-range", "1:4")
    assert code == 1
    assert not (out / "sweep.csv").exists()
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_knob = 3\n")
    assert run_cli("sweep-grid", "--config", cfg, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert "no_such_knob" in err
    assert f"{cfg}:1" in err


def test_bad_config_value_names_the_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nm_rows = eight\n")
    assert run_cli("sweep-grid", "--config", cfg, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err
    assert "'m_rows'" in err
    assert "'eight'" in err


def test_only_a_line_break_ends_a_config_line(tmp_path, capsys):
    # a form feed is a character of its line, so the bad value is seed's
    cfg = tmp_path / "ff.cfg"
    cfg.write_bytes(b"seed = 1\x0cm_rows = x\n")
    assert run_cli("sweep-grid", "--config", cfg, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert f"{cfg}:1:" in err and "'seed'" in err


def test_bad_structured_config_value_names_the_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nk_range = 30:3\n")
    assert run_cli("sweep-total", "--config", cfg, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err
    assert "'k_range'" in err


def test_cli_defaults_are_the_library_defaults():
    from mimoshare.cli import _build_parser, _merge_config, _scenario_from
    from mimoshare.csi import ScenarioConfig
    from mimoshare.sched import SusParams

    cfg = _merge_config(_build_parser().parse_args(["sweep-grid"]))
    assert _scenario_from(cfg) == ScenarioConfig()
    assert cfg["alpha"] == SusParams().alpha


@pytest.mark.parametrize("k_range, part", [("30:3,5", "'30:3'"), ("1:2:3", "'1:2:3'")])
def test_descending_range_is_rejected(k_range, part, tmp_path, capsys):
    out = tmp_path / "x"
    code = run_cli("sweep-total", "--config", MINI_CFG, "--out", out, "--k-range", k_range)
    assert code == 1
    assert part in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


# with a -1 pool count the ranges are checked after the pool build, and named the same way
@pytest.mark.parametrize("pool_flags", [[], ["--pool-aerial", "-1"]])
def test_grid_with_only_the_origin_cell_writes_nothing(pool_flags, tmp_path, capsys):
    out = tmp_path / "x"
    code = run_cli("sweep-grid", "--config", MINI_CFG, "--out", out,
                   "--ground-range", "0", "--aerial-range", "0", *pool_flags)
    assert code == 1
    assert "--ground-range, --aerial-range:" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_ingest_with_explicit_sidecars(tmp_path, capsys):
    gen_dir = tmp_path / "capture"
    assert run_cli("generate", "--config", MINI_CFG, "--out", gen_dir) == 0
    bins = f"{gen_dir / 'terrestrial.bin'},{gen_dir / 'aerial.bin'}"
    for layer in ("terrestrial", "aerial"):
        (gen_dir / f"{layer}.bin.cfg").rename(gen_dir / f"{layer}.side")
    sidecars = f"{gen_dir / 'terrestrial.side'},{gen_dir / 'aerial.side'}"
    assert run_cli("ingest", "--csi", bins, "--format", sidecars, "--out", tmp_path / "a") == 0
    meta = json.loads((tmp_path / "a" / "meta.json").read_text())
    assert (meta["records_terrestrial"], meta["records_aerial"]) == (41, 41)
    # the default sidecar names are gone, so ingesting without --format fails
    assert run_cli("ingest", "--csi", bins, "--out", tmp_path / "b") == 1
    default = gen_dir / "terrestrial.bin.cfg"
    assert (f"{default}: no such file (the default sidecar of capture "
            f"{gen_dir / 'terrestrial.bin'})") in capsys.readouterr().err


def test_unknown_pool_policy_is_rejected(tmp_path, capsys):
    out = tmp_path / "x"
    code = run_cli("sweep-grid", "--config", MINI_CFG, "--out", out, "--pool-policy", "unifrom")
    assert code == 1
    assert "unifrom" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_pool_count_minus_one_keeps_the_whole_layer(tmp_path):
    out = tmp_path / "all"
    code = run_cli(
        "sweep-grid", "--config", MINI_CFG, "--out", out,
        "--pool-terrestrial", "-1", "--ground-range", "0:1", "--aerial-range", "0:1",
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["pool_terrestrial"] == 41
    assert meta["pool_aerial"] == 10


def test_pool_count_below_minus_one_is_rejected(tmp_path, capsys):
    out = tmp_path / "x"
    code = run_cli("sweep-grid", "--config", MINI_CFG, "--out", out, "--pool-aerial", "-2")
    assert code == 1
    assert "--pool-aerial:" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["sweep-total", "generate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_snr_is_rejected_without_outputs(command, value, tmp_path, capsys):
    out = tmp_path / "x"
    assert run_cli(command, "--config", MINI_CFG, "--out", out, "--snr-db", value) == 1
    assert "--snr-db:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1e1", "-1.5E+1", "-.5"])
def test_negative_flag_value_reaches_its_caster(value, tmp_path):
    # argparse on its own reads -1e1 as an option: "expected one argument", exit 2
    out = tmp_path / "x"
    assert run_cli("sweep-grid", "--config", MINI_CFG, "--out", out, "--snr-db", value) == 0
    assert json.loads((out / "meta.json").read_text())["snr_db"] == float(value)


def test_a_config_file_that_sets_a_key_twice_names_both_lines(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seed = 1\nalpha = 0.5\nseed = 2\n")
    out = tmp_path / "x"
    assert run_cli("sweep-grid", "--config", cfg, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: 'seed' is set again; line 1 set it first\n"
    assert not out.exists()


def test_bad_config_file_snr_names_the_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nsnr_db = nan\n")
    assert run_cli("sweep-total", "--config", cfg, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err and "'snr_db'" in err and "--snr-db" not in err


def test_report_from_existing_table(tmp_path, capsys):
    out = tmp_path / "r1"
    assert run_cli("sweep-grid", "--config", MINI_CFG, "--out", out) == 0
    report_dir = tmp_path / "r2"
    code = run_cli(
        "report", "--table", out / "sweep.csv", "--out", report_dir, "--thresholds", "2,8"
    )
    assert code == 0
    text = (report_dir / "summary.txt").read_text()
    assert "method=sus_layered: peak sum_se=" in text
    assert ">= 2 bits/s/Hz" in text
    captured = capsys.readouterr().out
    assert "peak sum_se=" in captured


@pytest.mark.parametrize("seed", [7, 0, 1, 2, 3])  # 7 is mini_grid.cfg's own seed
@pytest.mark.parametrize(
    "command, flags",
    [("sweep-grid", ()), ("sweep-total", ("--k-range", "1:16", "--trials", "3"))],
    ids=["grid", "total"],
)
def test_report_round_trips_the_sweep_summary(command, flags, seed, tmp_path):
    # peaks and capacities recomputed from the written sweep.csv are the sweep's own
    sweep_dir, report_dir = tmp_path / "sweep", tmp_path / "report"
    thresholds = ("--thresholds", "1,2,4,8")
    assert run_cli(command, "--config", MINI_CFG, "--out", sweep_dir, "--seed", seed,
                   *thresholds, *flags) == 0
    assert run_cli("report", "--table", sweep_dir / "sweep.csv", "--out", report_dir,
                   *thresholds) == 0

    expected = method_lines(sweep_dir / "summary.txt")
    assert expected and method_lines(report_dir / "summary.txt") == expected


def test_report_rejects_foreign_csv(tmp_path):
    alien = tmp_path / "alien.csv"
    alien.write_text("a,b,c\n1,2,3\n")
    assert run_cli("report", "--table", alien, "--out", tmp_path / "x") == 1


def test_csv_floats_use_six_significant_digits(tmp_path):
    out = tmp_path / "digits"
    assert run_cli("sweep-grid", "--config", MINI_CFG, "--out", out) == 0
    for line in (out / "sweep.csv").read_text().splitlines()[1:]:
        sum_se = line.split(",")[5]
        mantissa = sum_se.replace(".", "").replace("-", "").lstrip("0")
        assert len(mantissa) <= 6
        assert "," not in sum_se and sum_se == sum_se.strip()


def test_cli_entry_point_runs_as_module(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "module"
    proc = subprocess.run(
        [sys.executable, "-m", "mimoshare.cli", "sweep-grid", "--config", MINI_CFG,
         "--out", str(out), "--ground-range", "0:1", "--aerial-range", "0:1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "sweep.csv").exists()


def test_importing_the_cli_loads_no_scipy():
    import subprocess
    import sys

    probe = "import sys, mimoshare.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_an_ingest_mode_stride_grid_builds_no_generator(tmp_path, monkeypatch):
    assert run_cli("generate", "--config", MINI_CFG, "--out", tmp_path / "capture") == 0
    captures = ",".join(str(tmp_path / "capture" / f"{layer.value}.bin") for layer in Layer)

    def no_generator(seed=None):
        raise AssertionError("a decoded stride sweep built a Generator")

    # stride pools and the layered grid draw nothing
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    out = tmp_path / "grid"
    assert run_cli("sweep-grid", "--config", MINI_CFG, "--csi", captures, "--out", out) == 0
    assert (out / "sweep.csv").exists()


def test_ingest_hashes_the_dataset_once(tmp_path, monkeypatch, capsys):
    gen_dir = tmp_path / "capture"
    assert run_cli("generate", "--config", MINI_CFG, "--out", gen_dir) == 0
    calls = []
    fingerprint = csi._fingerprint

    def counted(*args):
        calls.append(1)
        return fingerprint(*args)

    # the one digest helper, both where CsiDataset.fingerprint and where the CLI calls it
    monkeypatch.setattr(csi, "_fingerprint", counted)
    monkeypatch.setattr(cli, "_fingerprint", counted)
    capsys.readouterr()
    ingest_dir = tmp_path / "ingested"
    captures = f"{gen_dir / 'terrestrial.bin'},{gen_dir / 'aerial.bin'}"
    assert run_cli("ingest", "--csi", captures, "--out", ingest_dir) == 0
    meta = json.loads((ingest_dir / "meta.json").read_text())
    assert capsys.readouterr().out.strip().endswith(f"fingerprint {meta['dataset_fingerprint']}")
    assert len(calls) == 1


BAD_SWEEP_VALUES = [
    ("sweep-grid", "thresholds", "abc"),
    ("sweep-total", "thresholds", "8,nan8"),
    ("sweep-grid", "pool_policy", "unifrom"),
    ("sweep-grid", "pool_terrestrial", "-2"),
    ("sweep-total", "methods", "random,bogus"),
    ("sweep-total", "k_range", "1:x"),
    ("sweep-grid", "ground_range", "5:1"),
    ("sweep-grid", "aerial_range", ","),
    ("sweep-grid", "alpha", "2"),
    ("sweep-grid", "seed", "abc"),
    ("sweep-total", "carrier_hz", "nan"),
    ("sweep-grid", "trajectory_length_m", "inf"),
    ("generate", "k_range", "1:x"),  # every command checks every key, used or not
    ("sweep-total", "trials", "0"),
    ("sweep-grid", "seed", "-1"),
    ("sweep-grid", "snr_db", "inf"),
    ("sweep-total", "methods", "sus_layered"),
    ("sweep-grid", "thresholds", "nan"),
    ("sweep-total", "thresholds", "8,-inf"),
    ("sweep-grid", "rician_k_aerial_db", "-inf"),  # a negative value, not an option
    ("sweep-total", "methods", ","),
    # past mini_grid.cfg's 10/10 pools: checked against the pool counts before generating
    ("sweep-total", "k_range", "1:21"),
    ("sweep-grid", "ground_range", "0:11"),
    ("sweep-grid", "aerial_range", "11"),
    # a span of 10^12 fails as it is read, before its values are materialized
    ("sweep-total", "k_range", "1:1000000000000"),
    ("sweep-grid", "ground_range", "0:999999999999"),
]


@pytest.fixture
def no_dataset_work(monkeypatch):
    """Any generated or decoded block fails the command that asks for it.

    These are the only ways to a dataset's rows: resolving a source only
    reads sidecars and builds its columns.
    """
    def dataset_work(*args, **kwargs):
        raise AssertionError("dataset work started")

    for name in ("_generated_blocks", "_decoded_blocks"):
        monkeypatch.setattr(csi, name, dataset_work)


@pytest.mark.parametrize("command, key, value", BAD_SWEEP_VALUES)
def test_bad_sweep_value_fails_before_any_dataset_work(command, key, value, tmp_path, capsys,
                                                       no_dataset_work):
    out = tmp_path / "x"
    code = run_cli(command, "--config", MINI_CFG, "--out", out,
                   "--" + key.replace("_", "-"), value)
    assert code == 1
    err = capsys.readouterr().err
    assert f"--{key.replace('_', '-')}:" in err and "dataset work" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "sweep-total", "sweep-grid"])
def test_an_oversized_scenario_fails_before_generating(command, tmp_path, capsys,
                                                        no_dataset_work):
    # a 10^10-antenna array: its 8.4 million GiB dataset is never allocated
    out = tmp_path / "x"
    assert run_cli(command, "--m-rows", 100_000, "--m-cols", 100_000, "--out", out) == 1
    err = capsys.readouterr().err
    assert "over the 4 GiB bound" in err and "dataset work" not in err
    for key in ("m_rows", "m_cols", "trajectory_length_m", "trajectory_speed_mps",
                "sample_interval_ms"):
        assert key in err
    assert not out.exists()


# one channel of unit energy on 4 antennas, exact in the Q1.15 capture format,
# so the normalized pool holds these very bits
SAME_CHANNEL = np.array([0.5, 0.5j, -0.5, -0.5j])


@pytest.fixture
def same_channel_captures(tmp_path):
    """--csi value of two 3-record captures, one per layer, every record SAME_CHANNEL."""
    fmt = FixedPointFormat(m_antennas=len(SAME_CHANNEL))
    paths = []
    for layer in Layer:
        rows = np.tile(SAME_CHANNEL, (3, 1))
        dataset = CsiDataset._of(fmt.m_antennas, rows, np.arange(3),
                                 np.full(3, layer.code, np.int8), np.arange(3))
        path = tmp_path / f"{layer.value}.bin"
        path.write_bytes(encode_csi_binary(dataset, fmt))
        path.with_name(path.name + ".cfg").write_text(sidecar_text(fmt, layer))
        paths.append(str(path))
    return ",".join(paths)


@pytest.mark.parametrize(
    "command, flags, cell",
    [("sweep-total", ("--k-range", "1:2", "--trials", "1"), "cell (method=random, k=2, trial=0)"),
     ("sweep-grid", ("--ground-range", "0:1", "--aerial-range", "0:1"),
      "cell (k_ground=1, k_aerial=1)")],
    ids=["total", "grid"],
)
def test_an_ill_conditioned_cell_fails_the_sweep_by_name(command, flags, cell, tmp_path, capsys,
                                                        same_channel_captures):
    # two copies of one channel: K = 2 <= M = 4 passes every range check, and
    # the singular Gram fails the first two-user cell
    with pytest.raises(IllConditionedError) as singular:
        zf_combiner(np.stack([SAME_CHANNEL, SAME_CHANNEL]))
    out = tmp_path / "x"
    assert run_cli(command, "--csi", same_channel_captures, "--pool-terrestrial", 3,
                   "--pool-aerial", 3, "--out", out, *flags) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cell}: {singular.value}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [("sweep-total", ("--k-range", "16:17"), "--k-range: 17 users"),
     ("sweep-total", ("--k-range", "16:17", "--pool-terrestrial", "-1", "--pool-aerial", "-1"),
      "--k-range: 17 users"),
     ("sweep-grid", ("--ground-range", "0:10", "--aerial-range", "0:10"),
      "--ground-range, --aerial-range: 20 users")],
    ids=["total", "total-whole-layers", "grid"],
)
def test_a_schedule_past_the_antenna_count_fails_before_any_dataset_work(
        command, flags, message, tmp_path, capsys, no_dataset_work):
    # mini_grid.cfg's 4 x 4 array nulls at most 16 users, though its pools hold 20
    out = tmp_path / "x"
    assert run_cli(command, "--config", MINI_CFG, "--out", out, *flags) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message} in one schedule, more than 16 antennas can null (K > M)\n"
    assert not out.exists()


def test_a_capture_schedule_past_the_antenna_count_fails_before_decoding(
        tmp_path, capsys, same_channel_captures, no_dataset_work):
    # M comes from the captures' sidecars
    out = tmp_path / "x"
    assert run_cli("sweep-total", "--csi", same_channel_captures, "--pool-terrestrial", 3,
                   "--pool-aerial", 3, "--k-range", "5", "--out", out) == 1
    err = capsys.readouterr().err
    assert err == ("error: --k-range: 5 users in one schedule, more than 4 antennas can null "
                   "(K > M)\n")
    assert not out.exists()


def test_a_whole_layer_pool_names_its_range_before_decoding(tmp_path, capsys, no_dataset_work):
    # one all-zero terrestrial record: a -1 pool holds exactly it, so a range
    # past it is named by its flag, not as the all-zero dataset it decodes to
    fmt = FixedPointFormat(m_antennas=4)
    path = tmp_path / "m4.bin"
    path.write_bytes(bytes(fmt.bytes_per_record))
    (tmp_path / "m4.bin.cfg").write_text(sidecar_text(fmt, Layer.TERRESTRIAL))
    out = tmp_path / "x"
    assert run_cli("sweep-grid", "--csi", path, "--pool-terrestrial", -1, "--pool-aerial", -1,
                   "--ground-range", "0:2", "--aerial-range", 0, "--out", out) == 1
    assert capsys.readouterr().err == (
        "error: --ground-range: ground range 0..2 outside layer population 1\n")
    assert not out.exists()


def test_a_capture_error_comes_before_a_range_error(tmp_path, capsys, same_channel_captures):
    # the source is resolved, every capture checked, before any range
    first = same_channel_captures.split(",")[0]
    with open(first, "ab") as fh:
        fh.write(b"\0")
    out = tmp_path / "x"
    assert run_cli("sweep-total", "--csi", same_channel_captures, "--k-range", 99,
                   "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"error: {first}: length ")
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("sweep-total", ("--k-range", "1", "--trials", "1")),
    ("sweep-grid", ("--ground-range", "0:1", "--aerial-range", "0")),
])
def test_a_capture_sweep_reads_each_sidecar_once(command, flags, tmp_path, monkeypatch,
                                                 same_channel_captures):
    reads = []
    read_sidecar = cli.read_sidecar
    monkeypatch.setattr(cli, "read_sidecar", lambda path: reads.append(str(path))
                        or read_sidecar(path))
    assert run_cli(command, "--csi", same_channel_captures, "--pool-terrestrial", 3,
                   "--pool-aerial", 3, "--out", tmp_path / "x", *flags) == 0
    assert reads == [f"{path}.cfg" for path in same_channel_captures.split(",")]


@st.composite
def sweep_cases(draw):
    """(command, flags) of a sweep on a small generated scenario.

    M = m_rows x m_cols is 1 to 9, a layer holds 2 to 6 samples one second
    apart, and each pool count is -1 (the whole layer) or at most the layer.
    Each range ends near the smaller of its pool and M, inside or past it; a
    grid's cells may add up past M, and its only cell is sometimes (0, 0).
    """
    samples, rows, cols = draw(st.integers(2, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    counts = [draw(st.just(-1) | st.integers(1, samples) | st.just(0)) for _ in Layer]
    flags = ["--m-rows", rows, "--m-cols", cols, "--trajectory-length-m", samples - 1,
             "--trajectory-speed-mps", 1, "--sample-interval-ms", 1000,
             "--pool-terrestrial", counts[0], "--pool-aerial", counts[1],
             "--trials", draw(st.integers(1, 2)), "--seed", draw(st.integers(0, 3))]
    populations = [samples if count == -1 else count for count in counts]

    def span(lo, population):
        # an end at most 3 inside, or 2 past, the smaller of the pool and M
        end = min(population, rows * cols) + draw(st.integers(-3, 2))
        return f"{lo}:{max(lo, end)}"

    if draw(st.booleans()):
        lo = 0 if draw(st.integers(0, 5)) == 3 else 1
        return "sweep-total", [*flags, "--k-range", span(lo, sum(populations))]
    if draw(st.integers(0, 5)) == 3:
        return "sweep-grid", [*flags, "--ground-range", "0", "--aerial-range", "0"]
    return "sweep-grid", [*flags, "--ground-range", span(0, populations[0]),
                          "--aerial-range", span(0, populations[1])]


def library_sweep(command, cfg):
    """The library sweep of a CLI sweep's config on the CLI's own pool: a table or its error."""
    pool = cli._build_pool(cfg, cli._source(cfg))
    params = SusParams(alpha=cfg["alpha"])
    try:
        if command == "sweep-total":
            return sweep_total_users(pool, cfg["k_range"], methods=cfg["methods"],
                                     trials=cfg["trials"], seed=cfg["seed"], params=params)
        return sweep_layer_grid(pool, cfg["ground_range"], cfg["aerial_range"], params=params,
                                seed=cfg["seed"])
    except ValueError as exc:
        return exc


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=sweep_cases())
def test_one_range_rule_for_the_cli_and_the_library(tmp_path_factory, case):
    command, flags = case
    args = [str(flag) for flag in flags]
    out = tmp_path_factory.mktemp("rule") / "out"
    blocks = []
    generated_blocks = csi._generated_blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csi, "_generated_blocks",
                      lambda config: blocks.append(config) or generated_blocks(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, *args, "--out", str(out)])
    expected = library_sweep(command, _merge_config(_build_parser().parse_args([command, *args])))
    if isinstance(expected, SweepTable):
        assert code == 0
        assert (out / "sweep.csv").read_text() == expected.csv_text()
        return
    # no drawn range within M is ill-conditioned: the library fails on a range,
    # and the CLI fails on it before it generates a block, naming its flags
    assert isinstance(expected, _RangeError)
    assert code == 1 and not out.exists() and blocks == []
    assert err.getvalue() == f"error: {', '.join(map(_flag, expected.keys))}: {expected}\n"


def test_report_names_a_bad_threshold(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    table.write_text(CSV_HEADER + "\n")
    assert run_cli("report", "--table", table, "--out", tmp_path / "x", "--thresholds", "abc") == 1
    assert "thresholds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_row, bad_value",
    [
        ("bogus,3,2,1,0,10.5,3.5,", "bogus"),  # method
        ("sus,3,2,x1,0,10.5,3.5,", "x1"),  # int field
        ("sus,3,2,1,0,10.5,3.5e,", "3.5e"),  # float field
        ("sus,3,2,1,0,nan,nan,", "nan"),  # SE a sweep never writes
        ("sus,3,2,1,0,-3,-1,", "-3"),
        ("sus,3,2,1,0,inf,3.5,", "inf"),
        ("sus,5,1,1,0,10.5,2.1,", "k_total"),  # counts that do not add up
        ("sus,3,4,-1,0,10.5,3.5,", "k_aerial"),
        ("sus,3,2,1,0,10.5,3.5,3", "fallback_rank"),  # rank beyond the schedule
        ("sus,3,2,1,0,10.5,3.5,-1", "fallback_rank"),
        ("sus,3,2,1,0,10.5,3.5", "malformed row"),  # a field short
    ],
)
def test_report_names_the_file_and_line_of_a_bad_row(bad_row, bad_value, tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    table.write_text(f"{CSV_HEADER}\nsus,1,1,0,0,6.5,6.5,\n{bad_row}\n")
    assert run_cli("report", "--table", table, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert f"{table}:3:" in err and bad_value in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "rows, lineno",
    [
        (["sus,1,1,0,0,6.5,6\u20285,"], 2),  # the row that holds it
        (["sus,1,1,0,0,6.5,6.5,0\u2028", "sus,2,2,x,0,6.5,6.5,"], 3),  # a row after it
    ],
)
def test_a_unicode_line_separator_stays_inside_its_table_row(rows, lineno, tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    table.write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    assert run_cli("report", "--table", table, "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err.startswith(f"error: {table}:{lineno}: ")


def test_a_directory_in_place_of_an_output_fails_before_any_rename(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.txt").mkdir(parents=True)
    assert run_cli("sweep-grid", "--config", MINI_CFG, "--out", out) == 1
    assert str(out / "summary.txt") in capsys.readouterr().err
    assert sorted(path.name for path in out.iterdir()) == ["summary.txt"]


def test_a_failed_staging_removes_the_staged_files(tmp_path, monkeypatch):
    from mimoshare.cli import _write_outputs

    write_bytes = Path.write_bytes
    written = []

    def fail_on_the_second(path, payload):
        if written:
            raise OSError("disk full")
        written.append(path)
        return write_bytes(path, payload)

    monkeypatch.setattr(Path, "write_bytes", fail_on_the_second)
    with pytest.raises(OSError, match="disk full"):
        _write_outputs(tmp_path, {"sweep.csv": b"a", "meta.json": b"b"})
    assert written and list(tmp_path.iterdir()) == []


def test_a_writer_payload_that_fails_midway_leaves_no_file(tmp_path):
    from mimoshare.cli import _write_outputs

    def write(fh):  # as csi._write_encoded fails on a gain past full scale
        fh.write(b"\0\1")
        raise ValueError("gain component outside the representable fixed-point range")

    with pytest.raises(ValueError, match="representable"):
        _write_outputs(tmp_path, {"meta.json": b"{}", "terrestrial.bin": write})
    assert list(tmp_path.iterdir()) == []
    _write_outputs(tmp_path, {"aerial.bin": lambda fh: fh.write(b"\0\1" * 2)})
    assert (tmp_path / "aerial.bin").read_bytes() == b"\0\1" * 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["ingest"], "no capture files given (set csi=... or --csi)"),
        (["report"], "report needs an input table (set table=... or --table)"),
        (["ingest", "--csi", "a.bin,b.bin", "--format", "a.cfg"],
         "number of --format sidecars must match --csi captures"),
    ],
)
def test_a_command_without_its_inputs_names_the_flag(args, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*args, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_captures_that_disagree_on_the_antenna_count_are_rejected(tmp_path, capsys):
    bins = []
    for m in (4, 8):
        fmt = FixedPointFormat(m_antennas=m)
        path = tmp_path / f"m{m}.bin"
        path.write_bytes(bytes(fmt.bytes_per_record))
        (tmp_path / f"m{m}.bin.cfg").write_text(sidecar_text(fmt, Layer.TERRESTRIAL))
        bins.append(str(path))
    out = tmp_path / "out"
    assert run_cli("ingest", "--csi", ",".join(bins), "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: captures disagree on antenna count: {bins[1]} has M=8, "
        f"but the first capture {bins[0]} has M=4\n")
    assert not out.exists()


# reader -> the flags that make a command read the file, its name, and its
# bytes: each holds a byte that is not UTF-8 on line 2
NOT_UTF8_FILES = {
    "config": (["sweep-total", "--config"], "bad.cfg", b"seed = 1\n# caf\xe9\n"),
    "table": (["report", "--table"], "sweep.csv",
              CSV_HEADER.encode() + b"\r\nsus,1,1,0,0,6.5,6\xff.5,\n"),
    "sidecar": (["ingest", "--csi", "cap.bin", "--format"], "cap.bin.cfg",
                b"m_antennas = 4\rlayer = a\xfferial\n"),
}


@pytest.mark.parametrize("reader", NOT_UTF8_FILES)
def test_a_byte_that_is_not_utf8_names_the_file_and_line(reader, tmp_path, capsys):
    flags, name, data = NOT_UTF8_FILES[reader]
    path = tmp_path / name
    path.write_bytes(data)
    out = tmp_path / "out"
    assert run_cli(*flags, path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: not UTF-8 text: ")
    assert "can't decode byte" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def any_config(tmp_path_factory):
    """A config file's path, and the parsed arguments of a report that reads it."""
    path = tmp_path_factory.mktemp("fuzz") / "any.cfg"
    return path, _build_parser().parse_args(["report", "--config", str(path)])


@settings(derandomize=True, deadline=None, max_examples=FUZZ_EXAMPLES)
@given(data=text_file_bytes(st.tuples(st.sampled_from(list(_CONFIG_SPEC)), VALUE_TEXT)
                            .map(" = ".join)))
def test_any_config_file_is_read_or_named(any_config, data):
    path, args = any_config
    path.write_bytes(data)
    try:
        _merge_config(args)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:")


@pytest.fixture(scope="module")
def report_args():
    """The parsed arguments of a report given no flag."""
    return _build_parser().parse_args(["report"])


@settings(derandomize=True, deadline=None, max_examples=FUZZ_EXAMPLES)
@given(key=st.sampled_from(list(_CONFIG_SPEC)), value=VALUE_TEXT | st.text(max_size=12))
def test_any_flag_value_is_read_or_named(report_args, key, value):
    args = argparse.Namespace(**{**vars(report_args), key: value})
    try:
        _merge_config(args)
    except ValueError as exc:
        assert str(exc).startswith(f"{_flag(key)}: ")


# SE values that differ in memory but are equal as written at 6 significant
# digits, among them the thresholds below
TIED_SE = st.sampled_from([8.0, 100.0, 12.3457]).flatmap(
    lambda se: st.sampled_from([se * (1 - 3e-7), se, se * (1 + 3e-7)]))
TIED_THRESHOLDS = "8,100,12.3457"


@st.composite
def tied_tables(draw):
    """Sweep tables whose peaks and capacities can tie only once written."""
    rows = []
    for method in draw(st.sets(st.sampled_from(SelectionMethod), min_size=1)):
        for _ in range(draw(st.integers(1, 6))):
            k_ground = draw(st.integers(0, 3))
            k_aerial = draw(st.integers(0 if k_ground else 1, 3))
            rows.append(SweepRow(method, k_ground + k_aerial, k_ground, k_aerial,
                                 trial=draw(st.integers(0, 2)), sum_se=draw(TIED_SE),
                                 mean_individual_se=draw(TIED_SE), fallback_rank=None))
    return SweepTable.from_rows(rows, meta={"sweep": "tied"})


@pytest.fixture(scope="module")
def tied_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tied")


# each example runs two commands, so it takes a third of the fuzz budget
@settings(derandomize=True, deadline=None, max_examples=FUZZ_EXAMPLES // 3)
@given(table=tied_tables())
def test_report_repeats_the_summary_of_a_table_with_written_ties(tied_dir, table):
    # the sweep is stubbed to return the table; summary.txt must follow from sweep.csv alone
    sweep_dir, report_dir = tied_dir / "sweep", tied_dir / "report"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_build_pool", lambda cfg, source: None)
        patch.setattr(cli, "sweep_total_users", lambda pool, k_range, **kwargs: table)
        assert run_cli("sweep-total", "--out", sweep_dir, "--thresholds", TIED_THRESHOLDS) == 0
    assert run_cli("report", "--table", sweep_dir / "sweep.csv", "--out", report_dir,
                   "--thresholds", TIED_THRESHOLDS) == 0
    assert method_lines(report_dir / "summary.txt") == method_lines(sweep_dir / "summary.txt")
