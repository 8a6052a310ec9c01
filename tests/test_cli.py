import json
from pathlib import Path

import pytest

from mimoshare.cli import main
from mimoshare.sweeps import CSV_HEADER

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

    # captured data drives a sweep through the same pipeline
    sweep_dir = tmp_path / "sweep"
    code = run_cli(
        "sweep-grid", "--config", MINI_CFG, "--out", sweep_dir,
        "--csi", f"{gen_dir / 'terrestrial.bin'},{gen_dir / 'aerial.bin'}",
        "--ground-range", "0:2", "--aerial-range", "0:2",
    )
    assert code == 0
    assert (sweep_dir / "sweep.csv").exists()


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


def test_descending_range_is_rejected(tmp_path, capsys):
    out = tmp_path / "x"
    code = run_cli("sweep-total", "--config", MINI_CFG, "--out", out, "--k-range", "30:3,5")
    assert code == 1
    assert "'30:3'" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_ingest_with_explicit_sidecars(tmp_path):
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
    assert "pool_aerial" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["sweep-total", "generate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_snr_is_rejected_without_outputs(command, value, tmp_path, capsys):
    out = tmp_path / "x"
    assert run_cli(command, "--config", MINI_CFG, "--out", out, "--snr-db", value) == 1
    assert "snr_db" in capsys.readouterr().err
    assert not out.exists()


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


def test_ingest_hashes_the_dataset_once(tmp_path, monkeypatch, capsys):
    from mimoshare.csi import CsiDataset

    gen_dir = tmp_path / "capture"
    assert run_cli("generate", "--config", MINI_CFG, "--out", gen_dir) == 0
    calls = []
    fingerprint = CsiDataset.fingerprint
    monkeypatch.setattr(
        CsiDataset, "fingerprint", lambda self: calls.append(1) or fingerprint(self)
    )
    capsys.readouterr()
    ingest_dir = tmp_path / "ingested"
    csi = f"{gen_dir / 'terrestrial.bin'},{gen_dir / 'aerial.bin'}"
    assert run_cli("ingest", "--csi", csi, "--out", ingest_dir) == 0
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
]


@pytest.mark.parametrize("command, key, value", BAD_SWEEP_VALUES)
def test_bad_sweep_value_fails_before_any_dataset_work(command, key, value, tmp_path,
                                                       monkeypatch, capsys):
    import mimoshare.cli as cli

    def no_dataset_work(*args, **kwargs):
        raise AssertionError("dataset work started")

    for name in ("generate_synthetic", "load_capture"):
        monkeypatch.setattr(cli, name, no_dataset_work)
    out = tmp_path / "x"
    code = run_cli(command, "--config", MINI_CFG, "--out", out,
                   "--" + key.replace("_", "-"), value)
    assert code == 1
    err = capsys.readouterr().err
    assert key in err and "dataset work" not in err
    assert not out.exists()


def test_report_names_a_bad_threshold(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    table.write_text(CSV_HEADER + "\n")
    assert run_cli("report", "--table", table, "--out", tmp_path / "x", "--thresholds", "abc") == 1
    assert "thresholds" in capsys.readouterr().err
