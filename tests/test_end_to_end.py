"""The CLI's sweeps, row for row, against a composition of the tests' literal oracles.

Each example draws a small generated scenario, a pool, both sweeps' ranges
and the total sweep's methods, and runs ``main`` for ``sweep-total`` and
``sweep-grid`` with ``csi._ROW_BLOCK`` patched small. The expected output is
built from oracles only: the whole-array generator and energy mean
(``test_pool_build``), the per-record thinning and fingerprint
(``test_columnar``), the original SUS engine (``test_sus_engine``), the
per-row random draws from ``_trial_seed`` and the literal
``sinr(zf_combiner(...))``. A sweep whose rows all clear must write each
row's fields, its SEs to the CSV's 6 significant digits, and the literal
pool's fingerprint; one with a row ``zf_combiner`` rejects must fail on the
earliest such row with ``zf_combiner``'s error text and write no table.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from mimoshare import csi
from mimoshare.cli import main
from mimoshare.csi import CsiDataset, CsiRecord, Layer, PoolPolicy, ScenarioConfig
from mimoshare.sched import SelectionMethod, SusParams
from mimoshare.sweeps import CSV_HEADER, _trial_seed
from mimoshare.zfmetrics import IllConditionedError, sinr, zf_combiner
from test_columnar import literal_fingerprint, literal_subsample_ids
from test_pool_build import literal_generate_synthetic, literal_mean_sq_norm
from test_sus_engine import oracle_sus

# a rounded SE is within half a unit of its 6th significant digit
CSV_REL_TOL = 5e-6
K_DB = st.sampled_from([-3.0, 3.0, 20.0, math.inf])


@st.composite
def cases(draw):
    """(scenario, flags of the pool and sweeps, _ROW_BLOCK) of one end-to-end run."""
    samples = draw(st.integers(2, 10))
    interval = draw(st.sampled_from([100.0, 37.5, 1.3]))  # 1.3 ms rounds its timesteps
    altitudes = (draw(st.floats(1.0, 15.0)), draw(st.floats(16.0, 40.0)))
    config = ScenarioConfig(
        m_rows=draw(st.integers(1, 4)),
        m_cols=draw(st.integers(1, 4)),
        carrier_hz=draw(st.floats(1e8, 1e11)),
        element_spacing_wavelengths=draw(st.floats(0.1, 2.0)),
        # at the terrestrial altitude, the elements of one column see that pass alike
        bs_height_m=altitudes[0] if draw(st.booleans()) else draw(st.floats(1.0, 40.0)),
        trajectory_length_m=(samples - 1) * interval / 1000.0,
        trajectory_speed_mps=1.0,
        sample_interval_ms=interval,
        layer_altitudes_m=altitudes,
        standoff_distance_m=draw(st.floats(1.0, 60.0)),
        rician_k_db=(draw(K_DB), draw(K_DB)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    n, m = config.samples_per_layer, config.m_antennas
    # -1 keeps the whole layer; the pool holds at least one record
    counts = [draw(st.integers(-1, n))]
    counts.append(draw(st.sampled_from([-1, *range(0 if counts[0] else 1, n + 1)])))
    pops = [n if count == -1 else count for count in counts]
    ks = draw(st.lists(st.integers(1, min(sum(pops), m)), min_size=1, max_size=4))
    grounds = draw(st.lists(st.integers(0, min(pops[0], m)), min_size=1, max_size=3))
    most = min(pops[1], m - max(grounds))
    aerials = draw(st.lists(st.integers(min(most, 0 if max(grounds) else 1), most), min_size=1,
                            max_size=3))
    assume(max(grounds) + max(aerials) > 0)  # a grid of (0, 0) alone schedules no user
    flags = {
        "snr_db": draw(st.floats(-10.0, 40.0)),
        "alpha": draw(st.floats(0.05, 1.0)),
        "pool_terrestrial": counts[0],
        "pool_aerial": counts[1],
        "pool_policy": draw(st.sampled_from(PoolPolicy)).value,
        "trials": draw(st.integers(1, 3)),
        "methods": ",".join(draw(st.lists(st.sampled_from(["random", "sus"]), min_size=1,
                                          max_size=2, unique=True))),
        "k_range": ",".join(map(str, ks)),
        "ground_range": ",".join(map(str, grounds)),
        "aerial_range": ",".join(map(str, aerials)),
    }
    return config, flags, draw(st.integers(1, 5))


def cli_args(config: ScenarioConfig, flags: dict) -> list[str]:
    """The flags that give ``config`` and ``flags``; a float's str reads back as its value."""
    scenario = {
        "m_rows": config.m_rows, "m_cols": config.m_cols, "carrier_hz": config.carrier_hz,
        "element_spacing_wavelengths": config.element_spacing_wavelengths,
        "bs_height_m": config.bs_height_m, "trajectory_length_m": config.trajectory_length_m,
        "trajectory_speed_mps": config.trajectory_speed_mps,
        "sample_interval_ms": config.sample_interval_ms,
        "altitude_terrestrial_m": config.layer_altitudes_m[0],
        "altitude_aerial_m": config.layer_altitudes_m[1],
        "standoff_distance_m": config.standoff_distance_m,
        "rician_k_terrestrial_db": config.rician_k_db[0],
        "rician_k_aerial_db": config.rician_k_db[1], "seed": config.seed,
    }
    return [text for key, value in {**scenario, **flags}.items()
            for text in ("--" + key.replace("_", "-"), str(value))]


def literal_pool(config: ScenarioConfig, flags: dict) -> CsiDataset:
    """The sweep's pool: the whole-array dataset scaled by its energy mean, thinned per record."""
    dataset = literal_generate_synthetic(config)
    scale = 1.0 / math.sqrt(literal_mean_sq_norm(dataset.channels))
    counts = [None if flags[f"pool_{layer.value}"] == -1 else flags[f"pool_{layer.value}"]
              for layer in Layer]
    policy = PoolPolicy(flags["pool_policy"])
    kept = set(literal_subsample_ids(dataset, counts, policy, config.seed))
    return CsiDataset(
        records=[CsiRecord(r.index, r.layer, r.timestep_ms, r.channel * scale)
                 for r in dataset.records if r.index in kept],
        m_antennas=config.m_antennas, scale_applied=scale,
        noise_power=10.0 ** (-flags["snr_db"] / 10.0), snr_target_db=flags["snr_db"])


def values(text: str) -> list[int]:
    """The sorted distinct values of a comma-separated range flag."""
    return sorted({int(part) for part in text.split(",")})


def literal_schedules(pool: CsiDataset, kind: str, flags: dict, seed: int):
    """(method, trial, ids, fallback rank, cell text) of each sweep row, in the CSV's order."""
    params = SusParams(alpha=flags["alpha"])
    if kind == "grid":
        for g in values(flags["ground_range"]):
            for a in values(flags["aerial_range"]):
                if g or a:
                    caps = {Layer.TERRESTRIAL: g, Layer.AERIAL: a}
                    result = oracle_sus(pool, g + a, params, caps, SelectionMethod.SUS_LAYERED)
                    yield ("sus_layered", 0, result.chosen, result.fallback_used_from,
                           f"k_ground={g}, k_aerial={a}")
        return
    methods = flags["methods"].split(",")
    if "random" in methods:
        for k in values(flags["k_range"]):
            for trial in range(flags["trials"]):
                picks = np.random.default_rng(_trial_seed(seed, k, trial)).choice(
                    len(pool), size=k, replace=False)
                yield ("random", trial, pool.ids[picks].tolist(), None,
                       f"method=random, k={k}, trial={trial}")
    if "sus" in methods:
        for k in values(flags["k_range"]):
            result = oracle_sus(pool, k, params, None, SelectionMethod.SUS)
            yield "sus", 0, result.chosen, result.fallback_used_from, f"method=sus, k={k}, trial=0"


def literal_output(pool: CsiDataset, kind: str, flags: dict, seed: int):
    """The CSV lines the sweep writes, or the error it fails with."""
    position = {i: p for p, i in enumerate(pool.ids.tolist())}
    lines = []
    for method, trial, ids, rank, cell in literal_schedules(pool, kind, flags, seed):
        channels = pool.channels[[position[i] for i in ids]]
        try:
            combiner = zf_combiner(channels)
        except IllConditionedError as exc:
            return f"error: cell ({cell}): {exc}\n"
        total = float(np.sum(np.log2(1.0 + sinr(combiner, channels, 1.0, pool.noise_power))))
        ground = sum(pool.records[position[i]].layer is Layer.TERRESTRIAL for i in ids)
        lines.append((method, len(ids), ground, len(ids) - ground, trial, total,
                      total / len(ids), "" if rank is None else str(rank)))
    return lines


def assert_rows_match(csv_text: str, expected: list[tuple]):
    header, *rows = csv_text.splitlines()
    assert header == CSV_HEADER
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        fields = row.split(",")
        assert fields[:5] == [str(value) for value in want[:5]], (row, want)
        for text, value in zip(fields[5:7], want[5:7]):
            assert math.isclose(float(text), value, rel_tol=CSV_REL_TOL), (row, want)
        assert fields[7] == want[7], (row, want)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=cases())
# every terrestrial channel of a 2 x 1 array at the pass's altitude is one
# vector up to phase: the first two-user cell of either sweep is singular
@example(case=(ScenarioConfig(m_rows=2, m_cols=1, bs_height_m=8.0, trajectory_length_m=0.5,
                              trajectory_speed_mps=1.0, sample_interval_ms=100.0,
                              rician_k_db=(math.inf, 20.0), seed=4),
               {"snr_db": 20.0, "alpha": 0.5, "pool_terrestrial": 3, "pool_aerial": -1,
                "pool_policy": "uniform", "trials": 2, "methods": "random,sus",
                "k_range": "1,2", "ground_range": "0,2", "aerial_range": "0"}, 2))
def test_every_sweep_row_is_its_literal_composition(case):
    config, flags, block = case
    pool = literal_pool(config, flags)
    for kind in ("total", "grid"):
        want = literal_output(pool, kind, flags, config.seed)
        event(f"{kind}: {'rejected' if isinstance(want, str) else 'written'}")
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(csi, "_ROW_BLOCK", block), \
                contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            out = Path(tmp) / "out"
            code = main([f"sweep-{kind}", *cli_args(config, flags), "--out", str(out)])
            if isinstance(want, str):
                assert (code, stderr.getvalue()) == (1, want)
                assert not out.exists()
                continue
            assert code == 0, stderr.getvalue()
            assert_rows_match((out / "sweep.csv").read_text(), want)
            meta = json.loads((out / "meta.json").read_text())
            assert meta["dataset_fingerprint"] == literal_fingerprint(pool)
