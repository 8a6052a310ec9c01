"""Experiment harness: SE vs. total users, the per-layer quota grid, and analysis helpers.

Every emitted row carries the schedule it came from, so any table entry can be
re-evaluated standalone. Rows are ordered canonically (method, k_ground,
k_aerial, trial) regardless of how the grid was executed.

A sweep first schedules every row, then evaluates the schedules of each size
K as one (B, K, M) stack at unit transmit power (the pool's noise power sets
the SNR). Scheduling over validated ranges cannot fail; an ill-conditioned
row still names the cell a row-by-row run would have stopped at.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .csi import CsiDataset, Layer
from .sched import (
    SelectionMethod,
    SelectionResult,
    SusParams,
    _SusRun,
    random_select,
)
# stacked evaluation goes through the module: perfbench/tracer.py wraps the
# zfmetrics functions imported here by name and expects an SeReport from each
from . import zfmetrics
from .zfmetrics import IllConditionedError, evaluate_selection

__all__ = [
    "CSV_HEADER",
    "SweepRow",
    "SweepTable",
    "sweep_total_users",
    "sweep_layer_grid",
    "max_users_for_min_se",
    "find_peak",
    "exhaustive_oracle",
]

CSV_HEADER = "method,k_total,k_ground,k_aerial,trial,sum_se,mean_individual_se,fallback_rank"


@dataclass(frozen=True)
class SweepRow:
    """One evaluated schedule. ``selection`` is kept for re-evaluation, not serialized."""

    method: SelectionMethod
    k_total: int
    k_ground: int
    k_aerial: int
    trial: int
    sum_se: float
    mean_individual_se: float
    fallback_rank: int | None
    selection: SelectionResult | None  # None only for tables re-read from CSV

    def csv_line(self) -> str:
        fallback = "" if self.fallback_rank is None else str(self.fallback_rank)
        return (
            f"{self.method.value},{self.k_total},{self.k_ground},{self.k_aerial},"
            f"{self.trial},{self.sum_se:.6g},{self.mean_individual_se:.6g},{fallback}"
        )


@dataclass(frozen=True)
class SweepTable:
    """Result rows plus the run metadata needed to reproduce them."""

    rows: tuple[SweepRow, ...]
    meta: dict

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(row.csv_line() for row in self.rows)
        return "\n".join(lines) + "\n"


def _row_from(selection: SelectionResult, sum_se: float, trial: int) -> SweepRow:
    k_total = len(selection)
    return SweepRow(
        method=selection.method,
        k_total=k_total,
        k_ground=selection.per_layer_counts[Layer.TERRESTRIAL],
        k_aerial=selection.per_layer_counts[Layer.AERIAL],
        trial=trial,
        sum_se=sum_se,
        mean_individual_se=sum_se / k_total,
        fallback_rank=selection.fallback_used_from,
        selection=selection,
    )


def _base_meta(pool: CsiDataset, seed: int, params: SusParams) -> dict:
    counts = pool.layer_counts()
    return {
        "seed": seed,
        "alpha": params.alpha,
        "snr_db": pool.snr_target_db,
        "pool_terrestrial": counts[Layer.TERRESTRIAL],
        "pool_aerial": counts[Layer.AERIAL],
        "m_antennas": pool.m_antennas,
        "dataset_fingerprint": pool.fingerprint(),
    }


# one scheduled row: (cell name, schedule, trial)
_Scheduled = tuple[str, SelectionResult, int]


def _schedule_then_evaluate(
    pool: CsiDataset, schedules: Iterator[_Scheduled]
) -> tuple[SweepRow, ...]:
    """Rows of every schedule the iterator yields, in its order.

    The schedules of each size K are evaluated as one (B, K, M) stack. An
    ill-conditioned row is named by the earliest failing cell, the one a
    row-by-row run would have stopped at.
    """
    scheduled = list(schedules)
    if scheduled and pool.noise_power is None:
        raise ValueError("pool has no noise power; normalize it before evaluation")
    by_size: dict[int, list[int]] = {}
    for n, (_, selection, _) in enumerate(scheduled):
        by_size.setdefault(len(selection), []).append(n)
    sums = [0.0] * len(scheduled)
    failures: list[tuple[int, IllConditionedError]] = []
    for k, positions in by_size.items():
        ids = [i for n in positions for i in scheduled[n][1].chosen]
        channels = pool.channels_for(ids).reshape(len(positions), k, pool.m_antennas)
        try:
            sinr = zfmetrics.stacked_sinr(channels, 1.0, pool.noise_power)
        except IllConditionedError as exc:
            failures.append((positions[exc.index], exc))
            continue
        for n, row_se in zip(positions, zfmetrics.spectral_efficiency(sinr)):
            sums[n] = zfmetrics.sum_se(row_se)
    if failures:
        n, exc = min(failures, key=lambda failure: failure[0])
        raise IllConditionedError(f"{scheduled[n][0]}: {exc}") from exc
    return tuple(
        _row_from(selection, total, trial)
        for (_, selection, trial), total in zip(scheduled, sums)
    )


def _record_branches(run: _SusRun, quotas: dict, branches: dict) -> None:
    """Clone ``run`` at each per-layer grid quota it meets for the first time."""
    for layer in Layer:
        key = (layer, run.counts[layer])
        if key[1] in quotas[layer] and key not in branches:
            branches[key] = run.clone()


def _trial_seed(seed: int, k: int, trial: int) -> int:
    # stable per (run seed, schedule size, trial) so single rows can be replayed
    return int(np.random.SeedSequence([seed, k, trial]).generate_state(1)[0])


def _total_schedules(
    pool: CsiDataset,
    ks: list[int],
    methods: set[SelectionMethod],
    trials: int,
    seed: int,
    params: SusParams,
) -> Iterator[_Scheduled]:
    if SelectionMethod.RANDOM in methods:
        for k in ks:
            for trial in range(trials):
                cell = f"cell (method=random, k={k}, trial={trial})"
                yield cell, random_select(pool, k, _trial_seed(seed, k, trial)), trial
    if SelectionMethod.SUS in methods:
        # one run serves every k: the k-user SUS schedule is its first k picks
        run = _SusRun(pool, params)
        for k in ks:
            while len(run.chosen) < k:
                run.step()
            yield f"cell (method=sus, k={k}, trial=0)", run.result(SelectionMethod.SUS), 0


def sweep_total_users(
    pool: CsiDataset,
    k_range: Iterable[int],
    methods: Iterable[SelectionMethod] = (SelectionMethod.RANDOM, SelectionMethod.SUS),
    trials: int = 20,
    seed: int = 0,
    params: SusParams = SusParams(),
) -> SweepTable:
    """Schedule and evaluate every k for each method.

    Random selection is drawn ``trials`` times per k; SUS is deterministic and
    recorded once (trial 0).
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("empty k range")
    if ks[0] < 1 or ks[-1] > len(pool):
        raise ValueError(f"k range {ks[0]}..{ks[-1]} outside pool size {len(pool)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    methods = set(methods)
    unsupported = methods - {SelectionMethod.RANDOM, SelectionMethod.SUS}
    if unsupported:
        raise ValueError(f"unsupported sweep methods: {sorted(m.value for m in unsupported)}")

    schedules = _total_schedules(pool, ks, methods, trials, seed, params)
    rows = _schedule_then_evaluate(pool, schedules)
    meta = _base_meta(pool, seed, params)
    meta.update({"sweep": "total_users", "trials": trials, "k_min": ks[0], "k_max": ks[-1]})
    return SweepTable(rows=rows, meta=meta)


def _grid_schedules(
    pool: CsiDataset, grounds: list[int], aerials: list[int], params: SusParams
) -> Iterator[_Scheduled]:
    # A layered run follows the unconstrained run until one layer meets its
    # quota, then picks from the other layer only. So one shared unconstrained
    # run, cloned where it first meets each grid quota, plus one single-layer
    # continuation per clone, serves every cell. Cells run in ascending order,
    # so the shared run never reaches a cell's second quota before the cell
    # is served: exactly one of its two quotas has a clone.
    quotas = {Layer.TERRESTRIAL: set(grounds), Layer.AERIAL: set(aerials)}
    shared = _SusRun(pool, params)
    branches: dict[tuple[Layer, int], _SusRun] = {}
    _record_branches(shared, quotas, branches)
    for k_ground in grounds:
        for k_aerial in aerials:
            if k_ground == 0 and k_aerial == 0:
                continue
            quota = {Layer.TERRESTRIAL: k_ground, Layer.AERIAL: k_aerial}
            keys = [(layer, quota[layer]) for layer in Layer]
            while not any(key in branches for key in keys):
                shared.step()
                _record_branches(shared, quotas, branches)
            [full] = [key for key in keys if key in branches]
            branch = branches[full]
            open_layer = next(layer for layer in Layer if layer is not full[0])
            while branch.counts[open_layer] < quota[open_layer]:
                branch.step(branch.layer_mask[open_layer])
            cell = f"cell (k_ground={k_ground}, k_aerial={k_aerial})"
            yield cell, branch.result(SelectionMethod.SUS_LAYERED), 0


def sweep_layer_grid(
    pool: CsiDataset,
    ground_range: Iterable[int],
    aerial_range: Iterable[int],
    params: SusParams = SusParams(),
    seed: int = 0,
) -> SweepTable:
    """Layered SUS over every (k_ground, k_aerial) pair except (0, 0)."""
    grounds = sorted(set(int(k) for k in ground_range))
    aerials = sorted(set(int(k) for k in aerial_range))
    if not grounds or not aerials:
        raise ValueError("empty grid range")
    counts = pool.layer_counts()
    if grounds[0] < 0 or grounds[-1] > counts[Layer.TERRESTRIAL]:
        raise ValueError(
            f"ground range {grounds[0]}..{grounds[-1]} outside layer population "
            f"{counts[Layer.TERRESTRIAL]}"
        )
    if aerials[0] < 0 or aerials[-1] > counts[Layer.AERIAL]:
        raise ValueError(
            f"aerial range {aerials[0]}..{aerials[-1]} outside layer population "
            f"{counts[Layer.AERIAL]}"
        )

    schedules = _grid_schedules(pool, grounds, aerials, params)
    rows = _schedule_then_evaluate(pool, schedules)
    meta = _base_meta(pool, seed, params)
    meta.update(
        {
            "sweep": "layer_grid",
            "ground_min": grounds[0],
            "ground_max": grounds[-1],
            "aerial_min": aerials[0],
            "aerial_max": aerials[-1],
        }
    )
    return SweepTable(rows=rows, meta=meta)


def max_users_for_min_se(table: SweepTable, method: SelectionMethod, threshold_se: float) -> int:
    """Largest k whose trial-averaged individual SE stays at or above the threshold.

    Returns 0 when no k qualifies.
    """
    if not table.rows:
        raise ValueError("empty sweep table")
    per_k: dict[int, list[float]] = {}
    for row in table.rows:
        if row.method is method:
            per_k.setdefault(row.k_total, []).append(row.mean_individual_se)
    if not per_k:
        raise ValueError(f"table has no rows for method {method.value}")
    qualifying = [k for k, values in per_k.items() if float(np.mean(values)) >= threshold_se]
    return max(qualifying) if qualifying else 0


def find_peak(table: SweepTable) -> tuple[int, int, float]:
    """(k_ground, k_aerial, sum_se) of the best row.

    Ties on sum_se go to the smaller total user count, then fewer aerial users.
    """
    if not table.rows:
        raise ValueError("empty sweep table")
    best = max(table.rows, key=lambda r: (r.sum_se, -r.k_total, -r.k_aerial))
    return best.k_ground, best.k_aerial, best.sum_se


def exhaustive_oracle(
    pool: CsiDataset, k: int, budget: int = 1_000_000
) -> tuple[tuple[int, ...], float]:
    """Exact optimum schedule of size k by enumerating every subset.

    Subsets whose Gram matrix is beyond the condition cap are skipped (their
    SE is effectively zero). Intended for desk-scale checks only.
    """
    n = len(pool)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    n_subsets = math.comb(n, k)
    if n_subsets > budget:
        raise ValueError(f"C({n},{k}) = {n_subsets} exceeds the enumeration budget {budget}")

    best_ids: tuple[int, ...] | None = None
    best_sum = -math.inf
    for combo in itertools.combinations(pool.ids.tolist(), k):
        selection = SelectionResult(combo, pool.layer_counts(combo), SelectionMethod.EXHAUSTIVE)
        try:
            report = evaluate_selection(pool, selection)
        except IllConditionedError:
            continue
        if report.sum_se > best_sum:
            best_sum = report.sum_se
            best_ids = combo
    if best_ids is None:
        raise IllConditionedError("every size-k subset is ill-conditioned")
    return best_ids, best_sum
