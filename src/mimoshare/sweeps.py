"""Experiment harness: SE vs. total users, the per-layer quota grid, and analysis helpers.

Every emitted row carries the schedule it came from, so any table entry can be
re-evaluated standalone. Rows are ordered canonically (method, k_ground,
k_aerial, trial) regardless of how the grid was executed.

A sweep first schedules every row, then evaluates the schedules of each size
K in (B, K, M) stacks of at most ``_ROW_BLOCK`` channel rows, in closed form,
at unit transmit power (the pool's noise power sets the SNR), so its working
set does not grow with the trials or the grid. Scheduling over validated
ranges cannot fail; an ill-conditioned row still names the cell a row-by-row
run would have stopped at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .csi import CsiDataset, Layer
from .sched import SelectionMethod, SelectionResult, SusParams, random_select
# private helpers are called through their modules: perfbench/tracer.py wraps
# the functions imported here by name, and expects a schedule from each sched
# function and an SeReport from each zfmetrics one
from . import csi, sched, zfmetrics
from .zfmetrics import IllConditionedError

__all__ = [
    "CSV_HEADER",
    "SweepRow",
    "SweepTable",
    "sweep_total_users",
    "sweep_layer_grid",
    "max_users_for_min_se",
    "find_peak",
]

CSV_HEADER = "method,k_total,k_ground,k_aerial,trial,sum_se,mean_individual_se,fallback_rank"
# the methods sweep_total_users runs; the layered grid has its own sweep
_SWEEP_METHODS = frozenset({SelectionMethod.RANDOM, SelectionMethod.SUS})


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


# CSV field -> its caster; the fields of SweepRow carry the same names
_CSV_CASTERS = {
    "method": SelectionMethod, "k_total": int, "k_ground": int, "k_aerial": int, "trial": int,
    "sum_se": float, "mean_individual_se": float,
    "fallback_rank": lambda text: int(text) if text else None,
}


def _csv_row(line: str) -> SweepRow:
    """The row of a CSV line, by field name; a ValueError names what no sweep writes."""
    texts = line.split(",")
    names = CSV_HEADER.split(",")
    if len(texts) != len(names):
        raise ValueError(f"malformed row {line!r}")
    row = SweepRow(**{name: _CSV_CASTERS[name](text) for name, text in zip(names, texts)},
                   selection=None)
    for se in (row.sum_se, row.mean_individual_se):
        if not 0 <= se < math.inf:  # NaN fails both
            raise ValueError(f"SE must be finite and >= 0; got {se}")
    if min(row.k_ground, row.k_aerial, row.trial) < 0:
        raise ValueError("k_ground, k_aerial and trial must be >= 0")
    if not row.k_total == row.k_ground + row.k_aerial >= 1:
        raise ValueError(f"k_total must be k_ground + k_aerial >= 1; got k_total={row.k_total}")
    if row.fallback_rank is not None and not 0 <= row.fallback_rank < row.k_total:
        raise ValueError(f"fallback_rank must be in 0..{row.k_total - 1}; got {row.fallback_rank}")
    return row


@dataclass(frozen=True)
class SweepTable:
    """Result rows plus the run metadata needed to reproduce them."""

    rows: tuple[SweepRow, ...]
    meta: dict

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(row.csv_line() for row in self.rows)
        return "\n".join(lines) + "\n"

    def as_written(self) -> SweepTable:
        """The table its CSV reads back as: each SE at the 6 significant digits written."""
        return SweepTable(rows=tuple(_csv_row(row.csv_line()) for row in self.rows),
                          meta=self.meta)

    @classmethod
    def from_csv(cls, path) -> SweepTable:
        """The table ``csv_text`` wrote, without schedules; a bad row names its file and line."""
        lines = csi._text_lines(path)
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError(f"{path}: not a sweep table (unexpected header)")
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if line.strip():
                try:
                    rows.append(_csv_row(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cls(rows=tuple(rows), meta={"sweep": "from_csv", "source": str(path)})


class _RangeError(ValueError):
    """A sweep range the pool cannot serve; ``keys`` name the range parameters at fault."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


def _sweep_ranges(populations: tuple[float, float], m_antennas: float = math.inf,
                  **ranges: Iterable[int]) -> list[list[int]]:
    """The named ranges, ``k_range`` or ``ground_range`` and ``aerial_range``, checked.

    Each comes back as sorted distinct counts. ``populations`` are the
    pool's (terrestrial, aerial) record counts: k runs from 1 to their sum,
    and each layer's quota from 0 to its population. ZF nulls at most M
    users, so a finite ``m_antennas`` also bounds k and a grid's largest
    ``k_ground + k_aerial``; the sweeps leave it unbounded, so there a
    K > M row fails as its cell, in row order. A population not yet known
    is ``math.inf``. A grid also needs a cell other than (0, 0), which
    schedules no user.
    """
    bounds = {
        "k_range": (1, sum(populations), "pool size"),
        "ground_range": (0, populations[0], "layer population"),
        "aerial_range": (0, populations[1], "layer population"),
    }
    checked = []
    for key, values in ranges.items():
        ks = sorted(set(int(k) for k in values))
        lo, hi, bound = bounds[key]
        name = key.replace("_", " ")
        if not ks:
            raise _RangeError(f"empty {name}", key)
        if ks[0] < lo or ks[-1] > hi:
            raise _RangeError(f"{name} {ks[0]}..{ks[-1]} outside {bound} {hi}", key)
        checked.append(ks)
    if checked == [[0], [0]]:  # only a grid has two ranges
        raise _RangeError("the grid's only cell is (0, 0), which schedules no user", *ranges)
    most = sum(ks[-1] for ks in checked)  # the largest k, or k_ground + k_aerial
    if most > m_antennas:
        raise _RangeError(f"{most} users in one schedule, more than {m_antennas} antennas "
                          "can null (K > M)", *ranges)
    return checked


def _cell(selection: SelectionResult, trial: int) -> str:
    """The sweep cell a scheduled row fills, as errors name it."""
    if selection.method is SelectionMethod.SUS_LAYERED:
        counts = selection.per_layer_counts
        return f"cell (k_ground={counts[Layer.TERRESTRIAL]}, k_aerial={counts[Layer.AERIAL]})"
    return f"cell (method={selection.method.value}, k={len(selection)}, trial={trial})"


def _table(pool: CsiDataset, schedules: Iterator[tuple[SelectionResult, int]],
           **meta) -> SweepTable:
    """The table of every (schedule, trial) the iterator yields, in its order.

    The schedules of each size K are evaluated in (B, K, M) stacks of at
    most ``csi._ROW_BLOCK`` channel rows, and at least one schedule each; a
    schedule's result does not depend on its stack. The earliest row the
    closed form does not clear, in row order across every stack, the one a
    row-by-row run would have stopped at, raises its error named by its
    cell. The table's meta is the pool's and ``meta``.
    """
    scheduled = list(schedules)
    noise_power = zfmetrics._noise_power(pool) if scheduled else None
    by_size: dict[int, list[int]] = {}
    for n, (selection, _) in enumerate(scheduled):
        by_size.setdefault(len(selection), []).append(n)
    sums = [0.0] * len(scheduled)
    uncleared: list[int] = []
    for k, positions in by_size.items():
        per_stack = max(1, csi._ROW_BLOCK // k)
        for start in range(0, len(positions), per_stack):
            stack = positions[start:start + per_stack]
            ids = [i for n in stack for i in scheduled[n][0].chosen]
            channels = pool.channels_for(ids).reshape(len(stack), k, pool.m_antennas)
            sinr, cleared = zfmetrics._screened_sinr(channels, noise_power)
            for n, ok, row_se in zip(stack, cleared, zfmetrics.spectral_efficiency(sinr)):
                if ok:
                    sums[n] = zfmetrics.sum_se(row_se)
                else:
                    uncleared.append(n)
    if uncleared:
        selection, trial = scheduled[min(uncleared)]
        exc = zfmetrics._rejection(pool.channels_for(selection.chosen))
        raise IllConditionedError(f"{_cell(selection, trial)}: {exc}") from exc
    rows = tuple(
        SweepRow(
            method=selection.method,
            k_total=len(selection),
            k_ground=selection.per_layer_counts[Layer.TERRESTRIAL],
            k_aerial=selection.per_layer_counts[Layer.AERIAL],
            trial=trial,
            sum_se=total,
            mean_individual_se=total / len(selection),
            fallback_rank=selection.fallback_used_from,
            selection=selection,
        )
        for (selection, trial), total in zip(scheduled, sums)
    )
    counts = pool.layer_counts()
    pool_meta = {
        "snr_db": pool.snr_target_db,
        "pool_terrestrial": counts[Layer.TERRESTRIAL],
        "pool_aerial": counts[Layer.AERIAL],
        "m_antennas": pool.m_antennas,
        "dataset_fingerprint": pool.fingerprint(),
    }
    return SweepTable(rows=rows, meta={**pool_meta, **meta})


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
) -> Iterator[tuple[SelectionResult, int]]:
    if SelectionMethod.RANDOM in methods:
        for k in ks:
            for trial in range(trials):
                yield random_select(pool, k, _trial_seed(seed, k, trial)), trial
    if SelectionMethod.SUS in methods:
        for selection in sched._prefix_schedules(pool, ks, params):
            yield selection, 0


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
    [ks] = _sweep_ranges(tuple(pool.layer_counts().values()), k_range=k_range)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    methods = set(methods)
    if not methods:
        raise ValueError("no sweep methods")
    unsupported = methods - _SWEEP_METHODS
    if unsupported:
        raise ValueError(f"unsupported sweep methods: {sorted(m.value for m in unsupported)}")

    schedules = _total_schedules(pool, ks, methods, trials, seed, params)
    return _table(pool, schedules, sweep="total_users", seed=seed, alpha=params.alpha,
                  trials=trials, k_min=ks[0], k_max=ks[-1])


def sweep_layer_grid(
    pool: CsiDataset,
    ground_range: Iterable[int],
    aerial_range: Iterable[int],
    params: SusParams = SusParams(),
    seed: int = 0,
) -> SweepTable:
    """Layered SUS over every (k_ground, k_aerial) pair except (0, 0).

    A grid whose only pair is (0, 0) raises ValueError.
    """
    grounds, aerials = _sweep_ranges(tuple(pool.layer_counts().values()),
                                     ground_range=ground_range, aerial_range=aerial_range)

    schedules = ((selection, 0)
                 for selection in sched._layered_schedules(pool, grounds, aerials, params))
    return _table(pool, schedules, sweep="layer_grid", seed=seed, alpha=params.alpha,
                  ground_min=grounds[0], ground_max=grounds[-1],
                  aerial_min=aerials[0], aerial_max=aerials[-1])


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

