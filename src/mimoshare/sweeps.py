"""Experiment harness: SE vs. total users, the per-layer quota grid, and analysis helpers.

A table holds the rows its CSV holds, as columns, and no schedule: a row is
replayed by its selector (``random_select`` with ``_trial_seed``,
``sus_select`` or ``sus_select_layered``). Rows are ordered canonically
(method, k_ground, k_aerial, trial) regardless of how the grid was executed.

A sweep gathers the schedules of each size K into a (B, K, M) stack and
evaluates it, in closed form, at unit transmit power (the pool's noise power
sets the SNR), as soon as it holds ``_ROW_BLOCK`` channel rows, so its
working set does not grow with the trials or the grid. Scheduling over
validated ranges cannot fail; an ill-conditioned row still names the cell a
row-by-row run would have stopped at.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple
from typing import Iterable, Iterator

import numpy as np

from .csi import CsiDataset, Layer
from .sched import SelectionMethod, SusParams
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
# each of them by itself and by its value, as SelectionMethod(...) casts both
_SWEEP_METHOD_OF = {key: method for method in _SWEEP_METHODS for key in (method, method.value)}
# a table's method codes index this
_METHODS = tuple(SelectionMethod)
# SweepTable's (R,) columns, in the order of its fields, and their types
_COLUMNS = {"method_codes": np.int8, "k_ground": np.int64, "k_aerial": np.int64, "trial": np.int64,
            "sum_se": np.float64, "mean_individual_se": np.float64, "fallback_rank": np.int64}


# one table row, as SweepTable.rows builds it, with the CSV's fields
SweepRow = namedtuple("SweepRow", CSV_HEADER.split(","))


# CSV field -> its caster; the fields of SweepRow carry the same names
_CSV_CASTERS = {
    "method": SelectionMethod, "k_total": int, "k_ground": int, "k_aerial": int, "trial": int,
    "sum_se": float, "mean_individual_se": float,
    "fallback_rank": lambda text: int(text) if text else None,
}


def _csv_row(line: str) -> SweepRow:
    """The row of a CSV line, by field name; a ValueError names what no sweep writes."""
    texts = line.split(",")
    if len(texts) != len(SweepRow._fields):
        raise ValueError(f"malformed row {line!r}")
    row = SweepRow(*(_CSV_CASTERS[name](text) for name, text in zip(SweepRow._fields, texts)))
    for se in (row.sum_se, row.mean_individual_se):
        if not 0 <= se < math.inf:  # NaN fails both
            raise ValueError(f"SE must be finite and >= 0; got {se}")
    if min(row.k_ground, row.k_aerial, row.trial) < 0:
        raise ValueError("k_ground, k_aerial and trial must be >= 0")
    if max(row.k_total, row.trial) > np.iinfo(np.int64).max:  # a table holds them as int64
        raise ValueError("k_total and trial must be below 2**63")
    if not row.k_total == row.k_ground + row.k_aerial >= 1:
        raise ValueError(f"k_total must be k_ground + k_aerial >= 1; got k_total={row.k_total}")
    if row.fallback_rank is not None and not 0 <= row.fallback_rank < row.k_total:
        raise ValueError(f"fallback_rank must be in 0..{row.k_total - 1}; got {row.fallback_rank}")
    return row


@dataclasses.dataclass(frozen=True, eq=False)
class SweepTable:
    """Result rows as (R,) columns, plus the run metadata needed to reproduce them.

    A method code indexes ``tuple(SelectionMethod)``, and a fallback rank of
    -1 is none. Equal tables have equal columns and meta.
    """

    method_codes: np.ndarray
    k_ground: np.ndarray
    k_aerial: np.ndarray
    trial: np.ndarray
    sum_se: np.ndarray
    mean_individual_se: np.ndarray
    fallback_rank: np.ndarray
    meta: dict

    def __eq__(self, other) -> bool:
        if not isinstance(other, SweepTable):
            return NotImplemented
        return self.meta == other.meta and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    def __len__(self) -> int:
        return len(self.method_codes)

    @classmethod
    def from_rows(cls, rows: Iterable[SweepRow], meta: dict) -> SweepTable:
        """The table of these rows; k_total is taken as k_ground + k_aerial."""
        values = [(_METHODS.index(row.method), row.k_ground, row.k_aerial, row.trial, row.sum_se,
                   row.mean_individual_se, -1 if row.fallback_rank is None else row.fallback_rank)
                  for row in rows]
        return cls(*(np.array([value[c] for value in values], dtype)
                     for c, dtype in enumerate(_COLUMNS.values())), meta)

    def _fields(self) -> Iterator[tuple]:
        """Each row's fields in CSV order, as Python values; a row without a fallback has None."""
        return zip([_METHODS[code] for code in self.method_codes.tolist()],
                   (self.k_ground + self.k_aerial).tolist(), self.k_ground.tolist(),
                   self.k_aerial.tolist(), self.trial.tolist(), self.sum_se.tolist(),
                   self.mean_individual_se.tolist(),
                   [None if rank < 0 else rank for rank in self.fallback_rank.tolist()])

    @property
    def rows(self) -> list[SweepRow]:
        """Every row as a :class:`SweepRow`, built on access."""
        return list(map(SweepRow._make, self._fields()))

    def _only(self, method: SelectionMethod) -> SweepTable:
        """The rows of one method."""
        mine = self.method_codes == _METHODS.index(method)
        return SweepTable(*(getattr(self, name)[mine] for name in _COLUMNS), meta=self.meta)

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(f"{method.value},{k_total},{k_ground},{k_aerial},{trial},{sum_se:.6g},"
                     f"{mean_se:.6g},{'' if rank is None else rank}"
                     for method, k_total, k_ground, k_aerial, trial, sum_se, mean_se, rank
                     in self._fields())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, path) -> SweepTable:
        """The table ``csv_text`` wrote; a bad row names its file and line."""
        return cls._from_lines(csi._text_lines(path), path,
                               meta={"sweep": "from_csv", "source": str(path)})

    @classmethod
    def _from_lines(cls, lines: list[str], source, meta: dict) -> SweepTable:
        """The table of a CSV's lines, with this meta; a bad row names ``source`` and its line."""
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError(f"{source}: not a sweep table (unexpected header)")
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if line.strip():
                try:
                    rows.append(_csv_row(line))
                except ValueError as exc:
                    raise ValueError(f"{source}:{lineno}: {exc}") from None
        return cls.from_rows(rows, meta)


class _RangeError(ValueError):
    """A sweep range the pool cannot serve; ``keys`` name the range parameters at fault."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


def _sweep_ranges(populations: tuple[int, int], m_antennas: int,
                  **ranges: Iterable[int]) -> list[list[int]]:
    """The named ranges, ``k_range`` or ``ground_range`` and ``aerial_range``, checked.

    Each comes back as sorted distinct counts. ``populations`` are the
    pool's (terrestrial, aerial) record counts: k runs from 1 to their sum,
    and each layer's quota from 0 to its population. ZF nulls at most M
    users, so ``m_antennas`` also bounds k and a grid's largest
    ``k_ground + k_aerial``. A grid also needs a cell other than (0, 0),
    which schedules no user.
    """
    bounds = {
        "k_range": (1, sum(populations), "pool size"),
        "ground_range": (0, populations[0], "layer population"),
        "aerial_range": (0, populations[1], "layer population"),
    }
    checked = []
    for key, values in ranges.items():
        name = key.replace("_", " ")
        ks = sorted({csi._integer(k, name) for k in values})
        lo, hi, bound = bounds[key]
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


def _table(pool: CsiDataset, schedules: Iterator[tuple], **meta) -> SweepTable:
    """The table of the schedules the iterator yields, one row each, in order.

    Each schedule is (method, trial, pool rows, fallback rank or None). The
    schedules of each size K are gathered into a (B, K, M) stack, which is
    evaluated as soon as it holds ``csi._ROW_BLOCK // K`` schedules, and at
    least one; the stacks still partial are evaluated at the end. A
    schedule's result does not depend on its stack. The earliest row the
    closed form does not clear, in row order across every stack, the one a
    row-by-row run would have stopped at, raises its error named by its
    cell. The table's meta is the pool's and ``meta``.
    """
    noise_power = zfmetrics._noise_power(pool)
    codes, trials, ranks, sizes, k_aerial, sums = [], [], [], [], [], []
    stacks: dict[int, list[tuple]] = {}  # K -> the (row, pool rows) of its stack being filled
    failed = None  # (row, pool rows) of the earliest row not cleared

    def evaluate(stack: list[tuple]) -> None:
        nonlocal failed
        numbers, rows = zip(*stack)
        rows = np.array(rows)  # (B, K)
        aerial = np.count_nonzero(pool.layer_codes[rows] == Layer.AERIAL.code, axis=1)
        sinr, cleared = zfmetrics._screened_sinr(pool.channels[rows], noise_power)
        for n, schedule, count, ok, row_se in zip(numbers, rows, aerial.tolist(), cleared,
                                                  zfmetrics.spectral_efficiency(sinr)):
            k_aerial[n] = count
            if ok:
                sums[n] = zfmetrics.sum_se(row_se)
            elif failed is None or n < failed[0]:
                failed = n, schedule

    for n, (method, trial, rows, rank) in enumerate(schedules):
        codes.append(_METHODS.index(method))
        trials.append(trial)
        ranks.append(-1 if rank is None else rank)
        sizes.append(len(rows))
        k_aerial.append(0)
        sums.append(0.0)
        stack = stacks.setdefault(len(rows), [])
        stack.append((n, rows))
        if len(stack) == max(1, csi._ROW_BLOCK // len(rows)):
            evaluate(stacks.pop(len(rows)))
    for stack in stacks.values():
        evaluate(stack)
    if failed:
        n, rows = failed
        method = _METHODS[codes[n]]
        cell = (f"k_ground={sizes[n] - k_aerial[n]}, k_aerial={k_aerial[n]}"
                if method is SelectionMethod.SUS_LAYERED
                else f"method={method.value}, k={sizes[n]}, trial={trials[n]}")
        exc = zfmetrics._rejection(pool.channels[rows])
        raise IllConditionedError(f"cell ({cell}): {exc}") from exc
    counts = pool.layer_counts()
    pool_meta = {
        "snr_db": pool.snr_target_db,
        "pool_terrestrial": counts[Layer.TERRESTRIAL],
        "pool_aerial": counts[Layer.AERIAL],
        "m_antennas": pool.m_antennas,
        "dataset_fingerprint": pool.fingerprint(),
    }
    sizes, k_aerial, sums = np.array(sizes), np.array(k_aerial), np.array(sums)
    columns = (codes, sizes - k_aerial, k_aerial, trials, sums, sums / sizes, ranks)
    return SweepTable(*map(np.asarray, columns, _COLUMNS.values()), meta={**pool_meta, **meta})


def _trial_seed(seed: int, k: int, trial: int) -> int:
    # stable per (run seed, schedule size, trial) so single rows can be replayed
    return int(np.random.SeedSequence([seed, k, trial]).generate_state(1)[0])


def _total_schedules(pool: CsiDataset, ks: list[int], methods: set[SelectionMethod], trials: int,
                     seed: int, params: SusParams) -> Iterator[tuple]:
    """The schedules of sweep_total_users in row order: every random trial, then SUS."""
    if SelectionMethod.RANDOM in methods:
        for k in ks:
            for trial in range(trials):
                rows = sched._random_rows(len(pool), k, _trial_seed(seed, k, trial))
                yield SelectionMethod.RANDOM, trial, rows, None
    if SelectionMethod.SUS in methods:
        for rows, rank in sched._prefix_schedules(pool, ks, params):
            yield SelectionMethod.SUS, 0, rows, rank


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
    recorded once (trial 0). A method may be given by its value, e.g. "sus".
    """
    [ks] = _sweep_ranges(tuple(pool.layer_counts().values()), pool.m_antennas, k_range=k_range)
    trials = csi._integer(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    methods = set(methods)
    if not methods:
        raise ValueError("no sweep methods")
    unsupported = methods - _SWEEP_METHOD_OF.keys()
    if unsupported:
        names = sorted(str(getattr(m, "value", m)) for m in unsupported)
        raise ValueError(f"unsupported sweep methods: {names}")
    methods = {_SWEEP_METHOD_OF[m] for m in methods}

    return _table(pool, _total_schedules(pool, ks, methods, trials, seed, params),
                  sweep="total_users", seed=seed, alpha=params.alpha, trials=trials, k_min=ks[0],
                  k_max=ks[-1])


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
    grounds, aerials = _sweep_ranges(tuple(pool.layer_counts().values()), pool.m_antennas,
                                     ground_range=ground_range, aerial_range=aerial_range)

    schedules = ((SelectionMethod.SUS_LAYERED, 0, rows, rank)
                 for rows, rank in sched._layered_schedules(pool, grounds, aerials, params))
    return _table(pool, schedules, sweep="layer_grid", seed=seed,
                  alpha=params.alpha, ground_min=grounds[0], ground_max=grounds[-1],
                  aerial_min=aerials[0], aerial_max=aerials[-1])


def max_users_for_min_se(table: SweepTable, method: SelectionMethod, threshold_se: float) -> int:
    """Largest k whose trial-averaged individual SE stays at or above the threshold.

    Returns 0 when no k qualifies.
    """
    if not len(table):
        raise ValueError("empty sweep table")
    mine = table._only(method)
    if not len(mine):
        raise ValueError(f"table has no rows for method {method.value}")
    k_total = mine.k_ground + mine.k_aerial
    # each k's mean over its values in row order, as np.mean of them sums them
    qualifying = [k for k in set(k_total.tolist())
                  if float(np.mean(mine.mean_individual_se[k_total == k])) >= threshold_se]
    return max(qualifying) if qualifying else 0


def find_peak(table: SweepTable) -> tuple[int, int, float]:
    """(k_ground, k_aerial, sum_se) of the best row; the first of rows that tie on everything.

    Ties on sum_se go to the smaller total user count, then fewer aerial users.
    """
    if not len(table):
        raise ValueError("empty sweep table")
    sums, aerials = table.sum_se.tolist(), table.k_aerial.tolist()
    totals = (table.k_ground + table.k_aerial).tolist()
    best = max(range(len(sums)), key=lambda i: (sums[i], -totals[i], -aerials[i]))
    return totals[best] - aerials[best], aerials[best], sums[best]
