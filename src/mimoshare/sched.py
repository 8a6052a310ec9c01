"""User scheduling over a candidate pool: random, semi-orthogonal, and layered-quota.

Semi-orthogonal selection (SUS) greedily picks the candidate with the largest
channel component orthogonal to the already-selected basis, then drops
candidates too correlated with the newly added basis vector. The layered
variant additionally caps how many users each layer may contribute.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .csi import _LAYERS, CsiDataset, Layer

__all__ = [
    "SelectionMethod",
    "SusParams",
    "SelectionResult",
    "SelectionError",
    "random_select",
    "sus_select",
    "sus_select_layered",
]


class SelectionMethod(enum.Enum):
    RANDOM = "random"
    SUS = "sus"
    SUS_LAYERED = "sus_layered"


class SelectionError(ValueError):
    """Raised when a selection request cannot be satisfied."""


@dataclass(frozen=True)
class SusParams:
    """Tuning knob for semi-orthogonal selection.

    ``alpha`` is the correlation threshold at or above which a candidate is
    dropped; the default 0.6 keeps pruning active at small schedules while the
    fallback survives large ones. Selection never stops where pruning runs
    dry: it falls back to max residual norm and records the rank in
    ``SelectionResult.fallback_used_from``, which a caller who wants a
    pruning-only schedule checks against None.
    """

    alpha: float = 0.6

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class SelectionResult:
    """An ordered schedule of record ids with per-layer counts and provenance.

    ``fallback_used_from`` is the 0-based selection rank at which pruning had
    exhausted the candidates and picks switched to plain max-residual-norm;
    None when the orthogonality criterion held throughout.
    """

    chosen: tuple[int, ...]
    per_layer_counts: dict[Layer, int]
    method: SelectionMethod
    fallback_used_from: int | None = None

    def __post_init__(self):
        if len(set(self.chosen)) != len(self.chosen):
            raise ValueError("selection contains duplicate record ids")
        if sum(self.per_layer_counts.values()) != len(self.chosen):
            raise ValueError("per-layer counts do not sum to the schedule size")

    def __len__(self) -> int:
        return len(self.chosen)


def _selection(pool: CsiDataset, rows: np.ndarray, method: SelectionMethod,
               fallback_from: int | None = None) -> SelectionResult:
    """The result of a schedule of pool rows: their record ids and per-layer counts."""
    counts = np.bincount(pool.layer_codes[rows], minlength=len(_LAYERS)).tolist()
    return SelectionResult(tuple(pool.ids[rows].tolist()), dict(zip(_LAYERS, counts)), method,
                           fallback_from)


def _random_rows(n: int, k: int, seed: int) -> np.ndarray:
    """k distinct rows of n drawn uniformly without replacement from ``seed``'s stream."""
    return np.random.default_rng(seed).choice(n, size=k, replace=False)


def random_select(pool: CsiDataset, k: int, seed: int) -> SelectionResult:
    """Draw k distinct records uniformly without replacement."""
    if not 1 <= k <= len(pool):
        raise ValueError(f"k must be in 1..{len(pool)}, got {k}")
    return _selection(pool, _random_rows(len(pool), k, seed), SelectionMethod.RANDOM)


class _SusRun:
    """Resumable SUS state over one pool: one call to ``step`` adds one pick.

    Picks are pool rows, and ``counts`` is indexed by layer code. The state
    after n picks depends only on those picks, so a run for k users is the
    first k picks of any longer run over the same pool and params, and
    ``clone`` lets several continuations share one common prefix.
    """

    def __init__(self, pool: CsiDataset, params: SusParams):
        self.params = params
        self.channels = pool.channels  # (N, M)
        self.ids = pool.ids
        self.codes = pool.layer_codes
        self.norms = np.linalg.norm(self.channels, axis=1)
        self.residuals = self.channels.copy()
        self.unpruned = np.ones(len(pool), dtype=bool)
        self.unselected = np.ones(len(pool), dtype=bool)
        self.counts = [0] * len(_LAYERS)
        self.rows: list[int] = []
        self.fallback_from: int | None = None

    def clone(self) -> _SusRun:
        """Independent copy of the mutable state; the pool arrays stay shared."""
        twin = copy.copy(self)
        twin.residuals = self.residuals.copy()
        twin.unpruned = self.unpruned.copy()
        twin.unselected = self.unselected.copy()
        twin.counts = list(self.counts)
        twin.rows = list(self.rows)
        return twin

    def step(self, code: int | None = None) -> None:
        """Pick one user among the unselected records, of the layer of ``code`` when given."""
        eligible = self.unselected if code is None else self.unselected & (self.codes == code)
        if self.fallback_from is None:
            candidates = eligible & self.unpruned
            if not candidates.any():
                # pruning ran dry: from this rank on, pick by residual norm alone
                self.fallback_from = len(self.rows)
                candidates = eligible
        else:
            candidates = eligible
        if not candidates.any():
            raise SelectionError("pool exhausted before the requested schedule size")

        res_norms = np.linalg.norm(self.residuals[candidates], axis=1)
        cand_positions = np.flatnonzero(candidates)
        best = res_norms.max()
        tied = cand_positions[res_norms == best]
        pick = tied[np.argmin(self.ids[tied])]  # deterministic tie-break: lowest record id

        g = self.residuals[pick].copy()
        self.rows.append(int(pick))
        self.unselected[pick] = False
        self.counts[self.codes[pick]] += 1

        norm_sq = float(np.vdot(g, g).real)
        if norm_sq > 0.0:
            # expand the basis: project everyone onto the new direction once
            self.residuals -= np.outer(self.residuals @ g.conj() / norm_sq, g)
            if self.fallback_from is None:
                live = self.unpruned & self.unselected
                denom = np.maximum(self.norms[live], 1e-300) * np.sqrt(norm_sq)
                corr = np.abs(self.channels[live] @ g.conj()) / denom
                drop = np.flatnonzero(live)[corr >= self.params.alpha]
                self.unpruned[drop] = False


def _prefix_schedules(pool: CsiDataset, ks: list[int],
                      params: SusParams) -> Iterator[tuple[np.ndarray, int | None]]:
    """SUS (rows, fallback rank) of each k in ascending ``ks``: the first k picks of one run."""
    run = _SusRun(pool, params)
    for k in ks:
        while len(run.rows) < k:
            run.step()
        yield np.array(run.rows), run.fallback_from


def _layered_schedules(pool: CsiDataset, grounds: list[int], aerials: list[int],
                       params: SusParams) -> Iterator[tuple[np.ndarray, int | None]]:
    """Layered SUS (rows, fallback rank) of each (k_ground, k_aerial) but (0, 0), in row order."""
    # A layered run follows the unconstrained run until one layer meets its
    # quota, then picks from the other layer only. So one shared unconstrained
    # run, cloned where it first meets each grid quota, plus one single-layer
    # continuation per clone, serves every cell. Cells run in ascending order,
    # so the shared run never reaches a cell's second quota before the cell
    # is served: exactly one of its two quotas has a clone.
    quotas = (set(grounds), set(aerials))  # in _LAYERS order: indexed by layer code
    shared = _SusRun(pool, params)
    branches: dict[tuple[int, int], _SusRun] = {}  # (code, count) -> the run cloned there
    for k_ground in grounds:
        for k_aerial in aerials:
            if k_ground == 0 and k_aerial == 0:
                continue
            keys = list(enumerate((k_ground, k_aerial)))  # (code, quota)
            while True:
                for code, count in enumerate(shared.counts):
                    if count in quotas[code] and (code, count) not in branches:
                        branches[code, count] = shared.clone()
                if any(key in branches for key in keys):
                    break
                shared.step()
            [full] = [key for key in keys if key in branches]
            branch = branches[full]
            open_code, quota = keys[1 - full[0]]
            while branch.counts[open_code] < quota:
                branch.step(open_code)
            yield np.array(branch.rows), branch.fallback_from
        # the row is done, and no later cell has its terrestrial quota: its
        # branch goes, and the shared run clones it no more
        quotas[Layer.TERRESTRIAL.code].discard(k_ground)
        branches.pop((Layer.TERRESTRIAL.code, k_ground), None)


def sus_select(pool: CsiDataset, k: int, params: SusParams = SusParams()) -> SelectionResult:
    """Semi-orthogonal user selection of k users from the pool.

    Repeats: pick the candidate with the largest residual norm against the
    selected basis, add that residual to the basis, drop candidates whose
    correlation with the new basis vector is >= alpha. When pruning exhausts
    the candidates first, the remaining picks go by residual norm alone, and
    ``fallback_used_from`` records the rank where that began.

    Prefix property: for one pool and params, the schedule for k users is the
    first k picks of the schedule for any larger k, and its fallback rank is
    the larger run's rank when that rank is below k (None otherwise).
    """
    if not 1 <= k <= len(pool):
        raise ValueError(f"k must be in 1..{len(pool)}, got {k}")
    rows, fallback_from = next(_prefix_schedules(pool, [k], params))
    return _selection(pool, rows, SelectionMethod.SUS, fallback_from)


def sus_select_layered(
    pool: CsiDataset, quota: Mapping[Layer, int], params: SusParams = SusParams()
) -> SelectionResult:
    """SUS with a per-layer quota: a layer that reaches its quota drops out.

    Users are chosen from either layer until one layer's running count hits
    its quota; from then on only the other layer's candidates (including in
    fallback) are considered, so the final per-layer counts equal the quota.
    Fallback works as in :func:`sus_select`; only a quota beyond a layer's
    population raises :class:`SelectionError`.
    """
    caps = {layer: int(quota.get(layer, 0)) for layer in Layer}
    if any(c < 0 for c in caps.values()):
        raise ValueError("quotas must be nonnegative")
    if sum(caps.values()) < 1:
        raise ValueError("total quota must be at least 1")
    populations = pool.layer_counts()
    for layer, cap in caps.items():
        if cap > populations[layer]:
            raise SelectionError(
                f"quota {cap} exceeds the {populations[layer]} available "
                f"{layer.value} records"
            )
    rows, fallback_from = next(_layered_schedules(pool, [caps[Layer.TERRESTRIAL]],
                                                  [caps[Layer.AERIAL]], params))
    return _selection(pool, rows, SelectionMethod.SUS_LAYERED, fallback_from)
