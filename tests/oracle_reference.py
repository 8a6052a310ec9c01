"""Per-subset brute-force optimum: the best schedule of size k, found literally.

The paper measures SUS against this optimum. The loop evaluates each subset
on its own through ``evaluate_selection`` and skips those that raise
(K > M, or a Gram matrix beyond the condition cap). Ties go to the first
subset. For desk-scale pools only: ``budget`` bounds the subsets it visits.
"""

from __future__ import annotations

import itertools
import math

from conftest import layer_counts_of
from mimoshare.csi import CsiDataset
from mimoshare.sched import SelectionMethod, SelectionResult
from mimoshare.zfmetrics import IllConditionedError, evaluate_selection

__all__ = ["per_subset_oracle"]


def per_subset_oracle(
    pool: CsiDataset, k: int, budget: int = 1_000_000
) -> tuple[tuple[int, ...], float]:
    """Exact optimum schedule of size k, one ``evaluate_selection`` call per subset."""
    n = len(pool)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    n_subsets = math.comb(n, k)
    if n_subsets > budget:
        raise ValueError(f"C({n},{k}) = {n_subsets} exceeds the enumeration budget {budget}")

    best_ids: tuple[int, ...] | None = None
    best_sum = -math.inf
    for combo in itertools.combinations(pool.ids.tolist(), k):
        # the method tag plays no part in the evaluation
        selection = SelectionResult(combo, layer_counts_of(pool, combo), SelectionMethod.RANDOM)
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
