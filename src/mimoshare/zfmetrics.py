"""Zero-forcing combining and the SINR / spectral-efficiency pipeline.

With the scheduled channels column-stacked as an M x K matrix H, the combiner
is V = H (H^H H)^-1, so v_k^H h_i is 1 for i == k and 0 otherwise
(Bjornson, Hoydis & Sanguinetti, *Massive MIMO Networks*, 2017). SINR is
evaluated literally, interference term included, so the same routine is valid
for any combiner, not only ZF.

One stacked core does the work: it takes B schedules of K users as a
(B, K, M) channel stack and makes, per matrix, the same numpy ``linalg`` and
matmul calls a single schedule gets, so a schedule's SINR does not depend on
the stack it is evaluated in. ``zf_combiner``, ``sinr`` and
``evaluate_selection`` are its B = 1 case; ``stacked_sinr`` evaluates a whole
stack, as the sweeps do for every schedule size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csi import CsiDataset
from .sched import SelectionResult

__all__ = [
    "DEFAULT_COND_CAP",
    "IllConditionedError",
    "CombinerMatrix",
    "SeReport",
    "zf_combiner",
    "sinr",
    "stacked_sinr",
    "spectral_efficiency",
    "sum_se",
    "evaluate_selection",
]

DEFAULT_COND_CAP = 1e10
# crosstalk |V^H H - I| below which a combiner needs no refinement pass
_CROSSTALK_TOL = 1e-13


class IllConditionedError(ValueError):
    """Gram matrix of the scheduled channels is singular or near-singular.

    ``index`` is the position, in the evaluated stack, of the first matrix
    that failed (0 for a single schedule).
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class CombinerMatrix:
    """Per-user combining vectors, one column per scheduled user."""

    matrix: np.ndarray  # (M, K) complex, column k combines user k
    gram_condition: float  # condition number of the K x K Gram matrix

    @property
    def k_users(self) -> int:
        return self.matrix.shape[1]

    @property
    def m_antennas(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SeReport:
    """Per-user SINR/SE and the summed SE for one evaluated schedule."""

    per_user_sinr: np.ndarray  # linear
    per_user_se: np.ndarray  # bits/s/Hz
    sum_se: float  # bits/s/Hz
    selection: SelectionResult
    noise_power: float
    tx_power: float


def _as_user_matrix(channels) -> np.ndarray:
    a = np.asarray(channels, dtype=np.complex128)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError(f"expected a (K, M) stack of channel rows, got shape {a.shape}")
    return a


def _as_schedule_stack(channels) -> np.ndarray:
    a = np.asarray(channels, dtype=np.complex128)
    if a.ndim != 3 or 0 in a.shape:
        raise ValueError(f"expected a (B, K, M) stack of schedules, got shape {a.shape}")
    return a


def _check_powers(tx_power: float, noise_power: float) -> None:
    if tx_power <= 0.0 or noise_power <= 0.0:
        raise ValueError("tx_power and noise_power must be positive")


def _first_not_positive_definite(gram: np.ndarray) -> int | None:
    """Position of the first matrix of a Gram stack that has no Cholesky factor."""
    try:
        np.linalg.cholesky(gram)
        return None
    except np.linalg.LinAlgError:
        pass
    for b, matrix in enumerate(gram):
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            return b
    return None


def _zf_stack(a: np.ndarray, cond_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """ZF combiners (B, M, K) and Gram condition numbers (B,) of a (B, K, M) stack.

    Each K x K Gram matrix is inverted once, and the combiners are corrected
    with that inverse by up to two refinement passes, each applied only to
    the matrices whose crosstalk V^H H - I still reaches 1e-13, which holds
    the v_k^H h_i = delta_ki contract to ~1e-12 even near the condition cap.
    Raises
    IllConditionedError, naming the first failing matrix, when K > M allows
    no null space, a Gram condition number exceeds the cap, or a Gram matrix
    is not positive definite.
    """
    _, k_users, m_antennas = a.shape
    if k_users > m_antennas:
        raise IllConditionedError(
            f"cannot null {k_users} users with {m_antennas} antennas (K > M)"
        )
    h = a.transpose(0, 2, 1)  # (B, M, K), columns are the user channels
    gram = a.conj() @ h  # H^H H
    svals = np.linalg.svd(gram, compute_uv=False)
    smallest = svals[:, -1]
    cond = np.divide(svals[:, 0], smallest, out=np.full(len(a), np.inf), where=smallest > 0.0)
    capped = np.flatnonzero(~(np.isfinite(cond) & (cond <= cond_cap)))
    first_capped = int(capped[0]) if capped.size else len(a)
    # a matrix is checked as it would be alone: condition first, then Cholesky
    failed = _first_not_positive_definite(gram[:first_capped])
    if failed is not None:
        raise IllConditionedError("Gram matrix is not positive definite", index=failed)
    if capped.size:
        raise IllConditionedError(
            f"Gram condition number {cond[first_capped]:.3e} exceeds cap {cond_cap:.1e}",
            index=first_capped,
        )

    eye = np.eye(k_users, dtype=np.complex128)
    # a (1, K, K) right-hand side reads as a matrix stack on numpy 1.x and 2.x alike
    gram_inv = np.linalg.solve(gram, eye[None])
    v = h @ gram_inv
    active = np.arange(len(a))
    for _ in range(2):
        # a[active] is a C-ordered copy, so each matrix keeps the layout it has in h
        h_active = a[active].transpose(0, 2, 1)
        crosstalk = v[active].conj().transpose(0, 2, 1) @ h_active - eye
        still = np.abs(crosstalk).max(axis=(1, 2)) >= _CROSSTALK_TOL
        if not still.any():
            break
        active = active[still]
        correction = gram_inv[active] @ crosstalk[still].conj().transpose(0, 2, 1)
        v[active] = v[active] - a[active].transpose(0, 2, 1) @ correction
    return v, cond


def _sinr_stack(v: np.ndarray, a: np.ndarray, tx_power: float, noise_power: float) -> np.ndarray:
    """Literal per-user SINR (B, K) of combiners (B, M, K) on channels (B, K, M)."""
    cross = v.conj().transpose(0, 2, 1) @ a.transpose(0, 2, 1)  # cross[b, k, i] = v_k^H h_i
    desired = tx_power * np.abs(np.diagonal(cross, axis1=1, axis2=2)) ** 2
    interference = tx_power * np.sum(np.abs(cross) ** 2, axis=2) - desired
    noise = noise_power * np.sum(np.abs(v) ** 2, axis=1)
    return desired / (interference + noise)


def zf_combiner(channels, cond_cap: float = DEFAULT_COND_CAP) -> CombinerMatrix:
    """Zero-forcing combiner for K user channels given as rows of a (K, M) array.

    Raises IllConditionedError when K > M would allow no null space, when the
    Gram condition number exceeds the cap, or when the Gram matrix is not
    positive definite.
    """
    v, cond = _zf_stack(_as_user_matrix(channels)[None], cond_cap)
    return CombinerMatrix(matrix=v[0], gram_condition=float(cond[0]))


def sinr(
    combiner: CombinerMatrix,
    channels,
    tx_power: float,
    noise_power: float,
) -> np.ndarray:
    """Per-user SINR, interference term evaluated literally.

    SINR_k = p |v_k^H h_k|^2 / (sum_{i != k} p |v_k^H h_i|^2 + sigma^2 ||v_k||^2)
    with one equal transmit power p for every user.
    """
    a = _as_user_matrix(channels)
    v = combiner.matrix
    if v.shape != (a.shape[1], a.shape[0]):
        raise ValueError(
            f"combiner shape {v.shape} does not match {a.shape[0]} channels of length {a.shape[1]}"
        )
    _check_powers(tx_power, noise_power)
    return _sinr_stack(v[None], a[None], tx_power, noise_power)[0]


def stacked_sinr(
    channels,
    tx_power: float,
    noise_power: float,
    cond_cap: float = DEFAULT_COND_CAP,
) -> np.ndarray:
    """Per-user ZF SINR (B, K) of B schedules given as a (B, K, M) channel stack.

    Row b equals ``sinr(zf_combiner(channels[b]), channels[b], ...)`` bit for
    bit. An IllConditionedError carries the position of the first failing
    schedule as ``index``.
    """
    a = _as_schedule_stack(channels)
    _check_powers(tx_power, noise_power)
    v, _ = _zf_stack(a, cond_cap)
    return _sinr_stack(v, a, tx_power, noise_power)


def spectral_efficiency(sinr_values) -> np.ndarray:
    """Elementwise log2(1 + SINR), bits/s/Hz."""
    s = np.asarray(sinr_values, dtype=np.float64)
    if s.size and s.min() < 0.0:
        raise ValueError("SINR values must be nonnegative")
    return np.log2(1.0 + s)


def sum_se(se_values) -> float:
    """Summed spectral efficiency of a schedule."""
    se = np.asarray(se_values, dtype=np.float64)
    if se.size == 0:
        return 0.0
    if se.min() < 0.0:
        raise ValueError("spectral efficiencies must be nonnegative")
    return float(np.sum(se))


def evaluate_selection(
    pool: CsiDataset,
    selection: SelectionResult,
    tx_power: float = 1.0,
    cond_cap: float = DEFAULT_COND_CAP,
) -> SeReport:
    """ZF combiner + SINR + SE for the scheduled users of a normalized pool."""
    if pool.noise_power is None:
        raise ValueError("pool has no noise power; normalize it before evaluation")
    channels = pool.channels_for(selection.chosen)
    sinr_values = stacked_sinr(channels[None], tx_power, pool.noise_power, cond_cap)[0]
    se_values = spectral_efficiency(sinr_values)
    return SeReport(
        per_user_sinr=sinr_values,
        per_user_se=se_values,
        sum_se=sum_se(se_values),
        selection=selection,
        noise_power=pool.noise_power,
        tx_power=tx_power,
    )
