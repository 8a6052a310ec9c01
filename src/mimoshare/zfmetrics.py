"""Zero-forcing combining and the SINR / spectral-efficiency pipeline.

With the scheduled channels column-stacked as an M x K matrix H, the combiner
is V = H (H^H H)^-1, so v_k^H h_i is 1 for i == k and 0 otherwise
(Bjornson, Hoydis & Sanguinetti, *Massive MIMO Networks*, 2017), and the ZF
SINR has the closed form SINR_k = p / (sigma^2 [(H^H H)^-1]_kk).

One stacked closed form that decides every schedule, plus a per-schedule literal reference:

- the private closed form ``_screened_sinr`` takes B schedules of K users
  as a (B, K, M) channel stack, takes [(H^H H)^-1]_kk from one triangular
  factor R per schedule, inverts R as a triangle (block recursion down to
  back substitution, as LAPACK's trtri does; no LU inverse or solve), runs
  the exact SVD condition check only where a free bound does not clear the
  cap, and says which schedules cleared; a schedule's result does not
  depend on its stack. ``evaluate_selection``
  and the sweeps keep the SINR of the schedules it clears, and
  ``_rejection`` words one it does not as ``zf_combiner`` does.
- the literal reference builds the combiner of one (K, M) schedule and
  evaluates SINR literally, interference term included, so it is valid for
  any combiner, not only ZF. ``zf_combiner`` and ``sinr`` expose it, and
  ``zf_combiner`` rejects K > M, then a Gram matrix beyond DEFAULT_COND_CAP.

SINR depends on the transmit power p only through p / sigma^2, which
``normalize_to_snr`` sets from ``snr_db`` for p = 1, so evaluation above the
reference runs at unit power; ``sinr`` takes both powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csi import CsiDataset
from .sched import SelectionResult

__all__ = [
    "DEFAULT_COND_CAP",
    "IllConditionedError",
    "SeReport",
    "zf_combiner",
    "sinr",
    "spectral_efficiency",
    "sum_se",
    "evaluate_selection",
]

DEFAULT_COND_CAP = 1e10
# crosstalk |V^H H - I| below which a combiner needs no refinement pass
_CROSSTALK_TOL = 1e-13
# how far below the cap tr(G) tr(G^-1) must stay to skip the exact SVD: near
# the cap the computed tr(G^-1) carries a relative error of ~cond_2(G) eps
_BOUND_MARGIN = 10.0
# largest triangle ``_triangular_inverse`` solves by back substitution rather
# than by splitting it further
_TRIANGLE_LEAF = 8


class IllConditionedError(ValueError):
    """Gram matrix of the scheduled channels is singular or near-singular."""


@dataclass(frozen=True)
class SeReport:
    """Per-user SINR/SE and the summed SE for one evaluated schedule."""

    per_user_sinr: np.ndarray  # linear
    per_user_se: np.ndarray  # bits/s/Hz
    sum_se: float  # bits/s/Hz


def _as_user_matrix(channels) -> np.ndarray:
    a = np.asarray(channels, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError(f"expected a (K, M) stack of channel rows, got shape {a.shape}")
    return a


def _check_powers(tx_power: float, noise_power: float) -> None:
    if tx_power <= 0.0 or noise_power <= 0.0:
        raise ValueError("tx_power and noise_power must be positive")


def _gram(a: np.ndarray) -> np.ndarray:
    """Gram matrices H^H H (B, K, K) of a (B, K, M) stack."""
    return a.conj() @ a.transpose(0, 2, 1)


def _gram_condition(gram: np.ndarray) -> np.ndarray:
    """Exact 2-norm condition numbers (B,) of a Gram stack, inf where singular."""
    svals = np.linalg.svd(gram, compute_uv=False)
    smallest = svals[:, -1]
    return np.divide(svals[:, 0], smallest, out=np.full(len(gram), np.inf), where=smallest > 0.0)


def zf_combiner(channels) -> np.ndarray:
    """Zero-forcing combiner (M, K) for K user channels given as rows of a (K, M) array.

    Column k combines user k. The K x K Gram matrix is inverted once, and the
    combiner is corrected with that inverse by up to two refinement passes
    while its crosstalk V^H H - I still reaches 1e-13, which holds the
    v_k^H h_i = delta_ki contract to ~1e-12 even near the condition cap.
    Raises IllConditionedError when K > M would allow no null space, or else
    when the Gram condition number exceeds DEFAULT_COND_CAP, an infinite one
    (a singular Gram matrix) included.
    """
    a = _as_user_matrix(channels)
    k_users, m_antennas = a.shape
    if k_users > m_antennas:
        raise IllConditionedError(f"cannot null {k_users} users with {m_antennas} antennas (K > M)")
    gram = _gram(a[None])  # the stacked call, so cap decisions match the closed form's screen
    cond = float(_gram_condition(gram)[0])
    if not cond <= DEFAULT_COND_CAP:  # inf and NaN fail too
        raise IllConditionedError(
            f"Gram condition number {cond:.3e} exceeds cap {DEFAULT_COND_CAP:.1e}")
    h = a.T  # (M, K), columns are the user channels
    eye = np.eye(k_users, dtype=np.complex128)
    gram_inv = np.linalg.inv(gram[0])
    v = h @ gram_inv
    for _ in range(2):
        crosstalk = v.conj().T @ h - eye
        if np.abs(crosstalk).max() < _CROSSTALK_TOL:
            break
        v = v - h @ (gram_inv @ crosstalk.conj().T)
    return v


def sinr(
    combiner,
    channels,
    tx_power: float,
    noise_power: float,
) -> np.ndarray:
    """Per-user SINR, interference term evaluated literally.

    SINR_k = p |v_k^H h_k|^2 / (sum_{i != k} p |v_k^H h_i|^2 + sigma^2 ||v_k||^2)
    with one equal transmit power p for every user, for any (M, K) combiner V.
    """
    a = _as_user_matrix(channels)
    v = np.asarray(combiner)
    if v.shape != (a.shape[1], a.shape[0]):
        raise ValueError(
            f"combiner shape {v.shape} does not match {a.shape[0]} channels of length {a.shape[1]}"
        )
    _check_powers(tx_power, noise_power)
    cross = v.conj().T @ a.T  # cross[k, i] = v_k^H h_i
    desired = tx_power * np.abs(np.diagonal(cross)) ** 2
    interference = tx_power * np.sum(np.abs(cross) ** 2, axis=1) - desired
    noise = noise_power * np.sum(np.abs(v) ** 2, axis=0)
    return desired / (interference + noise)


def _back_substitution(upper: np.ndarray) -> np.ndarray:
    """Inverse of a (B, n, n) upper-triangular stack with a nonzero diagonal, column by column.

    Solves (D^-1 R) X = D^-1, D = diag(R): with a unit diagonal, each row of X
    is final once the columns after it are eliminated. Nothing below the
    diagonal is ever written.
    """
    n = upper.shape[-1]
    diag = np.diagonal(upper, axis1=1, axis2=2)
    unit = upper / diag[:, :, None]
    inverse = np.zeros_like(upper)
    inverse[:, range(n), range(n)] = 1.0 / diag
    for j in range(n - 1, 0, -1):
        inverse[:, :j, j:] -= unit[:, :j, j, None] * inverse[:, None, j, j:]
    return inverse


def _triangular_inverse(upper: np.ndarray) -> np.ndarray:
    """Inverse of a (B, K, K) upper-triangular stack with a nonzero diagonal.

    With R = [[A, S], [0, C]], R^-1 = [[A^-1, -A^-1 S C^-1], [0, C^-1]]. Both
    diagonal blocks are inverted as one stack of 2B, so there is one call per
    level; an odd K pads C with a leading unit entry to A's size. Triangles of
    at most _TRIANGLE_LEAF go to back substitution. This is LAPACK's blocked
    trtri, stable as Du Croz & Higham (IMA J. Numer. Anal., 1992) show, at
    ~K^3/3 flops against ~8K^3/3 for an LU inverse. The result is exactly zero
    below the diagonal, and a matrix's inverse does not depend on its stack.
    """
    n_stack, k, _ = upper.shape
    if k <= _TRIANGLE_LEAF:
        return _back_substitution(upper)
    h = (k + 1) // 2
    pad = 2 * h - k
    halves = np.zeros((2 * n_stack, h, h), dtype=upper.dtype)
    halves[:n_stack] = upper[:, :h, :h]
    halves[n_stack:, pad:, pad:] = upper[:, h:, h:]
    halves[n_stack:, :pad, :pad] = 1.0  # the unit entry; an empty slice for even K
    halves = _triangular_inverse(halves)
    top, bottom = halves[:n_stack], halves[n_stack:, pad:, pad:]
    inverse = np.zeros_like(upper)
    inverse[:, :h, :h] = top
    inverse[:, h:, h:] = bottom
    inverse[:, :h, h:] = -(top @ upper[:, :h, h:]) @ bottom
    return inverse


def _screened_sinr(channels, noise_power: float) -> tuple[np.ndarray, np.ndarray]:
    """ZF SINR (B, K) of a (B, K, M) stack at unit power, and the (B,) schedules it clears.

    With H = Q R, G = H^H H = R^H R and diag(G^-1)_j = sum_i |(R^-1)_ji|^2;
    factoring H, not G, keeps the relative error near sqrt(cond_2(G)) eps
    (1e-12 at cond_2(G) = 1e9, where a Cholesky factor of G gives 1e-6). R^-1
    comes from ``_triangular_inverse``, so no LU inverse or solve runs. A
    schedule clears, as ``zf_combiner`` would accept it, when K <= M, R has no
    zero on its diagonal and G is within DEFAULT_COND_CAP: by the bound
    cond_2(G) <= tr(G) tr(G^-1) where it is _BOUND_MARGIN below the cap, else
    by the exact SVD. A row that does not clear holds no SINR.
    """
    a = np.asarray(channels, dtype=np.complex128)
    if a.ndim != 3 or 0 in a.shape:
        raise ValueError(f"expected a (B, K, M) stack of schedules, got shape {a.shape}")
    _check_powers(1.0, noise_power)
    _, k_users, m_antennas = a.shape
    if k_users > m_antennas:
        return np.zeros(a.shape[:2]), np.zeros(len(a), dtype=bool)
    factor = np.linalg.qr(a.transpose(0, 2, 1), mode="r")  # (B, K, K), G = R^H R
    singular = np.any(np.diagonal(factor, axis1=1, axis2=2) == 0.0, axis=1)
    if singular.any():
        factor[singular] = np.eye(k_users)  # stand-ins, so that the others are inverted
    factor = _triangular_inverse(factor)  # R^-1 from here on; R is dropped
    re, im = factor.real, factor.imag
    # squared in place, as x**2 is np.square(x) bit for bit; nothing below needs R^-1
    inv_diag = np.sum(np.square(re, out=re) + np.square(im, out=im), axis=2)
    del factor, re, im
    bound = np.sum(a.real**2 + a.imag**2, axis=(1, 2)) * np.sum(inv_diag, axis=1)
    cleared = ~singular & (bound <= DEFAULT_COND_CAP / _BOUND_MARGIN)
    unclear = ~singular & ~cleared
    if unclear.any():
        cond = _gram_condition(_gram(a)[unclear])  # the bits zf_combiner decides on
        cleared[unclear] = cond <= DEFAULT_COND_CAP
    return 1.0 / (noise_power * inv_diag), cleared


def _rejection(channels) -> IllConditionedError:
    """``zf_combiner``'s error on a (K, M) schedule that ``_screened_sinr`` did not clear."""
    try:
        zf_combiner(channels)
    except IllConditionedError as exc:
        return exc
    raise RuntimeError("broken invariant: zf_combiner accepts a schedule the screen rejected")


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


def _noise_power(pool: CsiDataset) -> float:
    """The pool's noise power; a pool that was never normalized has none to evaluate at."""
    if pool.noise_power is None:
        raise ValueError("pool has no noise power; normalize it before evaluation")
    return pool.noise_power


def evaluate_selection(pool: CsiDataset, selection: SelectionResult) -> SeReport:
    """ZF SINR and SE, at unit transmit power, of the scheduled users of a normalized pool."""
    noise_power = _noise_power(pool)
    channels = pool.channels_for(selection.chosen)
    [sinr_values], [cleared] = _screened_sinr(channels[None], noise_power)
    if not cleared:
        raise _rejection(channels)
    se_values = spectral_efficiency(sinr_values)
    return SeReport(per_user_sinr=sinr_values, per_user_se=se_values, sum_se=sum_se(se_values))
