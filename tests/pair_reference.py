"""Enumerated pair reference for the SILT kernels.

Every pair i < j of an N-point grid with its trapezoid weight c_ij, and the
SILT value and gradient of one path summed pair by pair over them, and the
unscaled pair sum in extended precision. The batch kernels, the grid
expectation and the chain's Gram kernel are all checked against these sums.
"""

import numpy as np


def pair_cache(n_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle pair indices (i < j) and trapezoid weights c_ij.

    Outer weight 1/2 at j = N-1, inner weight 1/2 at i = 0; the would-be
    inner endpoint i = j is excluded entirely.
    """
    i_idx, j_idx = np.triu_indices(n_points, k=1)
    outer = np.ones(n_points)
    outer[-1] = 0.5
    inner = np.ones(n_points)
    inner[0] = 0.5
    c = outer[j_idx] * inner[i_idx]
    return i_idx, j_idx, c


def pair_silt_and_grad(x: np.ndarray, spacing: float, eps: float) -> tuple[float, np.ndarray]:
    """SILT of one path x (N, d) and its gradient in every node, (N, d)."""
    n, d = x.shape
    i_idx, j_idx, c = pair_cache(n)
    scale = spacing**2 * (2.0 * np.pi * eps) ** (-0.5 * d)
    dx = x[j_idx] - x[i_idx]
    q = c * np.exp(-np.sum(dx * dx, axis=1) / (2.0 * eps))
    grad = np.zeros_like(x)
    np.add.at(grad, i_idx, q[:, None] * dx / eps)
    np.add.at(grad, j_idx, -q[:, None] * dx / eps)
    return scale * float(np.sum(q)), scale * grad


def pair_kernel_sum(x: np.ndarray, eps: float) -> float:
    """sum_(i < j) c_ij exp(-|x_j - x_i|^2 / (2 eps)) of one path x (N, d),
    in np.longdouble: 64 bits of mantissa on x86-64, so it rounds about
    2000 times finer than a double and measures the kernels' own error."""
    i_idx, j_idx, c = pair_cache(x.shape[0])
    xl = x.astype(np.longdouble)
    sq = np.sum((xl[j_idx] - xl[i_idx]) ** 2, axis=1)
    return float(np.sum(c * np.exp(-sq / (2 * np.longdouble(eps)))))
