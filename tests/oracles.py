"""Independent oracles for the test suite.

Everything here deliberately avoids the code paths it is used to check:
eigendata comes from dense repeated squaring (not power iteration on the
sparse structure), CDFs come from digit recursions, and integrals from plain
midpoint quadrature.
"""

from __future__ import annotations

import numpy as np

from qemlab.ulam import AnnealedMatrix


def entries_from_rows(n: int, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, indices, data)`` of ``n`` rows, each ``(columns, values)``,
    listed row after row."""
    row_parts, idx_parts, val_parts = [], [], []
    for i, (idx, val) in enumerate(rows):
        row_parts.append(np.full(idx.size, i, dtype=np.int64))
        idx_parts.append(idx)
        val_parts.append(val)
    if not row_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    return (np.concatenate(row_parts), np.concatenate(idx_parts),
            np.concatenate(val_parts))


def matrix_from_dense(A, cell_volume: float = 1.0,
                      metadata: dict | None = None) -> AnnealedMatrix:
    """Wrap a dense array as an AnnealedMatrix (test construction helper)."""
    A = np.asarray(A, dtype=float)
    rows = []
    for i in range(A.shape[0]):
        nz = np.flatnonzero(A[i] != 0.0).astype(np.int64)
        rows.append((nz, A[i, nz]))
    return AnnealedMatrix(A.shape[0], *entries_from_rows(A.shape[0], rows),
                          cell_volume=cell_volume, metadata=metadata or {})


def growth_rate_dense(A, squarings: int = 64):
    """Dominant eigendata by repeated squaring of the dense matrix.

    After k squarings the normalized power M^(2^k) converges to the rank-one
    projector right*left^T, so the leading eigenvalue is recovered from the
    accumulated log norms and the eigenvectors from any nonzero column / row
    of the limit.  Returns (lam, right, left) with right sup-normalized.
    """
    A = np.asarray(A, dtype=float)
    norm = np.max(np.abs(A))
    if norm == 0.0:
        return 0.0, np.zeros(A.shape[0]), np.zeros(A.shape[0])
    B = A / norm
    # invariant: M^(2^k) = B * exp(2^k * log_lam) with ||B||_max = 1
    log_lam = np.log(norm)
    half = 1.0
    for _ in range(squarings):
        B = B @ B
        s = np.max(np.abs(B))
        if s == 0.0:
            return 0.0, np.zeros(A.shape[0]), np.zeros(A.shape[0])
        B /= s
        half *= 0.5
        log_lam += np.log(s) * half
    lam = float(np.exp(log_lam))
    col = np.argmax(np.abs(B).sum(axis=0))
    right = np.abs(B[:, col])
    right /= right.max()
    row = np.argmax(np.abs(B).sum(axis=1))
    left = np.abs(B[row, :])
    return lam, right, left


def cantor_cdf(x: float, depth: int = 48) -> float:
    """CDF of the middle-thirds maximal-entropy measure (devil's staircase)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    value = 0.0
    scale = 0.5
    for _ in range(depth):
        x *= 3.0
        digit = int(x)
        x -= digit
        if digit == 1:
            return value + scale
        if digit == 2:
            value += scale
        scale *= 0.5
    return value + scale * x


def quad_w1_uniform_vs_cantor(n: int = 200_001) -> float:
    """Midpoint quadrature of int |x - CantorCDF(x)| dx on [0, 1]."""
    xs = (np.arange(n) + 0.5) / n
    vals = np.abs(xs - np.array([cantor_cdf(float(x)) for x in xs]))
    return float(np.mean(vals))


def ternary_cylinder_cells(depth: int, resolution: int) -> np.ndarray:
    """Grid cells holding the depth-k survivor cylinders (resolution 3^k)."""
    from itertools import product

    cells = []
    for word in product((0, 2), repeat=depth):
        lo = sum(d * 3.0 ** -(i + 1) for i, d in enumerate(word))
        cells.append(int(round(lo * resolution)))
    return np.asarray(sorted(cells))
