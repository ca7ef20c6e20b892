"""Dominant eigendata of the discretized operator and the quasi-ergodic vector.

The assembled matrices are nonnegative with a simple dominant eigenvalue, so
plain power iteration from a strictly positive start vector converges to the
Perron pair and never needs a general eigensolver.  The right eigenvector g
(sup-norm 1) plays the role of the survival profile, the left eigen-density m
(integral 1) is the quasi-stationary density, and the quasi-ergodic vector is
their normalized product

    qem_i = g_i * m_i * vol_i / sum_j g_j * m_j * vol_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ulam import AnnealedMatrix

Array = np.ndarray


class NonConvergenceError(RuntimeError):
    """Power iteration failed to reach the requested residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after "
                         f"{iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


def _power_iteration(matvec, n: int, tol: float, max_iters: int):
    v = np.ones(n)
    lam = 0.0
    res = math.inf
    for it in range(max_iters):
        w = matvec(v)
        lam = float(np.max(np.abs(w)))
        if lam <= 0.0:
            raise ValueError("no positive spectral radius")
        res = float(np.max(np.abs(w - lam * v)))
        if res <= tol * lam:
            return lam, v, res
        v = w / lam
    raise NonConvergenceError("power iteration did not converge", res, max_iters)


def leading_pair(matrix: AnnealedMatrix, tol: float = 1e-10,
                 max_iters: int = 100_000):
    """Dominant eigenvalue and right eigenvector, sup-norm 1.

    Returns ``(lam, right, residual)`` with
    ``max|M right - lam right| <= tol * lam``.  Raises ValueError on a matrix
    with no positive spectral radius and NonConvergenceError past max_iters.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam, v, res = _power_iteration(matrix.apply, matrix.n_cells, tol, max_iters)
    return lam, v, res


def leading_left(matrix: AnnealedMatrix, tol: float = 1e-10,
                 max_iters: int = 100_000):
    """Dominant left eigenvector as a density: sum(left * cell_volume) = 1.

    Convergence requires both the sup-norm and the l1 residual to fall under
    ``tol * lam`` relative to the respective norms of the iterate, so the
    fixed-point identity holds in the integrated sense too.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = matrix.n_cells
    v = np.ones(n)
    res = math.inf
    for it in range(max_iters):
        w = matrix.apply_adjoint(v)
        lam = float(np.max(np.abs(w)))
        if lam <= 0.0:
            raise ValueError("no positive spectral radius")
        diff = w - lam * v
        res = float(np.max(np.abs(diff)))
        res1 = float(np.sum(np.abs(diff)))
        if res <= tol * lam and res1 <= tol * lam * float(np.sum(np.abs(v))):
            total = float(np.sum(v) * matrix.cell_volume)
            return lam, v / total, res / total
        v = w / lam
    raise NonConvergenceError("adjoint power iteration did not converge",
                              res, max_iters)


def assemble_qem(right: Array, left: Array, cell_volume: float) -> Array:
    """Quasi-ergodic probability vector from the two eigenvectors."""
    mass = right * left * cell_volume
    pairing = float(np.sum(mass))
    if pairing <= 0.0:
        raise ValueError("degenerate eigendata: right and left eigenvectors "
                         "have (numerically) disjoint supports")
    return mass / pairing


def _deflated_ratio(matrix, triple, tol, max_iters, seed):
    """Estimate |lambda_2| / lambda_1 by power iteration after deflation.

    The dominant eigenspace is projected out through the left/right pair each
    step, and the 2-norm growth factor of the deflated iteration estimates
    |lambda_2|.  Returns ``(ratio, converged)``; when the ratio fails to
    settle (e.g. a complex pair), it is a conservative upper bound, clipped
    to [0, 1].
    """
    lam, r, l = triple.lam, triple.right, triple.left
    denom = float(np.dot(l, r))
    if denom == 0.0:
        return 1.0, False
    rng = np.random.default_rng([int(seed)])
    v = rng.standard_normal(matrix.n_cells)

    def project(x):
        return x - r * (np.dot(l, x) / denom)

    v = project(v)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return 0.0, True
    v /= nv
    window = 16  # geometric mean over a window absorbs complex-pair beats
    ratios: list[float] = []
    means: list[float] = []
    settled = 0
    for _ in range(max_iters):
        w = project(matrix.apply(v))
        nw = float(np.linalg.norm(w))
        if nw <= lam * 1e-300:
            return 0.0, True
        ratios.append(nw)
        v = w / nw
        if len(ratios) < window:
            continue
        gm = float(np.exp(np.mean(np.log(ratios[-window:]))))
        means.append(gm)
        if len(means) > 1 and abs(means[-1] - means[-2]) <= tol * lam:
            settled += 1
            if settled >= 5:
                return min(1.0, gm / lam), True
        else:
            settled = 0
    upper = max(means[-20:]) if means else max(ratios)
    return min(1.0, upper / lam), False


@dataclass(eq=False)
class SpectralTriple:
    """Dominant spectral data of an assembled operator.

    lam > 0; right >= 0 with sup norm 1; left >= 0 with integral 1;
    pairing = sum(right * left * vol); qem sums to 1; gap_ratio estimates
    |lambda_2| / lambda_1.
    """

    lam: float
    right: Array
    left: Array
    pairing: float
    qem: Array
    right_residual: float
    left_residual: float
    gap_ratio: float
    gap_converged: bool = True
    cell_volume: float = 1.0

    def scalars(self) -> dict:
        return {
            "lambda": self.lam,
            "gap_ratio": self.gap_ratio,
            "gap_converged": self.gap_converged,
            "pairing": self.pairing,
            "right_residual": self.right_residual,
            "left_residual": self.left_residual,
        }


def solve_triple(matrix: AnnealedMatrix, tol: float = 1e-10,
                 max_iters: int = 100_000, seed: int = 0,
                 with_gap: bool = True) -> SpectralTriple:
    """Full dominant-eigendata pipeline for one assembled matrix.

    Tiny negative eigenvector entries from roundoff are clamped to zero
    before the quasi-ergodic vector is formed.
    """
    lam_r, right, res_r = leading_pair(matrix, tol, max_iters)
    lam_l, left, res_l = leading_left(matrix, tol, max_iters)
    right = np.maximum(right, 0.0)
    left = np.maximum(left, 0.0)
    pairing = float(np.sum(right * left * matrix.cell_volume))
    qem = assemble_qem(right, left, matrix.cell_volume)
    triple = SpectralTriple(lam=lam_r, right=right, left=left, pairing=pairing,
                            qem=qem, right_residual=res_r, left_residual=res_l,
                            gap_ratio=math.nan, cell_volume=matrix.cell_volume)
    if with_gap:
        ratio, converged = _deflated_ratio(matrix, triple, max(tol, 1e-8),
                                           min(max_iters, 10_000), seed)
        triple.gap_ratio = ratio
        triple.gap_converged = converged
    else:
        triple.gap_ratio = math.nan
    return triple


@dataclass
class SupportReport:
    """Outcome of a support check against reference cells."""

    floor: float
    n_reference: int
    min_mass: float
    violations: list[tuple[int, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def support_check(triple: SpectralTriple, reference_cells,
                  floor: float) -> SupportReport:
    """Verify every reference cell carries qem mass at least ``floor``.

    An empty reference set passes vacuously (min_mass = inf).
    """
    cells = np.asarray(list(reference_cells), dtype=np.int64)
    if cells.size == 0:
        return SupportReport(floor=floor, n_reference=0, min_mass=math.inf)
    masses = triple.qem[cells]
    violations = [(int(c), float(m)) for c, m in zip(cells, masses) if m < floor]
    return SupportReport(floor=floor, n_reference=int(cells.size),
                         min_mass=float(np.min(masses)), violations=violations)
