"""Dominant eigendata of the discretized operator and the quasi-ergodic vector.

The assembled matrices are nonnegative with a simple dominant eigenvalue, so
plain power iteration from a strictly positive start vector converges to the
Perron pair and never needs a general eigensolver.  The right eigenvector g
(sup-norm 1) plays the role of the survival profile, the left eigen-density m
(integral 1) is the quasi-stationary density, and the quasi-ergodic vector is
their normalized product

    qem_i = g_i * m_i * vol_i / sum_j g_j * m_j * vol_j.

The left side is solved only when something reads it, so a caller that
reports eigenvalues only, as the filtration workflow does, runs no adjoint
power iteration.

The spectral gap |lambda_2| / lambda_1 comes from a restarted Arnoldi method
on the operator with the Perron pair projected out; it counts as converged
only when its condition number times its Ritz residual is at most
``tol * lambda_1``.  It starts from a fixed vector, so the gap, like the
rest, is a function of the matrix alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ulam import AnnealedMatrix

Array = np.ndarray

KRYLOV_DIM = 40  # Arnoldi basis size of the spectral-gap solver
STALL_WINDOW = 100  # power steps without a new best residual before the shift


class NonConvergenceError(RuntimeError):
    """Power iteration failed to reach the requested residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after "
                         f"{iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


class ZeroOperatorError(ValueError):
    """The operator has no positive spectral radius: it is nilpotent."""


def _power_iteration(matvec, n: int, tol: float, max_iters: int,
                     l1: bool = False):
    """Power iteration from the all-ones vector: ``(lam, v, residual)`` with
    the sup-norm residual ``max|matvec(v) - lam v|`` at most ``tol * lam``;
    with ``l1`` the l1 residual must also be at most ``tol * lam * |v|_1``.

    Each step calls ``matvec`` once and otherwise works in place, in ``v``
    and one work vector.  A periodic (imprimitive) nonnegative matrix has
    several eigenvalues of modulus lambda, so its iterates cycle and the
    residual never falls.  When the residual relative to ``lam`` has not
    fallen below its best for ``STALL_WINDOW`` steps and the step kept the
    iterate's count of nonzero entries, the iteration switches, once, to
    ``M + alpha I`` with ``alpha`` the current ``lam``: the shift keeps the
    Perron vector, moves every other eigenvalue of the spectral circle
    strictly inside, and is undone in the returned ``lam`` (Stewart,
    *Introduction to the Numerical Solution of Markov Chains*, 1994).  The
    supports of the iterates ``M^k 1`` of a nonnegative matrix are nested,
    so an unchanged count means an invariant support, which holds a cycle
    and so a positive ``lam``; the shift leaves the entries off it at zero.
    A nilpotent matrix loses support every step until its iterates vanish,
    so it never shifts and raises ZeroOperatorError.  A primitive matrix
    converges before it stalls, so it never takes the shift and its result
    is bitwise that of the plain iteration.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = np.ones(n)
    work = np.empty(n)
    res, best, fell, shift = math.inf, math.inf, 0, 0.0
    for step in range(max_iters):
        w = matvec(v)
        if shift:
            w += np.multiply(v, shift, out=work)
        top = float(np.abs(w, out=work).max())  # lam + shift
        lam = top - shift
        if lam <= 0.0:
            raise ZeroOperatorError("no positive spectral radius")
        np.multiply(v, top, out=work)
        res = float(np.abs(np.subtract(w, work, out=work), out=work).max())
        if res <= tol * lam and (not l1 or float(work.sum())
                                 <= tol * lam * float(np.abs(v).sum())):
            return lam, v, res
        if res / lam < best:
            best, fell = res / lam, step
        elif (not shift and step - fell >= STALL_WINDOW
              and np.count_nonzero(w) == np.count_nonzero(v)):
            shift = lam
        np.divide(w, top, out=v)
    kind = "adjoint power iteration" if l1 else "power iteration"
    raise NonConvergenceError(f"{kind} did not converge", res, max_iters)


def leading_pair(matrix: AnnealedMatrix, tol: float = 1e-10,
                 max_iters: int = 100_000):
    """Dominant eigenvalue and right eigenvector, sup-norm 1.

    Returns ``(lam, right, residual)`` with
    ``max|M right - lam right| <= tol * lam``.  Raises ZeroOperatorError on a
    nilpotent matrix and NonConvergenceError past max_iters.
    """
    return _power_iteration(matrix.apply, matrix.n_cells, tol, max_iters)


def leading_left(matrix: AnnealedMatrix, tol: float = 1e-10,
                 max_iters: int = 100_000):
    """Dominant left eigenvector as a density: sum(left * cell_volume) = 1.

    Convergence requires both the sup-norm and the l1 residual to fall under
    ``tol * lam`` relative to the respective norms of the iterate, so the
    fixed-point identity holds in the integrated sense too.
    """
    lam, v, res = _power_iteration(matrix.apply_adjoint, matrix.n_cells, tol,
                                   max_iters, l1=True)
    total = float(np.sum(v) * matrix.cell_volume)
    return lam, v / total, res / total


def assemble_qem(right: Array, left: Array, cell_volume: float) -> Array:
    """Quasi-ergodic probability vector from the two eigenvectors."""
    mass = right * left * cell_volume
    pairing = float(np.sum(mass))
    if pairing <= 0.0:
        raise ValueError("degenerate eigendata: right and left eigenvectors "
                         "have (numerically) disjoint supports")
    return mass / pairing


def _deflated_ratio(matrix, triple, tol, max_iters):
    """|lambda_2| / lambda_1 by restarted Arnoldi on the deflated operator.

    The Perron pair is projected out, ``x -> Mx - r (l.Mx) / (l.r)``, and
    Arnoldi builds a Krylov basis of ``KRYLOV_DIM`` vectors for that
    operator, fully reorthogonalised (classical Gram-Schmidt, two passes).
    The Ritz value theta of largest modulus of the small Hessenberg matrix
    estimates lambda_2; complex and equal-modulus pairs come out exactly.
    It is certified only when ``kappa * residual <= tol * lambda_1``: the Ritz
    residual ``|h_{m+1,m}| |y_m| / |y|`` is a backward error, and
    ``kappa = 1 / |x^H y|``, for unit left and right eigenvectors x and y of
    the Hessenberg matrix, makes it a forward error (Saad, *Numerical Methods
    for Large Eigenvalue Problems*, 2011, ch. 3).  x comes from ``eig`` of
    the transpose: ``inv(vecs)`` would load another LAPACK routine, about
    0.5 MB of peak memory.  The first cycle whose plain residual passes,
    as every breakdown (an invariant subspace) does, decides: a restart
    from that Ritz vector would break down at a 1 x 1 matrix, whose kappa
    is 1, and so certify the same theta.  Otherwise Arnoldi restarts from
    the real span of that Ritz vector.
    The first start is ``sin(1), ..., sin(n)``.  Any vector with a component
    along the subdominant eigenvector will do; this one is neither symmetric
    nor antisymmetric under index reversal, so the mirror symmetry of the
    builtins' survivor sets cannot hide that eigenvector from it.
    Returns ``(ratio, converged)``; past ``max_iters`` matvecs the last Ritz
    estimate comes back with ``converged=False`` and is not a bound.
    """
    lam, r, l = triple.lam, triple.right, triple.left
    denom = float(np.dot(l, r))
    n = matrix.n_cells
    m = min(KRYLOV_DIM, n)
    basis = np.empty((m + 1, n))
    hess = np.zeros((m + 1, m))
    v = np.sin(np.arange(1.0, n + 1.0))
    theta, used = 0.0, 0
    while used < max_iters:
        v = v - r * (np.dot(l, v) / denom)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return 0.0, True
        basis[0] = v / nv
        k = min(m, max_iters - used)
        for j in range(k):
            w = matrix.apply(basis[j])
            w -= r * (np.dot(l, w) / denom)
            h = basis[:j + 1] @ w
            w -= h @ basis[:j + 1]
            h2 = basis[:j + 1] @ w
            w -= h2 @ basis[:j + 1]
            hess[:j + 1, j] = h + h2
            hess[j + 1, j] = beta = float(np.linalg.norm(w))
            used += 1
            if beta <= tol * lam:
                k = j + 1
                break
            basis[j + 1] = w / beta
        vals, vecs = np.linalg.eig(hess[:k, :k])
        i = int(np.argmax(np.abs(vals)))
        theta, y = float(abs(vals[i])), vecs[:, i]  # eig gives |y| = 1
        residual = float(abs(hess[k, k - 1] * y[-1]))
        if residual <= tol * lam:  # needed, as kappa >= 1; a breakdown passes
            # x, a left eigenvector of theta, is a right one of H^T
            left_vals, left_vecs = np.linalg.eig(hess[:k, :k].T)
            x = left_vecs[:, int(np.argmin(np.abs(left_vals - vals[i])))]
            pairing = float(abs(x @ y))  # 1 / kappa, 0 when defective
            return theta / lam, residual <= tol * lam * pairing
        v = (y.real + y.imag) @ basis[:k]
    return theta / lam, False


@dataclass(eq=False)
class SpectralTriple:
    """Dominant spectral data of an assembled operator.

    lam > 0; right >= 0 with sup norm 1; gap_ratio is the Arnoldi estimate
    of |lambda_2| / lambda_1 (NaN when no gap was asked for, as in the
    filtration workflow), and gap_converged says :func:`_deflated_ratio`
    certified it to ``tol * lambda_1``.

    The left side is solved on the first read of ``left``,
    ``left_residual``, ``pairing`` or ``qem``, once, and kept: left >= 0 with
    integral 1; pairing = sum(right * left * vol), vol the cell volume of the
    matrix solved; qem sums to 1.  So a left solve that does not converge,
    or eigendata whose pairing is degenerate, raises at that read.  The
    triple holds its matrix until the left side is solved.
    """

    lam: float
    right: Array
    right_residual: float
    _matrix: AnnealedMatrix = field(repr=False)
    _solver: tuple[float, int] = field(repr=False)  # tol and max_iters
    gap_ratio: float = math.nan
    gap_converged: bool = False

    @cached_property
    def _left_side(self) -> tuple[Array, float, float, Array]:
        _, left, residual = leading_left(self._matrix, *self._solver)
        vol = self._matrix.cell_volume
        pairing = float(np.sum(self.right * left * vol))
        side = left, residual, pairing, assemble_qem(self.right, left, vol)
        self._matrix = None  # solved: holding the matrix longer only costs memory
        return side

    @property
    def left(self) -> Array:
        return self._left_side[0]

    @property
    def left_residual(self) -> float:
        return self._left_side[1]

    @property
    def pairing(self) -> float:
        return self._left_side[2]

    @property
    def qem(self) -> Array:
        return self._left_side[3]

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
                 max_iters: int = 100_000, with_gap: bool = True) -> SpectralTriple:
    """Dominant eigendata of one assembled matrix: the right side now, the
    left side on first read (see :class:`SpectralTriple`).

    With ``with_gap`` the left side is solved first, then the gap, with the
    tolerance ``max(tol, 1e-8)`` and at most ``min(max_iters, 10_000)``
    matvecs from a fixed start vector, so the triple is a function of the
    matrix alone; with ``with_gap=False`` the gap is NaN and not converged.
    """
    lam, right, residual = leading_pair(matrix, tol, max_iters)
    triple = SpectralTriple(lam, right, residual, matrix, (tol, max_iters))
    if with_gap:
        triple.qem  # the gap projects the left side out, so solve it first
        triple.gap_ratio, triple.gap_converged = _deflated_ratio(
            matrix, triple, max(tol, 1e-8), min(max_iters, 10_000))
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
