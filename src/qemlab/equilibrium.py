"""Symbolic oracles: pressure and equilibrium states on finite-type shifts.

The built-in open maps have Markov holes, so their survivor dynamics are
conjugate to full shifts (or subshifts of finite type) on the surviving
branches.  For a weight matrix psi[a][b] on symbol transitions, the pressure
is the log Perron root of A = exp(psi), and the equilibrium state is the
Parry-type Gibbs measure built from the Perron data of A:

    p_a = l_a r_a / <l, r>,      Q[a][b] = A[a][b] r_b / (lam r_a),
    mass[a_0 ... a_{k-1}] = p_{a_0} prod_i Q[a_i][a_{i+1}].

These are desk-scale exact references for the grid pipeline, so the Perron
data here comes from a dense full-spectrum solve (numpy), deliberately not
from the power iteration used on the grid side.

The module also provides the measure-comparison metrics used by the
stability experiments: the exact 1-Wasserstein distance in 1d between masses
at the cell centers, and a weak-* discrepancy over fixed Fourier members of
Lipschitz constant at most 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .ulam import GridPartition

Array = np.ndarray


@dataclass(frozen=True)
class MarkovModel:
    """Weighted transition structure on the surviving branches.

    ``log_weights[a][b]`` is psi on the transition a -> b, with -inf marking
    a forbidden transition.  ``digits``/``base`` describe the cylinder
    geometry when the symbols are digits of a linear mod-1 map on [0, 1):
    symbol a occupies the branch interval [digit_a / base, (digit_a+1)/base).
    Models without geometry (None) still support pressure and cylinder
    masses.
    """

    log_weights: Array
    digits: tuple[int, ...] | None = None
    base: int | None = None

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        object.__setattr__(self, "log_weights", lw)
        if lw.ndim != 2 or lw.shape[0] != lw.shape[1]:
            raise ValueError("log_weights must be a square matrix")
        if not np.any(np.isfinite(lw)):
            raise ValueError("all transitions forbidden")

    @property
    def n_states(self) -> int:
        return self.log_weights.shape[0]

    def transition_matrix(self) -> Array:
        A = np.exp(self.log_weights)
        A[~np.isfinite(self.log_weights)] = 0.0
        return A

    @staticmethod
    def from_matrix(A, digits=None, base=None) -> "MarkovModel":
        """Build from the nonnegative matrix A = exp(psi); zeros forbid."""
        A = np.asarray(A, dtype=float)
        with np.errstate(divide="ignore"):
            lw = np.where(A > 0.0, np.log(np.maximum(A, 1e-300)), -np.inf)
        return MarkovModel(lw, digits=digits, base=base)

    def cylinder_interval(self, word: tuple[int, ...]) -> tuple[float, float]:
        """Geometric interval of the cylinder [a_0 ... a_{k-1}]."""
        if self.digits is None or self.base is None:
            raise ValueError("model has no cylinder geometry")
        lo = sum(self.digits[a] * self.base ** -(i + 1) for i, a in enumerate(word))
        return lo, lo + self.base ** -len(word)


def full_shift_model(digits, base: int, log_weight: float) -> MarkovModel:
    """Full shift on the given digits with constant transition weight."""
    s = len(digits)
    return MarkovModel(np.full((s, s), float(log_weight)),
                       digits=tuple(int(d) for d in digits),
                       base=int(base))


def model_for(label: str) -> MarkovModel:
    """Symbolic model of a built-in system for the geometric weight.

    psi = -log|slope| on every surviving branch (phi = 0); the open_baker
    shares the ternary x-structure (its contracting direction carries no
    expansion).
    """
    if label in ("ternary_hole", "open_baker"):
        return full_shift_model((0, 2), 3, -math.log(3.0))
    if label == "five_hole":
        return full_shift_model((0, 1, 2), 5, -math.log(5.0))
    raise KeyError(f"no symbolic model for {label!r}")


def _perron_index(vals: Array) -> int:
    """Index of the Perron root: the largest (essentially) real eigenvalue."""
    real = np.abs(vals.imag) <= 1e-9 * (1.0 + np.abs(vals.real))
    idx = np.flatnonzero(real)
    return int(idx[np.argmax(vals.real[idx])])


def _perron_data(A: Array) -> tuple[float, Array, Array]:
    """Perron root with positive right/left vectors via a dense solve."""
    vals, vecs = np.linalg.eig(A)
    i = _perron_index(vals)
    lam = float(vals[i].real)
    r = np.abs(vecs[:, i].real)
    valsT, vecsT = np.linalg.eig(A.T)
    l = np.abs(vecsT[:, _perron_index(valsT)].real)
    return lam, r, l


def _irreducible(A: Array) -> bool:
    n = A.shape[0]
    reach = (A > 0).astype(np.int64) + np.eye(n, dtype=np.int64)
    for _ in range(int(math.ceil(math.log2(max(n, 2))))):
        reach = np.minimum(reach @ reach, 1)
    return bool(np.all(reach > 0))


def pressure_sft(model: MarkovModel) -> float:
    """Topological pressure: log of the Perron root of exp(log_weights).

    For a reducible weight matrix the spectral radius equals the maximum over
    its irreducible blocks, which is the right notion here (the dominant
    component wins).
    """
    A = model.transition_matrix()
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho <= 0.0:
        raise ValueError("zero transition matrix has no pressure")
    return math.log(rho)


@dataclass(eq=False)
class ReferenceMeasure:
    """Cylinder-level equilibrium measure at a fixed depth."""

    model: MarkovModel
    depth: int
    words: list[tuple[int, ...]]
    masses: Array

    def intervals(self) -> Array:
        return np.asarray([self.model.cylinder_interval(w) for w in self.words])

    def grid_projection(self, grid: GridPartition) -> Array:
        """Project onto grid cells, splitting each cylinder by overlap (1d)."""
        if grid.dimension != 1:
            raise ValueError("grid projection implemented for 1d grids")
        out = np.zeros(grid.n_cells)
        h = grid.cell_volume
        lows = grid.cell_lo[:, 0]
        highs = lows + grid.cell_width[:, 0]
        for (lo, hi), m in zip(self.intervals(), self.masses):
            overlap = np.minimum(hi, highs) - np.maximum(lo, lows)
            overlap[overlap < 1e-12 * h] = 0.0  # drop roundoff slivers
            total = overlap.sum()
            if total > 0:
                out += m * overlap / total
        return out

    def mean(self) -> float:
        iv = self.intervals()
        return float(np.sum(self.masses * iv.mean(axis=1)))

    def variance(self) -> float:
        """Variance with each cylinder's mass spread uniformly over its box."""
        iv = self.intervals()
        mid = iv.mean(axis=1)
        w = iv[:, 1] - iv[:, 0]
        second = float(np.sum(self.masses * (mid ** 2 + w ** 2 / 12.0)))
        return second - self.mean() ** 2


def equilibrium_cylinder_measure(model: MarkovModel, depth: int) -> ReferenceMeasure:
    """Parry-type Gibbs measure on depth-k cylinders.

    Requires the positive part of the transition matrix to be irreducible,
    so the Perron vectors are strictly positive and the chain (p, Q) below is
    well defined.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    A = model.transition_matrix()
    if not _irreducible(A):
        raise ValueError("transition matrix is reducible on its positive part")
    lam, r, l = _perron_data(A)
    p = l * r / float(l @ r)
    Q = A * r[None, :] / (lam * r[:, None])
    words: list[tuple[int, ...]] = []
    masses: list[float] = []
    for word in product(range(model.n_states), repeat=depth):
        m = p[word[0]]
        for a, b in zip(word, word[1:]):
            m *= Q[a][b]
        if m > 0.0:
            words.append(word)
            masses.append(float(m))
    return ReferenceMeasure(model, depth, words, np.asarray(masses))


# ---------------------------------------------------------------------------
# measure comparison
# ---------------------------------------------------------------------------

def _members(dimension: int):
    """The weak-* members {1} u {cos(2 pi k x_j)/(2 pi k), sin(...)/(2 pi k)}
    for k <= 8 on each coordinate x_j of ``(n, d)`` points.

    Every non-constant member has Lipschitz constant at most 1 on the unit
    box, so their maximum is a weak-* discrepancy surrogate.
    """
    out = [("one", lambda x: np.ones(x.shape[0]))]
    for j in range(dimension):
        for k in range(1, 9):
            c = 2.0 * math.pi * k
            out.append((f"cos{k}_x{j}",
                        lambda x, c=c, j=j: np.cos(c * x[:, j]) / c))
            out.append((f"sin{k}_x{j}",
                        lambda x, c=c, j=j: np.sin(c * x[:, j]) / c))
    return out


def weak_star_discrepancy(mu: Array, nu: Array, centers: Array) -> float:
    """max over the members f of |sum_i (mu_i - nu_i) f(center_i)|.

    ``centers`` holds one cell center per row, shape ``(n_cells, d)``; the
    members are built for all d coordinates.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or mu.shape != (centers.shape[0],) \
            or nu.shape != (centers.shape[0],):
        raise ValueError("vectors do not match the cell centers")
    diff = mu - nu
    return max(abs(float(np.dot(diff, f(centers))))
               for _, f in _members(centers.shape[1]))


def w1_1d(mu: Array, nu: Array, centers: Array) -> float:
    """Exact 1-Wasserstein distance between the masses at the centers (1d).

    ``mu`` and ``nu`` place their masses at the ``(n_cells, 1)`` cell
    centers.  With C the cumulative difference over the sorted centers x,
    the distance is sum_{i<n} |C_i| (x_{i+1} - x_i), the integral of
    |CDF_mu - CDF_nu|; a gap between grid boxes is a longer spacing.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != 1:
        raise ValueError("w1_1d requires 1d cell centers")
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != (centers.shape[0],) or nu.shape != (centers.shape[0],):
        raise ValueError("vectors do not match the cell centers")
    order = np.argsort(centers[:, 0])
    cdf_diff = np.cumsum(mu[order] - nu[order])
    return float(np.sum(np.abs(cdf_diff[:-1]) * np.diff(centers[order, 0])))
