"""Grid discretization of the annealed, weighted, killed transfer operator.

The operator acts on observables f by

    (P f)(x) = e^{phi(x)} E[ f(T(x) + delta) 1_Y(T(x) + delta) ],

with delta product-uniform on [-eps, eps]^d.  Its Ulam matrix on a grid of
cells {c_i} is

    M[i][j] = e^{phi(center_i)} * avg_{x in c_i} P( T(x) + delta in c_j & Y ),

so row i lists where mass starting in cell i lands after one weighted step.

Assembly estimator
------------------
Each source cell is split into strata.  A stratum's uniform mass is pushed
forward through the map by its (shrunken, linearly re-expanded) corner
images, giving an image interval/rectangle; the sum "uniform on the image
box + uniform kernel" has a piecewise-quadratic CDF per axis, so the mass of
every target cell is computed in closed form.  No delta is ever sampled, and
for maps that are affine on each branch the matrix is exact as soon as no
stratum straddles a branch discontinuity (one stratum per cell suffices on
branch-aligned grids, for any eps).  Strata whose corner images are
inconsistent with a single monotone branch (detected via the midpoint image
and the Jacobian) fall back to a point mass at the midpoint image, which
keeps non-aligned grids sane.  The matrix's ``diagnostics`` count those point
masses and the strata absorbed off the domain.  The matrix depends only on
the map, eps, weight, region, grid and strata: there is nothing random in it.

Branch-aligned grids can still show a few point masses.  On the affine maps
the corner shrink ``_ETA * width`` of a fine stratum (about 5e-17 on
``two_repeller`` at 1215 cells and 15 strata) is below one ulp of the
coordinate, so a shrunken corner is the branch point itself and maps to the
far end of the circle: one stratum on ``two_repeller`` (lower edge 2.4) and
one on ``five_hole`` at 625 cells and 15 strata (upper edge 0.6).  On
``smooth_perturbed`` the two point masses at 729 cells and 3 strata are real
straddles, whose corner images wrap around the circle.

Cells straddling the boundary of Y receive fractional killing weights from
:func:`qemlab.dynamics.region_fraction`, exact for any union of boxes.

The assembly runs on whole arrays, a fixed number of source cells per pass:
cell boxes, strata, corner and midpoint images, the branch-consistency test,
the per-axis CDFs and their tensor products are computed for every stratum
of the pass at once.  Each (row, column) sum is accumulated by ``bincount``
in the order of the per-cell definition (stratum by stratum, axis 0
outermost), so the matrices are bitwise those of assembling one cell, one
stratum and one axis at a time.  The sums need no sort on 1-D grids: each
row sums into a dense band of bins that spans its columns, and the bins come
out in row, then column order.  Where the bands would be sparse, as on 2-D
grids, the pass sorts its (row, column) keys instead.  The matrix is that
one sorted list of (row, column, value) entries, read as it is by every
matvec, restriction and export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .dynamics import (Domain, MapSystem, NoiseModel, RegionSpec,
                       WeightField, region_fraction)

Array = np.ndarray


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GridPartition:
    """Uniform partition of each box of ``domain`` into ``resolution^d`` cells.

    Cells are half open and indexed row-major within each box; the domain's
    boxes are concatenated, so ``n_cells = n_boxes * resolution^dimension``.
    With ``h = box width / resolution`` and a cell's row-major digits in its box,
    ``cell_lo = box lo + digits * h``, ``cell_width = (cell_lo + h) - cell_lo``
    and the center is ``box lo + (digits + 0.5) * h``: every reader of a
    cell's box takes it from here.  Immutable after construction.
    """

    domain: Domain
    resolution: int
    dimension: int = field(init=False)
    n_cells: int = field(init=False)
    cell_volume: float = field(init=False)
    cell_lo: Array = field(init=False, repr=False)
    cell_width: Array = field(init=False, repr=False)
    _centers: Array = field(init=False, repr=False)

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        d = self.dimension = self.domain.dimension
        per_box = self.resolution ** d
        self.n_cells = len(self.domain.boxes) * per_box
        vols = {round(b.volume / per_box, 15) for b in self.domain.boxes}
        if len(vols) != 1:
            raise ValueError("boxes must produce equal cell volumes")
        self.cell_volume = self.domain.boxes[0].volume / per_box
        box, rem = np.divmod(np.arange(self.n_cells), per_box)
        place = self.resolution ** np.arange(d - 1, -1, -1)
        digits = rem[:, None] // place % self.resolution
        lo = np.array([b.lo for b in self.domain.boxes], dtype=float)[box]
        h = np.array([b.widths for b in self.domain.boxes])[box] / self.resolution
        self.cell_lo = lo + digits * h
        self.cell_width = (self.cell_lo + h) - self.cell_lo
        self._centers = lo + (digits + 0.5) * h

    @property
    def cells_per_box(self) -> int:
        return self.resolution ** self.dimension

    def centers(self) -> Array:
        return self._centers


# ---------------------------------------------------------------------------
# sparse matrix
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class AnnealedMatrix:
    """Nonnegative sparse matrix with metadata.

    The matrix is one list of ``(rows, indices, data)`` entries, sorted by
    row and then by column, with no pair repeated.  Row i already carries
    the weight e^{phi(center_i)} in its entries.  Immutable after assembly.
    """

    n_cells: int
    rows: Array
    indices: Array
    data: Array
    cell_volume: float
    metadata: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def apply(self, v: Array) -> Array:
        """Forward action on observables: (M v)_i = sum_j M[i][j] v_j."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_cells,):
            raise ValueError(f"vector length {v.shape} != {self.n_cells}")
        return np.bincount(self.rows, weights=self.data * v[self.indices],
                           minlength=self.n_cells)

    def apply_adjoint(self, u: Array) -> Array:
        """Adjoint action on densities: (M^T u)_j = sum_i M[i][j] u_i."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_cells,):
            raise ValueError(f"vector length {u.shape} != {self.n_cells}")
        return np.bincount(self.indices, weights=self.data * u[self.rows],
                           minlength=self.n_cells)

    def toarray(self) -> Array:
        out = np.zeros((self.n_cells, self.n_cells))
        out[self.rows, self.indices] = self.data
        return out


# ---------------------------------------------------------------------------
# closed-form axis masses: uniform-on-[p,q] + uniform kernel of half-width eps
# ---------------------------------------------------------------------------

def _h_antideriv(t: Array, eps: float) -> Array:
    """Antiderivative of the kernel CDF: 0 | (t+eps)^2/(4 eps) | t."""
    if eps == 0.0:
        return np.maximum(t, 0.0)
    with np.errstate(over="ignore"):  # a subnormal eps, where it is not picked
        middle = (t + eps) ** 2 / (4.0 * eps)
    return np.where(t <= -eps, 0.0, np.where(t >= eps, t, middle))


def _segment_cdf(z: Array, p: Array, q: Array, eps: float) -> Array:
    """CDF of Z = U[p,q] + U[-eps,eps] at the points z, elementwise in p, q.

    Where ``q == p`` the segment is a point mass at p.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = (_h_antideriv(z - p, eps) - _h_antideriv(z - q, eps)) / (q - p)
    if eps > 0.0:
        with np.errstate(over="ignore"):  # a subnormal eps: +-inf, clipped
            point = np.clip((z - p + eps) / (2.0 * eps), 0.0, 1.0)
    else:
        point = (z > p).astype(float)
    return np.where(q > p, spread, point)


def _axis_cell_masses(p: Array, q: Array, eps: float, res: int, width: Array,
                      wrap: Array) -> tuple[Array, Array, Array]:
    """Target-cell masses of the segments [p, q] along their box axes.

    Coordinates are box-local, one segment per entry of the inputs.  Wrapped
    axes fold the support back into [0, width) once per copy of the circle it
    meets; absorbing axes drop the overhang.  Returns ``(segment, cell,
    mass)`` grouped by segment, then copy, then cell; cells may repeat
    within a segment when its support wraps onto itself, so callers must
    accumulate.
    """
    h = width / res
    k0 = np.where(wrap, np.floor((p - eps) / width), 0.0).astype(np.int64)
    k1 = np.where(wrap, np.floor((q + eps) / width + 1e-15), 0.0).astype(np.int64)
    seg, copy = _ragged(k1 - k0 + 1)
    shift = (k0[seg] + copy) * width[seg]
    pp = p[seg] - shift
    qq = q[seg] - shift
    hh = h[seg]
    c0 = np.maximum(0, np.floor((pp - eps) / hh).astype(np.int64))
    c1 = np.minimum(res - 1, np.floor((qq + eps) / hh).astype(np.int64))
    piece, rank = _ragged(np.where(c1 >= c0, c1 - c0 + 2, 0))
    cells = c0[piece] + rank
    cdf = _segment_cdf(cells * hh[piece], pp[piece], qq[piece], eps)
    masses = np.diff(cdf)
    # a mass joins an edge to the next one of the same copy; the floor drops
    # corner-extrapolation roundoff
    keep = (piece[1:] == piece[:-1]) & (masses > 1e-14)
    return seg[piece[:-1][keep]], cells[:-1][keep], masses[keep]


def _ragged(sizes: Array) -> tuple[Array, Array]:
    """Flat layout of groups of the given sizes: each item's group and its
    rank within the group."""
    owner = np.repeat(np.arange(sizes.size), sizes)
    starts = np.cumsum(sizes) - sizes
    return owner, np.arange(owner.size) - starts[owner]


# ---------------------------------------------------------------------------
# region fractions per cell
# ---------------------------------------------------------------------------

def region_fractions(region: RegionSpec, grid: GridPartition) -> Array:
    """Covered fraction of every grid cell, exact for any union of boxes.

    Cells inside or outside the region get 1 or 0 directly; each cell that
    straddles its boundary gets :func:`qemlab.dynamics.region_fraction`.
    """
    n = grid.n_cells
    lo_all, hi_all = grid.cell_lo, grid.cell_lo + grid.cell_width
    inside = np.zeros(n, dtype=bool)
    touches = np.zeros(n, dtype=bool)
    for box in region.boxes:
        blo, bhi = np.asarray(box.lo), np.asarray(box.hi)
        inside |= np.all((lo_all >= blo - 1e-12) & (hi_all <= bhi + 1e-12), axis=1)
        touches |= np.all((np.minimum(hi_all, bhi) - np.maximum(lo_all, blo)) > 1e-12,
                          axis=1)
    frac = np.where(inside, 1.0, 0.0)
    for i in np.flatnonzero(touches & ~inside):
        frac[i] = region_fraction(region, lo_all[i], hi_all[i])
    return frac


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

# Source cells per assembly pass.  A pass holds a few arrays with one entry
# per (stratum, target cell) pair of its cells, so this bounds the working
# memory on any grid.  Measured on the benchmark workloads, 128 is as fast as
# 256 or 512 and keeps peak memory at the 32-cell level; 512 adds 5 MB to
# sweep_1d.
_CHUNK_CELLS = 128

_ETA = 1e-12  # relative corner shrink, keeps evaluations off branch edges

# Most entries (stratum, target cell pairs before summing) an assembly may take,
# estimated before any pass: ternary_hole at 729 cells and epsilon 1 takes 2.1M
# (0.24 s, 95 MB peak on a 2-core Xeon); open_baker, 81^2 cells, epsilon 1: 4.7e8.
_MAX_ENTRIES = 10_000_000


class DenseOperatorError(ValueError):
    """The operator's estimated entries exceed ``_MAX_ENTRIES``."""


def _strata_counts(samples_per_cell, dimension: int) -> tuple[int, ...]:
    if isinstance(samples_per_cell, (tuple, list)):
        counts = tuple(int(m) for m in samples_per_cell)
        if len(counts) != dimension or any(m < 1 for m in counts):
            raise ValueError("per-axis strata counts must be positive")
        return counts
    k = int(samples_per_cell)
    if k < 1:
        raise ValueError("samples_per_cell must be >= 1")
    per_axis = max(1, round(k ** (1.0 / dimension)))
    return (per_axis,) * dimension


class _Assembly:
    """One operator assembly: the inputs every pass reads, the stratum
    template, per-domain-box tables and the assembly counters."""

    def __init__(self, system: MapSystem, region: RegionSpec,
                 grid: GridPartition, eps: float, counts: tuple[int, ...],
                 frac: Array, weights: Array):
        self.system, self.region, self.grid = system, region, grid
        self.eps, self.frac, self.weights = eps, frac, weights
        d = grid.dimension
        # stratum lower corners and widths relative to the cell, and the
        # shrunken corner offsets within a stratum
        rel_axes = [(np.arange(m) / m) for m in counts]
        self.rel_lo = np.stack([g.ravel() for g in
                                np.meshgrid(*rel_axes, indexing="ij")], axis=1)
        self.rel_w = np.asarray([1.0 / m for m in counts])
        corner_signs = np.array(list(product((0.0, 1.0), repeat=d)))
        self.shr = corner_signs * (1.0 - 2.0 * _ETA) + _ETA
        self.stratum_mass = 1.0 / self.rel_lo.shape[0]
        # one row per domain box
        domain = system.domain.boxes
        self.dom_lo = np.array([b.lo for b in domain], dtype=float)
        self.dom_w = np.array([b.widths for b in domain])
        self.dom_wrap = np.array([b.wrap for b in domain], dtype=bool)
        self.counters = {"point_mass_strata": 0, "absorbed_strata": 0}

    def strata(self, cells: Array) -> tuple[Array, Array, Array, Array]:
        """Kept strata of the cells, in cell then stratum order: the
        position of their cell in ``cells``, their lower corners, widths and
        midpoints, with the cell boxes of :class:`GridPartition`."""
        d, n_strata = self.grid.dimension, self.rel_lo.shape[0]
        lo, h = self.grid.cell_lo[cells], self.grid.cell_width[cells]
        s_lo = lo[:, None, :] + self.rel_lo * h[:, None, :]
        s_w = self.rel_w * h
        mids = (s_lo + 0.5 * s_w[:, None, :]).reshape(-1, d)
        kept = np.flatnonzero(self.region.contains(mids))  # source-side killing
        owner = kept // n_strata
        return owner, s_lo.reshape(-1, d)[kept], s_w[owner], mids[kept]

    def images(self, s_lo: Array, s_w: Array, mids: Array
               ) -> tuple[Array, Array, Array, Array]:
        """Image segments of strata: the mask of strata that stay on the
        domain, then their domain box and box-local segment ends.

        A stratum's image is the box spanned by its shrunken corner images,
        re-expanded.  When that is inconsistent with one monotone branch
        (midpoint image outside it, volume off the Jacobian's by more than a
        factor 2, or wider than the box) the image is a point mass at the
        midpoint image.  A stratum whose midpoint image leaves the domain is
        absorbed.
        """
        system, d = self.system, self.grid.dimension
        corners = s_lo[:, None, :] + self.shr * s_w[:, None, :]
        img_corners = system.forward(corners.reshape(-1, d)).reshape(corners.shape)
        img_mids = system.forward(mids)
        jac_mid = system.jacobian_det(mids)
        box = system.domain.locate(img_mids)
        alive = box >= 0
        box, img_corners, s_w = box[alive], img_corners[alive], s_w[alive]
        blo, bw = self.dom_lo[box], self.dom_w[box]
        cmin = img_corners.min(axis=1) - blo
        cmax = img_corners.max(axis=1) - blo
        centerp = (cmin + cmax) / 2.0
        half = (cmax - cmin) / 2.0 / (1.0 - 2.0 * _ETA)
        mid_rel = img_mids[alive] - blo
        vol_ratio = (np.prod(2.0 * half, axis=1) /
                     (jac_mid[alive] * np.prod(s_w, axis=1) + 1e-300))
        consistent = (np.all(mid_rel >= cmin - 1e-12, axis=1)
                      & np.all(mid_rel <= cmax + 1e-12, axis=1)
                      & (0.5 <= vol_ratio) & (vol_ratio <= 2.0)
                      & np.all(2.0 * half <= bw * (1.0 + 1e-9), axis=1))
        self.counters["absorbed_strata"] += int(np.count_nonzero(~alive))
        self.counters["point_mass_strata"] += int(np.count_nonzero(~consistent))
        centerp = np.where(consistent[:, None], centerp, mid_rel)
        half = np.where(consistent[:, None], half, 0.0)
        return alive, box, centerp - half, centerp + half

    def rows(self, cells: Array) -> tuple[Array, Array, Array]:
        """The entries of the rows of ``cells`` (sorted): each row's entry
        count, then the columns (sorted within each row) and values, each
        (row, column) summed by :func:`_sum_entries`.  The counts become row
        ids only after the last pass, which keeps the peak memory lower."""
        grid, d = self.grid, self.grid.dimension
        res = grid.resolution
        owner, s_lo, s_w, mids = self.strata(cells)
        alive, box, p, q = self.images(s_lo, s_w, mids)
        # one segment per (stratum, axis), stratum-major
        seg, cell, mass = _axis_cell_masses(p.ravel(), q.ravel(), self.eps, res,
                                            self.dom_w[box].ravel(),
                                            self.dom_wrap[box].ravel())
        per_axis = np.bincount(seg, minlength=p.size).reshape(p.shape)
        axis_start = (np.cumsum(per_axis) - per_axis.ravel()).reshape(p.shape)
        # tensor product of each stratum's axis masses, one axis at a time,
        # axis 0 outermost: the in-box cell index and the mass product grow
        # as the per-cell definition builds them
        stratum = np.arange(len(per_axis))
        idx, val = np.zeros(len(per_axis), np.int64), np.ones(len(per_axis))
        for k in range(d):
            prev, rank = _ragged(per_axis[stratum, k])
            stratum = stratum[prev]
            item = axis_start[stratum, k] + rank
            idx = idx[prev] * res + cell[item]
            val = val[prev] * mass[item]
        col = box[stratum] * grid.cells_per_box + idx
        val = val * self.stratum_mass * self.frac[col]
        row, col, total = _sum_entries(owner[alive][stratum], col, val)
        return (np.bincount(row, minlength=cells.size), col,
                total * self.weights[cells[row]])


# Most band bins per entry of a pass (see _sum_entries).  A row's band is as
# wide as the spread of its columns: a few times the resolution for a 2-D
# row, the whole grid for a row whose image wraps a seam.  On the benchmark
# grids a 1-D pass takes 0.1-3 bins per entry (7.5 in the last pass of
# strata_2rep, 165 entries) and a 2-D pass of spectrum_2d 22-430.
_BINS_PER_ENTRY = 4


def _sum_entries(row: Array, col: Array, val: Array
                 ) -> tuple[Array, Array, Array]:
    """Sum of the values of each (row, column) pair, for entries in row
    order: the rows, columns (sorted within each row) and sums above 1e-300.

    Each row gets one dense band of bins, from its least to its greatest
    column, so one ``bincount`` sums every pair without sorting.  A pass
    whose bands would take more than ``_BINS_PER_ENTRY`` bins per entry
    sorts its keys instead, which bounds the memory.  Either way ``bincount``
    adds each sum in input order, as the per-cell definition does
    (``reduceat`` would sum pairwise).
    """
    if not row.size:  # every stratum of the pass was killed or absorbed
        return row, col, val
    bounds = np.flatnonzero(np.diff(row, prepend=-1, append=-1))
    lo = np.minimum.reduceat(col, bounds[:-1])
    width = np.maximum.reduceat(col, bounds[:-1]) - lo + 1
    end = np.cumsum(width)
    start = end - width  # first bin of each row's band
    if end[-1] > _BINS_PER_ENTRY * row.size:
        n = int(col.max()) + 1
        keys, slot = np.unique(row * n + col, return_inverse=True)
        total = np.bincount(slot, weights=val)
        nz = np.flatnonzero(total > 1e-300)
        return keys[nz] // n, keys[nz] % n, total[nz]
    total = np.bincount(np.repeat(start - lo, np.diff(bounds)) + col,
                        weights=val)
    bins = np.flatnonzero(total > 1e-300)
    band = np.searchsorted(start, bins, side="right") - 1
    return row[bounds[band]], bins - start[band] + lo[band], total[bins]


def assemble_operator(system: MapSystem, noise: NoiseModel, weight: WeightField,
                      region: RegionSpec, grid: GridPartition,
                      samples_per_cell=3) -> AnnealedMatrix:
    """Assemble the Ulam matrix of the annealed weighted killed operator.

    ``samples_per_cell`` is the total per-cell stratum budget (an int, mapped
    to an even per-axis split) or an explicit per-axis tuple.  Each stratum
    is probed at its exact midpoint, so the matrix is a function of the
    inputs alone and does not depend on evaluation order.  The matrix's
    ``diagnostics`` count the strata that fell back to a point mass and
    those absorbed off the domain.  Raises ValueError unless ``grid``
    partitions ``system.domain``, and :class:`DenseOperatorError` before any
    pass when the estimated entries exceed ``_MAX_ENTRIES``.
    """
    if grid.domain != system.domain:
        raise ValueError("the grid must partition the system's domain")
    counts = _strata_counts(samples_per_cell, grid.dimension)
    frac = region_fractions(region, grid)
    if not np.any(frac > 0):
        raise ValueError("empty conditioning region: no grid cell meets it")
    weights_at_centers = weight.values(grid.centers())
    active = np.flatnonzero(~((frac <= 0.0) | (weights_at_centers <= 0.0)))
    with np.errstate(over="ignore"):  # about 2 eps / h + 2 cells per axis
        spread = np.prod(2.0 * noise.epsilon / grid.cell_width[active] + 2.0, axis=1)
    estimate = math.prod(counts) * float(spread.sum())
    if estimate > _MAX_ENTRIES:
        raise DenseOperatorError(f"the operator would take about {estimate:.3g} "
                                 f"entries, more than {_MAX_ENTRIES:.0e}")
    job = _Assembly(system, region, grid, noise.epsilon, counts, frac,
                    weights_at_centers)
    row_nnz = np.zeros(grid.n_cells, dtype=np.int64)
    col_parts, val_parts = [], []
    for start in range(0, active.size, _CHUNK_CELLS):
        cells = active[start:start + _CHUNK_CELLS]
        row_nnz[cells], cols, vals = job.rows(cells)
        col_parts.append(cols)
        val_parts.append(vals)
    rows = np.repeat(np.arange(grid.n_cells), row_nnz)
    indices = np.concatenate([np.empty(0, dtype=np.int64), *col_parts])
    data = np.concatenate([np.empty(0), *val_parts])
    metadata = {
        "epsilon": noise.epsilon,
        "weight": weight.label,
        "region": region.label,
        "samples_per_cell": (int(samples_per_cell)
                             if not isinstance(samples_per_cell, (tuple, list))
                             else list(samples_per_cell)),
        "strata": list(counts),
        "system": system.label,
        "resolution": grid.resolution,
    }
    return AnnealedMatrix(grid.n_cells, rows, indices, data,
                          cell_volume=grid.cell_volume, metadata=metadata,
                          diagnostics=job.counters)


def export_matrix(matrix: AnnealedMatrix, path) -> None:
    """Write the operator as a self-describing JSON triplet file.

    The object holds ``n_cells``, ``metadata``, ``cell_volume`` and the
    ``[i, j, value]`` entries; :func:`load_matrix` reads it back.
    """
    import json
    from pathlib import Path

    payload = {
        "n_cells": matrix.n_cells,
        "metadata": matrix.metadata,
        "cell_volume": matrix.cell_volume,
        "entries": [[int(i), int(j), float(v)] for i, j, v in
                    zip(matrix.rows, matrix.indices, matrix.data)],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_matrix(path) -> AnnealedMatrix:
    """Read a matrix written by :func:`export_matrix`.

    Raises a ValueError that names the fault when an index is not a cell,
    a (row, column) pair repeats, or a value is negative or not finite.  A
    ``row_weight`` key, which files written by earlier versions hold, is
    ignored.
    """
    import json
    from pathlib import Path

    payload = json.loads(Path(path).read_text())
    n = int(payload["n_cells"])
    entries = np.asarray(payload["entries"], dtype=float).reshape(-1, 3)
    ij = entries[:, :2]
    if np.any((ij < 0) | (ij >= n) | (ij != np.floor(ij))):
        raise ValueError(f"an entry index is not a cell index in [0, {n})")
    i, j = ij.T.astype(np.int64)
    order = np.lexsort((j, i))
    i, j, data = i[order], j[order], entries[order, 2]
    if np.any((i[1:] == i[:-1]) & (j[1:] == j[:-1])):
        raise ValueError("an entry (row, column) pair repeats")
    if not np.all(np.isfinite(data) & (data >= 0.0)):
        raise ValueError("an entry value is negative or not finite")
    return AnnealedMatrix(n, i, j, data,
                          cell_volume=float(payload["cell_volume"]),
                          metadata=payload["metadata"])


def restrict_operator(matrix: AnnealedMatrix, cells) -> AnnealedMatrix:
    """Principal submatrix on the given cell subset.

    Rows and columns outside the subset are removed and the rest are
    renumbered in the sorted subset order, which keeps the entries sorted.
    """
    cells = np.asarray(cells, dtype=np.int64).ravel()
    if cells.size == 0:
        raise ValueError("empty cell subset")
    if cells.min() < 0 or cells.max() >= matrix.n_cells:
        raise ValueError("cell subset out of range")
    # sorted and deduplicated by a mask: the first plain np.unique call of a
    # process imports numpy.ma, about 10 ms
    kept = np.zeros(matrix.n_cells, dtype=bool)
    kept[cells] = True
    cells = np.flatnonzero(kept)
    remap = np.cumsum(kept) - 1
    entry = kept[matrix.rows] & kept[matrix.indices]
    meta = dict(matrix.metadata)
    meta["restricted_to"] = int(cells.size)
    return AnnealedMatrix(cells.size, remap[matrix.rows[entry]],
                          remap[matrix.indices[entry]], matrix.data[entry],
                          cell_volume=matrix.cell_volume, metadata=meta)
