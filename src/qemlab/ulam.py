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
inconsistent with a single monotone branch (detected via the jittered
midpoint image and the Jacobian) fall back to a point mass at the midpoint
image, which keeps non-aligned grids sane.

Cells straddling the boundary of Y receive fractional killing weights from
:func:`qemlab.dynamics.region_fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .dynamics import (Box, Domain, MapSystem, NoiseModel, RegionSpec,
                       WeightField, region_fraction)

Array = np.ndarray


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GridPartition:
    """Uniform partition of each domain box into ``resolution^d`` cells.

    Cells are half open and indexed row-major within each box; boxes are
    concatenated, so ``n_cells = n_boxes * resolution^dimension``.  Immutable
    after construction.
    """

    boxes: tuple[Box, ...]
    resolution: int
    dimension: int = field(init=False)
    n_cells: int = field(init=False)
    cell_volume: float = field(init=False)
    _centers: Array = field(init=False, repr=False)

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        self.dimension = self.boxes[0].dimension
        per_box = self.resolution ** self.dimension
        self.n_cells = len(self.boxes) * per_box
        vols = {round(b.volume / per_box, 15) for b in self.boxes}
        if len(vols) != 1:
            raise ValueError("boxes must produce equal cell volumes")
        self.cell_volume = self.boxes[0].volume / per_box
        centers = []
        for box in self.boxes:
            axes = [np.asarray(box.lo[k]) + (np.arange(self.resolution) + 0.5)
                    * (box.widths[k] / self.resolution)
                    for k in range(self.dimension)]
            mesh = np.meshgrid(*axes, indexing="ij")
            centers.append(np.stack([m.ravel() for m in mesh], axis=1))
        self._centers = np.concatenate(centers, axis=0)

    @property
    def cells_per_box(self) -> int:
        return self.resolution ** self.dimension

    def centers(self) -> Array:
        return self._centers

    def box_of_cell(self, i: int) -> int:
        return i // self.cells_per_box

    def multi_index(self, i: int) -> tuple[int, ...]:
        coords = []
        rem = i % self.cells_per_box
        for _ in range(self.dimension):
            coords.append(rem % self.resolution)
            rem //= self.resolution
        return tuple(reversed(coords))

    def cell_box(self, i: int) -> tuple[Array, Array]:
        box = self.boxes[self.box_of_cell(i)]
        coords = np.asarray(self.multi_index(i))
        h = box.widths / self.resolution
        lo = np.asarray(box.lo) + coords * h
        return lo, lo + h

    def find_cells(self, points: Array) -> Array:
        """Cell index of each point, -1 outside every box."""
        p = np.atleast_2d(points)
        out = np.full(p.shape[0], -1, dtype=np.int64)
        for b, box in enumerate(self.boxes):
            hit = box.contains(p)
            if not np.any(hit):
                continue
            h = box.widths / self.resolution
            rel = np.clip(((p[hit] - np.asarray(box.lo)) / h).astype(np.int64),
                          0, self.resolution - 1)
            local = np.zeros(rel.shape[0], dtype=np.int64)
            for k in range(self.dimension):
                local = local * self.resolution + rel[:, k]
            out[hit] = b * self.cells_per_box + local
        return out


def build_grid(boxes, resolution: int) -> GridPartition:
    """Partition domain boxes (or a Domain) into a uniform grid."""
    if isinstance(boxes, Domain):
        boxes = boxes.boxes
    norm = []
    for b in boxes:
        if isinstance(b, Box):
            norm.append(b)
        else:
            lo, hi = b
            norm.append(Box(tuple(np.atleast_1d(lo).astype(float)),
                            tuple(np.atleast_1d(hi).astype(float))))
    return GridPartition(tuple(norm), int(resolution))


# ---------------------------------------------------------------------------
# sparse matrix
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class AnnealedMatrix:
    """Row-compressed nonnegative matrix with per-row weights and metadata.

    ``indices`` are sorted within each row.  ``cell_ids`` maps local row/col
    indices back to the cells of the original grid after a restriction
    (None means the identity).  Immutable after assembly.
    """

    n_cells: int
    indptr: Array
    indices: Array
    data: Array
    row_weight: Array
    cell_volume: float
    metadata: dict
    cell_ids: Array | None = None
    _row_ids: Array | None = field(default=None, repr=False)

    def _rows(self) -> Array:
        if self._row_ids is None:
            counts = np.diff(self.indptr)
            self._row_ids = np.repeat(np.arange(self.n_cells), counts)
        return self._row_ids

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def apply(self, v: Array) -> Array:
        """Forward action on observables: (M v)_i = sum_j M[i][j] v_j."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_cells,):
            raise ValueError(f"vector length {v.shape} != {self.n_cells}")
        return np.bincount(self._rows(), weights=self.data * v[self.indices],
                           minlength=self.n_cells)

    def apply_adjoint(self, u: Array) -> Array:
        """Adjoint action on densities: (M^T u)_j = sum_i M[i][j] u_i."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_cells,):
            raise ValueError(f"vector length {u.shape} != {self.n_cells}")
        return np.bincount(self.indices, weights=self.data * u[self._rows()],
                           minlength=self.n_cells)

    def toarray(self) -> Array:
        out = np.zeros((self.n_cells, self.n_cells))
        out[self._rows(), self.indices] = self.data
        return out

    def row_sums(self) -> Array:
        return np.bincount(self._rows(), weights=self.data,
                           minlength=self.n_cells)


def _csr_from_rows(n: int, rows: list[tuple[Array, Array]]) -> tuple[Array, Array, Array]:
    indptr = np.zeros(n + 1, dtype=np.int64)
    idx_parts, val_parts = [], []
    for i, (idx, val) in enumerate(rows):
        indptr[i + 1] = indptr[i] + idx.size
        idx_parts.append(idx)
        val_parts.append(val)
    indices = (np.concatenate(idx_parts) if idx_parts
               else np.empty(0, dtype=np.int64))
    data = np.concatenate(val_parts) if val_parts else np.empty(0)
    return indptr, indices, data


# ---------------------------------------------------------------------------
# closed-form axis masses: uniform-on-[p,q] + uniform kernel of half-width eps
# ---------------------------------------------------------------------------

def _h_antideriv(t: Array, eps: float) -> Array:
    """Antiderivative of the kernel CDF: 0 | (t+eps)^2/(4 eps) | t."""
    if eps == 0.0:
        return np.maximum(t, 0.0)
    return np.where(t <= -eps, 0.0,
                    np.where(t >= eps, t, (t + eps) ** 2 / (4.0 * eps)))


def _segment_cdf(z: Array, p: float, q: float, eps: float) -> Array:
    """CDF of Z = U[p,q] + U[-eps,eps] evaluated at the points z."""
    if q > p:
        return (_h_antideriv(z - p, eps) - _h_antideriv(z - q, eps)) / (q - p)
    if eps > 0.0:
        return np.clip((z - p + eps) / (2.0 * eps), 0.0, 1.0)
    return (z > p).astype(float)


def _axis_cell_masses(p: float, q: float, eps: float, res: int, width: float,
                      wrap: bool) -> tuple[Array, Array]:
    """Per-cell masses along one box axis (box-local coordinates).

    Returns (cell coordinates, masses).  Wrapped axes fold the support back
    into [0, width); absorbing axes drop the overhang.  Coordinates may
    repeat when the support wraps onto itself; callers must accumulate.
    """
    h = width / res
    lo_s, hi_s = p - eps, q + eps
    if wrap:
        k0 = int(np.floor(lo_s / width))
        k1 = int(np.floor(hi_s / width + 1e-15))
    else:
        k0 = k1 = 0
    coords_all, masses_all = [], []
    for k in range(k0, k1 + 1):
        shift = k * width
        pp, qq = p - shift, q - shift
        c0 = max(0, int(np.floor((pp - eps) / h)))
        c1 = min(res - 1, int(np.floor((qq + eps) / h)))
        if c1 < c0:
            continue
        edges = (np.arange(c0, c1 + 2)) * h
        cdf = _segment_cdf(edges, pp, qq, eps)
        masses = np.diff(cdf)
        keep = masses > 1e-14  # corner-extrapolation roundoff floor
        if np.any(keep):
            coords_all.append(np.arange(c0, c1 + 1)[keep])
            masses_all.append(masses[keep])
    if not coords_all:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.concatenate(coords_all), np.concatenate(masses_all)


# ---------------------------------------------------------------------------
# region fractions per cell
# ---------------------------------------------------------------------------

def region_fractions(region: RegionSpec, grid: GridPartition,
                     subsamples: int = 512, seed=0) -> Array:
    """Covered fraction of every grid cell, exact where cells do not straddle."""
    n = grid.n_cells
    centers = grid.centers()
    h = np.asarray(grid.boxes[0].widths) / grid.resolution
    lo_all = centers - h / 2.0
    hi_all = centers + h / 2.0
    inside = np.zeros(n, dtype=bool)
    touches = np.zeros(n, dtype=bool)
    for box in region.boxes:
        blo, bhi = np.asarray(box.lo), np.asarray(box.hi)
        inside |= np.all((lo_all >= blo - 1e-12) & (hi_all <= bhi + 1e-12), axis=1)
        touches |= np.all((np.minimum(hi_all, bhi) - np.maximum(lo_all, blo)) > 1e-12,
                          axis=1)
    frac = np.where(inside, 1.0, 0.0)
    for i in np.flatnonzero(touches & ~inside):
        frac[i] = region_fraction(region, lo_all[i], hi_all[i],
                                  subsamples=subsamples, seed=[int(seed), 7, int(i)])
    return frac


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

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


def assemble_operator(system: MapSystem, noise: NoiseModel, weight: WeightField,
                      region: RegionSpec, grid: GridPartition,
                      samples_per_cell=3, seed: int = 0) -> AnnealedMatrix:
    """Assemble the Ulam matrix of the annealed weighted killed operator.

    ``samples_per_cell`` is the total per-cell stratum budget (an int, mapped
    to an even per-axis split) or an explicit per-axis tuple.  Assembly is
    deterministic given ``seed``: per-cell jitter streams are derived from
    (seed, cell index), so the result is independent of evaluation order.
    """
    d = grid.dimension
    eps = noise.epsilon
    counts = _strata_counts(samples_per_cell, d)
    n_strata = int(np.prod(counts))
    frac = region_fractions(region, grid, seed=seed)
    if not np.any(frac > 0):
        raise ValueError("empty conditioning region: no grid cell meets it")
    res = grid.resolution
    cells_per_box = grid.cells_per_box
    weights_at_centers = weight.values(grid.centers())

    # stratum template in cell-relative coordinates
    rel_axes = [(np.arange(m) / m) for m in counts]
    rel_lo = np.stack([g.ravel() for g in
                       np.meshgrid(*rel_axes, indexing="ij")], axis=1)
    rel_w = np.asarray([1.0 / m for m in counts])
    corner_signs = np.array(list(product((0.0, 1.0), repeat=d)))
    eta = 1e-12  # relative corner shrink, keeps evaluations off branch edges

    rows: list[tuple[Array, Array]] = []
    empty = (np.empty(0, dtype=np.int64), np.empty(0))
    for i in range(grid.n_cells):
        if frac[i] <= 0.0 or weights_at_centers[i] <= 0.0:
            rows.append(empty)
            continue
        lo_i, hi_i = grid.cell_box(i)
        h = hi_i - lo_i
        s_lo = lo_i + rel_lo * h                      # (n_strata, d)
        s_w = rel_w * h                               # (d,)
        rng = np.random.default_rng([int(seed), int(i)])
        jitter = rng.uniform(-0.5, 0.5, size=(n_strata, d))
        mids = s_lo + (0.5 + jitter) * s_w
        keep = region.contains(mids)                  # source-side killing
        if not np.any(keep):
            rows.append(empty)
            continue
        # corner images, shrunken inside each stratum
        shr = corner_signs * (1.0 - 2.0 * eta) + eta  # (2^d, d)
        corners = s_lo[:, None, :] + shr[None, :, :] * s_w  # (n_strata, 2^d, d)
        img_corners = system.forward(corners.reshape(-1, d)).reshape(n_strata, -1, d)
        img_mids = system.forward(mids)
        jac_mid = system.jacobian_det(mids)
        boxes_of = system.domain.locate(img_mids)

        ids_parts, val_parts = [], []
        stratum_mass = 1.0 / n_strata
        for s in np.flatnonzero(keep):
            b = boxes_of[s]
            if b < 0:
                continue  # image left the domain: absorbed
            box = system.domain.boxes[b]
            blo = np.asarray(box.lo)
            bw = box.widths
            cmin = img_corners[s].min(axis=0) - blo
            cmax = img_corners[s].max(axis=0) - blo
            centerp = (cmin + cmax) / 2.0
            half = (cmax - cmin) / 2.0 / (1.0 - 2.0 * eta)
            mid_rel = img_mids[s] - blo
            vol_ratio = (np.prod(2.0 * half) /
                         (jac_mid[s] * np.prod(s_w) + 1e-300))
            consistent = (np.all(mid_rel >= cmin - 1e-12)
                          and np.all(mid_rel <= cmax + 1e-12)
                          and 0.5 <= vol_ratio <= 2.0
                          and np.all(2.0 * half <= bw * (1.0 + 1e-9)))
            if not consistent:
                centerp = mid_rel
                half = np.zeros(d)  # branch crossing: point mass at midpoint
            per_axis = []
            for k in range(d):
                ax = _axis_cell_masses(centerp[k] - half[k], centerp[k] + half[k],
                                       eps, res, bw[k], box.wrap[k])
                per_axis.append(ax)
            if any(a[0].size == 0 for a in per_axis):
                continue
            cell_ids = per_axis[0][0]
            masses = per_axis[0][1]
            for k in range(1, d):
                ck, mk = per_axis[k]
                cell_ids = (cell_ids[:, None] * res + ck[None, :]).ravel()
                masses = (masses[:, None] * mk[None, :]).ravel()
            ids_parts.append(b * cells_per_box + cell_ids)
            val_parts.append(masses * stratum_mass)
        if not ids_parts:
            rows.append(empty)
            continue
        ids = np.concatenate(ids_parts)
        vals = np.concatenate(val_parts) * frac[ids]
        dense = np.bincount(ids, weights=vals, minlength=grid.n_cells)
        nz = np.flatnonzero(dense > 1e-300)
        rows.append((nz.astype(np.int64), dense[nz] * weights_at_centers[i]))

    indptr, indices, data = _csr_from_rows(grid.n_cells, rows)
    metadata = {
        "epsilon": eps,
        "weight": weight.label,
        "region": region.label,
        "samples_per_cell": (int(samples_per_cell)
                             if not isinstance(samples_per_cell, (tuple, list))
                             else list(samples_per_cell)),
        "strata": list(counts),
        "seed": int(seed),
        "system": system.label,
        "resolution": grid.resolution,
    }
    return AnnealedMatrix(grid.n_cells, indptr, indices, data,
                          row_weight=weights_at_centers,
                          cell_volume=grid.cell_volume, metadata=metadata)


def export_matrix(matrix: AnnealedMatrix, path) -> None:
    """Write the operator as a self-describing JSON triplet file.

    The object holds ``n_cells``, ``metadata``, ``cell_volume``,
    ``row_weight`` and the ``[i, j, value]`` entries; :func:`load_matrix`
    reads it back.
    """
    import json
    from pathlib import Path

    rows_i = np.repeat(np.arange(matrix.n_cells), np.diff(matrix.indptr))
    payload = {
        "n_cells": matrix.n_cells,
        "metadata": matrix.metadata,
        "cell_volume": matrix.cell_volume,
        "row_weight": matrix.row_weight.tolist(),
        "entries": [[int(i), int(j), float(v)] for i, j, v in
                    zip(rows_i, matrix.indices, matrix.data)],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_matrix(path) -> AnnealedMatrix:
    """Read a matrix written by :func:`export_matrix`."""
    import json
    from pathlib import Path

    payload = json.loads(Path(path).read_text())
    n = int(payload["n_cells"])
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, v in payload["entries"]:
        rows[i].append((j, v))
    packed = []
    for entries in rows:
        entries.sort()
        packed.append((np.asarray([j for j, _ in entries], dtype=np.int64),
                       np.asarray([v for _, v in entries])))
    indptr, indices, data = _csr_from_rows(n, packed)
    return AnnealedMatrix(n, indptr, indices, data,
                          row_weight=np.asarray(payload["row_weight"]),
                          cell_volume=float(payload["cell_volume"]),
                          metadata=payload["metadata"])


def restrict_operator(matrix: AnnealedMatrix, cells) -> AnnealedMatrix:
    """Principal submatrix on the given cell subset.

    Rows and columns outside the subset are removed; local indices follow the
    sorted subset order and ``cell_ids`` records the original cells.
    """
    cells = np.unique(np.asarray(cells, dtype=np.int64))
    if cells.size == 0:
        raise ValueError("empty cell subset")
    if cells[0] < 0 or cells[-1] >= matrix.n_cells:
        raise ValueError("cell subset out of range")
    remap = np.full(matrix.n_cells, -1, dtype=np.int64)
    remap[cells] = np.arange(cells.size)
    rows: list[tuple[Array, Array]] = []
    for new_i, old_i in enumerate(cells):
        sl = slice(matrix.indptr[old_i], matrix.indptr[old_i + 1])
        cols = remap[matrix.indices[sl]]
        good = cols >= 0
        rows.append((cols[good], matrix.data[sl][good]))
    indptr, indices, data = _csr_from_rows(cells.size, rows)
    old_ids = (matrix.cell_ids if matrix.cell_ids is not None
               else np.arange(matrix.n_cells))
    meta = dict(matrix.metadata)
    meta["restricted_to"] = int(cells.size)
    return AnnealedMatrix(cells.size, indptr, indices, data,
                          row_weight=matrix.row_weight[cells],
                          cell_volume=matrix.cell_volume,
                          metadata=meta, cell_ids=old_ids[cells])
