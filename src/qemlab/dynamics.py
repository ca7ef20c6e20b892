"""Deterministic maps, additive noise, weight fields, and region geometry.

The objects here describe a randomly perturbed discrete-time system

    x_{n+1} = T(x_n) + delta_n,   delta_n ~ Uniform([-eps, eps]^d),

together with the multiplicative weight e^{phi(x)} carried by the process and
the region Y in which the process must remain (leaving Y kills the particle /
loses all mass).  Everything downstream (operator assembly, particle runs)
consumes these types.

Conventions
-----------
* Points are float arrays of shape ``(d,)``; batches have shape ``(n, d)``.
  All callables stored on :class:`MapSystem` and :class:`WeightField` are
  vectorised over the leading axis.
* Boxes are half open, ``[lo, hi)`` per axis.  On wrapped (torus) axes the
  representative interval is ``[lo, hi)`` and arithmetic is mod the width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

Array = np.ndarray


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned half-open box ``[lo, hi)`` with per-axis wrap flags.

    ``wrap[k] = True`` makes axis ``k`` a circle of circumference
    ``hi[k] - lo[k]``; ``False`` makes it absorbing (points pushed outside
    are lost).
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    wrap: tuple[bool, ...] = ()

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        if not self.wrap:
            object.__setattr__(self, "wrap", (False,) * len(self.lo))
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"degenerate box {self.lo}..{self.hi}")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> Array:
        return np.asarray(self.hi) - np.asarray(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    def contains(self, points: Array) -> Array:
        """Half-open membership test, vectorised over the leading axis."""
        p = np.atleast_2d(points)
        ok = (p[:, 0] >= self.lo[0]) & (p[:, 0] < self.hi[0])
        for k in range(1, self.dimension):
            ok &= (p[:, k] >= self.lo[k]) & (p[:, k] < self.hi[k])
        return ok if np.ndim(points) > 1 else bool(ok[0])


@dataclass(frozen=True)
class Domain:
    """Disjoint union of boxes serving as the ambient space of a map."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        dims = {b.dimension for b in self.boxes}
        if len(dims) != 1:
            raise ValueError("all domain boxes must share one dimension")

    @property
    def dimension(self) -> int:
        return self.boxes[0].dimension

    def locate(self, points: Array) -> Array:
        """Index of the box containing each point (-1 when outside all)."""
        p = np.atleast_2d(points)
        out = np.full(p.shape[0], -1, dtype=np.int64)
        for b in range(len(self.boxes) - 1, -1, -1):  # the first box wins
            out[self.boxes[b].contains(p)] = b
        return out

    @cached_property
    def _axis_tables(self) -> list[tuple[Array, Array, Array, bool]]:
        """Per axis: each box's ``lo``, width and wrap flag, then whether
        every wrapped width is 1.

        The tables carry one extra last entry (lo 0, width 1, no wrap), so
        the index -1 that ``locate`` gives points outside every box picks it.
        """
        tables = []
        for k in range(self.dimension):
            lo = np.array([b.lo[k] for b in self.boxes] + [0.0], dtype=float)
            width = np.array([b.widths[k] for b in self.boxes] + [1.0])
            wrap = np.array([b.wrap[k] for b in self.boxes] + [False])
            tables.append((lo, width, wrap, bool(np.all(width[wrap] == 1.0))))
        return tables

    def apply_boundary(self, base: Array, moved: Array) -> tuple[Array, Array]:
        """Wrap or absorb ``moved`` relative to the box containing ``base``.

        ``base`` is the unperturbed image T(x) and ``moved = base + delta``.
        Since the noise amplitude is small compared with box sizes, the box
        of ``base`` decides which torus the offset wraps on.  Returns
        ``(adjusted_points, alive_mask)``; dead rows hold unspecified values
        and must be masked by the caller.
        """
        pts = np.array(np.atleast_2d(moved), dtype=float)
        which = self.locate(np.atleast_2d(base))
        alive = which >= 0
        for k, (lo_b, width_b, wrap_b, unit) in enumerate(self._axis_tables):
            x = pts[:, k]
            lo = lo_b[which]
            width = width_b[which]
            wraps = wrap_b[which]
            alive &= wraps | ~((x < lo) | (x >= lo + width))
            np.copyto(x, lo + _wrap_mod(x - lo, 1.0 if unit else width), where=wraps)
        return pts, alive


def _wrap_mod(a: Array, w) -> Array:
    """``np.mod(a, w)``, bitwise, for positive ``w``.

    For a scalar ``w == 1`` it is ``a - floor(a)``: exact wherever the
    remainder is, rounded the same way elsewhere (-0.0 included), and free
    of libm ``fmod``, which is many times slower; other widths go to
    ``np.mod``.
    """
    if np.isscalar(w) and w == 1.0:
        return a - np.floor(a)
    return np.mod(a, w)


@dataclass(frozen=True)
class RegionSpec:
    """Union of axis-aligned boxes with exact membership on box interiors."""

    boxes: tuple[Box, ...]
    label: str = "region"

    @property
    def dimension(self) -> int:
        return self.boxes[0].dimension

    def contains(self, points: Array) -> Array:
        p = np.atleast_2d(points)
        inside = np.zeros(p.shape[0], dtype=bool)
        for box in self.boxes:
            inside |= box.contains(p)
        return inside if np.ndim(points) > 1 else bool(inside[0])

    @property
    def volume(self) -> float:
        return sum(b.volume for b in self.boxes)


def region_fraction(region: RegionSpec, cell_lo, cell_hi,
                    subsamples: int = 512, seed=0) -> float:
    """Fraction of the cell ``[cell_lo, cell_hi)`` covered by ``region``.

    Exact (0 or 1) when the cell lies entirely inside one region box or
    intersects none of them; otherwise a stratified jittered-sample
    estimate with ``~subsamples`` points.
    """
    lo = np.asarray(cell_lo, dtype=float)
    hi = np.asarray(cell_hi, dtype=float)
    if np.any(hi <= lo):
        raise ValueError("degenerate cell")
    d = lo.size
    for box in region.boxes:
        if np.all(lo >= np.asarray(box.lo)) and np.all(hi <= np.asarray(box.hi)):
            return 1.0
    overlaps = False
    for box in region.boxes:
        if np.all(np.minimum(hi, box.hi) > np.maximum(lo, box.lo)):
            overlaps = True
            break
    if not overlaps:
        return 0.0
    if subsamples < 1:
        raise ValueError("subsamples must be >= 1")
    m = max(1, round(subsamples ** (1.0 / d)))
    rng = np.random.default_rng([int(seed)] if np.isscalar(seed) else list(seed))
    axes = [np.linspace(0.0, 1.0, m, endpoint=False) + 0.5 / m for _ in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pts = pts + rng.uniform(-0.5 / m, 0.5 / m, size=pts.shape)
    pts = lo + pts * (hi - lo)
    return float(np.mean(region.contains(pts)))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Additive product-uniform noise on ``[-eps, eps]^d``."""

    epsilon: float
    dimension: int

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        if self.epsilon == 0.0:
            return np.zeros((n, self.dimension))
        return rng.uniform(-self.epsilon, self.epsilon, size=(n, self.dimension))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def _smoothstep(t: Array) -> Array:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class WeightField:
    """Multiplicative weight e^{phi(x)}, optionally tapered to 0 on a boundary.

    ``log_weight`` is either a constant or a vectorised callable phi.  With
    ``support_cutoff`` set, the effective weight is

        e^{phi(x)} * s(dist(x, boundary of cutoff) / taper_width)

    inside the cutoff region and 0 outside, where s is a smoothstep bump.  The
    taper vanishes exactly on the cutoff boundary and equals e^{phi} at depth
    >= taper_width, so points well inside the region are unaffected.  Boundary
    distances are measured wrap-aware on torus axes (1d only): box faces that
    meet another region box across a wrap seam are interior, not boundary.
    """

    log_weight: float | Callable[[Array], Array] = 0.0
    support_cutoff: RegionSpec | None = None
    taper_width: float = 0.0
    domain: Domain | None = None
    label: str = "phi=0"

    def log_values(self, points: Array) -> Array:
        p = np.atleast_2d(points)
        if callable(self.log_weight):
            return np.asarray(self.log_weight(p), dtype=float)
        return np.full(p.shape[0], float(self.log_weight))

    def _boundary_points_1d(self) -> list[tuple[float, float, float, bool]]:
        """Genuine boundary coordinates of the cutoff region (1d, wrap-aware).

        Returns ``(coordinate, box_lo, box_width, box_wraps)`` tuples so
        boundary distances can be measured on the circle of the domain box
        actually holding the point; faces that meet another region interval
        across a wrap seam are interior, not boundary.
        """
        assert self.support_cutoff is not None
        intervals = sorted((b.lo[0], b.hi[0]) for b in self.support_cutoff.boxes)
        merged: list[list[float]] = []
        for lo, hi in intervals:
            if merged and lo <= merged[-1][1] + 1e-12:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        pts = [p for m in merged for p in m]
        boxes = (self.domain.boxes if self.domain is not None
                 else (Box((min(pts),), (max(pts) + 1.0,)),))
        out: list[tuple[float, float, float, bool]] = []
        for box in boxes:
            blo, bhi = box.lo[0], box.hi[0]
            local = [p for p in pts if blo - 1e-12 <= p <= bhi + 1e-12]
            if box.wrap[0]:
                first = any(abs(m[0] - blo) < 1e-12 for m in merged)
                last = any(abs(m[1] - bhi) < 1e-12 for m in merged)
                if first and last:
                    # region wraps across the seam: the seam is interior
                    local = [p for p in local
                             if abs(p - blo) > 1e-12 and abs(p - bhi) > 1e-12]
            out.extend((p, blo, bhi - blo, box.wrap[0]) for p in local)
        return out

    def _taper(self, points: Array) -> Array:
        region = self.support_cutoff
        assert region is not None
        p = np.atleast_2d(points)
        inside = region.contains(p)
        if self.taper_width <= 0:
            return inside.astype(float)
        if region.dimension == 1:
            x = p[:, 0]
            dist = np.full(x.shape[0], np.inf)
            for coord, blo, width, wrap in self._boundary_points_1d():
                in_box = (x >= blo) & (x < blo + width)
                d = np.abs(x - coord)
                if wrap:
                    d = np.minimum(d, width - d)  # circle distance in-box
                dist = np.where(in_box, np.minimum(dist, d), dist)
        else:
            # per-box face distance; adjacent-box unions are not merged in 2d
            dist = np.full(p.shape[0], np.inf)
            for box in region.boxes:
                hit = box.contains(p)
                if not np.any(hit):
                    continue
                lo = np.asarray(box.lo)
                hi = np.asarray(box.hi)
                d_box = np.minimum(p[hit] - lo, hi - p[hit]).min(axis=1)
                dist[hit] = np.minimum(dist[hit], d_box)
        dist = np.where(np.isfinite(dist), dist, 0.0)
        return inside * _smoothstep(dist / self.taper_width)

    def values(self, points: Array) -> Array:
        """Effective weight e^{phi} (with taper) at each point."""
        w = np.exp(self.log_values(points))
        if self.support_cutoff is not None:
            w = w * self._taper(points)
        return w


def eval_weight(weight: WeightField, x) -> float:
    """Effective weight e^{phi(x)} at a single point."""
    return float(weight.values(np.atleast_2d(np.asarray(x, dtype=float)))[0])


def zero_weight() -> WeightField:
    return WeightField(0.0, label="phi=0")


def constant_weight(log_value: float) -> WeightField:
    return WeightField(float(log_value), label=f"phi={log_value:g}")


# ---------------------------------------------------------------------------
# map systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapSystem:
    """Deterministic map with Jacobian data on a box domain.

    ``forward``, ``jacobian_det`` and ``unstable_log_expansion`` take arrays
    of shape ``(n, d)``; ``forward`` returns ``(n, d)``, the other two return
    ``(n,)``.  ``forward`` must send domain points into the domain.
    """

    dimension: int
    forward: Callable[[Array], Array]
    jacobian_det: Callable[[Array], Array]
    unstable_log_expansion: Callable[[Array], Array]
    domain: Domain
    label: str


def step_points(system: MapSystem, noise: NoiseModel, points: Array,
                rng: np.random.Generator) -> tuple[Array, Array]:
    """One random step for a batch of points: T(x) + delta with boundary rule.

    Returns ``(new_points, alive)``.  Dead rows hold unspecified values.
    """
    base = system.forward(np.atleast_2d(points))
    delta = noise.sample(rng, base.shape[0])
    return system.domain.apply_boundary(base, base + delta)


def geometric_potential(system: MapSystem, x) -> float:
    """-log of the unstable expansion rate at x (the natural SRB weight)."""
    p = np.atleast_2d(np.asarray(x, dtype=float))
    return float(-system.unstable_log_expansion(p)[0])


# ---------------------------------------------------------------------------
# built-in example systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Builtin:
    """A built-in map bundled with its survivor region and escape oracle.

    ``survivor`` is the killing-complement Y: the process dies on leaving it.
    ``escape_eigenvalue`` is the analytic leading eigenvalue of the killed
    transfer operator at eps = 0 (None when no closed form exists).
    """

    label: str
    system: MapSystem
    survivor: RegionSpec
    escape_eigenvalue: float | None


def _interval_domain(lo=0.0, hi=1.0) -> Domain:
    return Domain((Box((lo,), (hi,), (True,)),))


def _ternary_forward(p: Array) -> Array:
    return _wrap_mod(3.0 * p, 1.0)


def ternary_hole() -> Builtin:
    """x -> 3x mod 1 on the circle, killed on the middle third [1/3, 2/3)."""
    dom = _interval_domain()
    system = MapSystem(
        dimension=1,
        forward=_ternary_forward,
        jacobian_det=lambda p: np.full(p.shape[0], 3.0),
        unstable_log_expansion=lambda p: np.full(p.shape[0], math.log(3.0)),
        domain=dom,
        label="ternary_hole",
    )
    survivor = RegionSpec(
        (Box((0.0,), (1.0 / 3.0,)), Box((2.0 / 3.0,), (1.0,))),
        label="survivor:ternary",
    )
    return Builtin("ternary_hole", system, survivor, 2.0 / 3.0)


def five_hole() -> Builtin:
    """x -> 5x mod 1, killed on the two rightmost branches [3/5, 1)."""
    dom = _interval_domain()
    system = MapSystem(
        dimension=1,
        forward=lambda p: _wrap_mod(5.0 * p, 1.0),
        jacobian_det=lambda p: np.full(p.shape[0], 5.0),
        unstable_log_expansion=lambda p: np.full(p.shape[0], math.log(5.0)),
        domain=dom,
        label="five_hole",
    )
    survivor = RegionSpec((Box((0.0,), (3.0 / 5.0,)),), label="survivor:five")
    return Builtin("five_hole", system, survivor, 3.0 / 5.0)


def _baker_forward(p: Array) -> Array:
    c = np.clip(np.floor(3.0 * p[:, 0]), 0, 2)
    x = 3.0 * p[:, 0] - c
    y = (p[:, 1] + c) / 3.0
    return np.stack([x, y], axis=1)


def open_baker() -> Builtin:
    """Baker-type map (3x mod 1, (y + floor(3x))/3), killed on the middle x-strip.

    Expands by 3 along x, contracts by 3 along y; area preserving.  The
    survivor set is a product of middle-thirds Cantor sets, so the escape
    eigenvalue matches the one-dimensional ternary system.
    """
    dom = Domain((Box((0.0, 0.0), (1.0, 1.0), (True, True)),))
    system = MapSystem(
        dimension=2,
        forward=_baker_forward,
        jacobian_det=lambda p: np.ones(p.shape[0]),
        unstable_log_expansion=lambda p: np.full(p.shape[0], math.log(3.0)),
        domain=dom,
        label="open_baker",
    )
    survivor = RegionSpec(
        (Box((0.0, 0.0), (1.0 / 3.0, 1.0)), Box((2.0 / 3.0, 0.0), (1.0, 1.0))),
        label="survivor:baker",
    )
    return Builtin("open_baker", system, survivor, 2.0 / 3.0)


def smooth_perturbed(a: float = 0.03) -> Builtin:
    """Smooth lift of the ternary system: x -> 3x + a sin(2 pi x) mod 1.

    Requires |a| < 0.05 so the map stays expanding with three full branches.
    No closed-form escape eigenvalue is known.
    """
    if abs(a) >= 0.05:
        raise ValueError("smooth_perturbed requires |a| < 0.05")
    dom = _interval_domain()

    def fwd(p: Array) -> Array:
        return _wrap_mod(3.0 * p + a * np.sin(2.0 * np.pi * p), 1.0)

    def jac(p: Array) -> Array:
        return 3.0 + 2.0 * np.pi * a * np.cos(2.0 * np.pi * p[:, 0])

    system = MapSystem(
        dimension=1,
        forward=fwd,
        jacobian_det=jac,
        unstable_log_expansion=lambda p: np.log(jac(p)),
        domain=dom,
        label="smooth_perturbed",
    )
    survivor = RegionSpec(
        (Box((0.0,), (1.0 / 3.0,)), Box((2.0 / 3.0,), (1.0,))),
        label="survivor:smooth",
    )
    return Builtin("smooth_perturbed", system, survivor, None)


def _two_repeller_forward(p: Array) -> Array:
    out = np.empty_like(p)
    left = p[:, 0] < 1.5
    out[left, 0] = _wrap_mod(3.0 * p[left, 0], 1.0)
    out[~left, 0] = 2.0 + _wrap_mod(5.0 * (p[~left, 0] - 2.0), 1.0)
    return out


def two_repeller() -> Builtin:
    """Two independent repellers: the ternary system on [0,1) and the
    five-branch system shifted to [2,3); anything else is absorbed.

    Each box is its own torus, so the two components never communicate and
    the global escape eigenvalue is the larger of the two (2/3).
    """
    dom = Domain((Box((0.0,), (1.0,), (True,)), Box((2.0,), (3.0,), (True,))))

    def jac(p: Array) -> Array:
        return np.where(p[:, 0] < 1.5, 3.0, 5.0)

    system = MapSystem(
        dimension=1,
        forward=_two_repeller_forward,
        jacobian_det=jac,
        unstable_log_expansion=lambda p: np.log(jac(p)),
        domain=dom,
        label="two_repeller",
    )
    survivor = RegionSpec(
        (Box((0.0,), (1.0 / 3.0,)), Box((2.0 / 3.0,), (1.0,)),
         Box((2.0,), (2.6,))),
        label="survivor:two_repeller",
    )
    return Builtin("two_repeller", system, survivor, 2.0 / 3.0)


_BUILTINS: dict[str, Callable[..., Builtin]] = {
    "ternary_hole": ternary_hole,
    "open_baker": open_baker,
    "five_hole": five_hole,
    "two_repeller": two_repeller,
    "smooth_perturbed": smooth_perturbed,
}


def builtin_labels() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def make_system(label: str, **params) -> Builtin:
    """Construct a built-in system by label; see :func:`builtin_labels`."""
    try:
        ctor = _BUILTINS[label]
    except KeyError:
        raise KeyError(f"unknown builtin system {label!r}") from None
    return ctor(**params)
