"""Deterministic maps, additive noise, weight fields, and region geometry.

The objects here describe a randomly perturbed discrete-time system

    x_{n+1} = T(x_n) + delta_n,   delta_n ~ Uniform([-eps, eps]^d),

together with the multiplicative weight e^{phi(x)} carried by the process and
the region Y in which the process must remain (leaving Y kills the particle /
loses all mass).  Everything downstream (operator assembly, particle runs)
consumes these types.

Conventions
-----------
* Points are float arrays of shape ``(n, d)``, one point per row, for every
  method here and every callable stored on :class:`MapSystem` and
  :class:`WeightField`; only :func:`eval_weight` takes a single point.
* Boxes are half open, ``[lo, hi)`` per axis.  On wrapped (torus) axes the
  representative interval is ``[lo, hi)`` and arithmetic is mod the width.
"""

from __future__ import annotations

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
        """Half-open membership of each ``(n, d)`` point."""
        ok = (points[:, 0] >= self.lo[0]) & (points[:, 0] < self.hi[0])
        for k in range(1, self.dimension):
            ok &= (points[:, k] >= self.lo[k]) & (points[:, k] < self.hi[k])
        return ok


@dataclass(frozen=True)
class Domain:
    """Disjoint union of boxes serving as the ambient space of a map.

    No two of the half-open boxes overlap; boxes may share a face.
    """

    boxes: tuple[Box, ...]

    def __post_init__(self):
        dims = {b.dimension for b in self.boxes}
        if len(dims) != 1:
            raise ValueError("all domain boxes must share one dimension")
        for i, a in enumerate(self.boxes):
            for b in self.boxes[:i]:
                if all(max(al, bl) < min(ah, bh) for al, ah, bl, bh
                       in zip(a.lo, a.hi, b.lo, b.hi)):
                    raise ValueError(f"domain boxes {b.lo}..{b.hi} and "
                                     f"{a.lo}..{a.hi} overlap")

    @property
    def dimension(self) -> int:
        return self.boxes[0].dimension

    def locate(self, points: Array) -> Array:
        """Index of the box containing each point (-1 when outside all)."""
        out = np.full(points.shape[0], -1, dtype=np.int64)
        for b, box in enumerate(self.boxes):
            out[box.contains(points)] = b
        return out

    def apply_boundary(self, base: Array, moved: Array) -> tuple[Array, Array]:
        """Wrap or absorb ``moved`` relative to the box containing ``base``.

        ``base`` is the unperturbed image T(x) and ``moved = base + delta``,
        both ``(n, d)`` float arrays; ``moved`` is adjusted in place.  Since
        the noise amplitude is small compared with box sizes, the box of
        ``base`` decides which torus the offset wraps on.  Returns
        ``(moved, alive_mask)``; dead rows hold unspecified values and must
        be masked by the caller.
        """
        alive = np.zeros(base.shape[0], dtype=bool)
        for box in self.boxes:
            in_box = box.contains(base)
            everywhere = bool(in_box.all())
            inside = in_box
            for k, (lo, hi, wrap) in enumerate(zip(box.lo, box.hi, box.wrap)):
                x = moved[:, k]
                width = hi - lo
                if wrap:
                    # x - 0.0 is x, and no wrapped value is -0.0, so a box
                    # at 0 skips both shifts bitwise
                    wrapped = _wrap_mod(x - lo if lo != 0.0 else x, width)
                    if lo != 0.0:
                        wrapped += lo
                    if everywhere:
                        x[...] = wrapped
                    else:
                        np.copyto(x, wrapped, where=in_box)
                else:
                    inside = inside & ~((x < lo) | (x >= lo + width))
            alive |= inside
        return moved, alive


def _wrap_mod(a: Array, w) -> Array:
    """``np.mod(a, w)``, bitwise, for positive ``w``.

    For a scalar ``w == 1`` it is ``a - floor(a)``: exact wherever the
    remainder is, rounded the same way elsewhere (-0.0 included), and free
    of libm ``fmod``, which is many times slower; other widths go to
    ``np.mod``.
    """
    if np.isscalar(w) and w == 1.0:
        f = np.floor(a)
        return np.subtract(a, f, out=f)
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
        inside = self.boxes[0].contains(points)
        for box in self.boxes[1:]:
            inside |= box.contains(points)
        return inside


def _pieces(corners: Array, lo: Array, hi: Array
            ) -> tuple[Array, Array, Array]:
    """Elementary sub-boxes of ``[lo, hi)`` cut out by the boxes
    ``[corners[i, 0], corners[i, 1])``: the faces of those that meet it,
    clipped, and ``lo`` and ``hi`` where they lengthen an axis cut each axis
    (coordinate compression).  Returns the pieces' lows, highs and whether
    some box covers them, in row-major order.  A repeated face leaves a
    piece of size 0 in place, which keeps the order, and the bits, of the
    sum in :func:`region_fraction`."""
    box_lo, box_hi = np.clip(corners, lo, hi).transpose(1, 0, 2)
    meets = np.all(box_hi > box_lo, axis=1)
    box_lo, box_hi = box_lo[meets], box_hi[meets]
    cuts = [np.sort(np.concatenate([[lo[k], hi[k]], box_lo[:, k], box_hi[:, k]]))
            for k in range(lo.size)]
    cuts = [c[int(c[1] == c[0]):c.size - int(c[-2] == c[-1])] for c in cuts]
    piece_lo, piece_hi = (np.array(np.meshgrid(*ends, indexing="ij")).reshape(
        lo.size, -1).T for ends in ([c[:-1] for c in cuts], [c[1:] for c in cuts]))
    mids = ((piece_lo + piece_hi) / 2.0)[:, None, :]
    covered = np.any(np.all((mids >= box_lo) & (mids < box_hi), axis=2), axis=1)
    return piece_lo, piece_hi, covered


def region_fraction(region: RegionSpec, cell_lo, cell_hi) -> float:
    """Fraction of the cell ``[cell_lo, cell_hi)`` covered by ``region``: the
    volume of its covered :func:`_pieces`, exact for any union of boxes.  A
    cell inside one region box gives exactly 1, one that meets none 0."""
    lo = np.asarray(cell_lo, dtype=float)
    hi = np.asarray(cell_hi, dtype=float)
    if np.any(hi <= lo):
        raise ValueError("degenerate cell")
    corners = np.array([(b.lo, b.hi) for b in region.boxes], dtype=float)
    if np.any(np.all((lo >= corners[:, 0]) & (hi <= corners[:, 1]), axis=1)):
        return 1.0
    piece_lo, piece_hi, covered = _pieces(corners, lo, hi)
    if not covered.any():  # 0 also where the cell volume underflows
        return 0.0
    sizes = (piece_hi - piece_lo)[covered]
    return float(np.sum(np.prod(sizes, axis=1)) / np.prod(hi - lo))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Additive product-uniform noise on ``[-eps, eps]^d``, d the points'
    dimension: :meth:`sample` draws each entry of its ``shape`` independently."""

    epsilon: float

    def __post_init__(self):
        if not 0 <= 2.0 * self.epsilon < np.inf:
            raise ValueError("epsilon must be >= 0, with 2 epsilon finite")

    def sample(self, rng: np.random.Generator, shape: tuple[int, ...]) -> Array:
        """The bits of ``rng.uniform(-eps, eps, shape)`` wherever NumPy rounds
        its ``-eps + 2 eps u`` twice (no fused multiply-add), scaled in place."""
        if self.epsilon == 0.0:
            return np.zeros(shape)
        delta = rng.random(shape)
        delta *= 2.0 * self.epsilon
        return np.subtract(delta, self.epsilon, out=delta)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightField:
    """Multiplicative weight e^{phi(x)}, optionally tapered to 0 on a boundary.

    ``log_weight`` is either a constant or a vectorised callable phi.  With
    ``support_cutoff`` set, the effective weight is

        e^{phi(x)} * s(dist(x) / taper_width)

    where s is a smoothstep and dist(x) the sup-norm distance from x to
    the nearest point of its own domain box that the cutoff does not cover:
    wrapped axes are circles, and past an absorbing face is uncovered
    (``domain=None`` takes the cutoff's bounding box, absorbing).  The weight
    is 0 outside the cutoff and on its boundary, and e^{phi} at depth >=
    taper_width, or everywhere when the cutoff covers a whole wrapped box.
    """

    log_weight: float | Callable[[Array], Array] = 0.0
    support_cutoff: RegionSpec | None = None
    taper_width: float = 0.0
    domain: Domain | None = None
    label: str = "phi=0"

    def log_values(self, points: Array) -> Array:
        if callable(self.log_weight):
            return np.asarray(self.log_weight(points), dtype=float)
        return np.full(points.shape[0], float(self.log_weight))

    @cached_property
    def _gaps(self) -> list[tuple]:
        """Per domain box, ``(box, lo, hi, cap_lo, cap_hi, cap_width)``: as
        ``(d, gaps, 1)`` arrays, the pieces the cutoff leaves uncovered in the
        box and one box width past its absorbing faces.  The way round a
        wrapped axis is ``cap_width - max(cap_hi - x, x - cap_lo)``; for a gap
        on the seam, width 0 and the opposite face make it exact."""
        corners = np.array([(b.lo, b.hi) for b in self.support_cutoff.boxes], float)
        domain = self.domain.boxes if self.domain is not None else (
            Box(tuple(corners[:, 0].min(axis=0)), tuple(corners[:, 1].max(axis=0))),)
        out = []
        for box in domain:
            box_lo, box_hi = np.asarray(box.lo), np.asarray(box.hi)
            pad = np.where(box.wrap, 0.0, box_hi - box_lo)
            lo, hi, covered = _pieces(np.clip(corners, box_lo, box_hi),
                                      box_lo - pad, box_hi + pad)
            gap = ~covered & np.all(hi > lo, axis=1)
            lo, hi = lo[gap], hi[gap]
            on_lo, on_hi = lo == box_lo, hi == box_hi
            out.append((box, *(a.T[:, :, None] for a in (
                lo, hi, np.where(on_lo, box_hi, lo), np.where(on_hi, box_lo, hi),
                np.where(on_lo | on_hi, 0.0, box_hi - box_lo)))))
        return out

    def _taper(self, points: Array) -> Array:
        if self.taper_width <= 0:
            return self.support_cutoff.contains(points).astype(float)
        dist = np.zeros(points.shape[0])  # 0 when uncovered or outside every box
        for box, lo, hi, cap_lo, cap_hi, cap_width in self._gaps:
            near = 0.0  # per gap, the largest axis distance, clamped at 0
            for k, wrap in enumerate(box.wrap):
                x = points[:, k]
                d = np.maximum(lo[k] - x, x - hi[k])
                if wrap:  # or the way round the circle
                    np.minimum(d, cap_width[k] - np.maximum(cap_hi[k] - x,
                                                            x - cap_lo[k]), out=d)
                near = np.maximum(near, d, out=d)
            np.copyto(dist, near.min(axis=0, initial=np.inf),
                      where=box.contains(points))
        t = np.clip(np.divide(dist, self.taper_width, out=dist), 0.0, 1.0, out=dist)
        s = -2.0 * t  # the smoothstep 3t^2 - 2t^3, in place
        s += 3.0
        s *= np.multiply(t, t, out=t)
        return s

    def values(self, points: Array) -> Array:
        """Effective weight e^{phi} (with taper) at each point."""
        w = np.exp(self.log_values(points))
        if self.support_cutoff is not None:
            w = w * self._taper(points)
        return w

    def effective_log_values(self, points: Array) -> Array:
        """Log of :meth:`values`, summed as phi + log(taper) without ``exp``,
        so phi below about -745, where e^{phi} underflows to 0, stays finite.
        A taper of 0 gives -inf."""
        log_w = self.log_values(points)
        if self.support_cutoff is not None:
            with np.errstate(divide="ignore"):
                log_w = log_w + np.log(self._taper(points))
        return log_w


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
    """Deterministic map with its Jacobian determinant on a box domain.

    ``forward`` and ``jacobian_det`` take arrays of shape ``(n, d)`` and
    return ``(n, d)`` and ``(n,)``, with d the domain's dimension; the
    assembly checks a stratum's image volume against the determinant.
    ``forward`` must send domain points into the domain.
    """

    forward: Callable[[Array], Array]
    jacobian_det: Callable[[Array], Array]
    domain: Domain
    label: str

    @property
    def dimension(self) -> int:
        return self.domain.dimension


def step_points(system: MapSystem, noise: NoiseModel, points: Array,
                rng: np.random.Generator) -> tuple[Array, Array]:
    """One random step of ``(n, d)`` points: T(x) + delta with boundary rule.

    Returns ``(new_points, alive)``.  Dead rows hold unspecified values.
    """
    base = system.forward(points)
    moved = noise.sample(rng, base.shape)
    return system.domain.apply_boundary(base, np.add(moved, base, out=moved))


# ---------------------------------------------------------------------------
# built-in example systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Builtin:
    """A built-in map bundled with its survivor region and escape oracle.

    ``survivor`` is the killing-complement Y: the process dies on leaving it.
    ``escape_eigenvalue`` is the analytic leading eigenvalue of the killed
    transfer operator at eps = 0 (None when no closed form exists).  The
    label is the map's.
    """

    system: MapSystem
    survivor: RegionSpec
    escape_eigenvalue: float | None

    @property
    def label(self) -> str:
        return self.system.label


def _interval_domain(lo=0.0, hi=1.0) -> Domain:
    return Domain((Box((lo,), (hi,), (True,)),))


def _ternary_forward(p: Array) -> Array:
    return _wrap_mod(3.0 * p, 1.0)


def ternary_hole() -> Builtin:
    """x -> 3x mod 1 on the circle, killed on the middle third [1/3, 2/3)."""
    system = MapSystem(_ternary_forward, lambda p: np.full(p.shape[0], 3.0),
                       _interval_domain(), "ternary_hole")
    survivor = RegionSpec(
        (Box((0.0,), (1.0 / 3.0,)), Box((2.0 / 3.0,), (1.0,))),
        label="survivor:ternary",
    )
    return Builtin(system, survivor, 2.0 / 3.0)


def five_hole() -> Builtin:
    """x -> 5x mod 1, killed on the two rightmost branches [3/5, 1)."""
    system = MapSystem(lambda p: _wrap_mod(5.0 * p, 1.0),
                       lambda p: np.full(p.shape[0], 5.0),
                       _interval_domain(), "five_hole")
    survivor = RegionSpec((Box((0.0,), (3.0 / 5.0,)),), label="survivor:five")
    return Builtin(system, survivor, 3.0 / 5.0)


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
    system = MapSystem(_baker_forward, lambda p: np.ones(p.shape[0]), dom,
                       "open_baker")
    survivor = RegionSpec(
        (Box((0.0, 0.0), (1.0 / 3.0, 1.0)), Box((2.0 / 3.0, 0.0), (1.0, 1.0))),
        label="survivor:baker",
    )
    return Builtin(system, survivor, 2.0 / 3.0)


def smooth_perturbed(a: float = 0.03) -> Builtin:
    """Smooth lift of the ternary system: x -> 3x + a sin(2 pi x) mod 1.

    Requires |a| < 0.05 so the map stays expanding with three full branches.
    No closed-form escape eigenvalue is known.
    """
    if abs(a) >= 0.05:
        raise ValueError("smooth_perturbed requires |a| < 0.05")

    def fwd(p: Array) -> Array:
        return _wrap_mod(3.0 * p + a * np.sin(2.0 * np.pi * p), 1.0)

    def jac(p: Array) -> Array:
        return 3.0 + 2.0 * np.pi * a * np.cos(2.0 * np.pi * p[:, 0])

    system = MapSystem(fwd, jac, _interval_domain(), "smooth_perturbed")
    survivor = RegionSpec(
        (Box((0.0,), (1.0 / 3.0,)), Box((2.0 / 3.0,), (1.0,))),
        label="survivor:smooth",
    )
    return Builtin(system, survivor, None)


def _two_repeller_forward(p: Array) -> Array:
    x = p[:, :1]
    return np.where(x < 1.5, _wrap_mod(3.0 * x, 1.0),
                    2.0 + _wrap_mod(5.0 * (x - 2.0), 1.0))


def two_repeller() -> Builtin:
    """Two independent repellers: the ternary system on [0,1) and the
    five-branch system shifted to [2,3); anything else is absorbed.

    Each box is its own torus, so the two components never communicate and
    the global escape eigenvalue is the larger of the two (2/3).
    """
    dom = Domain((Box((0.0,), (1.0,), (True,)), Box((2.0,), (3.0,), (True,))))
    system = MapSystem(_two_repeller_forward,
                       lambda p: np.where(p[:, 0] < 1.5, 3.0, 5.0), dom,
                       "two_repeller")
    survivor = RegionSpec(
        (Box((0.0,), (1.0 / 3.0,)), Box((2.0 / 3.0,), (1.0,)),
         Box((2.0,), (2.6,))),
        label="survivor:two_repeller",
    )
    return Builtin(system, survivor, 2.0 / 3.0)


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
