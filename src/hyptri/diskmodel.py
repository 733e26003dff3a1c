"""Poincare disk embedding and figure rendering.

The disk model serves as an independent metric oracle: triangles are
embedded in a canonical gauge (first vertex at the origin, second on the
positive x-axis) and distances/angles measured in the model must reproduce
the intrinsic sides and angles. Geodesics are diameters or circular arcs
orthogonal to the unit circle; angles are Euclidean (the model is
conformal).

``render_svg`` draws a triangle with both internal bisectors into a
1000x1000 viewport, 2% margin, all numbers formatted to 6 significant
digits; output bytes are a pure function of the input.
"""

import cmath
import math

from . import _public_names
from .cevian import BisectorData
from .core import (
    DomainCap,
    InvalidInput,
    InvalidPoint,
    NumericalFailure,
    Triangle,
    _Frozen,
    _set,
)

__all__ = _public_names(__name__)

_COLLINEAR_TOL = 1e-12
_ORTHO_TOL = 1e-12


class DiskPoint(_Frozen):
    """A point strictly inside the unit disk."""

    __slots__ = __match_args__ = ("x", "y")
    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidPoint(f"coordinates must be finite, got ({x!r}, {y!r})")
        if x * x + y * y >= 1.0:
            raise InvalidPoint(f"point ({x!r}, {y!r}) is not strictly inside the disk")
        _set(self, "x", x)
        _set(self, "y", y)

    def as_complex(self) -> complex:
        return complex(self.x, self.y)


class GeodesicArc(_Frozen):
    """The geodesic through two disk points: a diameter segment when they are
    collinear with the origin, otherwise an arc of the unique circle through
    both that meets the unit circle at right angles."""

    __slots__ = __match_args__ = ("p", "q", "kind", "center", "radius")
    p: DiskPoint
    q: DiskPoint
    kind: str  # "segment" | "arc"
    center: tuple[float, float] | None
    radius: float | None

    def __init__(
        self, p: DiskPoint, q: DiskPoint, kind: str,
        center: tuple[float, float] | None = None, radius: float | None = None,
    ) -> None:
        if kind == "arc":
            if center is None or radius is None or not all(map(math.isfinite, (*center, radius))):
                raise InvalidInput(
                    f"an arc needs a finite center and radius, got {center!r} and {radius!r}"
                )
            cx, cy = center
            rr = radius * radius
            # near-diameter geodesics have huge centers, so the residual is
            # meaningful only relative to the squared radius
            residual = abs(cx * cx + cy * cy - rr - 1.0)
            if residual > _ORTHO_TOL * max(1.0, rr):
                raise NumericalFailure(f"arc circle not orthogonal to the boundary: {residual!r}")
        elif kind != "segment":
            raise InvalidInput(f"unknown geodesic kind {kind!r}")
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "kind", kind)
        _set(self, "center", center)
        _set(self, "radius", radius)


def disk_distance(p: DiskPoint, q: DiskPoint) -> float:
    """Hyperbolic distance arcosh(1 + 2|p-q|^2 / ((1-|p|^2)(1-|q|^2)))."""
    dx = p.x - q.x
    dy = p.y - q.y
    dd = dx * dx + dy * dy
    den = (1.0 - (p.x * p.x + p.y * p.y)) * (1.0 - (q.x * q.x + q.y * q.y))
    # arcosh(1 + 2w) written as 2 asinh(sqrt(w)) keeps tiny distances exact
    return 2.0 * math.asinh(math.sqrt(dd / den))


def embed_triangle(t: Triangle) -> tuple[DiskPoint, DiskPoint, DiskPoint]:
    """Canonical embedding: vertex A at the origin, B at euclidean radius
    tanh(c/2) on the positive x-axis, C at polar angle A and radius tanh(b/2)."""
    rb = math.tanh(0.5 * t.c)
    rc = math.tanh(0.5 * t.b)
    if rb >= 1.0 or rc >= 1.0:
        raise DomainCap("side too long to embed: tanh(side/2) rounds to 1")
    return (
        DiskPoint(0.0, 0.0),
        DiskPoint(rb, 0.0),
        DiskPoint(rc * math.cos(t.A), rc * math.sin(t.A)),
    )


def _translate_to_origin(base: complex, z: complex) -> complex:
    # Mobius map of the disk sending base to the origin
    return (z - base) / (1.0 - base.conjugate() * z)


def disk_angle(at: DiskPoint, p: DiskPoint, q: DiskPoint) -> float:
    """Angle in [0, pi] between the geodesics at->p and at->q, measured from
    the tangent directions at ``at`` (conformality makes it Euclidean after
    translating ``at`` to the origin)."""
    za, zp, zq = at.as_complex(), p.as_complex(), q.as_complex()
    if zp == za or zq == za or zp == zq:
        raise InvalidInput("angle needs three pairwise distinct points")
    wp = _translate_to_origin(za, zp)
    wq = _translate_to_origin(za, zq)
    return abs(cmath.phase(wp * wq.conjugate()))


def point_toward(p: DiskPoint, q: DiskPoint, distance: float) -> DiskPoint:
    """The point at the given hyperbolic distance from p along the geodesic
    toward q."""
    zp, zq = p.as_complex(), q.as_complex()
    if zp == zq:
        raise InvalidInput("direction undefined for coincident points")
    w = _translate_to_origin(zp, zq)
    step = math.tanh(0.5 * distance) * (w / abs(w))
    z = (step + zp) / (1.0 + zp.conjugate() * step)
    return DiskPoint(z.real, z.imag)


def geodesic_arc(p: DiskPoint, q: DiskPoint) -> GeodesicArc:
    """Geodesic through two distinct points; diameter segment when collinear
    with the origin (cross product below 1e-12), orthogonal circle otherwise."""
    if p.as_complex() == q.as_complex():
        raise InvalidInput("geodesic undefined for coincident points")
    cross = p.x * q.y - p.y * q.x
    if abs(cross) < _COLLINEAR_TOL:
        return GeodesicArc(p, q, "segment")
    # 2 <c, p> = |p|^2 + 1 and 2 <c, q> = |q|^2 + 1 pin the orthogonal center
    P = p.x * p.x + p.y * p.y + 1.0
    Q = q.x * q.x + q.y * q.y + 1.0
    cx = (P * q.y - Q * p.y) / (2.0 * cross)
    cy = (p.x * Q - q.x * P) / (2.0 * cross)
    rr = cx * cx + cy * cy - 1.0
    if rr <= 0.0:
        raise NumericalFailure("orthogonal circle collapsed; points too close to collinear")
    return GeodesicArc(p, q, "arc", center=(cx, cy), radius=math.sqrt(rr))


# --- SVG rendering --------------------------------------------------------

_VIEW = 1000.0
_SCALE = 480.0  # unit disk radius in viewport units (2% margin)
_CENTER = 500.0


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _to_screen(x: float, y: float) -> tuple[float, float]:
    return (_CENTER + _SCALE * x, _CENTER - _SCALE * y)


def _path_for(p: DiskPoint, q: DiskPoint) -> str:
    arc = geodesic_arc(p, q)
    x1, y1 = _to_screen(p.x, p.y)
    x2, y2 = _to_screen(q.x, q.y)
    if arc.kind == "segment":
        return f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"
    cx, cy = arc.center
    center = complex(cx, cy)
    turn = cmath.phase((q.as_complex() - center) / (p.as_complex() - center))
    sweep = "1" if turn < 0.0 else "0"  # y flips on screen, so math-cw draws positive-angle
    r = _fmt(_SCALE * arc.radius)
    return f"M {_fmt(x1)} {_fmt(y1)} A {r} {r} 0 0 {sweep} {_fmt(x2)} {_fmt(y2)}"


def _offset_from(p: DiskPoint, anchor: tuple[float, float], amount: float) -> tuple[float, float]:
    # label position: p pushed away from the anchor (negative amount = toward)
    dx = p.x - anchor[0]
    dy = p.y - anchor[1]
    norm = math.hypot(dx, dy)
    return (p.x + amount * dx / norm, p.y + amount * dy / norm)


def _text(position: tuple[float, float], label: str) -> str:
    x, y = _to_screen(*position)
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="serif" font-size="30" '
        f'font-style="italic" text-anchor="middle" dominant-baseline="middle">{label}</text>'
    )


def _dot(p: DiskPoint, radius: float, fill: str) -> str:
    x, y = _to_screen(p.x, p.y)
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" fill="{fill}"/>'


def svg_document(t: Triangle, d: BisectorData) -> str:
    """The full SVG drawing of the triangle with both internal bisectors as a
    string; byte-determinism comes from fixed formatting of every number."""
    pA, pB, pC = embed_triangle(t)
    footB = point_toward(pA, pC, d.u)  # B' splits side AC at distance u from A
    footC = point_toward(pA, pB, d.v)  # C' splits side AB at distance v from A
    anchor = ((pA.x + pB.x + pC.x) / 3.0, (pA.y + pB.y + pC.y) / 3.0)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_VIEW)}" '
        f'height="{_fmt(_VIEW)}" viewBox="0 0 {_fmt(_VIEW)} {_fmt(_VIEW)}">',
        f'<circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_SCALE)}" '
        f'fill="none" stroke="#999999" stroke-width="1.5"/>',
    ]
    for p, q in ((pA, pB), (pB, pC), (pC, pA)):
        lines.append(
            f'<path d="{_path_for(p, q)}" fill="none" stroke="#1a1a1a" stroke-width="2.2"/>'
        )
    lines.append(
        f'<path d="{_path_for(pB, footB)}" fill="none" stroke="#c02020" stroke-width="1.8"/>'
    )
    lines.append(
        f'<path d="{_path_for(pC, footC)}" fill="none" stroke="#2050c0" stroke-width="1.8"/>'
    )
    for p in (pA, pB, pC):
        lines.append(_dot(p, 4.0, "#1a1a1a"))
    lines.append(_dot(footB, 3.0, "#c02020"))
    lines.append(_dot(footC, 3.0, "#2050c0"))

    lines.append(_text(_offset_from(pA, anchor, 0.07), "A"))
    lines.append(_text(_offset_from(pB, anchor, 0.07), "B"))
    lines.append(_text(_offset_from(pC, anchor, 0.07), "C"))
    lines.append(_text(_offset_from(footB, anchor, 0.05), "B′"))
    lines.append(_text(_offset_from(footC, anchor, 0.05), "C′"))
    lines.append(_text(_offset_from(pB, anchor, -0.10), "β"))
    lines.append(_text(_offset_from(pC, anchor, -0.10), "γ"))
    lines.append(_text(_offset_from(point_toward(pA, pC, 0.5 * d.u), anchor, 0.045), "u"))
    lines.append(_text(_offset_from(point_toward(pA, pC, d.u + 0.5 * d.U), anchor, 0.045), "U"))
    lines.append(_text(_offset_from(point_toward(pA, pB, 0.5 * d.v), anchor, 0.045), "v"))
    lines.append(_text(_offset_from(point_toward(pA, pB, d.v + 0.5 * d.V), anchor, 0.045), "V"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_svg(t: Triangle, d: BisectorData, path) -> None:
    """Write the figure to ``path`` (UTF-8); deterministic bytes for equal inputs."""
    data = svg_document(t, d).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
