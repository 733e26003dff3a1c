"""Internal angle-bisector geometry.

The bisector from B meets side AC (length b) at a foot splitting it into
u (next to A) and U (next to C) with sinh u / sinh U = sinh c / sinh a;
mirror-symmetrically the bisector from C splits side AB into v and V.
tB and tC are the bisector lengths BB' and CC'.

The foot position and the cevian length are computed in closed form; the
four sub-triangle sine-law identities are kept as residual checks so they
stay independent evidence rather than part of the computation path.
``_bisect`` holds the whole bisector stage (feet, lengths and checks) that
``bisector_lengths`` runs. The equality kernel ``_gap_in_C`` in
``steiner_lehmus`` calls its kernels for the feet u, v and the lengths tB,
tC. Two pinned inline copies there run them without calling them: the
fused scan ``_evidence`` copies the whole stage and calls it only to raise
a sub-triangle rejection, and the equality sweep ``_count_sign_changes``
copies the shared kernels up to the arguments of the lengths' asinh, from
which it reads the sign of tB - tC.
"""

import math
from dataclasses import dataclass

from .core import (
    DEFAULT_TOL,
    NumericalFailure,
    ToleranceConfig,
    Triangle,
    _cevian_length,
)

__all__ = [
    "BisectorData",
    "CevianResiduals",
    "RatioResiduals",
    "bisector_lengths",
    "subtriangle_residuals",
    "unconditional_identities",
]


@dataclass(frozen=True)
class BisectorData:
    """Half-angles, foot segments, and lengths of both internal bisectors.

    beta = B/2, gamma = C/2; u + U = b and v + V = c; tB = BB', tC = CC'.
    """

    beta: float
    gamma: float
    u: float
    U: float
    v: float
    V: float
    tB: float
    tC: float


@dataclass(frozen=True)
class CevianResiduals:
    """Relative residuals of the four sub-triangle sine laws.

    res_u: sinh tB / sin A = sinh u / sin beta   (triangle ABB')
    res_U: sinh tB / sin C = sinh U / sin beta   (triangle CBB')
    res_v: sinh tC / sin A = sinh v / sin gamma  (triangle ACC')
    res_V: sinh tC / sin B = sinh V / sin gamma  (triangle BCC')
    """

    res_u: float
    res_U: float
    res_v: float
    res_V: float

    def max(self) -> float:
        return max(self.res_u, self.res_U, self.res_v, self.res_V)


@dataclass(frozen=True)
class RatioResiduals:
    """Residuals of sinh U/sinh u = sin A/sin C and sinh V/sinh v = sin A/sin B."""

    idU: float
    idV: float


def _adjacent_split(side: float, k: float) -> float:
    """Segment of ``side`` next to the shared vertex when the foot divides it
    with sinh(near)/sinh(far) = k.

    Solves tanh x = k sinh(side) / (1 + k cosh(side)) in the logarithmic form
    x = (log1p(k e^side) - log1p(k e^-side)) / 2, which stays accurate when
    tanh saturates for large sides.
    """
    return 0.5 * (math.log1p(k * math.exp(side)) - math.log1p(k * math.exp(-side)))


def _rel(x: float, y: float) -> float:
    """Relative difference of two same-signed quantities."""
    p = abs(x)
    q = abs(y)
    return abs(x - y) / (q if q > p else p)  # max(p, q), nan included


def _subtriangle_rels(
    sin_A: float, sin_B: float, sin_C: float, sin_beta: float, sin_gamma: float,
    sinh_u: float, sinh_U: float, sinh_v: float, sinh_V: float,
    sinh_tB: float, sinh_tC: float,
) -> tuple[float, float, float, float]:
    """(res_u, res_U, res_v, res_V) of ``CevianResiduals`` from precomputed sines."""
    return (
        _rel(sinh_tB / sin_A, sinh_u / sin_beta),
        _rel(sinh_tB / sin_C, sinh_U / sin_beta),
        _rel(sinh_tC / sin_A, sinh_v / sin_gamma),
        _rel(sinh_tC / sin_B, sinh_V / sin_gamma),
    )


def _check_feet(
    b: float, c: float, u: float, U: float, v: float, V: float, tB: float, tC: float,
    t: ToleranceConfig,
) -> None:
    """Positivity of every bisector quantity, then u + U = b and v + V = c."""
    inf = math.inf
    # one chained comparison per quantity accepts; it is false for nan and +-inf
    if not (
        0.0 < u < inf and 0.0 < U < inf and 0.0 < v < inf
        and 0.0 < V < inf and 0.0 < tB < inf and 0.0 < tC < inf
    ):
        for name, value in (
            ("u", u), ("U", U), ("v", v), ("V", V), ("tB", tB), ("tC", tC),
        ):
            if not 0.0 < value < inf:
                raise NumericalFailure(f"bisector quantity {name} = {value!r} must be positive")
    if abs(u + U - b) > t.rtol_identity * b:
        raise NumericalFailure(f"foot segments do not sum to the side: u + U - b = {u + U - b!r}")
    if abs(v + V - c) > t.rtol_identity * c:
        raise NumericalFailure(f"foot segments do not sum to the side: v + V - c = {v + V - c!r}")


def _bisect(
    b: float, c: float, sinh_a: float, sinh_b: float, sinh_c: float, sin_A: float, sin_B: float,
    sin_C: float, half_A: float, half_B: float, half_C: float, t: ToleranceConfig,
) -> tuple:
    """The bisector stage: feet in closed form, lengths by the law of cosines
    in the A-side sub-triangles, then the foot and sub-triangle sine-law
    checks, from precomputed sinh(side), sin(angle) and sin(angle/2). Returns
    (u, U, v, V, tB, tC)."""
    sinh = math.sinh
    u = _adjacent_split(b, sinh_c / sinh_a)
    U = _adjacent_split(b, sinh_a / sinh_c)
    v = _adjacent_split(c, sinh_b / sinh_a)
    V = _adjacent_split(c, sinh_a / sinh_b)
    sinh_u = sinh(u)
    sinh_v = sinh(v)
    tB = _cevian_length(c, u, sinh_c, sinh_u, half_A)
    tC = _cevian_length(b, v, sinh_b, sinh_v, half_A)
    _check_feet(b, c, u, U, v, V, tB, tC, t)
    sinh_U = sinh(U)
    sinh_V = sinh(V)
    worst, res_U, res_v, res_V = _subtriangle_rels(
        sin_A, sin_B, sin_C, half_B, half_C, sinh_u, sinh_U, sinh_v, sinh_V, sinh(tB), sinh(tC)
    )
    # max of the four by max's rule: replace only on >, nan included
    if res_U > worst:
        worst = res_U
    if res_v > worst:
        worst = res_v
    if res_V > worst:
        worst = res_V
    if worst > t.rtol_identity:
        raise NumericalFailure(
            f"sub-triangle sine-law residual {worst!r} exceeds {t.rtol_identity}"
        )
    return u, U, v, V, tB, tC


def subtriangle_residuals(t: Triangle, d: BisectorData) -> CevianResiduals:
    """Relative residuals of the four sine laws in the bisector sub-triangles."""
    return CevianResiduals(*_subtriangle_rels(
        math.sin(t.A), math.sin(t.B), math.sin(t.C), math.sin(d.beta), math.sin(d.gamma),
        math.sinh(d.u), math.sinh(d.U), math.sinh(d.v), math.sinh(d.V),
        math.sinh(d.tB), math.sinh(d.tC),
    ))


def unconditional_identities(d: BisectorData, t: Triangle) -> RatioResiduals:
    """Residuals of the two foot-ratio identities that hold for every triangle:
    sinh U / sinh u = sin A / sin C and sinh V / sinh v = sin A / sin B."""
    sin_A = math.sin(t.A)
    return RatioResiduals(
        idU=_rel(math.sinh(d.U) / math.sinh(d.u), sin_A / math.sin(t.C)),
        idV=_rel(math.sinh(d.V) / math.sinh(d.v), sin_A / math.sin(t.B)),
    )


def bisector_lengths(t: Triangle, tol: ToleranceConfig = DEFAULT_TOL) -> BisectorData:
    """Both bisectors of ``t``: feet in closed form, lengths by the law of
    cosines in the A-side sub-triangles; validates every identity before
    returning."""
    A, B, C = t.angles.as_tuple()
    u, U, v, V, tB, tC = _bisect(
        t.b, t.c, math.sinh(t.a), math.sinh(t.b), math.sinh(t.c), math.sin(A), math.sin(B),
        math.sin(C), math.sin(0.5 * A), math.sin(0.5 * B), math.sin(0.5 * C), tol,
    )
    return BisectorData(beta=0.5 * B, gamma=0.5 * C, u=u, U=U, v=v, V=V, tB=tB, tC=tC)
