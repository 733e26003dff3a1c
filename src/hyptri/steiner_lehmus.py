"""Numerical verification that equal internal bisectors force an isosceles
triangle.

Three layers of evidence:

* ``proof_trace`` reports the ratio/difference quantities of the underlying
  inequality chain with their expected signs (R1, R2 < 1 and R3 > 1 whenever
  B < C, mirrored for B > C). R1 and D carry the evidence; R2 and R3 record
  the chain's steps that are the monotonicity of sin and cos on (0, pi/2).
* ``check_monotonicity`` tests the strict contrapositive
  sign(tB - tC) = sign(C - B), with a tie band around B = C.
* ``equal_bisector_report`` realizes the equality case constructively:
  for admissible (A, B) the unique root of g(C) = tB - tC is C = B, found by
  a bracketed bisection/secant hybrid plus a sign-change uniqueness sweep;
  its ``c`` is the root.

``scan_random`` gathers the first two over a seeded random triangle ensemble,
and ``equality_study`` the third over seeded random (A, B) pairs.

The strict sign law was confirmed on a dense parameter grid before being
relied on here.
"""

import atexit
import marshal
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain

from . import _public_names
from .cevian import BisectorData, bisector_lengths, unconditional_identities, _adjacent_split
from .core import (
    DEFAULT_TOL,
    InvalidTriangle,
    NoBracket,
    NonConvergence,
    NumericalFailure,
    ToleranceConfig,
    Triangle,
    TriangleAngles,
    _ATOL_EQUAL,
    _MAX_SIDE,
    _check_angles,
    _cevian_length,
    _sides_from_angles,
    solve_from_angles,
)
from .rng import _GAMMA, _LANES, _MASK64, SplitMix64

__all__ = _public_names(__name__)

# An alias of DEFAULT_TOL, the one policy of the library and the CLI; nothing
# here reads it. The benchmark's perfbench/layers.py and perfbench/workloads.py
# import it, and the benchmark change that drops those imports deletes it.
SCAN_TOL = DEFAULT_TOL

# |C - B| below this, scaled by min(1, max(B, C)), exempts strict-sign
# assertions; inside the band the gap must vanish to
# TIE_BAND_GAP_RTOL * max(tB, tC) instead.
TIE_BAND_ANGLE = 1e-9
TIE_BAND_GAP_RTOL = 1e-7

# Triangles per block of scan_random, 128: their 3 * 128 uniforms fill one
# full wide-integer pass of SplitMix64.randoms.
_SCAN_BLOCK = _LANES // 3


@dataclass(frozen=True)
class ProofTrace:
    """Per-step quantities of the equal-bisector inequality chain.

    R1 = (sin beta/sin gamma)(sinh b/sinh c)   -- the U:V sinh ratio
    R2 = sin beta/sin gamma                    -- the u:v sinh ratio
    R3 = cos beta/cos gamma                    -- the double-angle ratio step
    D  = (sinh a/sinh c)cosh u + cosh U - (sinh a/sinh b)cosh v - cosh V
         (equals sinh b/sinh u - sinh c/sinh v by the sum formula)
    idU, idV are the unconditional foot-ratio identity residuals and gap is
    tB - tC, both carried along for reporting.

    R1 and D carry the evidence. The steps R2 < 1 and R3 > 1 (for B < C) are
    the monotonicity of sin and cos on (0, pi/2), so the scan decides them
    by the sign of sin((C-B)/4) that their product forms
    R2 - 1 = 2 cos((B+C)/4) sin((B-C)/4) / sin(C/2) and
    R3 - 1 = 2 sin((B+C)/4) sin((C-B)/4) / cos(C/2) share: the float
    ratios round to 1 once the angles are tiny.
    """

    R1: float
    R2: float
    R3: float
    D: float
    idU: float
    idV: float
    gap: float


@dataclass(frozen=True)
class MonotonicityResult:
    passed: bool
    gap: float
    angle_gap: float
    tB: float
    tC: float
    in_tie_band: bool


@dataclass(frozen=True)
class EqualBisectorSolve:
    c: float
    iterations: int
    sign_changes: int

    def failures(self, B: float) -> list[str]:
        """The equality-case criteria that this solve for base angle B fails."""
        return [name for name, ok in (
            ("|c - B| not below 1e-10", abs(self.c - B) < 1e-10),
            ("sign changes in the sweep not exactly 1", self.sign_changes == 1),
        ) if not ok]


@dataclass(frozen=True)
class ScanReport:
    """Aggregates over a seeded random triangle ensemble."""

    samples: int
    seed: int
    eps_angle: float
    max_identity_residual: float
    max_sine_residual: float
    max_cevian_residual: float
    max_ratio_residual: float
    monotonicity_failures: int
    inequality_failures: int
    tie_band_samples: int
    max_side: float

    def failures(self) -> list[str]:
        """The scan criteria that this report fails; a nan residual fails."""
        return [name for name, ok in (
            ("identity residual not below 1e-9", self.max_identity_residual < 1e-9),
            ("foot-ratio residual not below 1e-10", self.max_ratio_residual < 1e-10),
            ("monotonicity failures", self.monotonicity_failures == 0),
            ("proof-step inequality failures", self.inequality_failures == 0),
        ) if not ok]


@dataclass(frozen=True)
class EqualityStudy:
    """Aggregates over seeded random equality-case pairs (A, B); the worst
    pair is the first with the largest |c - B|."""

    pairs: int
    seed: int
    eps_angle: float
    max_root_gap: float
    worst_A: float
    worst_B: float
    root_iterations: int
    failing_pairs: int

    def failures(self) -> list[str]:
        """The study criterion that this report fails: no pair may fail
        ``EqualBisectorSolve.failures(B)``."""
        if self.failing_pairs:
            return [f"{self.failing_pairs} of {self.pairs} pairs fail the equality-case criteria"]
        return []


def _check_count(what: str, n: int) -> None:
    """A study size: an int, not a bool, of at least 1."""
    if type(n) is bool or not isinstance(n, int):
        raise TypeError(f"{what} count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{what} count must be >= 1, got {n!r}")


def proof_trace(
    t: Triangle,
    d: BisectorData | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ProofTrace:
    """Evaluate every step quantity on the actual triangle (no equal-bisector
    assumption is imposed anywhere)."""
    if d is None:
        d = bisector_lengths(t, tol)
    sin_beta = math.sin(d.beta)
    sin_gamma = math.sin(d.gamma)
    sinh_b = math.sinh(t.b)
    sinh_c = math.sinh(t.c)
    ratios = unconditional_identities(d, t)
    sinh_a = math.sinh(t.a)
    D = (
        (sinh_a / sinh_c) * math.cosh(d.u)
        + math.cosh(d.U)
        - (sinh_a / sinh_b) * math.cosh(d.v)
        - math.cosh(d.V)
    )
    return ProofTrace(
        R1=(sin_beta / sin_gamma) * (sinh_b / sinh_c),
        R2=sin_beta / sin_gamma,
        R3=math.cos(d.beta) / math.cos(d.gamma),
        D=D,
        idU=ratios.idU,
        idV=ratios.idV,
        gap=d.tB - d.tC,
    )


def check_monotonicity(
    t: Triangle,
    tol: ToleranceConfig = DEFAULT_TOL,
    d: BisectorData | None = None,
) -> MonotonicityResult:
    """Pass iff sign(tB - tC) = sign(C - B) outside the tie band, and the gap
    is negligible inside it."""
    if d is None:
        d = bisector_lengths(t, tol)
    gap = d.tB - d.tC
    angle_gap = t.C - t.B
    in_band, passed = _sign_law(gap, t.B, t.C, d.tB, d.tC)
    return MonotonicityResult(
        passed=passed, gap=gap, angle_gap=angle_gap, tB=d.tB, tC=d.tC, in_tie_band=in_band
    )


def _sign_law(gap: float, B: float, C: float, tB: float, tC: float) -> tuple[bool, bool]:
    """(in the tie band, passed) for gap = tB - tC. The band is
    |C - B| < TIE_BAND_ANGLE * min(1, max(B, C)): below angles of 1 it
    narrows with them, so large-sided triangles, whose angles are all tiny,
    still face the strict sign law. The fixed bound is tested first, so a
    triangle outside it costs one comparison."""
    angle_gap = C - B
    if abs(angle_gap) < TIE_BAND_ANGLE and abs(angle_gap) < TIE_BAND_ANGLE * min(1.0, max(B, C)):
        return True, abs(gap) < TIE_BAND_GAP_RTOL * max(tB, tC)
    return False, ((gap > 0.0) if angle_gap > 0.0 else (gap < 0.0))


def _gap_in_C(A: float, B: float):
    """g(C) = tB - tC for fixed (A, B): the equality-case kernel.

    It calls the public path's kernels on raw floats, without its checks:
    ``core._sides_from_angles``, ``cevian._adjacent_split`` for u and v and
    ``core._cevian_length`` for tB and tC, with sin(A/2) evaluated once per
    pair (``test_gap_kernel_equals_per_triangle_path`` pins it bit for bit,
    values and exceptions).
    """
    sinh = math.sinh
    half_A = math.sin(0.5 * A)

    def g(C: float) -> float:
        a, b, c = _sides_from_angles(A, B, C)
        sinh_a = sinh(a)
        sinh_b = sinh(b)
        sinh_c = sinh(c)
        u = _adjacent_split(b, sinh_c / sinh_a)
        v = _adjacent_split(c, sinh_b / sinh_a)
        tB = _cevian_length(c, u, sinh_c, sinh(u), half_A)
        tC = _cevian_length(b, v, sinh_b, sinh(v), half_A)
        return tB - tC

    return g


# Bracket width at which the equality root solve stops, and its budget of
# evaluations of g.
_ROOT_WIDTH = 1e-13
_MAX_EVALS = 200


def _bracketed_hybrid(g, lo, hi):
    """Bisection refined by secant steps; keeps a sign-change bracket at all
    times and falls back to bisection whenever a secant step fails to halve
    the interval, until it is no wider than ``_ROOT_WIDTH``. Returns (root,
    function evaluations)."""
    flo = g(lo)
    if math.isnan(flo):
        raise NumericalFailure(f"g is nan at the bracket end lo = {lo!r}")
    if flo == 0.0:
        return lo, 1
    fhi = g(hi)
    if math.isnan(fhi):
        raise NumericalFailure(f"g is nan at the bracket end hi = {hi!r}")
    if fhi == 0.0:
        return hi, 2
    if (flo > 0.0) == (fhi > 0.0):
        raise NoBracket(
            f"no sign change on [{lo!r}, {hi!r}]: g(lo) = {flo!r}, g(hi) = {fhi!r}"
        )
    evals = 2
    force_bisect = False
    while hi - lo > _ROOT_WIDTH:
        if evals >= _MAX_EVALS:
            raise NonConvergence(f"no convergence after {_MAX_EVALS} evaluations")
        width = hi - lo
        x = math.nan
        if not force_bisect and fhi != flo:
            x = (lo * fhi - hi * flo) / (fhi - flo)
        if not (lo < x < hi):
            x = lo + 0.5 * width
        fx = g(x)
        evals += 1
        if fx == 0.0:
            return x, evals
        if (fx > 0.0) == (fhi > 0.0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        force_bisect = (hi - lo) > 0.5 * width
    return 0.5 * (lo + hi), evals


# Relative margin between the two squared-sinh arguments of tB and tC above
# which the sweep reads sign(tB - tC) from them without taking either length.
_SWEEP_BAND = 1e-12


def _count_sign_changes(A, B, lo, hi, points, g, start, stop):
    """(first sign, last sign, sign changes) of g = _gap_in_C(A, B) over the
    grid indices ``start`` to ``stop - 1`` of the sweep: index -1 is lo,
    index i in 0 to ``points - 1`` the midpoint of step i of ``points``
    equal steps, and index ``points`` is hi. The ends count, so a root
    within half a step of one is seen. A zero or nan value has no sign and
    is skipped; a range with no signed value gives (0, 0, 0).
    ``equal_bisector_report`` sweeps indices -1 to ``points`` as two
    consecutive ranges, and ``_merge_signs`` joins them into the count of one.

    One of two pinned inline copies of the shared kernels (``_evidence`` is
    the other): it runs the kernels that g calls inline,
    ``core._sides_from_angles``, ``cevian._adjacent_split`` and
    ``core._cevian_length``, with g's per-pair constants and the kernels'
    subexpressions and association order, up to xB and xC, where
    tB = 2 asinh(sqrt(xB)) and tC = 2 asinh(sqrt(xC)); calling the kernels
    at every point measured 17% slower on the equality benchmark. It writes
    no rejection of its own: where the side solve divides by zero it calls
    g(C), which raises the kernel's ``DomainCap``.
    The sign of tB - tC is +1 when xB > xC (1 + 1e-12) and -1 when
    xC > xB (1 + 1e-12); otherwise, nan included, it is the sign of g(C)
    itself. So the count is g's count:

    * sqrt is correctly rounded, so monotone, and asinh is accurate to a
      few ulps. A relative gap e = 1e-12 in x is a relative gap of
      e tanh(t/2) / t in t: e/2 for small t, 2e-14 (about ninety ulps) at
      the side cap t = 50, and still six ulps at t = 700. A bisector is
      no longer than its longer adjacent side, and sinh of a side over
      710 overflows first.
    * u, v >= 0, since log1p is monotone and e^b >= e^-b, so x is >= 0 or
      nan and the sqrt and asinh of it raise nothing: a g(C) called after
      the inline body got through returns, as g would have.
    * x takes half_A * half_A as one hoisted factor where
      ``_cevian_length`` multiplies by half_A twice, which moves it by a
      few ulps, well inside the band.

    It calls g only inside the band and builds no grid: C is formed in the
    loop, bit for bit as ``lo + (i + 0.5) * step``.
    """
    sin = math.sin
    sinh = math.sinh
    exp = math.exp
    log1p = math.log1p
    asinh = math.asinh
    sqrt = math.sqrt
    fsum = math.fsum
    pi = math.pi
    sin_A = sin(A)
    sin_B = sin(B)
    sin_AB = sin_A * sin_B
    half_A = sin(0.5 * A)
    half_A2 = half_A * half_A
    band = 1.0 + _SWEEP_BAND
    angles = [A, B, lo]  # fsum's argument, C in the last slot
    step = (hi - lo) / points
    changes = 0
    first = prev = 0
    for i in range(start, stop):
        C = lo if i < 0 else hi if i == points else lo + (i + 0.5) * step
        # the kernels g calls, inline up to xB and xC
        angles[2] = C
        half_defect = 0.5 * (pi - fsum(angles))
        sd = sin(half_defect)
        sin_C = sin(C)
        try:
            a = 2.0 * asinh(sqrt(sd * sin(A + half_defect) / (sin_B * sin_C)))
            b = 2.0 * asinh(sqrt(sd * sin(B + half_defect) / (sin_C * sin_A)))
            c = 2.0 * asinh(sqrt(sd * sin(C + half_defect) / sin_AB))
        except ZeroDivisionError:
            g(C)  # raises the side solve's DomainCap
            raise
        sinh_a = sinh(a)
        sinh_b = sinh(b)
        sinh_c = sinh(c)
        k = sinh_c / sinh_a
        u = 0.5 * (log1p(k * exp(b)) - log1p(k * exp(-b)))
        k = sinh_b / sinh_a
        v = 0.5 * (log1p(k * exp(c)) - log1p(k * exp(-c)))
        h = sinh(0.5 * (c - u))
        xB = h * h + sinh_c * sinh(u) * half_A2
        h = sinh(0.5 * (b - v))
        xC = h * h + sinh_b * sinh(v) * half_A2
        if xB > xC * band:
            sgn = 1
        elif xC > xB * band:
            sgn = -1
        else:
            value = g(C)
            sgn = (value > 0.0) - (value < 0.0)
            if not sgn:
                continue
        if sgn != prev:
            if prev:
                changes += 1
            else:
                first = sgn
            prev = sgn
    return first, prev, changes


def _merge_signs(lower: tuple, upper: tuple) -> tuple:
    """The (first sign, last sign, sign changes) of two consecutive index
    ranges of one sweep, from theirs: the counts add, plus one where the
    lower range's last sign and the upper range's first are both signed and
    differ. So the two ranges merged give the one-range count exactly."""
    first, last, changes = lower
    upper_first, upper_last, upper_changes = upper
    changes += upper_changes + (last != 0 and upper_first != 0 and last != upper_first)
    return first or upper_first, upper_last or last, changes


def equal_bisector_report(
    A: float,
    B: float,
    tol: ToleranceConfig = DEFAULT_TOL,
    sweep_points: int = 1000,
) -> EqualBisectorSolve:
    """Root-solve g(C) = tB - tC on the admissible interval and sweep it for
    sign changes; the theorem predicts the unique root C = B. The pair is
    admissible when the isosceles triangle (A, B, B) is valid under ``tol``
    and B exceeds ``tol.eps_angle``, where the bracket starts. The sweep
    evaluates both bracket ends and the midpoints of ``sweep_points`` equal
    steps between them.

    Every report sweeps two halves, the lower after the root solve, and
    merges them exactly (``_merge_signs``). Where ``_splits``, the one split
    gate of scans and reports, allows (``_MIN_SWEEP_POINTS`` points or more;
    only the second such report in the process may start the helper), the
    helper process sweeps the upper half while the caller solves for the
    root and sweeps the lower, so the result is the same bits wherever the
    upper half runs. The first rejection in grid order raises, with its
    class and message: the root solve's comes first, and the caller sweeps
    the upper half itself when the helper failed."""
    global _splittable_reports
    _check_count("sweep point", sweep_points)
    _check_angles(A, B, B, tol)
    if B <= tol.eps_angle:
        raise InvalidTriangle(f"angle B must exceed the margin {tol.eps_angle}, got {B!r}")
    lo = tol.eps_angle
    hi = math.fsum((math.pi, -A, -B, -lo))

    enough = sweep_points >= _MIN_SWEEP_POINTS
    if enough and _can_fork():
        _splittable_reports += 1
    g = _gap_in_C(A, B)
    cut = sweep_points // 2
    (root, evals, lower), upper = _beside_helper(
        _splits(enough, _splittable_reports > 1),
        ("sweep", (A, B, lo, hi, sweep_points, cut, sweep_points + 1)),
        lambda: (*_bracketed_hybrid(g, lo, hi),
                 _count_sign_changes(A, B, lo, hi, sweep_points, g, -1, cut)),
    )
    return EqualBisectorSolve(c=root, iterations=evals, sign_changes=_merge_signs(lower, upper)[2])


def sample_angles(rng: SplitMix64, eps_angle: float) -> tuple[float, float, float]:
    """One triple, uniform on the open simplex {A,B,C > eps, A+B+C < pi - eps}.

    Three sequential ``rng.random()`` draws per triple, mapped by
    ``_angles_from_draws``. ``scan_random`` takes the same draws from
    ``rng.randoms`` in blocks of 128 triangles, one wide-integer pass of
    128-bit lanes per block, and maps each triple through the same step, so
    triangle i of ``scan_random(n, seed)`` is
    ``sample_angles(SplitMix64((seed + 3 * i * 0x9E3779B97F4A7C15) % 2**64), eps_angle)``.
    """
    return _angles_from_draws(rng.random(), rng.random(), rng.random(), eps_angle)


def _angles_from_draws(r1: float, r2: float, r3: float, eps_angle: float) -> tuple[float, float, float]:
    """The angle triple of three uniform draws: sorted-uniform spacings give a
    uniform point of the solid simplex, then an affine map into the margin
    region."""
    # insertion sort on <, stable like sorted((r1, r2, r3))
    if r2 < r1:
        r1, r2 = r2, r1
    if r3 < r2:
        r2, r3 = r3, r2
        if r2 < r1:
            r1, r2 = r2, r1
    span = math.pi - 4.0 * eps_angle
    return (
        eps_angle + span * r1,
        eps_angle + span * (r2 - r1),
        eps_angle + span * (r3 - r2),
    )


def _replay(A: float, B: float, C: float, t: ToleranceConfig) -> None:
    """Run (A, B, C) through the public path: raises its first rejection, or
    returns where the public path accepts the triangle."""
    bisector_lengths(solve_from_angles(TriangleAngles(A, B, C, t), t), t)


def _evidence(A: float, B: float, C: float, t: ToleranceConfig) -> tuple:
    """Every per-triangle quantity ``scan_random`` reduces, from raw floats:
    (a, b, c, sine spread, worst sub-triangle residual, idU, idV, R1, in tie
    band, sign law passed).

    One flat pass through ``solve_from_angles``, ``bisector_lengths``,
    ``proof_trace``, ``check_monotonicity``, ``law_of_sines_residual`` and
    ``subtriangle_residuals``: per triangle, call overhead was most of the
    scan's time. It is one of two pinned inline copies of the shared
    kernels, next to the equality sweep ``_count_sign_changes``: it copies
    ``core._sides_from_angles``, ``cevian._adjacent_split`` and
    ``core._cevian_length``, and the residuals of ``law_of_sines_residual``,
    ``law_of_cosines_residual``, ``subtriangle_residuals`` and
    ``unconditional_identities``, with their subexpressions and association
    order, so it returns bit-identical floats. It evaluates
    each sine and hyperbolic sine once, exp(+-b) and exp(+-c) once per side,
    and builds no value object.

    Its acceptance tests are inline too, but it writes no rejection: where
    one fails, ``_replay`` runs the triangle through the public path, which
    raises the first rejection with its class and message. Each inline test
    accepts only what the public check at that point accepts, and the one
    that is stricter, the plain-sum triangle inequality, sends a near tie
    that the public fsum test accepts to a replay that returns. So it accepts
    and rejects exactly what the public path does, as the ``test_evidence_*``
    tests pin.
    """
    pi = math.pi
    sin = math.sin
    sinh = math.sinh
    cosh = math.cosh
    exp = math.exp
    log1p = math.log1p
    asinh = math.asinh
    sqrt = math.sqrt
    rtol = t.rtol_identity

    # TriangleAngles: the range (false for nan and +-inf), then the defect
    if not (0.0 < A < pi and 0.0 < B < pi and 0.0 < C < pi):
        _replay(A, B, C, t)
    defect = pi - math.fsum((A, B, C))
    if defect <= t.eps_angle:
        _replay(A, B, C, t)

    # the AAA side solve, then TriangleSides
    half_defect = 0.5 * defect
    sin_A = sin(A)
    sin_B = sin(B)
    sin_C = sin(C)
    sd = sin(half_defect)
    try:
        a = 2.0 * asinh(sqrt(sd * sin(A + half_defect) / (sin_B * sin_C)))
        b = 2.0 * asinh(sqrt(sd * sin(B + half_defect) / (sin_C * sin_A)))
        c = 2.0 * asinh(sqrt(sd * sin(C + half_defect) / (sin_A * sin_B)))
    except ZeroDivisionError:
        _replay(A, B, C, t)  # raises the side solve's DomainCap
        raise
    cap = _MAX_SIDE
    if not (
        0.0 < a <= cap and 0.0 < b <= cap and 0.0 < c <= cap
        and b + c > a and c + a > b and a + b > c
    ):
        _replay(A, B, C, t)  # raises, or accepts a near tie by the fsum test

    # Triangle: law of sines, law of cosines, side/angle ordering
    sinh_a = sinh(a)
    sinh_b = sinh(b)
    sinh_c = sinh(c)
    half_A = sin(0.5 * A)
    half_B = sin(0.5 * B)  # sin beta
    half_C = sin(0.5 * C)  # sin gamma
    ra = sinh_a / sin_A
    rb = sinh_b / sin_B
    rc = sinh_c / sin_C
    hi = lo = ra
    if rb > hi:
        hi = rb
    if rc > hi:
        hi = rc
    if rb < lo:
        lo = rb
    if rc < lo:
        lo = rc
    spread = (hi - lo) / hi
    rhs = cosh(b - c) + 2.0 * sinh_b * sinh_c * half_A * half_A
    lhs = cosh(a)
    loc = abs(lhs - rhs) / (rhs if rhs > lhs else lhs)
    rhs = cosh(c - a) + 2.0 * sinh_c * sinh_a * half_B * half_B
    lhs = cosh(b)
    r = abs(lhs - rhs) / (rhs if rhs > lhs else lhs)
    if r > loc:
        loc = r
    rhs = cosh(a - b) + 2.0 * sinh_a * sinh_b * half_C * half_C
    lhs = cosh(c)
    r = abs(lhs - rhs) / (rhs if rhs > lhs else lhs)
    if r > loc:
        loc = r
    atol = _ATOL_EQUAL
    # sides and angles are finite here, so the order test can come first
    if (
        spread > rtol or loc > rtol
        or ((a < b) != (A < B) and not abs(a - b) <= atol and not abs(A - B) <= atol)
        or ((b < c) != (B < C) and not abs(b - c) <= atol and not abs(B - C) <= atol)
        or ((c < a) != (C < A) and not abs(c - a) <= atol and not abs(C - A) <= atol)
    ):
        _replay(A, B, C, t)

    # bisector_lengths: the feet, one exp(+-side) pair per side, then tB and
    # tC in the A-side sub-triangles
    e = exp(b)
    en = exp(-b)
    k = sinh_c / sinh_a
    u = 0.5 * (log1p(k * e) - log1p(k * en))
    k = sinh_a / sinh_c
    U = 0.5 * (log1p(k * e) - log1p(k * en))
    e = exp(c)
    en = exp(-c)
    k = sinh_b / sinh_a
    v = 0.5 * (log1p(k * e) - log1p(k * en))
    k = sinh_a / sinh_b
    V = 0.5 * (log1p(k * e) - log1p(k * en))
    sinh_u = sinh(u)
    sinh_v = sinh(v)
    h = sinh(0.5 * (c - u))
    tB = 2.0 * asinh(sqrt(h * h + sinh_c * sinh_u * half_A * half_A))
    h = sinh(0.5 * (b - v))
    tC = 2.0 * asinh(sqrt(h * h + sinh_b * sinh_v * half_A * half_A))
    inf = math.inf
    if not (
        0.0 < u < inf and 0.0 < U < inf and 0.0 < v < inf
        and 0.0 < V < inf and 0.0 < tB < inf and 0.0 < tC < inf
        and abs(u + U - b) <= rtol * b and abs(v + V - c) <= rtol * c
    ):
        _replay(A, B, C, t)

    # the sub-triangle and foot-ratio residuals: every sine here is of an
    # angle in (0, pi) and every sinh of a positive length, so each quotient
    # is positive and _rel's max(|x|, |y|) needs no abs
    sinh_U = sinh(U)
    sinh_V = sinh(V)
    sinh_tB = sinh(tB)
    sinh_tC = sinh(tC)
    x = sinh_tB / sin_A
    y = sinh_u / half_B
    worst = abs(x - y) / (y if y > x else x)
    x = sinh_tB / sin_C
    y = sinh_U / half_B
    r = abs(x - y) / (y if y > x else x)
    if r > worst:
        worst = r
    x = sinh_tC / sin_A
    y = sinh_v / half_C
    r = abs(x - y) / (y if y > x else x)
    if r > worst:
        worst = r
    x = sinh_tC / sin_B
    y = sinh_V / half_C
    r = abs(x - y) / (y if y > x else x)
    if r > worst:
        worst = r
    if worst > rtol:
        _replay(A, B, C, t)
    x = sinh_U / sinh_u
    y = sin_A / sin_C
    idU = abs(x - y) / (y if y > x else x)
    x = sinh_V / sinh_v
    y = sin_A / sin_B
    idV = abs(x - y) / (y if y > x else x)

    # proof_trace's R1 and check_monotonicity
    in_band, passed = _sign_law(tB - tC, B, C, tB, tC)
    return (
        a, b, c, spread, worst, idU, idV,
        (half_B / half_C) * (sinh_b / sinh_c), in_band, passed,
    )


def _scan_part(seed: int, start: int, stop: int, tol: ToleranceConfig) -> tuple:
    """The running aggregates of ``scan_random(n, seed, tol)`` over its
    triangles ``start`` to ``stop - 1``, for any ``start``, as the middle
    cut of ``scan_random`` needs: (max sine residual, max sub-triangle
    residual, max foot-ratio residual, max side, monotonicity failures,
    inequality failures, tie-band samples).

    Triangle ``start`` starts at the counter state ``seed + 3 * start * GAMMA``,
    and the draws come from ``SplitMix64.randoms`` one block of
    ``_SCAN_BLOCK`` triangles at a time from ``start``, the last block
    shorter: the same floats as a scan of all ``n`` from 0.
    """
    sin = math.sin
    rng = SplitMix64((seed + 3 * start * _GAMMA) & _MASK64)
    max_sine = 0.0
    max_cevian = 0.0
    max_ratio = 0.0
    max_side = 0.0
    mono_failures = 0
    ineq_failures = 0
    ties = 0
    # one block of draws at a time
    draws = chain.from_iterable(
        rng.randoms(3 * min(stop - i, _SCAN_BLOCK)) for i in range(start, stop, _SCAN_BLOCK)
    )
    for r1, r2, r3 in zip(draws, draws, draws):
        A, B, C = _angles_from_draws(r1, r2, r3, tol.eps_angle)
        a, b, c, sine, cevian, idU, idV, R1, in_band, passed = _evidence(A, B, C, tol)

        # the running maxima by max's rule: replace only on >, nan included
        if sine > max_sine:
            max_sine = sine
        if cevian > max_cevian:
            max_cevian = cevian
        if idU > max_ratio:
            max_ratio = idU
        if idV > max_ratio:
            max_ratio = idV
        if a > max_side:
            max_side = a
        if b > max_side:
            max_side = b
        if c > max_side:
            max_side = c

        if in_band:
            ties += 1
        if not passed:
            mono_failures += 1
        if not in_band:
            # R2 < 1 and R3 > 1 for B < C, mirrored for B > C, by the sign of
            # sin((C-B)/4) that their product forms share (see ProofTrace)
            s = sin(0.25 * (C - B))
            if B < C:
                ok = R1 < 1.0 and s > 0.0 and b < c
            else:
                ok = R1 > 1.0 and s < 0.0 and b > c
            if not ok:
                ineq_failures += 1
    return max_sine, max_cevian, max_ratio, max_side, mono_failures, ineq_failures, ties


def _merge_parts(totals: tuple, part: tuple) -> tuple:
    """The aggregates of two consecutive parts, by the reduction's own rule:
    a maximum replaces only on >, counts add. So the first part merged with
    the second gives the one-part aggregates bit for bit."""
    return (
        *(p if p > t else t for t, p in zip(totals[:4], part[:4])),
        *(t + p for t, p in zip(totals[4:], part[4:])),
    )


# Blocks per part below which a scan does not start the helper; a scan of
# one block per part (2 * _SCAN_BLOCK triangles) or more still hands its
# second half to a helper that runs. Forced two-part splits
# against one process (Python 3.11, shared 2-vCPU host, 16 MiB caller; ten
# alternating pairs, each side the fastest call in 1 s of calls): with the
# helper already running, the split won all 10 pairs at every size from 1
# block per part (0.85 ms against 1.50 ms) to 8 (6.97 ms against 13.24 ms),
# so a running helper's round trip costs less than one block. With the
# helper forked inside each call, the split lost all 10 at 2 blocks per part
# (4.92 ms against 3.42 ms) and won 10, 8, 10, 7 and 10 of 10 at 4, 5, 6, 7
# and 8 (9.71 ms against 13.04 ms at 8). So the bound matters only for the
# call that starts the helper, and in a 93 MiB caller a fork, exit and wait
# took 4.1-4.5 ms. 8 keeps that first call well clear of the fork's cost, so
# a 2000-triangle scan (16 blocks) starts the helper and a 1920-triangle one
# (15 blocks) does not.
_MIN_PART_BLOCKS = 8

# Sweep points below which an equality report does not split its sweep.
# An idle helper's round trip (an empty sweep range, 20,000 requests) took
# 8 us at best and 27 us at the median.
# Forced splits against one process, with a live helper (Python 3.11,
# shared 2-vCPU host; six alternating rounds, each side the median report
# over 20 study pairs for 0.5 s) won 0 of 6 rounds at 8 points, 5 at 16,
# and all 6 at 32, 48 and 64, where a report took 137 us against 173 us.
# 64 is twice the smallest count that won every round; a one-point sweep
# stays in one process.
_MIN_SWEEP_POINTS = 64

# Seconds an idle helper waits for a request before it leaves. While it
# runs it keeps the pages the caller had at the fork, which the caller may
# have freed or rewritten since (a 256 MiB buffer freed after the fork
# stayed resident in the helper until it left). Leaving when idle gives
# them back about this long after the caller's last call. A call that
# finds the helper gone forks a new one, 2-4.5 ms in 16-93 MiB callers, so
# calls further apart than this pay under 0.5% of the gap for it.
_HELPER_IDLE_S = 1.0

# The helper: one forked process per caller process, started lazily and
# reused across calls until it idles for _HELPER_IDLE_S, that computes one
# part of a scan or a sweep while the caller computes the rest. It reads
# marshalled requests from one pipe and writes each reply to another, one
# request in flight at a time.
# (pid, request write end, reply read end) while it runs, else None.
_helper = None
# equality reports in this process so far with enough sweep points where
# _can_fork allowed: only the second and later may start the helper, so a
# one-shot report never forks. Cold starts of `hyptri verify 0.9 0.7` took
# 94.2 ms without the fork and 105.7 ms with it (medians of 30 alternating
# pairs, Python 3.11, shared 2-vCPU host; the one without it faster in 23):
# the fork and the reaping at exit cost more than one split sweep saves.
_splittable_reports = 0


def _can_fork() -> bool:
    """Whether the helper may be started or used: where ``fork`` is there
    and safe, that is, where the caller runs no second thread and
    ``SIGCHLD`` is neither handled nor ignored, so that no one else reaps
    the helper and its pid is not reused; where ``SIGPIPE`` is ignored, as
    CPython sets it, so that a write to a helper that has died fails with
    an error the caller handles instead of killing the caller; and on at
    least two usable CPUs."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return False
    import signal

    return (
        signal.getsignal(signal.SIGCHLD) == signal.SIG_DFL
        and signal.getsignal(signal.SIGPIPE) == signal.SIG_IGN
    )


def _splits(enough: bool, may_start: bool) -> bool:
    """Whether a scan or an equality report hands its second half to the
    helper, the one gate of both: where the call has ``enough`` work, where
    ``_can_fork`` allows, and where the helper runs or this call ``may_start``
    it."""
    return enough and _can_fork() and (_helper_runs() or (may_start and _start_helper()))


def _helper_runs() -> bool:
    """Whether the helper runs. One that has left, idle or killed, is
    reaped here, so that the call may start a new one."""
    if _helper is not None:
        try:
            gone = os.waitpid(_helper[0], os.WNOHANG)[0] != 0
        except ChildProcessError:  # reaped elsewhere
            gone = True
        if gone:
            _stop_helper()
    return _helper is not None


def _start_helper() -> bool:
    """Fork the helper; False where no pipe or no child could be made, with
    every pipe end closed again. SIGINT is blocked from before the fork
    until the helper is recorded, so a Ctrl-C can neither leave a helper
    unrecorded nor send the helper back into the caller."""
    global _helper
    import signal

    fds = []
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        try:
            fds += os.pipe()  # requests: read end, write end
            fds += os.pipe()  # replies: read end, write end
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return False
        if pid == 0:
            _serve(fds[0], fds[3], mask)
        os.close(fds[0])
        os.close(fds[3])
        _helper = (pid, fds[1], fds[2])
        return True
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _serve(requests: int, replies: int, mask: set) -> None:
    """The helper's loop: read a request, compute its part, write the
    marshalled result, or None where the part raised. It ignores SIGINT,
    since a Ctrl-C is the caller's to handle, and closes every file
    descriptor but its own two pipe ends: with a copy of the request write
    end it would never see EOF, and with a copy of any other (a socket, a
    pipe to another process, stdout) it would hold that open for as long as
    it runs. It never returns into the caller or flushes the caller's
    buffers: it leaves by ``os._exit``, 0 on EOF or after ``_HELPER_IDLE_S``
    without a request, and 1 on any failure of its own."""
    status = 1
    try:
        import select
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        low, high = sorted((requests, replies))
        os.closerange(0, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        waiting = select.poll()
        waiting.register(requests, select.POLLIN)
        while waiting.poll(round(_HELPER_IDLE_S * 1000)):
            # one request in flight, written whole: one read takes all of it
            data = os.read(requests, 4096)
            if not data:
                break
            try:
                reply = _part(*marshal.loads(data))
            except Exception:
                reply = None  # the caller computes the part itself, and raises
            os.write(replies, marshal.dumps(reply))
        status = 0
    finally:
        os._exit(status)


def _stop_helper(kill: bool = False) -> None:
    """Close the caller's ends of the helper's pipes and reap it: on the EOF
    an idle helper exits. ``kill`` sends it SIGKILL first, for a helper
    whose reply will not be read. Does nothing where no helper runs."""
    global _helper
    if _helper is None:
        return
    pid, requests, replies = _helper
    _helper = None
    os.close(requests)
    os.close(replies)
    try:
        if kill:
            import signal

            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass  # already reaped


def _forget_helper() -> None:
    """In a forked child: drop the parent's helper without a word to it, so
    that the child never writes to it, and count the child's own reports
    from zero."""
    global _helper, _splittable_reports
    if _helper is not None:
        for fd in _helper[1:]:
            try:
                os.close(fd)
            except OSError:
                pass
        _helper = None
    _splittable_reports = 0


# no helper outlives its caller: it is reaped at exit, and a forked child
# of the caller does not inherit it
atexit.register(_stop_helper)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _part(kind: str, args: tuple) -> tuple:
    """The part that a marshalled request names, run by the helper and by
    the caller alike: ``("scan", (seed, start, stop, rtol, eps))`` or
    ``("sweep", (A, B, lo, hi, points, start, stop))``."""
    if kind == "scan":
        seed, start, stop, rtol, eps = args
        return _scan_part(seed, start, stop, ToleranceConfig(rtol, eps))
    A, B, lo, hi, points, start, stop = args
    return _count_sign_changes(A, B, lo, hi, points, _gap_in_C(A, B), start, stop)


def _beside_helper(split: bool, request: tuple, own) -> tuple:
    """(own(), _part(*request)). Where ``split`` is true the helper computes
    the part while the caller runs own(); otherwise, or where the write to
    the helper fails, the caller runs both in that order. Where the helper
    returns an error or has died, the caller computes the part itself, so it
    raises here with its own class and message. Where own() raises an
    exception, the helper's bounded part is awaited and the helper kept;
    where the caller is interrupted (Ctrl-C, ``SystemExit``), the helper is killed."""
    if split:
        try:
            os.write(_helper[1], marshal.dumps(request))  # below PIPE_BUF: whole
        except OSError:  # the helper has died
            _stop_helper()
            split = False
    if not split:
        return own(), _part(*request)
    try:
        mine = own()
    except Exception:
        _take_reply()
        raise
    except BaseException:
        _stop_helper(kill=True)
        raise
    reply = _take_reply()
    return mine, _part(*request) if reply is None else reply


def _take_reply():
    """The helper's reply to the request in flight: its part, or None where
    the part raised or the helper died (it is then reaped). A read cut
    short by an interruption kills and reaps the helper."""
    try:
        data = os.read(_helper[2], 4096)
    except BaseException:
        _stop_helper(kill=True)
        raise
    if not data:  # the helper died without a reply
        _stop_helper()
        return None
    return marshal.loads(data)


def scan_random(n: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL) -> ScanReport:
    """Solve ``n`` seeded random triangles and aggregate every identity
    residual, strict-sign check, and monotonicity verdict (ordered reduction,
    so reports are reproducible).

    The triangles are those of ``n`` calls of ``sample_angles`` on
    ``SplitMix64(seed)``, bit for bit, but their uniforms come from
    ``SplitMix64.randoms`` for a fixed block of ``_SCAN_BLOCK`` (128)
    triangles at a time, each part's last block shorter: one wide-integer
    pass per block, one 128-bit lane per draw, decoded from little-endian
    bytes (see ``hyptri.rng``). Each process of the scan holds one block of
    draws at a time, whatever ``n``.

    The triangles are cut in two contiguous parts at the middle triangle,
    ``mid = n // 2`` (1000 | 1000 for ``n = 2000``, 0 | 1 for ``n = 1``),
    each scanned by ``_scan_part`` and merged in index order by the
    reduction's own rule. Where ``_splits``, the one split gate of scans and
    reports, allows (``2 * _SCAN_BLOCK`` triangles or more), the helper
    process scans triangles ``mid`` on while the caller scans the rest, so
    the report is the same bits wherever the second part runs. The first
    failing triangle in index order raises, with its own class and message,
    since the caller scans the second part itself when the helper failed or
    could not be made. The helper is started by the first scan of
    ``2 * _MIN_PART_BLOCKS`` blocks or more and serves later calls until it
    idles for ``_HELPER_IDLE_S``; no helper outlives its caller.
    """
    _check_count("sample", n)
    SplitMix64(seed)  # rejects the seed before any part runs
    mid = n // 2
    totals = _merge_parts(*_beside_helper(
        _splits(n >= 2 * _SCAN_BLOCK, -(-n // _SCAN_BLOCK) >= 2 * _MIN_PART_BLOCKS),
        ("scan", (seed, mid, n, tol.rtol_identity, tol.eps_angle)),
        lambda: _scan_part(seed, 0, mid, tol),
    ))
    max_sine, max_cevian, max_ratio, max_side, mono_failures, ineq_failures, ties = totals
    return ScanReport(
        samples=n,
        seed=seed,
        eps_angle=tol.eps_angle,
        max_identity_residual=max(max_sine, max_cevian),
        max_sine_residual=max_sine,
        max_cevian_residual=max_cevian,
        max_ratio_residual=max_ratio,
        monotonicity_failures=mono_failures,
        inequality_failures=ineq_failures,
        tie_band_samples=ties,
        max_side=max_side,
    )


def equality_study(pairs: int, seed: int) -> EqualityStudy:
    """Run ``equal_bisector_report(A, B)`` on ``pairs`` seeded random
    admissible pairs and aggregate the gaps |c - B|, the root iterations and
    the pairs that fail ``EqualBisectorSolve.failures(B)``.

    The pairs come from sequential ``random()`` draws r of
    ``SplitMix64(seed)``: A = 0.05 + 2.55 r, then, only when
    b_max = (pi - A - 0.1) / 2 exceeds 0.06, B = 0.05 + r (b_max - 0.05);
    an A without room for B is skipped. The worst pair replays as
    ``equal_bisector_report(worst_A, worst_B)``, and so as ``hyptri verify
    worst_A worst_B``, bit for bit.
    """
    _check_count("pair", pairs)
    rng = SplitMix64(seed)
    max_gap = worst_A = worst_B = math.nan
    iterations = 0
    failing = 0
    solved = 0
    while solved < pairs:
        A = 0.05 + rng.random() * 2.55
        b_max = (math.pi - A - 0.1) / 2.0
        if b_max <= 0.06:
            continue
        B = 0.05 + rng.random() * (b_max - 0.05)
        result = equal_bisector_report(A, B)
        gap = abs(result.c - B)
        # the first pair, then max's rule: replace only on >, nan included
        if solved == 0 or gap > max_gap:
            max_gap, worst_A, worst_B = gap, A, B
        iterations += result.iterations
        if result.failures(B):
            failing += 1
        solved += 1
    return EqualityStudy(
        pairs=pairs,
        seed=seed,
        eps_angle=DEFAULT_TOL.eps_angle,
        max_root_gap=max_gap,
        worst_A=worst_A,
        worst_B=worst_B,
        root_iterations=iterations,
        failing_pairs=failing,
    )
