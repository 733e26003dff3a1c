import math
import os
import struct
import sys

import pytest
from hypothesis import strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hyptri import (  # noqa: E402
    SplitMix64,
    ToleranceConfig,
    TriangleAngles,
    solve_from_angles,
)
from hyptri import steiner_lehmus  # noqa: E402
from hyptri.core import _MAX_SIDE  # noqa: E402
from hyptri.steiner_lehmus import sample_angles  # noqa: E402

# validation margin relaxed enough for oracle sub-triangle solves
ORACLE_TOL = ToleranceConfig(rtol_identity=1e-9, eps_angle=1e-300)
# a second policy beside DEFAULT_TOL, looser in both fields: identity
# residuals up to 1e-9 and every angle 1e-3 from the domain's edge. The
# seeded ensembles and the pins recorded under it keep it.
LOOSE_TOL = ToleranceConfig(rtol_identity=1e-9, eps_angle=1e-3)


@pytest.fixture(autouse=True)
def no_helper(monkeypatch):
    """Every test starts and ends without the forked helper of
    ``steiner_lehmus``, and with no qualifying call before it, so a
    helper a test uses is forked in that test, after its monkeypatches."""
    steiner_lehmus._stop_helper()
    monkeypatch.setattr(steiner_lehmus, "_qualified", False)
    yield
    steiner_lehmus._stop_helper()


def special_floats():
    """Range ends, signed zeros, subnormals, the neighbours of pi and of the
    side cap, overflow-sized and non-finite floats."""
    return (
        -math.inf, -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5,
        math.nextafter(math.pi, 0.0), math.pi, math.nextafter(math.pi, 4.0), 3.5,
        _MAX_SIDE, math.nextafter(_MAX_SIDE, math.inf), 1e308, math.inf, math.nan,
    )


def outcome(fn, *args):
    """What ``fn(*args)`` does: its float result as raw bits (so nan-ness and
    the sign of zero count), None, or the class and message it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # the oracles compare every exception, whatever its class
        return type(exc), str(exc)
    return None if value is None else struct.pack("<d", value)


def klein_bisector_length(x, y, angle):
    """Length of the bisector of ``angle`` between sides x and y, from the
    Beltrami-Klein model centred at that vertex, an oracle that needs no foot.

    There a point at distance s from the centre lies at Euclidean radius
    tanh s, geodesics are chords and angles at the centre are Euclidean, so
    the Euclidean bisector length 2pq cos(angle/2)/(p+q) carries over as
    coth t = (coth x + coth y) / (2 cos(angle/2)). With coth s - 1 =
    2/expm1(2s) and 1 - cos(angle/2) = 2 sin^2(angle/4) every term of
    w = coth t - 1 is positive, and t = log1p(2/w)/2.
    """
    w = (2.0 / math.expm1(2.0 * x) + 2.0 / math.expm1(2.0 * y)
         + 4.0 * math.sin(0.25 * angle) ** 2) / (2.0 * math.cos(0.5 * angle))
    return 0.5 * math.log1p(2.0 / w)


@st.composite
def angle_triples(draw, eps=1e-3):
    """Uniform-ish triples on the open angle simplex with margin eps."""
    unit = st.floats(min_value=0.01, max_value=0.99)
    r1, r2, r3 = sorted((draw(unit), draw(unit), draw(unit)))
    span = math.pi - 4.0 * eps
    triple = (eps + span * r1, eps + span * (r2 - r1), eps + span * (r3 - r2))
    if min(triple) <= eps:
        draw(st.nothing())  # reject exact ties
    return triple


def seeded_triangles(n, seed=1234, eps=1e-3):
    """Deterministic triangle ensemble for loop-style tests."""
    rng = SplitMix64(seed)
    for _ in range(n):
        A, B, C = sample_angles(rng, eps)
        yield solve_from_angles(TriangleAngles(A, B, C, tol=LOOSE_TOL), tol=LOOSE_TOL)


@pytest.fixture(scope="session")
def triangle_ensemble():
    return list(seeded_triangles(2000))
