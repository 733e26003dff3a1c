"""SplitMix64: the fixed seeded generator behind every randomized scan.

Chosen because it is tiny, well known, and trivially portable, so reports
are reproducible bit-for-bit across platforms and implementations. State
update: x += 0x9E3779B97F4A7C15; output: two xor-shift-multiply rounds.
Doubles take the top 53 bits scaled by 2^-53.

The generator is counter-based: the state before draw k (from 0) is
seed + (k + 1) * 0x9E3779B97F4A7C15 mod 2^64. ``randoms`` uses that to
evaluate up to 384 draws at once inside one Python integer, one 128-bit lane
per draw (SWAR). Every lane is masked to its low 64 bits before and after
each multiply, so a lane's product stays below 2^128 and never reaches the
next lane. The lanes are read back from explicit little-endian bytes with
``struct``'s ``<Q``, never in the host's byte order, so the batch gives the
same doubles as ``random()`` on every platform.
"""

from struct import unpack

from . import _public_names

__all__ = _public_names(__name__)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Draws per wide-integer pass: the three uniforms of each of 128 scan
# triangles. Per draw, a pass costs about a third of ``random()`` from about
# 100 lanes up; with a few lanes it costs more than ``random()``.
_LANES = 384

# The per-lane constants of a full pass, built at import (under 0.1 ms): a
# one in each lane, lane j's (j + 1) * gamma (below 2^73), and each lane's
# 64-bit and 53-bit masks.
_ONES = int.from_bytes(b"\x01".ljust(16, b"\x00") * _LANES, "little")
_RAMP = _GAMMA * int.from_bytes(
    b"".join((j + 1).to_bytes(16, "little") for j in range(_LANES)), "little"
)
_MASK64_LANES = _ONES * _MASK64
_MASK53_LANES = _ONES * ((1 << 53) - 1)


class SplitMix64:
    """Deterministic 64-bit generator; same seed, same stream, everywhere."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if type(seed) is bool:
            raise TypeError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an integer in [0, 2**64 - 1], got {seed!r}")
        self._state = seed & _MASK64  # `&` raises TypeError for a non-integer

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_uint64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def randoms(self, count: int) -> list[float]:
        """The next ``count`` values of ``random()``, bit for bit, evaluated
        in wide-integer passes of up to 384 lanes; the state advances as
        ``count`` calls of ``random()`` would advance it."""
        if count < 0:
            raise ValueError(f"draw count must be >= 0, got {count!r}")
        state = self._state
        self._state = (state + count * _GAMMA) & _MASK64  # `&` raises TypeError for a non-integer
        ones, ramp, mask64, mask53 = _ONES, _RAMP, _MASK64_LANES, _MASK53_LANES
        out = []
        for start in range(0, count, _LANES):
            k = min(count - start, _LANES)
            if k < _LANES:
                low = (1 << 128 * k) - 1
                ones, ramp = ones & low, ramp & low
            # lane j holds the state before draw start + j
            z = (state * ones + ramp) & mask64
            z = ((z ^ (z >> 30)) & mask64) * 0xBF58476D1CE4E5B9 & mask64
            z = ((z ^ (z >> 27)) & mask64) * 0x94D049BB133111EB & mask64
            z = ((z ^ (z >> 31)) >> 11) & mask53
            # each lane is two little-endian uint64 words, the high one zero
            words = unpack(f"<{2 * k}Q", z.to_bytes(16 * k, "little"))
            out += [v * 1.1102230246251565e-16 for v in words[::2]]  # 2**-53
            state = (state + k * _GAMMA) & _MASK64
        return out
