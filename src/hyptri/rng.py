"""SplitMix64: the fixed seeded generator behind every randomized scan.

Chosen because it is tiny, well known, and trivially portable, so reports
are reproducible bit-for-bit across platforms and implementations. State
update: x += 0x9E3779B97F4A7C15; output: two xor-shift-multiply rounds.
Doubles take the top 53 bits scaled by 2^-53.
"""

__all__ = ["SplitMix64"]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator; same seed, same stream, everywhere."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an integer in [0, 2**64 - 1], got {seed!r}")
        self._state = seed & _MASK64  # `&` raises TypeError for a non-integer

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_uint64() >> 11) * 1.1102230246251565e-16  # 2**-53
