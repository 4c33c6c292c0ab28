"""Deterministic 64-bit PRNG for all sampled verification families.

The generator is splitmix-style and its constants are part of the interface:
state update adds 0x9E3779B97F4A7C15; the output mix multiplies by
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB between xor-shifts of 30, 27 and
31 bits.  Any implementation following this recipe reproduces the same
sampled families and hence the same violation witnesses.

Word k of a draw is the mix of state + k * 0x9E3779B97F4A7C15, so a long
mask is drawn as one numpy uint64 computation over all its states at once:
the same stream, word for word, with the same final state.  The same holds
for many masks at once: ``nonempty_mask_words`` draws a whole batch of
non-empty masks as rows of words.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Masks of at least this many 64-bit words are drawn with numpy.  A numpy draw
# costs a fixed 9-15 us a call, the word loop about 0.6 us a word; they meet at
# 14-16 words (2 vCPU, Python 3.11.7, numpy 2.4.6, loop against numpy: 1.3 against
# 14 us at 1 word, 9.1 against 9.2 us at 14, 10.0 against 9.7 us at 16, 220
# against 15 us at 256).
NUMPY_MIN_WORDS = 16


class SplitMix64:
    """splitmix64 with the canonical constants; one 64-bit word per step."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection from 64-bit words."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            w = self.next_u64()
            if w < limit:
                return w % n

    def mask_bits(self, nbits: int) -> int:
        """A random nbits-wide bitmask.

        Words are consumed little-endian: bit j of word w covers position
        64*w + j, and the final word is truncated to the remaining width.
        """
        words = -(-nbits // 64)
        if words >= NUMPY_MIN_WORDS:
            return self._mask_words(words) & ((1 << nbits) - 1)
        mask = 0
        filled = 0
        while filled < nbits:
            mask |= self.next_u64() << filled
            filled += 64
        return mask & ((1 << nbits) - 1)

    def _stream(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array, computed in numpy.

        uint64 array arithmetic wraps modulo 2**64 without a warning, which is
        the & _MASK64 of ``next_u64``.
        """
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self.state)
        self.state = (self.state + count * _GOLDEN) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def _mask_words(self, words: int) -> int:
        """The next ``words`` outputs as one little-endian int."""
        return int.from_bytes(self._stream(words).astype("<u8", copy=False).tobytes(), "little")

    def nonempty_mask(self, nbits: int) -> int:
        """Like mask_bits, redrawing whole masks until a non-zero one appears."""
        while True:
            mask = self.mask_bits(nbits)
            if mask:
                return mask

    def nonempty_mask_words(self, nbits: int, count: int) -> np.ndarray:
        """``count`` calls of ``nonempty_mask(nbits)`` as a (count, words) uint64 array, one row per mask.

        Row r holds mask r's words little-endian, and the final state is the
        one those calls leave.  The stream is cut into whole masks, the zero
        ones dropped, and as many masks drawn again as were dropped: the
        scalar redraw order, one numpy draw per round.
        """
        if nbits < 1:
            raise ValueError("a non-empty mask needs at least one bit")
        words = -(-nbits // 64)
        top = np.uint64((1 << (nbits - 64 * (words - 1))) - 1)
        out = np.empty((count, words), dtype=np.uint64)
        filled = 0
        while filled < count:
            block = self._stream((count - filled) * words).reshape(-1, words)
            block[:, -1] &= top
            block = block[block.any(axis=1)]
            out[filled : filled + len(block)] = block
            filled += len(block)
        return out
