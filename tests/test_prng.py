"""SplitMix64: the numpy draw of long masks against the word loop."""

from __future__ import annotations

import warnings

import pytest

from isoperim import prng
from isoperim.prng import SplitMix64

WIDTHS = [1, 63, 64, 65, 1023, 1024, 1025, 16384, 1 << 20]
# 2**64 - 1 and 2**64 - GOLDEN wrap on the first step; 2**64 + 5 is reduced to 5 on entry
SEEDS = [0, 1, 12345, (1 << 64) - 1, (1 << 64) - 3, (1 << 64) - prng._GOLDEN, (1 << 64) + 5]


def reference_mask_bits(rng: SplitMix64, nbits: int) -> int:
    """The word loop: OR each next_u64 word into place, little-endian, then truncate."""
    mask = 0
    filled = 0
    while filled < nbits:
        mask |= rng.next_u64() << filled
        filled += 64
    return mask & ((1 << nbits) - 1)


@pytest.fixture(params=[False, True], ids=["default-warnings", "warnings-as-errors"])
def strict(request):
    # as errors, any numpy overflow warning in the uint64 arithmetic fails the test
    with warnings.catch_warnings():
        if request.param:
            warnings.simplefilter("error")
        yield request.param


def test_widths_cover_both_draws():
    words = [-(-nbits // 64) for nbits in WIDTHS]
    assert min(words) < prng.NUMPY_MIN_WORDS <= max(words)
    assert prng.NUMPY_MIN_WORDS * 64 in WIDTHS


@pytest.mark.parametrize("seed", SEEDS)
def test_mask_bits_matches_word_loop(strict, seed):
    for nbits in WIDTHS:
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        assert fast.mask_bits(nbits) == reference_mask_bits(slow, nbits), nbits
        assert fast.state == slow.state, nbits
        assert fast.next_u64() == slow.next_u64(), nbits


def test_long_masks_take_the_numpy_draw(monkeypatch):
    calls = []
    mask_words = SplitMix64._mask_words

    def counted(self, words):
        calls.append(words)
        return mask_words(self, words)

    monkeypatch.setattr(SplitMix64, "_mask_words", counted)
    rng = SplitMix64(3)
    for nbits in WIDTHS:
        rng.mask_bits(nbits)
    assert calls == [-(-nbits // 64) for nbits in WIDTHS if nbits > 64 * (prng.NUMPY_MIN_WORDS - 1)]


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_the_word_loop(strict, seed):
    # below, mask_bits and nonempty_mask share one state; the stream must not drift between them
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    for step, nbits in enumerate([5, 16384, 1, 1025, 64 * prng.NUMPY_MIN_WORDS - 1, 64 * prng.NUMPY_MIN_WORDS, 70000]):
        bound = 3 + 7 * step
        assert fast.below(bound) == slow.below(bound)
        assert fast.mask_bits(nbits) == reference_mask_bits(slow, nbits)
        assert fast.below(1 << 40) == slow.below(1 << 40)
        got = fast.nonempty_mask(nbits)
        want = reference_mask_bits(slow, nbits)
        while not want:
            want = reference_mask_bits(slow, nbits)
        assert got == want
        assert fast.state == slow.state


def test_empty_widths_draw_nothing():
    rng = SplitMix64(9)
    assert rng.mask_bits(0) == 0
    assert rng.state == 9
