"""The reference replay of np.random.default_rng's draws from PCG64's raw
64-bit words, one Python method call per draw.

`Pcg64Draws` gives the Generator methods that `scalar_kernel.random_case`
calls (`integers`, `random`, `uniform` and `shuffle`) bit for bit on Python
ints, from PCG64's words or from crafted ones.  `test_verify.py` pins it
call for call to `default_rng`, and holds `aoi_sched.verify._parse`, which
reads the same words in one loop with no call per draw, to `random_case`:
run on `default_rng` for seeded words, and on this replay for crafted ones.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

import numpy as np

UINT32 = 0xFFFFFFFF
RAW_CHUNK = 512  # raw words per numpy call


def pcg64_words(seed: int) -> Iterable[int]:
    """The raw words of PCG64(seed), the bit generator of default_rng(seed)."""
    bits = np.random.PCG64(seed)
    return chain.from_iterable(iter(lambda: bits.random_raw(RAW_CHUNK).tolist(), None))


class Pcg64Draws:
    """Draws replayed from 64-bit words, PCG64(seed)'s unless words are
    given.  As in numpy, a 32-bit draw is the low half of a word and keeps
    the high half for the next 32-bit draw, which random() leaves alone.  A
    request the replay cannot match exactly raises ValueError."""

    def __init__(self, seed: int | None = None, words: Iterable[int] | None = None):
        self._word = iter(pcg64_words(seed) if words is None else words).__next__
        self._half = None

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & UINT32
        self._half = None
        return half

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size: int | None = None):
        """low + (high - low) * random(), size of them in a list when size is given."""
        if size is None:
            return low + (high - low) * self.random()
        return [low + (high - low) * self.random() for _ in range(size)]

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high) by Lemire's method on 32-bit draws; a range
        above 2**32 raises."""
        top = high - low - 1
        if not 0 < top <= UINT32:
            if top == 0:
                return low
            raise ValueError(f"cannot replay integers({low}, {high})")
        span = top + 1
        m = self._uint32() * span
        if m & UINT32 < span:
            threshold = (UINT32 - top) % span
            while m & UINT32 < threshold:
                m = self._uint32() * span
        return low + (m >> 32)

    def shuffle(self, x: list) -> None:
        """Fisher-Yates in place, each index drawn by masked rejection."""
        for i in range(len(x) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._uint32() & mask
            while j > i:
                j = self._uint32() & mask
            x[i], x[j] = x[j], x[i]
