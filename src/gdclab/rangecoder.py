"""Carry-less byte-wise range coder with 16-bit frequency precision.

The coder keeps a 32-bit (low, range) pair.  Renormalization emits the top
byte whenever it can no longer change (low and low+range share it) and
forcibly clamps the range when it drops below 2^16, which sidesteps carry
propagation at the cost of a fraction of a bit.  Frequencies live on a
cumulative 2^16 grid, so a CDF is an integer array [c_0=0, c_1, ..., c_K=65536]
that is strictly increasing; symbol k owns [c_k, c_{k+1}).

CDFs may differ per symbol (the decoder must then derive each CDF from
already-decoded data exactly as the encoder did, which is what the
context-model coding path does).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, StreamError

CDF_BITS = 16
CDF_TOTAL = 1 << CDF_BITS

_TOP = 1 << 24
_BOTTOM = 1 << 16
_MASK = 0xFFFFFFFF


class RangeEncoder:
    def __init__(self):
        self.low = 0
        self.range = _MASK
        self.out = bytearray()

    def encode(self, symbol, cdf):
        if not 0 <= symbol < len(cdf) - 1:
            raise ContractError(f"symbol {symbol} outside cdf with {len(cdf) - 1} bins")
        start = int(cdf[symbol])
        freq = int(cdf[symbol + 1]) - start
        r = self.range >> CDF_BITS
        self.low = (self.low + r * start) & _MASK
        self.range = r * freq
        while True:
            if (self.low ^ (self.low + self.range)) < _TOP:
                pass
            elif self.range < _BOTTOM:
                self.range = (-self.low) & (_BOTTOM - 1)
            else:
                break
            self.out.append((self.low >> 24) & 0xFF)
            self.low = (self.low << 8) & _MASK
            self.range = (self.range << 8) & _MASK

    def finish(self):
        for _ in range(4):
            self.out.append((self.low >> 24) & 0xFF)
            self.low = (self.low << 8) & _MASK
        return bytes(self.out)


class RangeDecoder:
    def __init__(self, data):
        self.data = data
        self.pos = 0
        self.low = 0
        self.range = _MASK
        self.code = 0
        for _ in range(4):
            self.code = ((self.code << 8) | self._byte()) & _MASK

    def _byte(self):
        if self.pos >= len(self.data):
            raise StreamError("range decoder ran past the end of the payload")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def decode(self, cdf):
        r = self.range >> CDF_BITS
        target = (self.code - self.low) & _MASK
        cum = min(target // r, CDF_TOTAL - 1)
        symbol = int(np.searchsorted(cdf, cum, side="right")) - 1
        start = int(cdf[symbol])
        freq = int(cdf[symbol + 1]) - start
        self.low = (self.low + r * start) & _MASK
        self.range = r * freq
        while True:
            if (self.low ^ (self.low + self.range)) < _TOP:
                pass
            elif self.range < _BOTTOM:
                self.range = (-self.low) & (_BOTTOM - 1)
            else:
                break
            self.code = ((self.code << 8) | self._byte()) & _MASK
            self.low = (self.low << 8) & _MASK
            self.range = (self.range << 8) & _MASK
        return symbol
