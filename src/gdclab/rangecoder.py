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

The arithmetic runs on plain Python ints held in locals: the encoder codes
a run of (start, freq) intervals per call and the decoder a run of tables
(lists of ints).
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import StreamError

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

    def encode_intervals(self, starts, freqs):
        """Code each (start, freq) interval of the 2^16 grid in order; both
        are sequences of ints with freq >= 1 and start + freq <= 2^16."""
        low, rng, out = self.low, self.range, self.out
        for start, freq in zip(starts, freqs):
            r = rng >> CDF_BITS
            low = (low + r * start) & _MASK
            rng = r * freq
            while True:
                if (low ^ (low + rng)) >= _TOP:
                    if rng >= _BOTTOM:
                        break
                    rng = (-low) & (_BOTTOM - 1)
                out.append(low >> 24)
                low = (low << 8) & _MASK
                rng = (rng << 8) & _MASK
        self.low, self.range = low, rng

    def finish(self):
        for _ in range(4):
            self.out.append((self.low >> 24) & 0xFF)
            self.low = (self.low << 8) & _MASK
        return bytes(self.out)


class RangeDecoder:
    def __init__(self, data):
        if len(data) < 4:
            raise StreamError("range decoder ran past the end of the payload")
        self.data = data
        self.pos = 4
        self.low = 0
        self.range = _MASK
        self.code = int.from_bytes(data[:4], "big")

    def decode_rows(self, rows, out, stop=-1):
        """Decode one symbol per table drawn from ``rows`` (each a list of
        ints) and append it to ``out``.  Returns True right after decoding
        the symbol ``stop``, leaving the rest of ``rows`` unread (pass an
        iterator to resume), and False once ``rows`` is exhausted."""
        low, rng, code = self.low, self.range, self.code
        data, pos = self.data, self.pos
        end = len(data)
        stopped = False
        for row in rows:
            r = rng >> CDF_BITS
            cum = ((code - low) & _MASK) // r
            symbol = bisect_right(row, cum if cum < CDF_TOTAL else CDF_TOTAL - 1) - 1
            start = row[symbol]
            low = (low + r * start) & _MASK
            rng = r * (row[symbol + 1] - start)
            while True:
                if (low ^ (low + rng)) >= _TOP:
                    if rng >= _BOTTOM:
                        break
                    rng = (-low) & (_BOTTOM - 1)
                if pos >= end:
                    raise StreamError("range decoder ran past the end of the payload")
                code = ((code << 8) | data[pos]) & _MASK
                pos += 1
                low = (low << 8) & _MASK
                rng = (rng << 8) & _MASK
            out.append(symbol)
            if symbol == stop:
                stopped = True
                break
        self.low, self.range, self.code, self.pos = low, rng, code, pos
        return stopped
