"""Lane-interleaved rANS on 16-bit frequency tables, stepped with numpy
(Duda, "Asymmetric numeral systems", arXiv:1311.2540; Giesen, "Interleaved
entropy coders", arXiv:1402.3392).

A payload of n symbols runs ``lane_count(n)`` lanes, and symbol i goes to
lane i mod L.  Each lane keeps a 32-bit state in [2^16, 2^32), starts and
ends at 2^16 and renormalises with 16-bit words, so a symbol moves at most
one word.  A table is a cumulative 2^16 grid [c_0=0, c_1, ..., c_K=65536],
strictly increasing; symbol k owns [c_k, c_{k+1}), and the last bin is the
escape: an escaped symbol carries a raw 32-bit value.

Payload, little-endian: the L lane states as u32, then the renormalisation
words as u16 in the order the decoder reads them, then the escape values
as u32 in reverse symbol order.  The decoder reads one word for each
symbol whose lane drops below 2^16, in symbol order, and takes escape
values from the tail in symbol order, so the read order depends on the
symbol index alone: any run of up to L consecutive symbols decodes as one
numpy step, however a caller splits the payload into runs.
"""

from __future__ import annotations

import numpy as np

from .errors import StreamError

CDF_BITS = 16
CDF_TOTAL = 1 << CDF_BITS
MAX_LANES = 256
# a lane's state before its first symbol and after its last
_LOW = 1 << 16


def lane_count(count):
    """The lane count of a payload of ``count`` symbols: one lane per 512
    symbols, at least 1 and at most MAX_LANES.  A lane costs about 3 bytes
    (its final state over its initial one) and a numpy step about as much
    time as tens of symbols: a payload of up to 1,023 symbols keeps one
    lane, while an HD frame's hyper-latent (8,160 symbols, which the
    context model decodes a wavefront of a few positions at a time) gets
    15 and its latent 256."""
    return min(max(count // 512, 1), MAX_LANES)


def encode(starts, freqs, escapes):
    """Code symbol i as the interval [starts[i], starts[i] + freqs[i]) of
    the 2^16 grid (int64 arrays, freqs >= 1); ``escapes`` holds the raw
    32-bit value of each escaped symbol in symbol order.  Returns the
    payload bytes.  The steps run last to first, each emitting its words
    in symbol order, so the decoder reads them first to last."""
    n = starts.size
    lanes = lane_count(n)
    state = np.full(lanes, _LOW, dtype=np.int64)
    limits = freqs << CDF_BITS
    words = [np.zeros(0, dtype=np.int64)]
    for a in range((n - 1) // lanes * lanes, -1, -lanes):
        x = state[:min(lanes, n - a)]
        emit = x >= limits[a:a + lanes]
        words.append(x[emit])
        x >>= emit * CDF_BITS
        q, r = np.divmod(x, freqs[a:a + lanes])
        x[:] = (q << CDF_BITS) + r + starts[a:a + lanes]
    return b"".join([state.astype("<u4").tobytes(),
                     (np.concatenate(words[::-1]) & 0xFFFF).astype("<u2").tobytes(),
                     np.asarray(escapes, dtype="<u4")[::-1].tobytes()])


class Decoder:
    """Decodes the ``count`` symbols of one payload under rows of one
    int64 table set, run by run.  The payload is hostile: every read is
    bounded, and once the last symbol is decoded each lane must be back at
    its initial state with no word left unread, or StreamError is raised."""

    def __init__(self, payload, count, table):
        if len(payload) % 2:
            raise StreamError("rANS payload has an odd length")
        self.lanes = lane_count(count)
        words = np.frombuffer(payload, dtype="<u2").astype(np.int64)
        if words.size < 2 * self.lanes:
            raise StreamError(f"{len(payload)}-byte payload cannot hold {self.lanes} lane states")
        self.state = words[:2 * self.lanes:2] | words[1:2 * self.lanes:2] << 16
        self.words = words
        self.pos = 2 * self.lanes
        self.end = words.size
        self.done = 0
        self.count = count
        # the rows laid end to end, each shifted past the one before, so one
        # sorted search over the bins' upper ends finds every symbol of a
        # step in its own row, as its bin's index in ``start`` and ``freq``
        self.width = table.shape[1]
        self.start = table.ravel()
        self.freq = np.diff(self.start, append=0)
        self.shifted = (self.start + (np.arange(self.start.size) // self.width
                                      << (CDF_BITS + 1)))[1:]

    def decode(self, rows):
        """Decode the next rows.size symbols, symbol k under table row
        rows[k]; returns the symbols (int64) and the raw values of the
        escaped ones, in symbol order."""
        n = rows.size
        if self.done + n > self.count:
            raise StreamError(f"decoding past the payload's {self.count} symbols")
        state, words, pos, end, lanes = self.state, self.words, self.pos, self.end, self.lanes
        shifted, start, freq = self.shifted, self.start, self.freq
        base = rows << (CDF_BITS + 1)
        lane = (self.done + np.arange(n)) % lanes
        found = np.empty(n, dtype=np.int64)
        for a in range(0, n, lanes):
            step = lane[a:a + lanes]
            x = state[step]
            slot = x & 0xFFFF
            k = shifted.searchsorted(base[a:a + lanes] + slot, side="right")
            x = freq[k] * (x >> CDF_BITS) + slot - start[k]
            low = x < _LOW
            m = int(np.count_nonzero(low))
            if m:
                if pos + m > end:
                    raise StreamError("rANS read crosses the escape tail")
                x[low] = (x[low] << CDF_BITS) | words[pos:pos + m]
                pos += m
            state[step] = x
            found[a:a + lanes] = k
        symbols = found - rows * self.width
        escaped = symbols == self.width - 2
        end -= 2 * int(np.count_nonzero(escaped))
        if end < pos:
            raise StreamError("rANS read crosses the escape tail")
        tail = words[end:self.end]
        self.pos, self.end = pos, end
        self.done += n
        if self.done == self.count:
            if np.any(self.state != _LOW):
                raise StreamError("an rANS lane does not end in its initial state")
            if pos != end:
                raise StreamError(f"{end - pos} rANS words left unread")
        return symbols, (tail[0::2] | tail[1::2] << 16)[::-1]
