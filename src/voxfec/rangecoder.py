"""Bit-exact entropy coding of quantized symbols under per-dimension
discretized Gaussian models.

The coder is a 64-bit binary arithmetic coder with underflow counting and
16-bit probability precision (Witten, Neal and Cleary, CACM 1987),
operating on pure Python integers so that identical inputs give identical
bytes everywhere. It renormalises in bulk, as in Moffat, Neal and Witten,
"Arithmetic Coding Revisited" (TOIS 1998): after each symbol one
`bit_length` finds all the settled leading bits of the interval and
another the whole underflow run, and bits move in and out as integer
chunks, so no Python code runs per bit. Symbols outside the
coder alphabet escape to a 16-bit raw value. Every frame is coded
independently and closes with an 8-bit guard value; decoding anything else
at the guard position raises DecodeFailure, which is the signal that routes
the receiver onto the concealment path.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr

from .hyperprior import CodecModel, GaussianParams, SideInfo, hyper_synthesis, rvq_decode
from .transform import QuantizedLatent, RateControl

PRECISION = 16
TOTAL = 1 << PRECISION
HALF_WIDTH = 255  # alphabet is [-HALF_WIDTH, HALF_WIDTH] plus one escape slot
GUARD_BITS = 8
GUARD_VALUE = 0xA5

_STATE_BITS = 64
_MASK = (1 << _STATE_BITS) - 1
_TOP = 1 << (_STATE_BITS - 1)
_LOW = _MASK >> 1  # every state bit but the top one
_QUARTER = _TOP >> 1
_THREE_QUARTERS = _TOP | _QUARTER


class DecodeFailure(Exception):
    """Payload could not be decoded (corrupt or truncated stream)."""


@dataclass(frozen=True)
class Bitstream:
    """Byte buffer with an exact bit count."""

    data: bytes
    bit_length: int

    def __post_init__(self):
        if self.bit_length < 0 or self.bit_length > 8 * len(self.data):
            raise ValueError("bit_length exceeds buffer size")


@dataclass(frozen=True)
class CdfTable:
    """Per-dimension cumulative counts over the coder alphabet.

    Rows are deduplicated: `cum[rows[i]]` is the cumulative table for
    dimension i. Each row starts at 0, ends at TOTAL, gives every symbol at
    least one count, and reserves exactly one count for the escape slot.
    """

    cum: np.ndarray  # (n_rows, n_symbols + 1) uint32
    rows: np.ndarray  # (d,) int32
    half_width: int = HALF_WIDTH

    @property
    def escape_symbol(self) -> int:
        return 2 * self.half_width + 1

    @cached_property
    def dim_rows(self) -> list[memoryview]:
        # each dimension's row as a zero-copy view of `cum` for the decoder
        # loop, one view per shared row
        views = [memoryview(row) for row in self.cum]
        return [views[r] for r in self.rows.tolist()]


def _largest_remainder(probs: np.ndarray, budget: int) -> np.ndarray:
    """Integer allocation of `budget` proportional to rows of `probs`."""
    scaled = probs * budget
    base = np.floor(scaled)
    rem = scaled - base
    base = base.astype(np.int64)
    deficit = budget - base.sum(axis=1)
    # each row's spare counts go to the remainders at or above its
    # deficit-th largest; a row without deficit reads its largest
    n = rem.shape[1]
    ranks = np.minimum(n - deficit, n - 1)
    threshold = np.sort(rem, axis=1)[np.arange(rem.shape[0]), ranks][:, None]
    take = rem >= threshold
    surplus = take.sum(axis=1) - deficit
    if surplus.any():
        # more ties at the threshold than spare counts: the lowest tied
        # symbols take them
        tied = rem == threshold
        keep = (tied.sum(axis=1) - surplus)[:, None]
        take &= ~tied | (np.cumsum(tied, axis=1) <= keep)
    base += take
    return base


def build_cdf(theta: GaussianParams, step: float, half_width: int = HALF_WIDTH) -> CdfTable:
    """Discretize per-dimension Gaussians onto the coder alphabet.

    Symbol i gets the Gaussian mass of ((i-0.5)*step, (i+0.5)*step] with the
    two tails folded into -L and L, then counts are floored at one per
    symbol and the remainder of the 16-bit budget is assigned by largest
    remainder. The escape slot always holds exactly one count.
    """
    if step <= 0:
        raise ValueError(f"non-positive step {step}")
    mu = np.atleast_1d(theta.mu)
    sigma = np.atleast_1d(theta.sigma)
    # Dimensions share a row when their (mu, sigma) pairs are equal; rows
    # follow first occurrence. Runs of equal pairs (a band, in the codec)
    # collapse first, so the dictionary sees one pair per run.
    new_run = np.empty(mu.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(mu[1:], mu[:-1], out=new_run[1:])
    new_run[1:] |= sigma[1:] != sigma[:-1]
    starts = np.flatnonzero(new_run)
    seen: dict[tuple[float, float], int] = {}
    run_rows = [
        seen.setdefault(pair, len(seen))
        for pair in zip(mu[starts].tolist(), sigma[starts].tolist())
    ]
    inverse = np.array(run_rows, dtype=np.int32)[np.cumsum(new_run) - 1]
    uniq = np.array(list(seen))
    n_sym = 2 * half_width + 1
    bounds = (np.arange(-half_width, half_width) + 0.5) * step
    cdf = ndtr((bounds - uniq[:, :1]) / uniq[:, 1:2])
    probs = np.empty((uniq.shape[0], n_sym))
    probs[:, 0] = cdf[:, 0]
    np.subtract(cdf[:, 1:], cdf[:, :-1], out=probs[:, 1:-1])
    np.subtract(1.0, cdf[:, -1], out=probs[:, -1])
    np.maximum(probs, 0.0, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    counts = _largest_remainder(probs, TOTAL - 1 - n_sym)
    counts += 1
    # the escape slot takes the last count
    cum = np.empty((uniq.shape[0], n_sym + 2), dtype=np.uint32)
    cum[:, 0] = 0
    np.cumsum(counts, axis=1, out=cum[:, 1:-1])
    cum[:, -1] = TOTAL
    return CdfTable(cum, inverse, half_width)


def encode_frame(yq: QuantizedLatent, tables: CdfTable) -> Bitstream:
    """Range-code one frame of quantizer indices against the tables."""
    indices = yq.indices
    if indices.size != tables.rows.size:
        raise ValueError(f"frame has {indices.size} dims, tables {tables.rows.size}")
    half = tables.half_width
    esc = tables.escape_symbol
    inside = (indices >= -half) & (indices <= half)
    sym = np.where(inside, indices + half, esc)
    cum_low = tables.cum[tables.rows, sym]
    freq = tables.cum[tables.rows, sym + 1] - cum_low
    # (cum_low, freq) out of TOTAL per coding step
    steps = list(zip(cum_low.tolist(), freq.tolist()))
    if not inside.all():
        # each escape is followed by its raw 16 bits, one slot of TOTAL
        for k, i in enumerate(np.flatnonzero(~inside).tolist()):
            idx = int(indices[i])
            if not -32768 <= idx <= 32767:
                raise ValueError(f"symbol {idx} outside the 16-bit escape range")
            steps.insert(i + k + 1, (idx & 0xFFFF, 1))
    # the 8-bit guard as a 2**8-wide slot of TOTAL: the same interval as
    # coding it out of 2**GUARD_BITS
    guard_slot = 1 << (PRECISION - GUARD_BITS)
    steps.append((GUARD_VALUE * guard_slot, guard_slot))

    low = 0
    high = _MASK
    underflow = 0  # pending bits, each the complement of the next settled bit
    out = 0
    n_out = 0
    for c, f in steps:
        rng = high - low + 1
        high = low + ((rng * (c + f)) >> PRECISION) - 1
        low = low + ((rng * c) >> PRECISION)
        # leading bits on which low and high agree are settled
        n = _STATE_BITS - (low ^ high).bit_length()
        if n:
            # the first settled bit, then the pending underflow bits, then
            # the other n - 1 settled bits
            top = low >> (_STATE_BITS - n)
            out = (out << (n + underflow)) | (top + (((1 << underflow) - 1) << (n - 1)))
            n_out += n + underflow
            underflow = 0
            low = (low << n) & _MASK
            high = ((high << n) & _MASK) | ((1 << n) - 1)
        if low >= _QUARTER and high < _THREE_QUARTERS:
            # low = 01..., high = 10...: the run of second bits on which
            # low is 1 and high is 0 becomes pending underflow bits
            m = _STATE_BITS - 1 - ((low & ~high) ^ _LOW).bit_length()
            underflow += m
            low = (low << m) & _LOW
            high = ((high << m) & _LOW) | _TOP | ((1 << m) - 1)
    # One final 1 bit pins the decoder's zero-filled code inside the final
    # interval; the pending underflow bits are not needed for that.
    out = (out << 1) | 1
    n_out += 1
    pad = -n_out & 7
    return Bitstream((out << pad).to_bytes((n_out + pad) >> 3, "big"), n_out)


def decode_frame(
    bits: Bitstream, tables: CdfTable, d_y: int, frame_index: int = 0
) -> QuantizedLatent:
    """Exact inverse of encode_frame; raises DecodeFailure on a bad stream.
    The result carries `frame_index`.

    Only the first `bits.bit_length` bits are read: every bit past them, in
    the final byte or beyond it, decodes as zero.
    """
    if d_y != tables.rows.size:
        raise ValueError(f"expected {d_y} dims, tables have {tables.rows.size}")
    half = tables.half_width
    esc = 2 * half + 1
    out = []

    data = bits.data
    stream = int.from_bytes(data, "big") >> (8 * len(data) - bits.bit_length)
    # stream bits not yet read; negative once reads pass the end
    avail = bits.bit_length - _STATE_BITS
    low = 0
    high = _MASK
    # offset of the code word from low: both renormalisations map low and
    # the code by the same x -> 2x - k, so the offset just takes in the
    # next stream bits
    offset = stream >> avail if avail >= 0 else stream << -avail
    for row in tables.dim_rows:
        rng = high - low + 1
        # the offset stays below rng, so value < TOTAL
        value = (((offset + 1) << PRECISION) - 1) // rng
        s = bisect_right(row, value) - 1
        # [c, c_next) is the decoded slot out of TOTAL
        c = row[s]
        c_next = row[s + 1]
        symbol = s - half
        # one pass per coding step: two for an escaped symbol, whose 16 raw
        # bits follow its escape slot as one slot of TOTAL
        while True:
            gap = (rng * c) >> PRECISION
            high = low + ((rng * c_next) >> PRECISION) - 1
            low += gap
            offset -= gap
            n = _STATE_BITS - (low ^ high).bit_length()
            if n:
                low = (low << n) & _MASK
                high = ((high << n) & _MASK) | ((1 << n) - 1)
            if low >= _QUARTER and high < _THREE_QUARTERS:
                m = _STATE_BITS - 1 - ((low & ~high) ^ _LOW).bit_length()
                low = (low << m) & _LOW
                high = ((high << m) & _LOW) | _TOP | ((1 << m) - 1)
                n += m
            if n:
                avail -= n
                word = stream >> avail if avail >= 0 else stream << -avail
                offset = (offset << n) | (word & ((1 << n) - 1))
            if s != esc:
                break
            rng = high - low + 1
            c = (((offset + 1) << PRECISION) - 1) // rng
            c_next = c + 1
            symbol = c - 65536 if c >= 32768 else c
            s = -1  # no escape after the raw bits
        out.append(symbol)
    value = (((offset + 1) << PRECISION) - 1) // (high - low + 1)
    if value >> (PRECISION - GUARD_BITS) != GUARD_VALUE:
        raise DecodeFailure("corrupt or truncated frame payload")
    return QuantizedLatent(np.array(out, dtype=np.int64), frame_index)


def measure_rate(bits: Bitstream) -> int:
    """Exact coded size of a payload in bits."""
    return bits.bit_length


# rows of counts a memo holds: 4,360 rows of 513 uint32 counts are 8.9 MB of
# counts, 272 16-row tables, or all 638 2-row tables of criterion 3's stream
MEMO_ROWS = 4360

# bytes a memo's packed tables may keep alive, charged for each entry's
# bytes and key and for the dict: the 2,514 tables of the 64 s corpus take
# 4.3 MiB at rate index 0 (about 1.8 KB each) and 2.3 MiB at 32
PACKED_BYTES = 8 << 20


def _pack(table: CdfTable, step: float) -> bytes:
    """The table and its step in about a kilobyte.

    Most counts of a row are 1. So a row's rise, its cumulative counts
    less a unit ramp, is 0 up to its first count above 1 and TOTAL + 1 -
    width from past its last one; only the window between is kept. The
    map from dimensions to rows keeps the last dimension and the row of
    each run of equal rows. Layout, after the step as a float64: uint16
    half width, row count, dimension count and run count less one, every
    row's window start, every row's window end, the runs' last dimensions
    but the final one, the runs' rows, and the windows' rises row by row.
    """
    cum, rows = table.cum, table.rows
    width = cum.shape[1]
    rise = cum - np.arange(width, dtype=np.uint32)
    started = rise > 0
    done = rise == TOTAL + 1 - width
    # numpy's Python-level helpers (append, diff) cost more here than the
    # arithmetic, so only ufuncs and methods
    cuts = (rows[1:] != rows[:-1]).nonzero()[0]
    fields = np.concatenate((
        (table.half_width, rise.shape[0], rows.size, cuts.size),
        started.argmax(axis=1),
        done.argmax(axis=1),
        cuts,
        rows[cuts],
        rows[-1:],
        rise[started ^ done],
    ))
    return np.float64(step).tobytes() + fields.astype(np.uint16).tobytes()


def _unpack(blob: bytes) -> tuple[CdfTable, float]:
    """The exact (CdfTable, step) that `_pack` packed."""
    step = float(np.frombuffer(blob, np.float64, 1)[0])
    fields = np.frombuffer(blob, np.uint16, offset=8)
    half_width, n_rows, d, n_cuts = fields[:4].tolist()
    lo, hi = fields[4 : 4 + 2 * n_rows].reshape(2, n_rows, 1)
    at = 4 + 2 * n_rows + n_cuts
    cuts, run_rows = fields[4 + 2 * n_rows : at], fields[at : at + n_cuts + 1]
    width = 2 * half_width + 3
    ramp = np.arange(width, dtype=np.uint16)
    cum = np.zeros((n_rows, width), dtype=np.uint32)
    cum[ramp >= hi] = TOTAL + 1 - width
    cum[(ramp >= lo) & (ramp < hi)] = fields[at + n_cuts + 1 :]
    cum += ramp
    # dimension j is in the run after every cut below j
    rows = run_rows.astype(np.int32)[cuts.searchsorted(np.arange(d))]
    return CdfTable(cum, rows, half_width), step


def _held_bytes(key: tuple, blob: bytes) -> int:
    """What a packed entry keeps alive besides its dict slot: its bytes,
    its key, and the key's parts with their items (the side-info indices)."""
    held = sys.getsizeof(blob) + sys.getsizeof(key)
    for part in key:
        held += sys.getsizeof(part)
        if isinstance(part, tuple):
            held += sum(map(sys.getsizeof, part))
    return held


class TableCache(dict):
    """FIFO memo of (CdfTable, step) entries holding at most MEMO_ROWS rows
    of counts; a miss costs one build_cdf. Each model owns one, filled by
    `frame_tables`.

    A table evicted from it moves to `packed`, a second FIFO of packed
    entries that keeps at most PACKED_BYTES alive, from which `unpack`
    restores it exactly for far less than a build. A restored table stays
    packed too, so evicting it again packs nothing.
    """

    rows = 0
    packed_bytes = 0  # `_held_bytes` of every packed entry

    def __init__(self):
        super().__init__()
        self.packed: dict[tuple, bytes] = {}

    def put(self, key: tuple, entry: tuple[CdfTable, float]) -> None:
        n = entry[0].cum.shape[0]
        while self and self.rows + n > MEMO_ROWS:
            old = next(iter(self))
            table, step = self.pop(old)
            self.rows -= table.cum.shape[0]
            if old not in self.packed:
                self._keep_packed(old, table, step)
        self.rows += n
        self[key] = entry

    def _keep_packed(self, key: tuple, table: CdfTable, step: float) -> None:
        blob = _pack(table, step)
        packed = self.packed
        packed[key] = blob
        self.packed_bytes += _held_bytes(key, blob)
        # after the insertion, so that a resized dict is charged too
        while self.packed_bytes + sys.getsizeof(packed) > PACKED_BYTES:
            oldest = next(iter(packed))
            self.packed_bytes -= _held_bytes(oldest, packed.pop(oldest))

    def unpack(self, key: tuple) -> tuple[CdfTable, float] | None:
        """The packed entry under `key`, restored into the memo, or None."""
        blob = self.packed.get(key)
        if blob is None:
            return None
        entry = _unpack(blob)
        self.put(key, entry)
        return entry


def frame_tables(
    model: CodecModel, si: SideInfo | None, q_lambda: int
) -> tuple[CdfTable, float]:
    """Tables and quantizer step of a frame coded at rate index `q_lambda`
    under side info `si` (None: no summary, so a zero mean).

    Sender and receiver both call this, so the receiver rebuilds exactly
    the tables the payload was coded with. The model memoizes them in its
    own TableCache, created on first use, whose packed FIFO keeps the
    tables of a whole stream for the receiver.
    """
    try:
        memo = model._tables  # type: ignore[attr-defined]
    except AttributeError:
        memo = TableCache()
        object.__setattr__(model, "_tables", memo)
    key = (si.indices if si is not None else (), q_lambda)
    entry = memo.get(key) or memo.unpack(key)
    if entry is None:
        step = RateControl(q_lambda).step
        z_hat = None if si is None else rvq_decode(si, model.codebooks)
        entry = (build_cdf(hyper_synthesis(z_hat, model), step), step)
        memo.put(key, entry)
    return entry


def model_bits(yq: QuantizedLatent, tables: CdfTable) -> float:
    """Cross-entropy of a frame under the tables, in bits.

    Escaped symbols cost the escape slot's information plus 16 raw bits;
    the per-frame guard and flush are not included.
    """
    half = tables.half_width
    esc = tables.escape_symbol
    total = 0.0
    for i, idx in enumerate(yq.indices):
        row = tables.cum[tables.rows[i]]
        if -half <= idx <= half:
            s = int(idx) + half
            freq = int(row[s + 1]) - int(row[s])
            total += -np.log2(freq / TOTAL)
        else:
            freq = int(row[esc + 1]) - int(row[esc])
            total += -np.log2(freq / TOTAL) + 16.0
    return total
