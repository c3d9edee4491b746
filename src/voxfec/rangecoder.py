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

Both coders read a table as `TableWindows`. Outside a window of a few
dozen counts every row gives each slot one count, so there a slot's start
is the slot itself or the slot plus a constant. Only a value inside the
window needs a search, a bisect of a short list. The model's table memo
keeps windows live and compact bytes for a whole stream, and restores
windows straight from the bytes.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import add

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
class TableWindows:
    """Per-dimension tables in the form both coders read.

    A row of `width` = 2 * half_width + 3 cumulative counts is a unit ramp
    outside a short window: with K = TOTAL + 1 - width, the row (a, win)
    has cum[s] = s for s <= a, cum[s] = s + K for s >= b, and win =
    cum[a..b] between. Dimensions with equal rows share one (a, win) pair;
    `n_rows` counts the pairs.
    """

    dims: list[tuple[int, list[int]]]
    half_width: int
    n_rows: int


@dataclass(frozen=True)
class CdfTable:
    """Per-dimension cumulative counts over the coder alphabet.

    Rows are deduplicated: `cum[rows[i]]` is the cumulative table for
    dimension i. Each row starts at 0, ends at TOTAL, and gives every symbol
    and the escape slot at least one count.
    """

    cum: np.ndarray  # (n_rows, n_symbols + 1) uint32
    rows: np.ndarray  # (d,) int32
    half_width: int = HALF_WIDTH

    @property
    def escape_symbol(self) -> int:
        return 2 * self.half_width + 1

    @cached_property
    def windows(self) -> TableWindows:
        """The same tables as windows: each row's window runs from its last
        rise of 0 to its first rise of K."""
        _, started, done = _rises(self.cum)
        starts = (started.argmax(axis=1) - 1).tolist()
        ends = done.argmax(axis=1).tolist()
        rows = [(a, row[a : b + 1].tolist()) for a, b, row in zip(starts, ends, self.cum)]
        return TableWindows([rows[r] for r in self.rows.tolist()], self.half_width, len(rows))


def _rises(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's rise, its cumulative counts less the unit ramp, and the
    masks of where the rise is above 0 and where it is K.

    Every count is at least 1, so a rise never falls: it is 0 up to the
    row's first count above 1 and K from past its last one.
    """
    width = cum.shape[1]
    rise = cum - np.arange(width, dtype=np.uint32)
    return rise, rise > 0, rise == TOTAL + 1 - width


def _windows_of(tables: CdfTable | TableWindows) -> TableWindows:
    return tables.windows if isinstance(tables, CdfTable) else tables


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


# the 8-bit guard, coded as symbol 0 of a one-slot window 2**8 counts wide:
# the same interval as coding it out of 2**GUARD_BITS
_GUARD_SLOT = GUARD_VALUE << (PRECISION - GUARD_BITS)
_GUARD_ROW = (0, [_GUARD_SLOT, _GUARD_SLOT + (1 << (PRECISION - GUARD_BITS))])


def encode_frame(yq: QuantizedLatent, tables: CdfTable | TableWindows) -> Bitstream:
    """Range-code one frame of quantizer indices against the tables."""
    windows = _windows_of(tables)
    dims = windows.dims
    indices = yq.indices.tolist()
    if len(indices) != len(dims):
        raise ValueError(f"frame has {len(indices)} dims, tables {len(dims)}")
    half = windows.half_width
    esc = 2 * half + 1
    above = TOTAL - 1 - esc  # K: past its window a slot s starts at s + K
    indices.append(-half)

    low = 0
    high = _MASK
    underflow = 0  # pending bits, each the complement of the next settled bit
    out = 0
    n_out = 0
    for idx, (a, win) in zip(indices, chain(dims, (_GUARD_ROW,))):
        s = idx + half
        raw = -1
        if not 0 <= s < esc:
            # an escape is followed by its raw 16 bits, one slot of TOTAL
            if not -32768 <= idx <= 32767:
                raise ValueError(f"symbol {idx} outside the 16-bit escape range")
            s = esc
            raw = idx & 0xFFFF
        # [c, c + f) is the slot out of TOTAL
        j = s - a
        if j < 0:
            c = s
            f = 1
        else:
            try:
                c = win[j]
                f = win[j + 1] - c
            except IndexError:  # past the window
                c = s + above
                f = 1
        # one pass per coding step: two for an escaped symbol
        while True:
            rng = high - low + 1
            high = low + ((rng * (c + f)) >> PRECISION) - 1
            low = low + ((rng * c) >> PRECISION)
            # leading bits on which low and high agree are settled
            n = _STATE_BITS - (low ^ high).bit_length()
            if n:
                # the first settled bit, then the pending underflow bits,
                # then the other n - 1 settled bits
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
            if raw < 0:
                break
            c = raw
            f = 1
            raw = -1
    # One final 1 bit pins the decoder's zero-filled code inside the final
    # interval; the pending underflow bits are not needed for that.
    out = (out << 1) | 1
    n_out += 1
    pad = -n_out & 7
    return Bitstream((out << pad).to_bytes((n_out + pad) >> 3, "big"), n_out)


def decode_frame(
    bits: Bitstream, tables: CdfTable | TableWindows, d_y: int, frame_index: int = 0
) -> QuantizedLatent:
    """Exact inverse of encode_frame; raises DecodeFailure on a bad stream.
    The result carries `frame_index`.

    Only the first `bits.bit_length` bits are read: every bit past them, in
    the final byte or beyond it, decodes as zero.
    """
    symbols = _decode_symbols(bits, _windows_of(tables), d_y)
    return QuantizedLatent(np.array(symbols, dtype=np.int64), frame_index)


def _decode_symbols(bits: Bitstream, windows: TableWindows, d_y: int) -> list[int]:
    """The symbols of `decode_frame`, as a list."""
    dims = windows.dims
    if d_y != len(dims):
        raise ValueError(f"expected {d_y} dims, tables have {len(dims)}")
    half = windows.half_width
    esc = 2 * half + 1
    above = TOTAL - 1 - esc  # K
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
    for a, win in dims:
        rng = high - low + 1
        # the offset stays below rng, so value < TOTAL
        value = (((offset + 1) << PRECISION) - 1) // rng
        # [c, c_next) is the decoded slot out of TOTAL; outside the window
        # each slot holds one count, so the value is its start
        if value < a:
            s = c = value
            c_next = value + 1
        elif value >= win[-1]:
            c = value
            c_next = value + 1
            s = value - above
        else:
            i = bisect_right(win, value)
            c = win[i - 1]
            c_next = win[i]
            s = a + i - 1
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
    return out


def measure_rate(bits: Bitstream) -> int:
    """Exact coded size of a payload in bits."""
    return bits.bit_length


# window rows a memo holds live: 272 16-row tables, or all 638 2-row tables
# of criterion 3's stream. At rate index 32 a 16-row table's windows, 17 to
# 34 counts a row as Python ints, take about 17 KB, so 4,360 rows take about
# 4.6 MB; windows as wide as the alphabet would take up to 80 MB
MEMO_ROWS = 4360

# bytes a memo's packed tables may keep alive, charged for each entry's
# bytes and key and for the dict: the 2,514 tables of the 64 s corpus take
# 4.3 MiB at rate index 0 (about 1.8 KB each) and 2.3 MiB at 32
PACKED_BYTES = 8 << 20


def _pack(table: CdfTable, step: float) -> bytes:
    """The table and its step in about a kilobyte: of each row only the
    rises strictly inside its window, where they are neither 0 nor K.

    The map from dimensions to rows keeps the last dimension and the row of
    each run of equal rows. Layout, after the step as a float64: uint16
    half width, row count, dimension count and run count less one, every
    row's first rise above 0, every row's first rise of K, the runs' last
    dimensions but the final one, the runs' rows, and the rises between
    row by row.
    """
    cum, rows = table.cum, table.rows
    rise, started, done = _rises(cum)
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


def _restore(blob: bytes) -> tuple[TableWindows, float]:
    """The windows of the table that `_pack` packed, and its step, read
    straight from the bytes."""
    view = memoryview(blob)
    step = view[:8].cast("d")[0]
    fields = view[8:].cast("H").tolist()
    half_width, n_rows, d, n_cuts = fields[:4]
    above = TOTAL - 2 - 2 * half_width  # K
    at = 4 + 2 * n_rows
    cuts = fields[at : at + n_cuts]
    run_rows = fields[at + n_cuts : at + 2 * n_cuts + 1]
    pos = at + 2 * n_cuts + 1
    rows = []
    for lo, hi in zip(fields[4 : 4 + n_rows], fields[4 + n_rows : at]):
        # the rises lo..hi - 1 lie between the last zero rise and the first
        # rise of K
        win = [lo - 1]
        win += map(add, fields[pos : pos + hi - lo], range(lo, hi))
        win.append(hi + above)
        rows.append((lo - 1, win))
        pos += hi - lo
    dims = []
    for start, end, r in zip([-1] + cuts, cuts + [d - 1], run_rows):
        dims += [rows[r]] * (end - start)
    return TableWindows(dims, half_width, n_rows), step


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
    """FIFO memo of (TableWindows, step) entries holding at most MEMO_ROWS
    window rows; a miss costs one build_cdf. Each model owns one, filled by
    `frame_tables`.

    Every table built is kept packed too, in `packed`, a second FIFO that
    keeps at most PACKED_BYTES alive. From it `restore` brings back the
    windows of a table the live FIFO has dropped, for far less than a build.
    """

    rows = 0
    packed_bytes = 0  # `_held_bytes` of every packed entry

    def __init__(self):
        super().__init__()
        self.packed: dict[tuple, bytes] = {}

    def put(self, key: tuple, entry: tuple[TableWindows, float]) -> None:
        n = entry[0].n_rows
        while self and self.rows + n > MEMO_ROWS:
            self.rows -= self.pop(next(iter(self)))[0].n_rows
        self.rows += n
        self[key] = entry

    def keep_packed(self, key: tuple, blob: bytes) -> None:
        packed = self.packed
        packed[key] = blob
        self.packed_bytes += _held_bytes(key, blob)
        # after the insertion, so that a resized dict is charged too
        while self.packed_bytes + sys.getsizeof(packed) > PACKED_BYTES:
            oldest = next(iter(packed))
            self.packed_bytes -= _held_bytes(oldest, packed.pop(oldest))

    def restore(self, key: tuple) -> tuple[TableWindows, float] | None:
        """The packed entry under `key`, restored into the memo, or None."""
        blob = self.packed.get(key)
        if blob is None:
            return None
        entry = _restore(blob)
        self.put(key, entry)
        return entry


def frame_tables(
    model: CodecModel, si: SideInfo | None, q_lambda: int
) -> tuple[TableWindows, float]:
    """Tables and quantizer step of a frame coded at rate index `q_lambda`
    under side info `si` (None: no summary, so a zero mean).

    Sender and receiver both call this, so the receiver finds exactly the
    tables the payload was coded with. The model memoizes them in its own
    TableCache, created on first use, whose packed FIFO keeps the tables of
    a whole stream for the receiver.
    """
    try:
        memo = model._tables  # type: ignore[attr-defined]
    except AttributeError:
        memo = TableCache()
        object.__setattr__(model, "_tables", memo)
    key = (si.indices if si is not None else (), q_lambda)
    entry = memo.get(key) or memo.restore(key)
    if entry is None:
        step = RateControl(q_lambda).step
        z_hat = None if si is None else rvq_decode(si, model.codebooks)
        table = build_cdf(hyper_synthesis(z_hat, model), step)
        memo.keep_packed(key, _pack(table, step))
        entry = (table.windows, step)
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
