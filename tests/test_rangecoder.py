import copy
import dataclasses
import gc
import hashlib
import itertools
import pickle
import sys
import tracemalloc
import zlib
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from voxfec.frontend import PcmClip
from voxfec.hyperprior import GaussianParams, SideInfo, hyper_synthesis, rvq_decode
from voxfec.packets import FecConfig
from voxfec.pipeline import decode_stream, encode_stream
import voxfec.rangecoder as rangecoder
from voxfec.rangecoder import (
    GUARD_BITS,
    GUARD_VALUE,
    HALF_WIDTH,
    MEMO_ROWS,
    PACKED_BYTES,
    Bitstream,
    CdfTable,
    DecodeFailure,
    TOTAL,
    TableCache,
    TableWindows,
    _largest_remainder,
    _pack,
    _restore,
    build_cdf,
    decode_frame,
    encode_frame,
    frame_tables,
    measure_rate,
    model_bits,
)
from voxfec.receiver import ReceiverConfig
from voxfec.transform import QuantizedLatent, RateControl, lambda_from_q, step_from_lambda

# interval mass of symbol 0 for mu=0, sigma=step, frozen from mpmath:
# erf(0.5/sqrt(2)) at 40 digits
MASS_SYMBOL0 = 0.3829249225480262


def table_for(mu, sigma, step=1.0, half_width=255):
    theta = GaussianParams(np.atleast_1d(mu), np.atleast_1d(sigma))
    return build_cdf(theta, step, half_width)


def counts_of(tables, dim=0):
    row = tables.cum[tables.rows[dim]].astype(np.int64)
    return np.diff(row)


def test_cdf_symmetry_totals_floor():
    tables = table_for(0.0, 1.0)
    c = counts_of(tables)
    n_sym = 2 * 255 + 1
    assert c.size == n_sym + 1
    assert c[-1] == 1  # escape slot
    assert c.sum() == TOTAL
    assert np.all(c >= 1)
    sym = c[:-1]
    assert np.array_equal(sym, sym[::-1])  # count(i) == count(-i) for mu=0


def test_cdf_totals_for_random_params():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu = rng.normal(0, 5, size=6)
        sigma = rng.uniform(0.01, 10, size=6)
        tables = build_cdf(GaussianParams(mu, sigma), step=0.5)
        for d in range(6):
            c = counts_of(tables, d)
            assert c.sum() == TOTAL
            assert np.all(c >= 1)
            assert c[-1] == 1


def test_cdf_monotone_rows():
    tables = table_for([0.0, 2.0], [0.5, 3.0], step=0.25)
    for d in range(2):
        row = tables.cum[tables.rows[d]].astype(np.int64)
        assert row[0] == 0 and row[-1] == TOTAL
        assert np.all(np.diff(row) >= 1)


def test_cdf_against_high_precision_oracle():
    # reproduce the documented construction with mpmath's Phi and compare
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    half = 255
    step = 1.0
    mu, sigma = 0.0, 1.0

    def phi(x):
        return 0.5 * (1 + mp.erf(mp.mpf(x) / mp.sqrt(2)))

    bounds = [(i + 0.5) * step for i in range(-half, half)]
    cdf = [phi((b - mu) / sigma) for b in bounds]
    probs = [cdf[0]]
    probs += [cdf[j] - cdf[j - 1] for j in range(1, len(cdf))]
    probs += [1 - cdf[-1]]
    total = sum(probs)
    probs = [p / total for p in probs]
    n_sym = 2 * half + 1
    budget = TOTAL - 1 - n_sym
    scaled = [p * budget for p in probs]
    base = [int(mp.floor(s)) for s in scaled]
    rem = [s - b for s, b in zip(scaled, base)]
    deficit = budget - sum(base)
    order = sorted(range(n_sym), key=lambda i: (-rem[i], i))
    want = list(base)
    for i in order[:deficit]:
        want[i] += 1
    want = [w + 1 for w in want]

    got = counts_of(table_for(mu, sigma, step))[:-1]
    assert np.max(np.abs(got - np.array(want))) <= 2
    # and the headline value: symbol 0 mass within 2/65536 of the oracle
    mid = half
    assert abs(int(got[mid]) - want[mid]) <= 2
    assert abs(want[mid] / TOTAL - float(MASS_SYMBOL0)) < 520 / TOTAL  # floor bias


def test_cdf_matches_row_by_row_reference():
    # the documented construction one distinct (mu, sigma) pair at a time,
    # with a plain loop for the largest-remainder step; equal pairs share a
    # row, numbered by first occurrence
    rng = np.random.default_rng(37)
    half, step = 255, 0.5
    n_sym = 2 * half + 1
    budget = TOTAL - 1 - n_sym
    bounds = (np.arange(-half, half) + 0.5) * step
    for trial in range(12):
        if trial % 2:
            # bands of equal pairs, some bands repeated, as the codec makes
            mu = np.repeat(rng.choice(rng.normal(0, 2, size=3), size=8), 4)
            sigma = np.repeat(rng.choice([0.05, 0.4, 2.0], size=8), 4)
        else:
            mu = rng.normal(0, 3, size=32)
            sigma = rng.uniform(0.01, 5.0, size=32)
        tables = build_cdf(GaussianParams(mu, sigma), step, half)
        pairs = list(dict.fromkeys(zip(mu.tolist(), sigma.tolist())))
        assert tables.rows.tolist() == [
            pairs.index(pair) for pair in zip(mu.tolist(), sigma.tolist())
        ]
        assert tables.cum.shape == (len(pairs), n_sym + 2)
        for r, (m, s) in enumerate(pairs):
            probs = np.diff(ndtr((bounds - m) / s), prepend=0.0, append=1.0)
            probs = np.maximum(probs, 0.0)
            probs /= probs.sum()
            scaled = probs * budget
            counts = np.floor(scaled).astype(np.int64)
            rem = scaled - counts
            by_rem = sorted(range(n_sym), key=lambda i: (-rem[i], i))
            for i in by_rem[: budget - counts.sum()]:
                counts[i] += 1
            want = np.concatenate([[0], np.cumsum(counts + 1), [TOTAL]])
            assert np.array_equal(tables.cum[r], want), (trial, r)


def test_largest_remainder_ties_go_to_lower_symbol():
    # masses 0.5 and 1.5 (in 64ths) alternate, so every remainder ties with
    # 31 others; the 36 counts left after flooring go to the 32 symbols with
    # the larger remainder, then to the 4 lowest of the others
    probs = np.tile([0.5, 1.5], 32)[None] / 64
    counts = _largest_remainder(probs, 100)[0]
    want = np.tile([1, 2], 32)
    want[[1, 3, 5, 7]] += 1
    assert counts.tolist() == want.tolist()
    # in one call with that row: a row that floors exactly (no deficit) and
    # a row whose remainders all tie, so its 36 spare counts go to the 36
    # lowest symbols
    exact = np.zeros(64)
    exact[[3, 10, 40, 63]] = 0.25
    flat = np.full(64, 1 / 64)
    counts = _largest_remainder(np.stack([probs[0], exact, flat]), 100)
    assert counts[0].tolist() == want.tolist()
    assert counts[1].tolist() == (exact * 100).astype(int).tolist()
    assert counts[2].tolist() == [2] * 36 + [1] * 28


def test_frame_tables_memo_belongs_to_the_model(tiny_model):
    si = SideInfo((5,), 0)
    tables, step = frame_tables(tiny_model, si, 32)
    assert frame_tables(tiny_model, si, 32)[0] is tables
    assert step == step_from_lambda(lambda_from_q(RateControl(32)))
    # an equal model object has its own memo, which builds equal tables
    twin = dataclasses.replace(tiny_model)
    twin_tables, _ = frame_tables(twin, si, 32)
    assert twin_tables is not tables and twin_tables == tables
    # a pickled model leaves its memo and its CRC cache behind
    assert tiny_model.content_crc == twin.content_crc
    clone = pickle.loads(pickle.dumps(tiny_model))
    assert vars(clone).keys() == {f.name for f in dataclasses.fields(tiny_model)}
    assert clone.content_crc == tiny_model.content_crc
    books = tiny_model.codebooks
    assert books.checksum == zlib.crc32(books.stages.tobytes())


def test_model_pickles_and_copies_after_coding_a_stream(tiny_model):
    # decoding fills the memo, which a pickle or a copy leaves behind
    model = dataclasses.replace(tiny_model)  # with its own, empty memo
    fec = FecConfig(1, (1,))
    clip = PcmClip(np.random.default_rng(5).normal(0, 3000, 40 * model.d_l).astype(np.int16))
    res = encode_stream(clip, model, 32, fec)
    decoded = decode_stream(res.packets, model, ReceiverConfig(fec), len(clip)).clip
    for clone in (pickle.loads(pickle.dumps(model)), copy.copy(model)):
        assert vars(clone).keys() == {f.name for f in dataclasses.fields(model)}
        again = decode_stream(res.packets, clone, ReceiverConfig(fec), len(clip)).clip
        assert np.array_equal(again.samples, decoded.samples)


@pytest.mark.parametrize("rows, held", [(16, 272), (2, 2180)])
def test_table_memo_holds_a_fixed_number_of_rows(rows, held):
    # the live memo holds 4,360 window rows, however the dimensions share
    # them, and evicts the oldest table first
    table = TableWindows([(0, [0, TOTAL])] * 320, HALF_WIDTH, rows)
    memo = TableCache()
    keys = range(held + 10)
    for key in keys:
        memo.put((key,), (table, 1.0))
    assert [key for key in keys if memo.get((key,)) is not None] == list(keys[10:])


def _reference_encode(indices, tables):
    """The same coder renormalising one bit per loop pass, as in Witten,
    Neal and Cleary (CACM 1987)."""
    mask = (1 << 64) - 1
    half, esc = tables.half_width, tables.escape_symbol
    steps = []
    for i, idx in enumerate(indices):
        row = tables.cum[tables.rows[i]].tolist()
        s = idx + half if -half <= idx <= half else esc
        steps.append((row[s], row[s + 1] - row[s], TOTAL))
        if s == esc:
            steps.append((idx & 0xFFFF, 1, 1 << 16))
    steps.append((GUARD_VALUE, 1, 1 << GUARD_BITS))
    low, high, pending, out = 0, mask, 0, []
    for c, f, total in steps:
        rng = high - low + 1
        high = low + rng * (c + f) // total - 1
        low = low + rng * c // total
        while not (low ^ high) >> 63:
            bit = low >> 63
            out += [bit] + [bit ^ 1] * pending
            pending = 0
            low = (low << 1) & mask
            high = ((high << 1) & mask) | 1
        while low & ~high & (1 << 62):
            pending += 1
            low = (low << 1) & (mask >> 1)
            high = ((high << 1) & (mask >> 1)) | (1 << 63) | 1
    out.append(1)
    n_bits = len(out)
    out += [0] * (-n_bits % 8)
    data = bytes(int("".join(map(str, out[k : k + 8])), 2) for k in range(0, len(out), 8))
    return data, n_bits


def test_encoder_matches_per_bit_reference():
    rng = np.random.default_rng(43)
    d = 16
    for _ in range(30):
        mu = rng.normal(0, 3, size=d)
        sigma = rng.uniform(0.02, 4.0, size=d)
        half = int(rng.choice([3, 15, 255]))
        tables = build_cdf(GaussianParams(mu, sigma), step=0.5, half_width=half)
        for _ in range(10):
            vals = np.rint(rng.normal(mu, 3 * sigma) / 0.5).astype(np.int64)
            escaped = rng.integers(0, d, size=rng.integers(0, 3))
            vals[escaped] = rng.integers(-32768, 32768, size=escaped.size)
            bits = encode_frame(QuantizedLatent(vals, 0), tables)
            assert (bits.data, bits.bit_length) == _reference_encode(vals.tolist(), tables)


def _reference_decode(bits, tables, d_y):
    """The decoder with one loop pass per coding step, over plain-int copies
    of the rows, the escape's raw bits and the guard as branches of it.
    Returns the symbols, or raises DecodeFailure."""
    mask = (1 << 64) - 1
    half, esc = tables.half_width, tables.escape_symbol
    lists = tables.cum.tolist()
    dim_rows = [lists[r] for r in tables.rows.tolist()]
    data = bits.data
    stream = int.from_bytes(data, "big") >> (8 * len(data) - bits.bit_length)
    avail = bits.bit_length - 64
    low, high = 0, mask
    offset = stream >> avail if avail >= 0 else stream << -avail
    out, dim, raw = [], 0, False
    while True:
        rng = high - low + 1
        value = (((offset + 1) << 16) - 1) // rng
        if raw:
            c, c_next = value, value + 1
            out.append(value - 65536 if value >= 32768 else value)
            raw = False
        elif dim < d_y:
            row = dim_rows[dim]
            dim += 1
            s = bisect_right(row, value) - 1
            c, c_next = row[s], row[s + 1]
            if s == esc:
                raw = True
            else:
                out.append(s - half)
        elif value >> (16 - GUARD_BITS) == GUARD_VALUE:
            return out
        else:
            raise DecodeFailure("guard mismatch")
        gap = (rng * c) >> 16
        high = low + ((rng * c_next) >> 16) - 1
        low += gap
        offset -= gap
        n = 64 - (low ^ high).bit_length()
        if n:
            low = (low << n) & mask
            high = ((high << n) & mask) | ((1 << n) - 1)
        if low >= 1 << 62 and high < 3 << 62:
            m = 63 - ((low & ~high) ^ (mask >> 1)).bit_length()
            low = (low << m) & (mask >> 1)
            high = ((high << m) & (mask >> 1)) | (1 << 63) | ((1 << m) - 1)
            n += m
        if n:
            avail -= n
            word = stream >> avail if avail >= 0 else stream << -avail
            offset = (offset << n) | (word & ((1 << n) - 1))


def roundtrip(indices, tables):
    yq = QuantizedLatent(np.asarray(indices, dtype=np.int64), 0)
    bits = encode_frame(yq, tables)
    back = decode_frame(bits, tables, len(indices))
    return bits, back


def test_exhaustive_small_alphabet():
    tables = build_cdf(
        GaussianParams(np.zeros(4), np.full(4, 1.5)), step=1.0
    )
    for combo in itertools.product(range(-2, 3), repeat=4):
        _, back = roundtrip(combo, tables)
        assert back.indices.tolist() == list(combo)


def test_random_frames_roundtrip_with_bypass():
    rng = np.random.default_rng(17)
    d = 32
    mu = rng.normal(0, 3, size=d)
    sigma = rng.uniform(0.02, 4.0, size=d)
    tables = build_cdf(GaussianParams(mu, sigma), step=0.5)
    for _ in range(2000):
        vals = rng.integers(-400, 401, size=d)  # many outside [-255, 255]
        _, back = roundtrip(vals, tables)
        assert np.array_equal(back.indices, vals)


def test_single_bypass_symbol():
    tables = table_for(0.0, 1.0)
    _, back = roundtrip([260], tables)
    assert back.indices[0] == 260
    _, back = roundtrip([-32768], tables)
    assert back.indices[0] == -32768


def test_bypass_out_of_range_rejected():
    tables = table_for(0.0, 1.0)
    with pytest.raises(ValueError, match="escape range"):
        roundtrip([40000], tables)


def test_peaked_model_short_stream():
    # near-deterministic zero symbols cost well under 0.1 bit each
    d = 320
    sigma_min = 0.05 / 1024
    tables = build_cdf(
        GaussianParams(np.zeros(d), np.full(d, sigma_min)), step=1.0 / 1024
    )
    bits, back = roundtrip(np.zeros(d, dtype=np.int64), tables)
    assert np.all(back.indices == 0)
    assert measure_rate(bits) < 0.1 * d + 32


def test_code_length_near_cross_entropy():
    # mean length within 16 bits/frame of the model cross-entropy on
    # frames drawn from the model itself
    rng = np.random.default_rng(23)
    d = 32
    total_len = 0.0
    total_h = 0.0
    n_frames = 400
    for _ in range(n_frames):
        mu = rng.normal(0, 2, size=d)
        sigma = rng.uniform(0.05, 3.0, size=d)
        tables = build_cdf(GaussianParams(mu, sigma), step=0.8)
        vals = np.rint(rng.normal(mu, sigma, size=d) / 0.8).astype(np.int64)
        yq = QuantizedLatent(vals, 0)
        bits = encode_frame(yq, tables)
        assert np.array_equal(decode_frame(bits, tables, d).indices, vals)
        total_len += measure_rate(bits)
        total_h += model_bits(yq, tables)
    mean_len = total_len / n_frames
    mean_h = total_h / n_frames
    assert mean_len <= mean_h + 16.0
    # the explicit bit count travels out of band and the decoder zero-fills,
    # so individual frames may undershoot their information content, but the
    # average cannot drop below it by more than the final-interval slack
    assert mean_len >= mean_h - 1.0


def test_truncation_detected():
    rng = np.random.default_rng(29)
    d = 32
    tables = build_cdf(
        GaussianParams(rng.normal(0, 1, size=d), rng.uniform(0.2, 2, size=d)), step=0.5
    )
    detected = 0
    n = 500
    for _ in range(n):
        vals = rng.integers(-40, 41, size=d)
        bits = encode_frame(QuantizedLatent(vals, 0), tables)
        if len(bits.data) < 2:
            continue
        cut = Bitstream(bits.data[:-1], max(bits.bit_length - 8, 0))
        try:
            out = decode_frame(cut, tables, d)
            if not np.array_equal(out.indices, vals):
                detected += 1
        except DecodeFailure:
            detected += 1
    assert detected >= 0.99 * n


def test_empty_stream_fails():
    tables = table_for(0.0, 1.0)
    with pytest.raises(DecodeFailure):
        decode_frame(Bitstream(b"", 0), tables, 1)


def test_measure_rate():
    assert measure_rate(Bitstream(b"", 0)) == 0
    assert measure_rate(Bitstream(b"\xff\x00\xa0", 22)) == 22


def test_bitstream_invariant():
    with pytest.raises(ValueError):
        Bitstream(b"\x00", 9)


def test_decoder_never_reads_buffer_past_bit_length():
    # a stream truncated to its exact bit count decodes identically to the
    # same bytes with trailing garbage appended beyond bit_length
    rng = np.random.default_rng(31)
    d = 16
    tables = build_cdf(
        GaussianParams(rng.normal(size=d), rng.uniform(0.3, 1, size=d)), step=0.5
    )
    vals = rng.integers(-20, 21, size=d)
    bits = encode_frame(QuantizedLatent(vals, 0), tables)
    noisy = Bitstream(bits.data + b"\xde\xad", bits.bit_length)
    out = decode_frame(noisy, tables, d)
    assert np.array_equal(out.indices, vals)

    # a frame shorter than the 64-bit code register, so the decoder's first
    # read spans the final byte's pad bits and the bytes after it: set them all
    tables = table_for(5.75, 2.0)
    bits = encode_frame(QuantizedLatent(np.array([7]), 0), tables)
    assert bits.bit_length < 8
    noisy = Bitstream(
        bytes([bits.data[0] | (0xFF >> bits.bit_length)]) + b"\xff" * 8, bits.bit_length
    )
    assert decode_frame(noisy, tables, 1).indices.tolist() == [7]


def _hand_tables():
    # fixed integer tables, bypassing the Gaussian discretization, so this
    # fixture is independent of any floating-point library
    half = 3
    counts = np.array([1, 2, 40, 65470, 10, 5, 6, 2], dtype=np.int64)  # 7 syms + escape
    assert counts.sum() == TOTAL
    cum = np.zeros((1, counts.size + 1), dtype=np.uint32)
    cum[0, 1:] = np.cumsum(counts)
    return CdfTable(cum, np.zeros(5, dtype=np.int32), half)


def test_golden_bitstream_fixture():
    # frozen bytes: the coder is pure integer arithmetic, so these must
    # reproduce exactly on any platform
    tables = _hand_tables()
    yq = QuantizedLatent(np.array([0, -3, 2, 9, -1]), 0)  # 9 escapes
    bits = encode_frame(yq, tables)
    assert bits.data.hex() == "002bffb6020602ede9ec"
    assert bits.bit_length == 78
    back = decode_frame(bits, tables, 5)
    assert np.array_equal(back.indices, yq.indices)


def test_golden_bitstream_through_gaussian_tables():
    mu = np.array([0.25, -0.5, 0.0, 1.0, 0.25, -0.5])
    sigma = np.array([0.75, 0.75, 1.5, 0.75, 0.75, 2.0])
    tables = build_cdf(GaussianParams(mu, sigma), step=0.5, half_width=15)
    yq = QuantizedLatent(np.array([0, 1, -2, 7, 0, -30]), 0)
    bits = encode_frame(yq, tables)
    back = decode_frame(bits, tables, 6)
    assert np.array_equal(back.indices, yq.indices)
    assert bits.data.hex() == "781b204552aebaf0"
    assert bits.bit_length == 60


def test_wire_format_digest():
    # frozen SHA-256 of the concatenated payloads of 400 seeded frames, 532
    # of their symbols escaped; coding them takes underflow runs of up to 14
    # bits, which the two fixtures above never reach
    rng = np.random.default_rng(2027)
    d = 32
    digest = hashlib.sha256()
    for _ in range(8):
        mu = rng.normal(0, 3, size=d)
        sigma = rng.uniform(0.02, 4.0, size=d)
        tables = build_cdf(GaussianParams(mu, sigma), step=0.5)
        for _ in range(50):
            vals = np.rint(rng.normal(mu, 3 * sigma) / 0.5).astype(np.int64)
            escaped = rng.integers(0, d, size=rng.integers(0, 4))
            vals[escaped] = rng.integers(-2000, 2001, size=escaped.size)
            bits = encode_frame(QuantizedLatent(vals, 0), tables)
            assert np.array_equal(decode_frame(bits, tables, d).indices, vals)
            digest.update(bits.data)
    assert digest.hexdigest() == (
        "9fca1af02d638274ad861c5a81f70a01951543206e729ab9c3f08a33edbc2a47"
    )


@st.composite
def coded_frames(draw):
    """Random Gaussian tables, step and half width, and symbols of which
    some fall outside the alphabet and escape."""
    d = draw(st.integers(1, 24))
    half = draw(st.integers(1, 300))
    floats = st.floats(-4 * half, 4 * half, allow_nan=False)
    mu = np.array(draw(st.lists(floats, min_size=d, max_size=d)))
    sigma = np.array(draw(st.lists(st.floats(1e-3, 2.0 * half), min_size=d, max_size=d)))
    step = draw(st.floats(1e-3, 4.0))
    inside = st.integers(-half, half)
    escaped = st.integers(-32768, 32767).filter(lambda v: abs(v) > half)
    vals = draw(st.lists(st.one_of(inside, escaped), min_size=d, max_size=d))
    return build_cdf(GaussianParams(mu * step, sigma * step), step, half), np.array(vals)


@settings(max_examples=200)
@given(frame=coded_frames(), frame_index=st.integers(0, 1 << 20))
def test_random_tables_round_trip(frame, frame_index):
    tables, vals = frame
    bits = encode_frame(QuantizedLatent(vals, 0), tables)
    back = decode_frame(bits, tables, vals.size, frame_index)
    assert np.array_equal(back.indices, vals)
    assert back.frame_index == frame_index


@st.composite
def integer_tables(draw):
    """Integer tables drawn directly: shared rows, flat rows whose counts
    are all equal, and peaked rows where one symbol holds almost all."""
    half = draw(st.integers(1, 40))
    n_slots = 2 * half + 2  # symbols plus the escape slot
    n_rows = draw(st.integers(1, 4))
    cum = np.empty((n_rows, n_slots + 1), dtype=np.uint32)
    for r in range(n_rows):
        kind = draw(st.sampled_from(["flat", "peaked", "random"]))
        if kind == "flat":
            counts = np.full(n_slots, TOTAL // n_slots)
            counts[: TOTAL % n_slots] += 1
        else:
            counts = np.ones(n_slots, dtype=np.int64)
            if kind == "peaked":
                counts[draw(st.integers(0, n_slots - 2))] += TOTAL - n_slots
            else:
                weights = np.array(
                    draw(st.lists(st.integers(0, 1000), min_size=n_slots, max_size=n_slots))
                )
                spare = TOTAL - n_slots
                counts += spare * weights // max(weights.sum(), 1)
                counts[np.argmax(weights)] += TOTAL - counts.sum()
        cum[r, 0] = 0
        cum[r, 1:] = np.cumsum(counts)
    d = draw(st.integers(1, 24))
    rows = np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=d, max_size=d)))
    return CdfTable(cum, rows.astype(np.int32), half)


@st.composite
def codec_tables(draw):
    """Gaussian tables at the quantizer steps of rate indices 0, 32 and 63,
    with means and spreads of a few steps, in bands of equal dimensions."""
    step = RateControl(draw(st.sampled_from([0, 32, 63]))).step
    bands = draw(st.integers(1, 6))
    units = st.floats(-20.0, 20.0, allow_nan=False)
    mu = np.array(draw(st.lists(units, min_size=bands, max_size=bands)))
    sigma = np.array(draw(st.lists(st.floats(0.05, 20.0), min_size=bands, max_size=bands)))
    width = draw(st.integers(1, 20))
    return build_cdf(
        GaussianParams(np.repeat(mu * step, width), np.repeat(sigma * step, width)), step
    )


@settings(max_examples=300)
@given(
    tables=st.one_of(codec_tables(), integer_tables(), coded_frames().map(lambda f: f[0])),
    step=st.floats(1e-3, 4.0),
)
def test_packed_tables_unpack_exactly(tables, step):
    # the windows restored from a table's packed bytes are the windows the
    # table converts to, for the codec's tables, integer tables whose
    # dimensions share rows out of order, and Gaussian tables of half width
    # 1..300 with a row per dimension
    assert _restore(_pack(tables, step)) == (tables.windows, step)


@st.composite
def window_tables(draw):
    """Valid integer tables of any half width whose extra counts fall in a
    window that may start at symbol 0 or end at the escape slot, which
    then holds more than one count."""
    half = draw(st.integers(1, HALF_WIDTH))
    n_slots = 2 * half + 2  # symbols plus the escape slot
    n_rows = draw(st.integers(1, 3))
    cum = np.zeros((n_rows, n_slots + 1), dtype=np.uint32)
    for r in range(n_rows):
        first = draw(st.one_of(st.just(0), st.integers(0, n_slots - 1)))
        last = draw(st.one_of(st.just(n_slots - 1), st.integers(first, n_slots - 1)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        counts = np.ones(n_slots, dtype=np.int64)
        # both ends of the window hold more than one count
        counts[[first, last]] += 1
        weights = rng.integers(0, 1000, last + 1 - first)
        spare = TOTAL - counts.sum()
        counts[first : last + 1] += spare * weights // max(weights.sum(), 1)
        counts[rng.integers(first, last + 1)] += TOTAL - counts.sum()
        cum[r, 1:] = np.cumsum(counts)
    d = draw(st.integers(1, 8))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=d, max_size=d))
    return CdfTable(cum, np.array(rows, dtype=np.int32), half)


@settings(max_examples=200)
@given(tables=window_tables(), data=st.data())
def test_windows_code_as_the_dense_rows(tables, data):
    # every slot of every dimension has the same [c, c + f) in the windows
    # as in the dense row; coding through the windows gives the reference
    # coder's bytes, and decoding them its symbols or its DecodeFailure
    windows = tables.windows
    k = TOTAL + 1 - tables.cum.shape[1]
    for (a, win), r in zip(windows.dims, tables.rows.tolist()):
        row = tables.cum[r].tolist()
        for s in range(len(row) - 1):
            j = s - a
            if j < 0:
                slot = (s, 1)
            elif j < len(win) - 1:
                slot = (win[j], win[j + 1] - win[j])
            else:
                slot = (s + k, 1)
            assert slot == (row[s], row[s + 1] - row[s])
    d = tables.rows.size
    half = tables.half_width
    inside = st.integers(-half, half)
    escaped = st.integers(-32768, 32767).filter(lambda v: abs(v) > half)
    vals = data.draw(st.lists(st.one_of(inside, escaped), min_size=d, max_size=d))
    bits = encode_frame(QuantizedLatent(np.array(vals), 0), windows)
    assert (bits.data, bits.bit_length) == _reference_encode(vals, tables)
    flip = data.draw(st.integers(0, bits.bit_length - 1))
    flipped = bytearray(bits.data)
    flipped[flip >> 3] ^= 0x80 >> (flip & 7)
    for stream in (bits, Bitstream(bytes(flipped), bits.bit_length)):
        try:
            want = _reference_decode(stream, tables, d)
        except DecodeFailure:
            with pytest.raises(DecodeFailure):
                decode_frame(stream, windows, d)
        else:
            assert decode_frame(stream, windows, d).indices.tolist() == want


@settings(max_examples=300)
@given(
    tables=st.one_of(integer_tables(), coded_frames().map(lambda frame: frame[0])),
    data=st.data(),
)
def test_decoder_matches_reference(tables, data):
    # every input decodes to the reference's symbols, or both raise
    # DecodeFailure: the frame intact, cut short, with one bit flipped, and
    # with the bytes after a cut left in the buffer
    d = tables.rows.size
    half = tables.half_width
    inside = st.integers(-half, half)
    escaped = st.integers(-32768, 32767).filter(lambda v: abs(v) > half)
    vals = np.array(data.draw(st.lists(st.one_of(inside, escaped), min_size=d, max_size=d)))
    bits = encode_frame(QuantizedLatent(vals, 0), tables)
    n = bits.bit_length
    cut = data.draw(st.integers(0, n))
    flip = data.draw(st.integers(0, n - 1))
    flipped = bytearray(bits.data)
    flipped[flip >> 3] ^= 0x80 >> (flip & 7)
    variants = [
        bits,
        Bitstream(bits.data[: (cut + 7) // 8], cut),
        Bitstream(bits.data, cut),
        Bitstream(bytes(flipped), n),
    ]
    for stream in variants:
        try:
            want = _reference_decode(stream, tables, d)
        except DecodeFailure:
            with pytest.raises(DecodeFailure):
                decode_frame(stream, tables, d)
        else:
            assert decode_frame(stream, tables, d).indices.tolist() == want
    assert _reference_decode(bits, tables, d) == vals.tolist()


def test_decoding_keeps_no_copy_of_the_table(speech_model):
    # the decoder reads the memo's windows as they are: decoding leaves
    # behind no other form of the table, which would take kilobytes
    si = SideInfo((3, 9), 0)
    model = dataclasses.replace(speech_model)  # with its own, empty memo
    tables, step = frame_tables(model, si, 32)
    assert tables.n_rows == 16 and len(tables.dims) == speech_model.d_y
    rng = np.random.default_rng(41)
    vals = np.rint(rng.normal(0, 0.02, size=speech_model.d_y) / step).astype(np.int64)
    bits = encode_frame(QuantizedLatent(vals, 0), tables)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = decode_frame(bits, frame_tables(model, si, 32)[0], speech_model.d_y)
        assert np.array_equal(out.indices, vals)
        del out
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1024


def test_a_live_table_keeps_its_windows_and_packed_bytes(speech_model):
    # what a model's first table keeps alive at rate index 32: 16 windows
    # of 17 to 34 counts, as Python ints, shared by 320 dimensions, and the
    # table's packed bytes, about 17.6 KB in all; 513-wide uint32 rows
    # alone would take 32.8 KB
    model = dataclasses.replace(speech_model)  # with its own, empty memo
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables, _ = frame_tables(model, SideInfo((3, 9), 0), 32)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tables.n_rows == 16
    assert kept < 24 * 1024


def _band_table(step, rows=16, band=20):
    """A table of the codec's shape: `rows` bands of `band` equal dims."""
    rng = np.random.default_rng(rows)
    mu = np.repeat(rng.normal(0, 2 * step, rows), band)
    sigma = np.repeat(rng.uniform(2 * step, 6 * step, rows), band)
    return build_cdf(GaussianParams(mu, sigma), step)


def _fill(memo, table, n):
    """Keep `table` under n side-info-like keys, oldest first, as
    `frame_tables` keeps each table it builds: packed and live."""
    keys = [((300 + k % 700, 300 + k // 700), 32) for k in range(n)]
    for key in keys:
        memo.keep_packed(key, _pack(table, 0.5))
        memo.put(key, (table.windows, 0.5))
    return keys


def test_packed_memo_keeps_the_newest_evicted_tables_within_its_bytes():
    # every table is kept packed as well as live; the packed FIFO evicts the
    # oldest first and keeps at most PACKED_BYTES, charged per entry and for
    # its dict, so it holds the newest tables the live FIFO has evicted
    assert PACKED_BYTES == 8 << 20
    table = _band_table(0.5)
    memo = TableCache()
    keys = _fill(memo, table, 10_000)
    live = MEMO_ROWS // 16
    assert list(memo) == keys[-live:]
    packed = list(memo.packed)
    assert 3_000 < len(packed) < len(keys)
    assert packed == keys[-len(packed) :]
    held = memo.packed_bytes / len(packed)
    charged = memo.packed_bytes + sys.getsizeof(memo.packed)
    assert PACKED_BYTES - held < charged <= PACKED_BYTES
    # the oldest packed table comes back as its windows and joins the live
    # memo; a table evicted from both is gone
    assert memo.get(packed[0]) is None
    back, step = memo.restore(packed[0])
    assert back == table.windows and step == 0.5
    assert memo.get(packed[0]) == (back, step)
    assert memo.restore(keys[0]) is None


@pytest.mark.parametrize("rows", [16, 1])
def test_packed_memo_keeps_no_more_than_it_charges(speech_model, monkeypatch, rows):
    # what the packed FIFO keeps alive once full, counted by tracemalloc:
    # 16-row tables of the calibrated model at rate index 32, and 1-row
    # tables, for which keys and dict slots outweigh the counts; a 1 MiB
    # bound fills in fewer puts than the real one
    budget = 1 << 20
    monkeypatch.setattr(rangecoder, "PACKED_BYTES", budget)
    if rows == 16:
        si = SideInfo((3, 9), 0)
        step = RateControl(32).step
        z_hat = rvq_decode(si, speech_model.codebooks)
        table = build_cdf(hyper_synthesis(z_hat, speech_model), step)
    else:
        table = _band_table(0.5, rows=1)
    assert table.cum.shape[0] == rows and table.windows.n_rows == rows
    n = MEMO_ROWS // rows + budget // 256  # more than either kind fills
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        memo = TableCache()
        _fill(memo, table, n)
        dict.clear(memo)  # drop the live entries: only the packed ones stay
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(memo.packed) < n
    assert 0.8 * budget < kept <= budget
