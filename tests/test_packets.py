import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxfec.hyperprior import SideInfo
from voxfec.packets import (
    FecConfig,
    Packet,
    account_stream,
    build_packet,
    parse,
    prob_all_copies_lost,
    read_container,
    redundancy_bitrate,
    serialize,
    write_container,
    StreamHeader,
)
from voxfec.rangecoder import Bitstream


def si_for(t, q=2, seed=0):
    rng = np.random.default_rng(seed + t)
    return SideInfo(tuple(int(x) for x in rng.integers(0, 1024, size=q)), t)


def payload_of(nbits, fill=0x5C):
    nbytes = (nbits + 7) // 8
    data = bytes([fill] * nbytes)
    if nbits % 8:
        data = data[:-1] + bytes([data[-1] & (0xFF << (8 - nbits % 8)) & 0xFF])
    return Bitstream(data, nbits)


def build_stream(n, cfg, q_lambda=7):
    cache = {}
    packets = []
    for t in range(n):
        if cfg.q > 0:
            cache[t] = si_for(t, cfg.q)
        packets.append(build_packet(t, payload_of(37 + (t % 5)), cache, cfg, q_lambda))
    return packets


def test_packet_wire_format_digest():
    # frozen SHA-256 of serialize over seeded packets: stage counts 0-8,
    # start-up packets with fewer backups, every payload bit remainder. The
    # round trips cannot see a change that moves packing and unpacking alike
    rng = np.random.default_rng(2028)
    digest = hashlib.sha256()
    for q in range(9):
        cfg = FecConfig(q, (1, 13))
        cache = {}
        for t in range(16):
            if q > 0:
                cache[t] = si_for(t, q, seed=100 * q)
            nbits = 8 * int(rng.integers(1, 40)) + t % 8
            data = bytearray(rng.bytes((nbits + 7) // 8))
            if nbits % 8:
                data[-1] &= (0xFF << (8 - nbits % 8)) & 0xFF
            payload = Bitstream(bytes(data), nbits)
            digest.update(serialize(build_packet(t, payload, cache, cfg, 4 * t)))
    assert digest.hexdigest() == (
        "447bb1e9487e3f768a88b19a46d2733465a302186e9a0e8bcaf274b4fafd67a4"
    )


def test_startup_truncation():
    cfg = FecConfig(2, (1, 13))
    packets = build_stream(20, cfg)
    assert [off for off, _ in packets[0].z_blocks] == [0]
    assert [off for off, _ in packets[5].z_blocks] == [0, 1]
    assert [off for off, _ in packets[13].z_blocks] == [0, 1, 13]
    assert [off for off, _ in packets[19].z_blocks] == [0, 1, 13]


def test_backup_blocks_reference_earlier_frames():
    cfg = FecConfig(1, (1, 13))
    packets = build_stream(20, cfg)
    p = packets[15]
    blocks = dict(p.z_blocks)
    assert blocks[0].frame_index == 15
    assert blocks[1].frame_index == 14
    assert blocks[13].frame_index == 2
    assert blocks[1] == packets[14].z_blocks[0][1]


def test_missing_cache_entry_is_internal_error():
    cfg = FecConfig(1, (1,))
    with pytest.raises(RuntimeError, match="no cached side info"):
        build_packet(5, payload_of(8), {5: si_for(5, 1)}, cfg)


def test_q_zero_packets_have_no_blocks():
    cfg = FecConfig(0, ())
    packets = build_stream(10, cfg)
    assert all(p.z_blocks == () for p in packets)


def test_serialize_parse_round_trip_randomized():
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        q = int(rng.integers(0, 9))
        n_off = int(rng.integers(0, 4)) if q else 0
        t = int(rng.integers(n_off and 20 or 0, 1_000_000))
        offs = (0, 1, 7, 13)[: n_off + 1] if q else ()
        blocks = tuple(
            (off, si_for(t - off, q, seed=int(rng.integers(0, 1 << 16))))
            for off in offs
        )
        nbits = int(rng.integers(0, 200))
        data = rng.integers(0, 256, size=(nbits + 7) // 8, dtype=np.uint8).tobytes()
        if nbits % 8:
            data = data[:-1] + bytes([data[-1] & (0xFF << (8 - nbits % 8)) & 0xFF])
        p = Packet(t, int(rng.integers(0, 64)), Bitstream(data, nbits), blocks)
        assert parse(serialize(p)) == p


def test_parse_rejects_flipped_byte():
    p = Packet(3, 1, payload_of(20), ((0, si_for(3)),))
    blob = bytearray(serialize(p))
    blob[6] ^= 0x40
    with pytest.raises(ValueError, match="corrupt packet"):
        parse(bytes(blob))


def test_parse_rejects_bad_magic():
    p = Packet(3, 1, payload_of(20), ())
    blob = bytearray(serialize(p))
    blob[0] ^= 0xFF
    with pytest.raises(ValueError, match="corrupt packet|short packet"):
        parse(bytes(blob))


def test_parse_rejects_truncation():
    with pytest.raises(ValueError, match="short packet"):
        parse(b"")
    p = Packet(3, 1, payload_of(20), ((0, si_for(3)),))
    blob = serialize(p)
    with pytest.raises(ValueError, match="short packet|corrupt packet"):
        parse(blob[:-3])


def test_z_blocks_fixed_length():
    # every copy occupies the same wire size regardless of index content
    for q in (1, 2, 4, 6, 8):
        cfg = FecConfig(q, (1, 13))
        packets = build_stream(30, cfg)
        steady = [p for p in packets if len(p.z_blocks) == 3]
        sizes = set()
        for p in steady:
            base = len(serialize(Packet(p.frame_index, p.q_lambda, p.payload, ())))
            sizes.add((len(serialize(p)) - base) // len(p.z_blocks))
        assert len(sizes) == 1
        assert sizes.pop() == 1 + (10 * q + 7) // 8


def test_redundancy_bitrate_formula():
    assert redundancy_bitrate(FecConfig(2, (1, 13))) == 2.0
    assert redundancy_bitrate(FecConfig(1, (1,))) == 0.5
    assert redundancy_bitrate(FecConfig(6, (1,))) == 3.0
    assert redundancy_bitrate(FecConfig(0, ())) == 0.0


def test_prob_all_copies_lost():
    assert prob_all_copies_lost(0.3, 2) == pytest.approx(0.09)
    assert prob_all_copies_lost(0.5, 0) == 1.0
    assert prob_all_copies_lost(0.0, 3) == 0.0
    with pytest.raises(ValueError):
        prob_all_copies_lost(1.5, 1)


def test_account_stream_steady_state_exact():
    # steady slice sized a whole number of seconds so the kbps arithmetic
    # is exact and the comparison can be equality, not approx
    for q, n in [(1, 1), (1, 2), (2, 2), (4, 2), (6, 1)]:
        offsets = (1, 13)[:n]
        cfg = FecConfig(q, offsets)
        packets = build_stream(300 + cfg.max_offset, cfg)
        steady = packets[cfg.max_offset :]
        report = account_stream(steady, cfg.frame_rate)
        assert report.redundant_kbps == redundancy_bitrate(cfg)
        assert report.sideinfo_kbps == 0.5 * q * (n + 1)


def test_account_stream_startup_undercounts():
    cfg = FecConfig(2, (1, 13))
    packets = build_stream(100, cfg)
    full = account_stream(packets)
    assert full.redundant_kbps < redundancy_bitrate(cfg)
    assert full.source_kbps > 0


def test_account_stream_q0():
    cfg = FecConfig(0, ())
    packets = build_stream(60, cfg)
    report = account_stream(packets)
    assert report.sideinfo_kbps == 0.0
    assert report.redundant_kbps == 0.0


def test_account_stream_needs_one_second():
    cfg = FecConfig(1, (1,))
    with pytest.raises(ValueError, match="one second"):
        account_stream(build_stream(10, cfg))


def test_fec_config_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        FecConfig(1, (13, 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        FecConfig(1, (5, 5))
    with pytest.raises(ValueError, match="positive"):
        FecConfig(1, (0, 3))
    with pytest.raises(ValueError, match="out of range"):
        FecConfig(9, (1,))
    with pytest.raises(ValueError, match="maximum 4"):
        FecConfig(1, (1, 2, 3, 4, 5))


def test_payload_length_limit():
    big = Bitstream(bytes(70000), 8 * 70000)
    with pytest.raises(ValueError, match="payload too long"):
        serialize(Packet(0, 0, big, ()))


def test_container_round_trip(tmp_path):
    cfg = FecConfig(2, (1, 13))
    packets = build_stream(40, cfg)
    header = StreamHeader(0xDEADBEEF, 12, cfg, 12800, 40)
    path = tmp_path / "s.vxs"
    write_container(path, header, packets)
    h2, p2 = read_container(path)
    assert h2 == header
    assert p2 == packets


def test_container_rejects_garbage(tmp_path):
    path = tmp_path / "bad.vxs"
    path.write_bytes(b"whatever this is")
    with pytest.raises(ValueError, match="not a stream container"):
        read_container(path)


def test_container_rejects_stage_count_other_than_header(tmp_path):
    packets = build_stream(20, FecConfig(2, (1, 13)))
    path = tmp_path / "s.vxs"
    for header_fec in (FecConfig(1, (1, 13)), FecConfig(3, (1, 13)), FecConfig(0, ())):
        write_container(path, StreamHeader(0, 7, header_fec, 6400, 20), packets)
        with pytest.raises(ValueError, match="2-stage side info"):
            read_container(path)
    # a q = 0 header matches packets without side info
    bare = build_stream(20, FecConfig(0, ()))
    header = StreamHeader(0, 7, FecConfig(0, ()), 6400, 20)
    write_container(path, header, bare)
    assert read_container(path) == (header, bare)


@pytest.mark.parametrize("offsets", [(1, 9), ()], ids=["1,9", "none"])
def test_container_rejects_offsets_other_than_header(tmp_path, offsets):
    # packets coded with backups at 1 and 13 under a header that names others
    packets = build_stream(20, FecConfig(2, (1, 13)))
    path = tmp_path / "s.vxs"
    write_container(path, StreamHeader(0, 7, FecConfig(2, offsets), 6400, 20), packets)
    with pytest.raises(ValueError, match=re.escape(f"container header offsets {offsets}")):
        read_container(path)


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """A 20-packet container's header bytes, its packets with their
    length-prefixed records, and a path to write edited copies to."""
    cfg = FecConfig(2, (1, 13))
    packets = build_stream(20, cfg)
    path = tmp_path_factory.mktemp("container") / "s.vxs"
    write_container(path, StreamHeader(0xDEADBEEF, 12, cfg, 6400, 20), packets)
    records = [struct.pack("<I", len(b)) + b for b in map(serialize, packets)]
    body = b"".join(records)
    blob = path.read_bytes()
    assert blob.endswith(body)
    return blob[: -len(body)], records, packets, path


def _read_bytes(path, blob):
    path.write_bytes(blob)
    return read_container(path)


def test_container_cut_at_any_length_is_rejected(container):
    head, records, _, path = container
    blob = head + b"".join(records)
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            _read_bytes(path, blob[:cut])


@settings(max_examples=300)
@given(data=st.data())
def test_container_byte_flip_loads_the_same_packets_or_is_rejected(container, data):
    # the header has no checksum of its own, so a flip in it may load as
    # another header value; a flip in a packet or its length never loads
    head, records, packets, path = container
    blob = bytearray(head + b"".join(records))
    at = data.draw(st.integers(0, len(blob) - 1))
    blob[at] ^= data.draw(st.integers(1, 255))
    try:
        _, got = _read_bytes(path, bytes(blob))
    except ValueError:
        return
    assert at < len(head) and got == packets


@st.composite
def reorders(draw, n):
    """Packet order 0..n-1 with two packets swapped, one written twice, or
    one dropped."""
    order = list(range(n))
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["swap", "duplicate", "drop"]))
    if kind == "swap":
        j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
        order[i], order[j] = order[j], order[i]
    elif kind == "duplicate":
        order.insert(draw(st.integers(0, n)), i)
    else:
        del order[i]
    return order


@settings(max_examples=200)
@given(order=reorders(20))
def test_container_with_packets_swapped_duplicated_or_dropped_is_rejected(container, order):
    head, records, _, path = container
    with pytest.raises(ValueError):
        _read_bytes(path, head + b"".join(records[k] for k in order))


@st.composite
def packets(draw):
    """Well-formed packets: any header values, 0..8 stages, an offset-0
    block first, up to four distinct backup offsets, any payload."""
    t = draw(st.integers(0, (1 << 32) - 1))
    q = draw(st.integers(0, 8))
    blocks = ()
    if draw(st.booleans()):
        offsets = draw(st.lists(st.integers(1, 255), unique=True, max_size=4))
        index = st.integers(0, 1023)
        blocks = tuple(
            (off, SideInfo(tuple(draw(st.lists(index, min_size=q, max_size=q))), t - off))
            for off in [0, *offsets]
        )
    nbits = draw(st.integers(0, 400))
    nbytes = (nbits + 7) // 8
    data = draw(st.binary(min_size=nbytes, max_size=nbytes))
    return Packet(t, draw(st.integers(0, 255)), Bitstream(data, nbits), blocks)


@settings(max_examples=300)
@given(p=packets())
def test_parse_inverts_serialize(p):
    assert parse(serialize(p)) == p


@settings(max_examples=300)
@given(p=packets(), data=st.data())
def test_parse_rejects_any_single_bit_flip(p, data):
    blob = bytearray(serialize(p))
    bit = data.draw(st.integers(0, 8 * len(blob) - 1))
    blob[bit // 8] ^= 0x80 >> (bit % 8)
    with pytest.raises(ValueError):
        parse(bytes(blob))
