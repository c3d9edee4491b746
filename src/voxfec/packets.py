"""Packet wire format, in-band redundancy schedule, and bitrate accounting.

One frame travels per packet: the entropy payload plus the frame's own
side-info block and backup copies of earlier frames' side info at the
configured offsets. Side-info blocks are fixed-length (10 bits per stage,
padded to a byte boundary) regardless of content, so the parser never needs
in-band delimiters.

Packet layout, little-endian: magic "GLPK", version u8, frame_index u32,
q_lambda u8, flags u8, block count u8, per block (offset u8 + indices
packed 10 bits MSB-first), payload byte length u16, payload, CRC32. The
flags byte carries the payload bit-length remainder (bits 0-2) and the
side-info stage count (bits 3-6).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Mapping, Sequence

from .hyperprior import SideInfo
from .rangecoder import Bitstream

PACKET_MAGIC = b"GLPK"
PACKET_VERSION = 1
CONTAINER_MAGIC = b"GLSC"
CONTAINER_VERSION = 1
INDEX_BITS = 10
FRAME_RATE = 50  # packets per second for 20 ms frames


@dataclass(frozen=True)
class FecConfig:
    """Redundancy schedule: stages per side-info copy and backup offsets."""

    q: int
    offsets: tuple[int, ...] = (1, 13)
    frame_rate: int = FRAME_RATE

    def __post_init__(self):
        offsets = tuple(int(k) for k in self.offsets)
        object.__setattr__(self, "offsets", offsets)
        if not 0 <= self.q <= 8:
            raise ValueError(f"stage count {self.q} out of range 0..8")
        if len(offsets) > 4:
            raise ValueError(f"too many backup offsets ({len(offsets)}), maximum 4")
        if any(k <= 0 for k in offsets):
            raise ValueError("offsets must be positive")
        if any(k > 255 for k in offsets):
            raise ValueError("offsets must fit in one byte")
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("offsets must be strictly increasing")
        if not 1 <= self.frame_rate <= 0xFFFF:
            raise ValueError(f"frame rate {self.frame_rate} out of range 1..65535")

    @property
    def n_backups(self) -> int:
        return len(self.offsets)

    @property
    def max_offset(self) -> int:
        return max(self.offsets) if self.offsets else 0


@dataclass(frozen=True)
class Packet:
    """Wire unit: one frame's payload plus current and backup side info."""

    frame_index: int
    q_lambda: int
    payload: Bitstream
    z_blocks: tuple[tuple[int, SideInfo], ...] = ()

    def __post_init__(self):
        blocks = tuple(self.z_blocks)
        object.__setattr__(self, "z_blocks", blocks)
        if blocks and blocks[0][0] != 0:
            raise ValueError("offset-0 side-info block must come first")
        if len({off for off, _ in blocks}) != len(blocks):
            raise ValueError("duplicate side-info offsets")


@dataclass(frozen=True)
class BitrateReport:
    """Measured rates over a packet sequence, in kbps."""

    source_kbps: float
    sideinfo_kbps: float
    redundant_kbps: float
    total_kbps: float


def build_packet(
    t: int,
    payload: Bitstream,
    z_cache: Mapping[int, SideInfo],
    cfg: FecConfig,
    q_lambda: int = 0,
) -> Packet:
    """Assemble the packet for frame t from the encoder's side-info cache.

    Backup blocks exist only for offsets k with t - k >= 0, so early packets
    carry fewer copies.
    """
    if cfg.q == 0:
        return Packet(t, q_lambda, payload, ())
    blocks = []
    for off in (0, *cfg.offsets):
        src = t - off
        if src < 0:
            continue
        if src not in z_cache:
            raise RuntimeError(f"internal error: no cached side info for frame {src}")
        si = z_cache[src]
        if si.stages != cfg.q:
            raise ValueError(f"side info has {si.stages} stages, config wants {cfg.q}")
        blocks.append((off, si))
    return Packet(t, q_lambda, payload, tuple(blocks))


def _pack_indices(indices: Sequence[int]) -> bytes:
    acc = 0
    for idx in indices:
        acc = (acc << INDEX_BITS) | (idx & ((1 << INDEX_BITS) - 1))
    nbytes = _block_bytes(len(indices))
    return (acc << (8 * nbytes - INDEX_BITS * len(indices))).to_bytes(nbytes, "big")


def _unpack_indices(data: bytes, q: int) -> tuple[int, ...]:
    acc = int.from_bytes(data, "big")
    pad = 8 * len(data) - INDEX_BITS * q
    acc >>= pad
    out = []
    for s in range(q):
        shift = INDEX_BITS * (q - 1 - s)
        out.append((acc >> shift) & ((1 << INDEX_BITS) - 1))
    return tuple(out)


def _block_bytes(q: int) -> int:
    return (INDEX_BITS * q + 7) // 8


def serialize(p: Packet) -> bytes:
    """Serialize one packet; parse(serialize(p)) == p."""
    payload_bytes = (p.payload.bit_length + 7) // 8
    if len(p.payload.data) != payload_bytes:
        raise ValueError("payload buffer not trimmed to its bit length")
    if payload_bytes > 65535:
        raise ValueError(f"payload too long ({payload_bytes} bytes)")
    q = p.z_blocks[0][1].stages if p.z_blocks else 0
    flags = (p.payload.bit_length % 8) | (q << 3)
    head = PACKET_MAGIC + struct.pack(
        "<BIBBB", PACKET_VERSION, p.frame_index, p.q_lambda, flags, len(p.z_blocks)
    )
    body = bytearray(head)
    for off, si in p.z_blocks:
        if si.stages != q:
            raise ValueError("side-info blocks must all have the same stage count")
        body.append(off)
        body += _pack_indices(si.indices)
    body += struct.pack("<H", payload_bytes)
    body += p.payload.data
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    return bytes(body)


def parse(data: bytes) -> Packet:
    """Parse one packet, rejecting bad magic, bad CRC, and truncation."""
    if len(data) < 12 + 2 + 4:
        raise ValueError("short packet")
    if data[:4] != PACKET_MAGIC:
        raise ValueError("corrupt packet (bad magic)")
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != struct.unpack("<I", data[-4:])[0]:
        raise ValueError("corrupt packet (checksum mismatch)")
    version, frame_index, q_lambda, flags, n_blocks = struct.unpack_from("<BIBBB", data, 4)
    if version != PACKET_VERSION:
        raise ValueError(f"unsupported packet version {version}")
    q = (flags >> 3) & 0xF
    bit_rem = flags & 0x7
    off = 12
    blk = _block_bytes(q)
    blocks = []
    for _ in range(n_blocks):
        if off + 1 + blk > len(data) - 6:
            raise ValueError("short packet")
        block_off = data[off]
        indices = _unpack_indices(data[off + 1 : off + 1 + blk], q)
        blocks.append((block_off, SideInfo(indices, frame_index - block_off)))
        off += 1 + blk
    (payload_bytes,) = struct.unpack_from("<H", data, off)
    off += 2
    if off + payload_bytes + 4 != len(data):
        raise ValueError("short packet")
    payload_data = data[off : off + payload_bytes]
    bit_length = 8 * payload_bytes - ((8 - bit_rem) % 8)
    return Packet(frame_index, q_lambda, Bitstream(payload_data, bit_length), tuple(blocks))


def redundancy_bitrate(cfg: FecConfig) -> float:
    """Steady-state backup-copy bitrate in kbps: 0.5 * Q * N."""
    return 0.5 * cfg.q * cfg.n_backups


def prob_all_copies_lost(p: float, n: int) -> float:
    """Probability that all n backup copies are lost on an i.i.d. channel."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"loss probability {p} out of range")
    if n < 0:
        raise ValueError("negative copy count")
    return float(p) ** n


def account_stream(packets: Sequence[Packet], frame_rate: int = FRAME_RATE) -> BitrateReport:
    """Measure source / side-info / redundant bitrates by exact bit counting.

    Side-info bits are the 10-bit indices actually embedded (padding and
    headers excluded); redundant bits are the backup copies only.
    """
    n = len(packets)
    duration = n / frame_rate
    if duration < 1.0:
        raise ValueError("need at least one second of packets to measure rates")
    src_bits = 0
    si_bits = 0
    red_bits = 0
    for p in packets:
        src_bits += p.payload.bit_length
        for off, si in p.z_blocks:
            bits = INDEX_BITS * si.stages
            si_bits += bits
            if off != 0:
                red_bits += bits
    return BitrateReport(
        source_kbps=src_bits / duration / 1000.0,
        sideinfo_kbps=si_bits / duration / 1000.0,
        redundant_kbps=red_bits / duration / 1000.0,
        total_kbps=(src_bits + si_bits) / duration / 1000.0,
    )


@dataclass(frozen=True)
class StreamHeader:
    """Container header: everything the receiver needs besides the model."""

    model_crc: int
    q_lambda: int
    fec: FecConfig
    sample_count: int
    frame_count: int


def write_container(path, header: StreamHeader, packets: Sequence[Packet]) -> None:
    """Write a stream container: header plus length-prefixed packets."""
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(
            struct.pack(
                "<BIBBB",
                CONTAINER_VERSION,
                header.model_crc,
                header.q_lambda,
                header.fec.q,
                header.fec.n_backups,
            )
        )
        fh.write(bytes(header.fec.offsets))
        fh.write(struct.pack("<HQI", header.fec.frame_rate, header.sample_count, header.frame_count))
        for p in packets:
            blob = serialize(p)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)


def read_container(path) -> tuple[StreamHeader, list[Packet]]:
    """Read a stream container back into header and packets. A file cut
    short, packet i carrying a frame index other than i, or a packet whose
    side-info blocks break the header's schedule, is rejected."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CONTAINER_MAGIC:
        raise ValueError("not a stream container")
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise ValueError("truncated container")
        off += n
        return blob[off - n : off]

    version, model_crc, q_lambda, q, n_off = struct.unpack("<BIBBB", take(8))
    if version != CONTAINER_VERSION:
        raise ValueError(f"unsupported container version {version}")
    offsets = tuple(take(n_off))
    frame_rate, sample_count, frame_count = struct.unpack("<HQI", take(14))
    fec = FecConfig(q, offsets, frame_rate)
    packets = []
    while off < len(blob):
        (plen,) = struct.unpack("<I", take(4))
        packet = parse(take(plen))
        if packet.frame_index != len(packets):
            raise ValueError(f"packet {len(packets)} carries frame index {packet.frame_index}")
        t = packet.frame_index
        for _, si in packet.z_blocks:
            if si.stages != q:
                raise ValueError(
                    f"packet {t} carries {si.stages}-stage side info, container header says {q}"
                )
        # build_packet's schedule: the frame's own block, then every backup k <= t
        carried = tuple(k for k, _ in packet.z_blocks)
        if q and carried != (0, *(k for k in offsets if k <= t)):
            raise ValueError(
                f"packet {t} carries side info at offsets {carried}, "
                f"container header offsets {offsets}"
            )
        packets.append(packet)
    if len(packets) != frame_count:
        raise ValueError(
            f"container frame count {frame_count} does not match {len(packets)} packets"
        )
    header = StreamHeader(model_crc, q_lambda, fec, sample_count, frame_count)
    return header, packets
