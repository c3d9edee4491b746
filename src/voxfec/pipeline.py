"""End-to-end encode / simulate / decode glue shared by the CLI and tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LossTrace
from .frontend import PcmClip, frame_decode, frame_encode
from .hyperprior import CodecModel, hyper_analysis, rvq_encode
from .packets import (
    BitrateReport,
    FecConfig,
    Packet,
    StreamHeader,
    account_stream,
    build_packet,
)
from .rangecoder import encode_frame, frame_tables
from .receiver import DecodedFrame, LostPacket, Receiver, ReceiverConfig, ReceiverReport
from .transform import analysis, quantize, synthesis


@dataclass(frozen=True)
class EncodeResult:
    packets: list[Packet]
    header: StreamHeader
    y_ref: np.ndarray  # (frames, d_y) pre-quantization latent codes
    report: BitrateReport | None


@dataclass(frozen=True)
class SimResult:
    clip: PcmClip
    codes: np.ndarray  # (frames, d_y) emitted latent codes
    paths: list[str]
    report: ReceiverReport


def encode_stream(
    clip: PcmClip,
    model: CodecModel,
    q_lambda: int,
    fec: FecConfig,
) -> EncodeResult:
    """Run the sender: frame, transform, summarize, quantize, pack."""
    model.check_stages(fec.q)
    frames = frame_encode(clip, model.d_l)
    y_ref = np.empty((len(frames), model.d_y))
    z_cache = {}
    packets = []
    for f in frames:
        t = f.frame_index
        y = analysis(f)
        y_ref[t] = y.coeffs
        si = None
        if fec.q > 0:
            z = hyper_analysis(y.coeffs, model.d_z)
            si = rvq_encode(z, model.codebooks, fec.q, t)
            z_cache[t] = si
        tables, step = frame_tables(model, si, q_lambda)
        yq = quantize(y, step)
        payload = encode_frame(yq, tables)
        packets.append(build_packet(t, payload, z_cache, fec, q_lambda))
        # no later packet carries a backup of frame t - max_offset
        z_cache.pop(t - fec.max_offset, None)
    report = account_stream(packets, fec.frame_rate) if len(packets) >= fec.frame_rate else None
    header = StreamHeader(
        model_crc=model.content_crc,
        q_lambda=q_lambda,
        fec=fec,
        sample_count=len(clip),
        frame_count=len(packets),
    )
    return EncodeResult(packets, header, y_ref, report)


def run_receiver(
    packets: list[Packet],
    trace: LossTrace | None,
    model: CodecModel,
    config: ReceiverConfig,
) -> tuple[list[DecodedFrame], ReceiverReport]:
    """Feed packets (or their loss markers) through a fresh receiver."""
    if trace is not None and len(trace) < len(packets):
        raise ValueError(
            f"trace has {len(trace)} entries for {len(packets)} packets"
        )
    rx = Receiver(model, config)
    lost = trace.flags.tolist() if trace is not None else [False] * len(packets)
    decoded: list[DecodedFrame] = []
    for t, pkt in enumerate(packets):
        decoded.extend(rx.ingest(LostPacket(t) if lost[t] else pkt))
    final, report = rx.finalize()
    decoded.extend(final)
    return decoded, report


def simulate_stream(
    packets: list[Packet],
    trace: LossTrace | None,
    model: CodecModel,
    config: ReceiverConfig,
    sample_count: int,
) -> SimResult:
    """Receiver run plus waveform reconstruction."""
    decoded, report = run_receiver(packets, trace, model, config)
    codes = np.stack([d.code.coeffs for d in decoded]) if decoded else np.empty((0, model.d_y))
    paths = [d.path for d in decoded]
    frames = [synthesis(d.code) for d in decoded]
    clip = frame_decode(frames, sample_count)
    return SimResult(clip, codes, paths, report)


def decode_stream(
    packets: list[Packet], model: CodecModel, config: ReceiverConfig, sample_count: int
) -> SimResult:
    """Loss-free decode of a container."""
    return simulate_stream(packets, None, model, config, sample_count)
