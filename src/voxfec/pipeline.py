"""End-to-end encode / simulate / decode glue shared by the CLI and tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LossTrace
from .frontend import PcmClip, frame_rows, pcm_from_rows
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
from .receiver import (
    DecodedFrame,
    LostPacket,
    Receiver,
    ReceiverConfig,
    ReceiverReport,
)
from .transform import (
    QuantizedLatent,
    RateControl,
    analysis_rows,
    quantize_indices,
    synthesis_rows,
)


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
    """Run the sender: frame, transform, summarize, quantize, pack.

    Framing, the DCT, the pooling and the quantizer each run once over the
    clip's (frames, d_y) matrix. The RVQ search stays per frame: a matrix
    product over all frames can round the distances differently.
    """
    model.check_stages(fec.q)
    y_ref = analysis_rows(frame_rows(clip, model.d_l))
    indices = quantize_indices(y_ref, RateControl(q_lambda).step)
    z = hyper_analysis(y_ref, model.d_z) if fec.q > 0 else None
    z_cache = {}
    packets = []
    for t in range(len(y_ref)):
        si = None
        if fec.q > 0:
            si = rvq_encode(z[t], model.codebooks, fec.q, t)
            z_cache[t] = si
        tables, _ = frame_tables(model, si, q_lambda)
        payload = encode_frame(QuantizedLatent(indices[t], t), tables)
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
    """Feed packets (or their loss markers) through a fresh receiver. Each
    received packet keeps its entropy decode, which a later run over the
    same packet objects reuses."""
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
    """Receiver run plus waveform reconstruction: one inverse DCT over the
    emitted codes. `sample_count` must need exactly one frame per packet."""
    if sample_count < 1 or -(-sample_count // model.d_l) != len(packets):
        raise ValueError(
            f"sample count {sample_count} does not match {len(packets)} frames "
            f"of {model.d_l} samples"
        )
    decoded, report = run_receiver(packets, trace, model, config)
    codes = np.stack([d.code.coeffs for d in decoded])
    paths = [d.path for d in decoded]
    clip = pcm_from_rows(synthesis_rows(codes), sample_count)
    return SimResult(clip, codes, paths, report)


def decode_stream(
    packets: list[Packet],
    model: CodecModel,
    config: ReceiverConfig,
    sample_count: int,
) -> SimResult:
    """Loss-free decode of a container."""
    return simulate_stream(packets, None, model, config, sample_count)
