"""Independent reference values for the benchmark's correctness checks.

Nothing here calls voxfec. Each value follows from the documented method
(README: framing, the rate schedule, the quantizer, the packet bit
accounting, the decode-path rules) computed with numpy and scipy, or is a
property every correct output must have. No stored output is compared
against.
"""

from __future__ import annotations

import math
import wave

import numpy as np
import scipy.fft

PCM_SCALE = 32768.0
FRAME_RATE = 50
INDEX_BITS = 10
RHO = 0.9  # decay of the previous output on the plc_low path
SNR_CAP_DB = 99.0


def step_for_rate(q: int) -> float:
    """Quantizer step of rate index q: the multiplier runs log-linearly from
    0.002 (q=0) to 0.07 (q=63), and step = sqrt(multiplier / 0.002) / 1024."""
    lam = math.exp(math.log(0.002) + q / 63 * (math.log(0.07) - math.log(0.002)))
    return math.sqrt(lam / 0.002) / 1024


def quantized_latents(samples: np.ndarray, frame_len: int, step: float) -> np.ndarray:
    """Per-frame symbol indices: PCM / 32768 in zero-padded frames, the
    orthonormal DCT-II of each frame, rounding to step multiples with ties
    away from zero."""
    x = samples.astype(np.float64) / PCM_SCALE
    n_frames = -(-x.size // frame_len)
    frames = np.zeros(n_frames * frame_len)
    frames[: x.size] = x
    c = scipy.fft.dct(frames.reshape(n_frames, frame_len), type=2, norm="ortho", axis=1)
    mag = np.floor(np.abs(c) / step + 0.5)
    return np.where(c < 0, -mag, mag)


def expected_paths(lost: np.ndarray, offsets: tuple[int, ...]) -> list[str]:
    """Decode path of each frame under the loss flags: a received frame is
    entropy-decoded; a lost one is plc_high when any packet carrying a backup
    of its side info (t + k, k in offsets) arrived, plc_low otherwise."""
    n = lost.size
    paths = []
    for t in range(n):
        if not lost[t]:
            paths.append("entropy")
        elif any(t + k < n and not lost[t + k] for k in offsets):
            paths.append("plc_high")
        else:
            paths.append("plc_low")
    return paths


def side_info_copy(packets, lost: np.ndarray, t: int, offsets: tuple[int, ...]):
    """Side-info indices of frame t from every received backup copy."""
    copies = []
    for k in offsets:
        if t + k < len(packets) and not lost[t + k]:
            blocks = dict(packets[t + k].z_blocks)
            copies.append(tuple(blocks[k].indices))
    return copies


def check_stream_output(
    codes: np.ndarray,
    paths: list[str],
    lost: np.ndarray,
    packets,
    offsets: tuple[int, ...],
    quantized: np.ndarray,
    step: float,
    centroids: np.ndarray,
) -> list[str]:
    """Check every emitted frame against the decode-path rules.

    entropy: the quantized source exactly. plc_high: the block-broadcast sum
    of the codebook centroids its side info names (the high-confidence token
    is zero). plc_low: RHO times the previous output (the low-confidence
    token is zero). Returns the failures found.
    """
    errors = []
    want = expected_paths(lost, offsets)
    if paths != want:
        bad = [t for t, (a, b) in enumerate(zip(paths, want)) if a != b]
        errors.append(f"decode paths differ from the loss pattern at {bad[:5]} (len {len(paths)} vs {len(want)})")
        return errors
    block = codes.shape[1] // centroids.shape[2]
    prev = np.zeros(codes.shape[1])
    for t, path in enumerate(paths):
        if path == "entropy":
            ok = np.array_equal(codes[t], quantized[t] * step)
        elif path == "plc_high":
            copies = side_info_copy(packets, lost, t, offsets)
            ok = len(set(copies)) == 1
            if ok:
                z = np.zeros(centroids.shape[2])
                for s, idx in enumerate(copies[0]):
                    z = z + centroids[s, idx]
                ok = np.array_equal(codes[t], np.repeat(z, block))
        else:
            ok = np.array_equal(codes[t], RHO * prev)
        if not ok:
            errors.append(f"frame {t} ({path}) differs from its reference")
            if len(errors) >= 5:
                break
        prev = codes[t]
    return errors


def stream_kbps(packets) -> float:
    """Source, side-info and backup bits per second of audio, in kbps."""
    bits = 0
    for p in packets:
        bits += p.payload.bit_length
        for _, si in p.z_blocks:
            bits += INDEX_BITS * len(si.indices)
    return bits / (len(packets) / FRAME_RATE) / 1000.0


def snr_db(ref: np.ndarray, test: np.ndarray) -> float:
    """Whole-clip SNR of test against ref, both PCM16."""
    r = ref.astype(np.float64) / PCM_SCALE
    e = r - test.astype(np.float64) / PCM_SCALE
    err = float(np.sum(e * e))
    if err == 0.0:
        return SNR_CAP_DB
    return min(10.0 * math.log10(float(np.sum(r * r)) / err), SNR_CAP_DB)


def read_pcm16(path) -> np.ndarray:
    """Samples of a mono PCM16 WAV file, read with the standard library."""
    with wave.open(str(path), "rb") as w:
        if w.getnchannels() != 1 or w.getsampwidth() != 2:
            raise ValueError(f"{path}: not mono PCM16")
        return np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
