"""PCM framing and WAV I/O.

Audio enters the stack as mono 16 kHz PCM16, is normalized and chopped into
fixed 20 ms frames, and the reconstructed frames are reassembled into PCM
with saturation. Framing and reassembly are bit-exact inverses on the
original sample range.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SAMPLE_RATE = 16000
FRAME_SAMPLES = 320  # 20 ms at 16 kHz
PCM_SCALE = 32768.0


@dataclass(frozen=True)
class PcmClip:
    """Mono PCM16 audio at the fixed system sample rate."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.int16)
        object.__setattr__(self, "samples", samples)
        if samples.size == 0:
            raise ValueError("empty input")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.samples.size / SAMPLE_RATE


@dataclass(frozen=True)
class LatentFrame:
    """One fixed-length frame of normalized samples."""

    coeffs: np.ndarray
    frame_index: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        if self.frame_index < 0:
            raise ValueError("negative frame index")


def frame_rows(clip: PcmClip, frame_len: int = FRAME_SAMPLES) -> np.ndarray:
    """A clip as a (frames, frame_len) matrix of samples scaled to [-1, 1).

    The last frame is zero-padded so every frame has exactly `frame_len`
    samples.
    """
    x = clip.samples.astype(np.float64) / PCM_SCALE
    if x.size == 0:
        raise ValueError("empty input")
    rows = np.zeros((-(-x.size // frame_len), frame_len))
    rows.reshape(-1)[: x.size] = x
    return rows


def pcm_from_rows(rows: np.ndarray, original_len: int) -> PcmClip:
    """Concatenate frames of samples into PCM, saturating and truncating to
    original_len."""
    flat = np.ravel(rows)
    if original_len < 1 or original_len > flat.size:
        raise ValueError(f"invalid original length {original_len}")
    pcm = np.clip(np.rint(flat[:original_len] * PCM_SCALE), -32768, 32767)
    return PcmClip(pcm.astype(np.int16))


def frame_encode(clip: PcmClip, frame_len: int = FRAME_SAMPLES) -> list[LatentFrame]:
    """Split a clip into frames; see `frame_rows`."""
    return [LatentFrame(row, t) for t, row in enumerate(frame_rows(clip, frame_len))]


def frame_decode(frames: Sequence[LatentFrame], original_len: int) -> PcmClip:
    """Reassemble consecutive frames into PCM; see `pcm_from_rows`."""
    if not frames:
        raise ValueError("empty input")
    for prev, cur in zip(frames, frames[1:]):
        if cur.frame_index != prev.frame_index + 1:
            raise ValueError(
                f"discontinuous stream: frame {cur.frame_index} after {prev.frame_index}"
            )
    return pcm_from_rows(np.concatenate([f.coeffs for f in frames]), original_len)


def read_wav(path) -> PcmClip:
    """Read a mono 16 kHz PCM16 WAV file."""
    try:
        with wave.open(str(path), "rb") as w:
            nchannels = w.getnchannels()
            rate = w.getframerate()
            width = w.getsampwidth()
            comp = w.getcomptype()
            nframes = w.getnframes()
            raw = w.readframes(nframes)
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"not a readable PCM WAV file: {exc}") from exc
    if nchannels != 1:
        raise ValueError(f"unsupported channel count {nchannels}, expected mono")
    if rate != SAMPLE_RATE:
        raise ValueError(f"unsupported sample rate {rate}, expected {SAMPLE_RATE}")
    if width != 2:
        raise ValueError(f"unsupported sample width {8 * width} bits, expected 16")
    if comp != "NONE":
        raise ValueError(f"unsupported compression type {comp!r}")
    samples = np.frombuffer(raw, dtype="<i2")
    if samples.size == 0:
        raise ValueError("empty input")
    return PcmClip(samples.astype(np.int16))


def write_wav(path, clip: PcmClip) -> None:
    """Write a clip as a mono 16 kHz PCM16 WAV file."""
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(clip.samples.astype("<i2").tobytes())
