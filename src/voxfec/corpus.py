"""Deterministic speech-like test corpus.

Real recordings cannot ship with the package, so the evaluation corpus is
synthesized: low-pitch voiced stretches built from glottal-style pulse
trains through per-frame wandering resonators, shaped by a syllabic
amplitude envelope, interleaved with soft noise bursts and pauses. Pitch
periods divide the frame length and pulses are frame-locked, which gives
frames the onset-heavy, spectrally drifting statistics that the
concealment comparisons assume. Everything derives from the seed, so the
corpus is a pure function.
"""

from __future__ import annotations

import numpy as np

from .frontend import FRAME_SAMPLES, SAMPLE_RATE, PcmClip
from .seeds import SplitMix, derive, uniforms

_AMPLITUDE = 0.30
_IR_LEN = 160
_P160_SHARE = 0.1  # share of voiced segments at 100 Hz instead of 50 Hz


def _voiced_segment(n_samples: int, rng: SplitMix) -> np.ndarray:
    period = 160 if rng.next_uniform() < _P160_SHARE else 320
    f1 = 300.0 + 500.0 * rng.next_uniform()
    f2 = 900.0 + 1500.0 * rng.next_uniform()
    decay = 8.0 + 10.0 * rng.next_uniform()
    n_frames = n_samples // FRAME_SAMPLES
    seg = np.zeros(n_samples + FRAME_SAMPLES)
    excitation = np.zeros(n_samples)
    excitation[::period] = 1.0
    tir = np.arange(_IR_LEN)
    pulse = np.zeros(_IR_LEN)
    pulse[0] = 3.0
    for fi in range(max(n_frames, 1)):
        # formants take a fresh random-walk step every frame
        f1 = float(np.clip(f1 * (1.0 + 0.9 * (rng.next_uniform() - 0.5)), 250.0, 900.0))
        f2 = float(np.clip(f2 * (1.0 + 0.9 * (rng.next_uniform() - 0.5)), 800.0, 2600.0))
        ir = (
            pulse
            + np.exp(-tir / decay) * np.cos(2.0 * np.pi * f1 * tir / SAMPLE_RATE)
            + 0.6 * np.exp(-tir / (decay * 0.7)) * np.cos(2.0 * np.pi * f2 * tir / SAMPLE_RATE)
        )
        lo = fi * FRAME_SAMPLES
        hi = min(lo + FRAME_SAMPLES, n_samples)
        chunk = excitation[lo:hi]
        seg[lo : lo + chunk.size + _IR_LEN - 1] += np.convolve(chunk, ir)
    seg = seg[:n_samples]
    peak = np.max(np.abs(seg))
    if peak > 0:
        seg = seg / peak
    # syllabic amplitude envelope
    f_am = 4.0 + 4.0 * rng.next_uniform()
    t = np.arange(n_samples)
    env = np.abs(np.sin(np.pi * f_am * t / SAMPLE_RATE + np.pi * rng.next_uniform())) ** 2.0
    return seg * env


def _unvoiced_segment(n_samples: int, rng: SplitMix) -> np.ndarray:
    noise = uniforms(rng.next_u64(), n_samples) - 0.5
    return 0.12 * noise * np.hanning(n_samples)


def speech_like_clip(duration_s: float = 64.0, seed: int = 20260810) -> PcmClip:
    """Synthesize a deterministic speech-like clip of at least duration_s."""
    total = int(duration_s * SAMPLE_RATE)
    total = -(-total // FRAME_SAMPLES) * FRAME_SAMPLES
    rng = SplitMix(derive(seed, 0xC0895))
    out = np.zeros(total)
    pos = 0
    while pos < total:
        kind = rng.next_uniform()
        seg_frames = 15 + rng.next_u64() % 50  # 0.3 .. 1.3 s
        n = min(seg_frames * FRAME_SAMPLES, total - pos)
        if kind < 0.70:
            seg = _voiced_segment(n, rng)
        elif kind < 0.90:
            seg = _unvoiced_segment(n, rng)
        else:
            seg = np.zeros(n)
        # short fades avoid clicks at segment joins
        fade = min(160, n // 2)
        if fade:
            ramp = np.linspace(0.0, 1.0, fade)
            seg[:fade] *= ramp
            seg[-fade:] *= ramp[::-1]
        out[pos : pos + n] = seg
        pos += n
    pcm = np.clip(np.rint(out * _AMPLITUDE * 32768.0), -32768, 32767)
    return PcmClip(pcm.astype(np.int16))
