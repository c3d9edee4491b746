"""Waveform quality metrics with sliding-window percentiles.

All metrics operate on normalized amplitudes (PCM / 32768). Windowed SNR
uses 3-second windows sliding by one frame; the reported tenth percentile
is the order statistic (lower interpolation), so with two windows it equals
the worse one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import FRAME_SAMPLES, PCM_SCALE, SAMPLE_RATE, PcmClip

SNR_CAP_DB = 99.0
WINDOW_SECONDS = 3.0


@dataclass(frozen=True)
class WaveMetrics:
    mse: float
    snr_db: float
    seg_snr_db: float
    snr_q10_db: float
    n_windows: int


def _snr_db(ref_energy: float, err_energy: float) -> float:
    if err_energy <= 0.0:
        return SNR_CAP_DB
    if ref_energy <= 0.0:
        return 0.0
    return min(10.0 * np.log10(ref_energy / err_energy), SNR_CAP_DB)


def compute_metrics(ref: PcmClip, test: PcmClip) -> WaveMetrics:
    """Sample MSE, overall SNR, and windowed segmental SNR statistics."""
    if len(ref) != len(test):
        raise ValueError(f"length mismatch: ref {len(ref)}, test {len(test)}")
    r = ref.samples.astype(np.float64) / PCM_SCALE
    t = test.samples.astype(np.float64) / PCM_SCALE
    err = r - t
    mse = float(np.mean(err * err))
    snr = _snr_db(float(np.sum(r * r)), float(np.sum(err * err)))

    win = int(WINDOW_SECONDS * SAMPLE_RATE)
    hop = FRAME_SAMPLES
    n = r.size
    if n <= win:
        window_snrs = np.array([snr])
    else:
        cum_r = np.concatenate([[0.0], np.cumsum(r * r)])
        cum_e = np.concatenate([[0.0], np.cumsum(err * err)])
        starts = np.arange(0, n - win + 1, hop)
        ref_e = cum_r[starts + win] - cum_r[starts]
        err_e = cum_e[starts + win] - cum_e[starts]
        window_snrs = np.array(
            [_snr_db(float(a), float(b)) for a, b in zip(ref_e, err_e)]
        )
    q10 = float(np.percentile(window_snrs, 10, method="lower"))
    return WaveMetrics(
        mse=mse,
        snr_db=snr,
        seg_snr_db=float(window_snrs.mean()),
        snr_q10_db=q10,
        n_windows=int(window_snrs.size),
    )
