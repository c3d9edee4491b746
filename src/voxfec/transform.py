"""Analysis/synthesis transforms, scalar quantization, and rate control.

The analysis transform is an orthonormal DCT-II of each frame and the
synthesis transform its exact inverse, so frame energy is preserved and the
pair round-trips to floating-point precision. The transforms and the
quantizer take a whole (frames, d) matrix in one call and give each row the
same bytes as a call on that row alone; the per-frame forms wrap them. The
rate index maps log-linearly onto the rate-distortion multiplier; the
quantizer step follows a square-root law in the multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .frontend import LatentFrame

LAMBDA_MIN = 0.002
LAMBDA_MAX = 0.07
Q_NUM = 64
STEP_REF = 1.0 / 1024.0


@dataclass(frozen=True)
class RateControl:
    """Quantized rate index into the Q_NUM-point multiplier schedule."""

    q_lambda: int

    def __post_init__(self):
        if not 0 <= self.q_lambda < Q_NUM:
            raise ValueError(f"invalid rate index {self.q_lambda}, expected 0..{Q_NUM - 1}")

    @property
    def step(self) -> float:
        """Quantizer step at this rate index."""
        return step_from_lambda(lambda_from_q(self))


@dataclass(frozen=True)
class LatentCode:
    """Transform-domain representation of one frame."""

    coeffs: np.ndarray
    frame_index: int

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        object.__setattr__(self, "coeffs", coeffs)
        if not np.isfinite(coeffs).all():
            raise ValueError("non-finite latent code")


@dataclass(frozen=True)
class QuantizedLatent:
    """Integer symbol vector produced by the scalar quantizer."""

    indices: np.ndarray
    frame_index: int

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))


def lambda_from_q(rc: RateControl) -> float:
    """Rate multiplier for a rate index: log-linear between the endpoints."""
    frac = rc.q_lambda / (Q_NUM - 1)
    return math.exp(
        math.log(LAMBDA_MIN) + frac * (math.log(LAMBDA_MAX) - math.log(LAMBDA_MIN))
    )


def step_from_lambda(lam: float) -> float:
    """Quantizer step for a rate multiplier: STEP_REF * sqrt(lam / LAMBDA_MIN)."""
    if lam <= 0:
        raise ValueError(f"non-positive lambda {lam}")
    return STEP_REF * math.sqrt(lam / LAMBDA_MIN)


def analysis_rows(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of each row (the last axis)."""
    return scipy.fft.dct(x, type=2, norm="ortho")


def synthesis_rows(y: np.ndarray) -> np.ndarray:
    """Inverse orthonormal DCT-II of each row (the last axis)."""
    return scipy.fft.idct(y, type=2, norm="ortho")


def quantize_indices(c: np.ndarray, step: float) -> np.ndarray:
    """Round every coefficient to the nearest step multiple, ties away from
    zero; returns the int64 multiples."""
    if step <= 0:
        raise ValueError(f"non-positive step {step}")
    return (np.sign(c) * np.floor(np.abs(c) / step + 0.5)).astype(np.int64)


def analysis(frame: LatentFrame) -> LatentCode:
    """Orthonormal DCT-II of a frame."""
    return LatentCode(analysis_rows(frame.coeffs), frame.frame_index)


def synthesis(code: LatentCode) -> LatentFrame:
    """Inverse orthonormal DCT-II."""
    return LatentFrame(synthesis_rows(code.coeffs), code.frame_index)


def quantize(code: LatentCode, step: float) -> QuantizedLatent:
    """Round coefficients to the nearest step multiple, ties away from zero."""
    return QuantizedLatent(quantize_indices(code.coeffs, step), code.frame_index)


def dequantize(yq: QuantizedLatent, step: float) -> LatentCode:
    """Map quantizer indices back to coefficient values."""
    if step <= 0:
        raise ValueError(f"non-positive step {step}")
    return LatentCode(yq.indices.astype(np.float64) * step, yq.frame_index)
