import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voxfec.frontend import LatentFrame, frame_encode
from voxfec.transform import (
    LatentCode,
    RateControl,
    analysis,
    analysis_rows,
    dequantize,
    lambda_from_q,
    quantize,
    quantize_indices,
    step_from_lambda,
    synthesis,
    synthesis_rows,
)

# frozen golden values, computed with mpmath at 40 digits
LAMBDA_32 = 0.01217078319405733
STEP_AT_LAMBDA_MAX = 0.005777421663183219


def test_lambda_endpoints():
    assert lambda_from_q(RateControl(0)) == pytest.approx(0.002, abs=1e-12)
    assert lambda_from_q(RateControl(63)) == pytest.approx(0.07, abs=1e-12)


def test_lambda_midpoint_golden():
    assert lambda_from_q(RateControl(32)) == pytest.approx(LAMBDA_32, rel=1e-14)


def test_log_lambda_affine():
    # ln(lambda) must be affine in q with negligible residual
    a = math.log(0.002)
    b = (math.log(0.07) - math.log(0.002)) / 63
    for q in range(64):
        assert math.log(lambda_from_q(RateControl(q))) == pytest.approx(
            a + b * q, abs=1e-12
        )


def test_lambda_strictly_increasing():
    vals = [lambda_from_q(RateControl(q)) for q in range(64)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_invalid_rate_index():
    with pytest.raises(ValueError, match="invalid rate index"):
        RateControl(64)
    with pytest.raises(ValueError, match="invalid rate index"):
        RateControl(-1)


def test_step_anchor_and_sqrt_law():
    assert step_from_lambda(0.002) == pytest.approx(1.0 / 1024.0, rel=1e-15)
    assert step_from_lambda(0.008) == pytest.approx(2.0 / 1024.0, rel=1e-15)
    assert step_from_lambda(0.07) == pytest.approx(STEP_AT_LAMBDA_MAX, rel=1e-14)


def test_step_rejects_nonpositive():
    with pytest.raises(ValueError):
        step_from_lambda(0.0)
    with pytest.raises(ValueError):
        step_from_lambda(-1.0)


def dct_oracle(x):
    # direct O(n^2) orthonormal DCT-II
    n = x.size
    out = np.empty(n)
    for k in range(n):
        out[k] = np.sum(x * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n)))
    out *= np.sqrt(2.0 / n)
    out[0] /= np.sqrt(2.0)
    return out


def test_analysis_zero_and_constant():
    zero = analysis(LatentFrame(np.zeros(320), 0))
    assert np.all(zero.coeffs == 0.0)
    const = analysis(LatentFrame(np.full(320, 0.25), 0))
    assert const.coeffs[0] == pytest.approx(0.25 * np.sqrt(320), rel=1e-12)
    assert np.max(np.abs(const.coeffs[1:])) < 1e-12


def test_analysis_matches_direct_oracle():
    rng = np.random.default_rng(3)
    for n in (8, 64, 320):
        x = rng.normal(size=n)
        got = analysis(LatentFrame(x, 0)).coeffs
        want = dct_oracle(x)
        assert np.allclose(got, want, atol=1e-10)


def test_transform_energy_and_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x = rng.normal(size=320)
        code = analysis(LatentFrame(x, 0))
        e_in = np.sum(x * x)
        e_out = np.sum(code.coeffs**2)
        assert abs(e_out - e_in) <= 1e-9 * max(e_in, 1e-30)
        back = synthesis(code)
        assert np.max(np.abs(back.coeffs - x)) <= 1e-9


@given(
    d=st.sampled_from([4, 8, 20, 320, 321]),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    q_lambda=st.integers(0, 63),
)
def test_row_transforms_match_the_per_frame_calls(d, n, seed, q_lambda):
    # one call over a (frames, d) matrix gives each frame's bytes exactly
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 0.1, size=(n, d))
    y = analysis_rows(x)
    back = synthesis_rows(y)
    step = RateControl(q_lambda).step
    indices = quantize_indices(y, step)
    for t in range(n):
        code = analysis(LatentFrame(x[t], t))
        assert y[t].tobytes() == code.coeffs.tobytes()
        assert back[t].tobytes() == synthesis(LatentCode(y[t], t)).coeffs.tobytes()
        assert indices[t].tobytes() == quantize(code, step).indices.tobytes()


def test_speech_codes_match_the_per_frame_loop(speech_clip, speech_codes):
    # the fixture frames and transforms the clip in one call each
    want = np.stack([analysis(f).coeffs for f in frame_encode(speech_clip)])
    assert speech_codes.tobytes() == want.tobytes()


def test_synthesis_dc_only():
    code = LatentCode(np.concatenate([[np.sqrt(320)], np.zeros(319)]), 0)
    frame = synthesis(code)
    assert np.allclose(frame.coeffs, 1.0, atol=1e-12)


def test_quantize_nearest_integer():
    yq = quantize(LatentCode(np.array([0.4, -1.3, 2.6]), 0), 1.0)
    assert yq.indices.tolist() == [0, -1, 3]


def test_quantize_ties_away_from_zero():
    yq = quantize(LatentCode(np.array([0.5, -0.5, 1.5, -2.5]), 0), 1.0)
    assert yq.indices.tolist() == [1, -1, 2, -3]


def test_dequantize_values():
    from voxfec.transform import QuantizedLatent

    assert np.all(dequantize(QuantizedLatent(np.zeros(4, dtype=np.int64), 0), 0.5).coeffs == 0)
    assert dequantize(QuantizedLatent(np.array([3]), 0), 0.25).coeffs[0] == 0.75


def test_quantization_error_bound():
    rng = np.random.default_rng(6)
    for _ in range(200):
        step = float(rng.uniform(1e-4, 0.5))
        y = LatentCode(rng.normal(0, 1, size=64), 0)
        back = dequantize(quantize(y, step), step)
        assert np.max(np.abs(back.coeffs - y.coeffs)) <= step / 2 + 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_latent_code_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        LatentCode(np.array([0.0, bad, 1.0]), 0)


def test_dequantize_validates_its_output():
    from voxfec.transform import QuantizedLatent

    # finite indices and step whose product overflows to infinity
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        dequantize(QuantizedLatent(np.array([1, 1 << 40]), 0), 1e300)
    assert dequantize(QuantizedLatent(np.array([2]), 7), 0.5).frame_index == 7
