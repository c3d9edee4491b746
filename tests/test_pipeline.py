"""The whole-clip sender and receiver against per-frame references.

`encode_stream` frames, transforms, pools and quantizes a clip in one call
per stage, and `simulate_stream` synthesises every emitted code in one
call. The references below run the same stages one frame at a time
through the per-frame public functions; both sides must agree byte for
byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import build_model
from voxfec.channel import LossTrace
from voxfec.frontend import PcmClip, frame_decode, frame_encode
from voxfec.hyperprior import hyper_analysis, rvq_encode
from voxfec.packets import FecConfig, account_stream, build_packet, serialize
from voxfec.pipeline import encode_stream, run_receiver, simulate_stream
from voxfec.rangecoder import encode_frame, frame_tables
from voxfec.receiver import ReceiverConfig
from voxfec.transform import analysis, quantize, synthesis


@pytest.fixture(scope="module")
def models(tiny_model):
    rng = np.random.default_rng(12)
    codes = rng.normal(0.0, 0.2, size=(500, 8))
    return {0: build_model(codes, q=0, seed=3, d_z=4), 1: tiny_model}


def random_clip(n_samples, seed, scale):
    rng = np.random.default_rng(seed)
    samples = rng.normal(0.0, scale, n_samples).clip(-32768, 32767)
    return PcmClip(samples.astype(np.int16))


def reference_encode(clip, model, q_lambda, fec):
    """The sender one frame at a time."""
    z_cache = {}
    packets = []
    y_ref = []
    for f in frame_encode(clip, model.d_l):
        t = f.frame_index
        y = analysis(f)
        y_ref.append(y.coeffs)
        si = None
        if fec.q > 0:
            si = rvq_encode(hyper_analysis(y.coeffs, model.d_z), model.codebooks, fec.q, t)
            z_cache[t] = si
        tables, step = frame_tables(model, si, q_lambda)
        payload = encode_frame(quantize(y, step), tables)
        packets.append(build_packet(t, payload, z_cache, fec, q_lambda))
        z_cache.pop(t - fec.max_offset, None)
    return packets, np.stack(y_ref)


@pytest.mark.parametrize("model_q", [0, 1])
@settings(max_examples=40)
@given(
    n_samples=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([30.0, 3000.0, 30000.0]),
    q_lambda=st.integers(0, 63),
    offsets=st.sampled_from([(), (1,), (1, 3)]),
    fec_q=st.integers(0, 1),
)
def test_encode_stream_matches_the_per_frame_sender(
    models, model_q, n_samples, seed, scale, q_lambda, offsets, fec_q
):
    # 1..200 samples are 1..25 frames of 8, the last one often partial
    model = models[model_q]
    clip = random_clip(n_samples, seed, scale)
    fec = FecConfig(min(fec_q, model_q), offsets, frame_rate=4)
    got = encode_stream(clip, model, q_lambda, fec)
    packets, y_ref = reference_encode(clip, model, q_lambda, fec)
    assert [serialize(p) for p in got.packets] == [serialize(p) for p in packets]
    assert got.y_ref.tobytes() == y_ref.tobytes()
    assert (got.header.sample_count, got.header.frame_count) == (n_samples, len(packets))
    want_report = account_stream(packets, 4) if len(packets) >= 4 else None
    assert got.report == want_report


@settings(max_examples=30)
@given(
    n_frames=st.integers(6, 40),
    cut=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
    tail=st.lists(st.booleans(), min_size=34, max_size=34),
)
def test_simulate_stream_matches_the_per_frame_synthesis(
    tiny_model, n_frames, cut, seed, tail
):
    # frame 1 is lost and its backup arrives in packet 2 (plc_high); frames
    # 3 and 4 are lost, so only frame 4's backup arrives (3 is plc_low)
    flags = [False, True, False, True, True, False] + tail[: n_frames - 6]
    fec = FecConfig(1, (1,))
    clip = random_clip(n_frames * tiny_model.d_l - cut, seed, 3000.0)
    res = encode_stream(clip, tiny_model, 32, fec)
    trace = LossTrace(np.array(flags), "file")
    config = ReceiverConfig(fec)
    sim = simulate_stream(res.packets, trace, tiny_model, config, len(clip))
    decoded, _ = run_receiver(res.packets, trace, tiny_model, config)
    want = frame_decode([synthesis(d.code) for d in decoded], len(clip))
    assert {"entropy", "plc_high", "plc_low"} <= set(sim.paths)
    assert sim.paths == [d.path for d in decoded]
    assert sim.codes.tobytes() == np.stack([d.code.coeffs for d in decoded]).tobytes()
    assert sim.clip.samples.tobytes() == want.samples.tobytes()


@pytest.mark.parametrize("sample_count", [0, 8 * 9, 8 * 10 + 1])
def test_simulate_stream_rejects_a_sample_count_for_another_frame_count(
    tiny_model, sample_count
):
    fec = FecConfig(1, (1,))
    res = encode_stream(random_clip(8 * 10, 1, 3000.0), tiny_model, 32, fec)
    with pytest.raises(ValueError, match=f"sample count {sample_count} does not match 10"):
        simulate_stream(res.packets, None, tiny_model, ReceiverConfig(fec), sample_count)
