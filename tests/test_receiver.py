import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import build_model
import voxfec.rangecoder as rangecoder
import voxfec.receiver as receiver
from voxfec.channel import LossTrace, gen_bernoulli
from voxfec.corpus import speech_like_clip
from voxfec.frontend import PcmClip
from voxfec.hyperprior import SideInfo
from voxfec.packets import FecConfig, Packet, parse, serialize
from voxfec.pipeline import decode_stream, encode_stream, run_receiver, simulate_stream
from voxfec.rangecoder import Bitstream, DecodeFailure, decode_frame, frame_tables
from voxfec.receiver import (
    LostPacket,
    ProtocolError,
    Receiver,
    ReceiverConfig,
)
from voxfec.transform import LatentCode, dequantize


def make_clip(n_samples, seed=0, scale=3000):
    rng = np.random.default_rng(seed)
    return PcmClip(rng.normal(0, scale, n_samples).clip(-32768, 32767).astype(np.int16))


def encode_for(model, n_frames, fec, q_lambda=32, seed=0):
    clip = make_clip(n_frames * model.d_l, seed)
    return clip, encode_stream(clip, model, q_lambda, fec)


def trace_from_flags(flags):
    return LossTrace(np.asarray(flags, dtype=bool), "file")


def fresh_copies(packets):
    """Equal packets that have decoded nothing yet."""
    return [parse(serialize(p)) for p in packets]


FEC = FecConfig(1, (1, 13))


def test_passthrough_no_losses_zero_delay(tiny_model):
    clip, res = encode_for(tiny_model, 30, FEC)
    rx = Receiver(tiny_model, ReceiverConfig(FEC, playout_delay=0))
    for p in res.packets:
        out = rx.ingest(p)
        assert len(out) == 1  # emitted immediately
        assert out[0].path == "entropy"
        assert out[0].code.frame_index == p.frame_index
    left, report = rx.finalize()
    assert left == []
    assert report.entropy_count == 30
    assert report.plc_high_count == report.plc_low_count == 0
    assert report.z_recovery_rate == 1.0


def test_single_loss_recovered_from_next_packet(tiny_model):
    clip, res = encode_for(tiny_model, 40, FEC)
    flags = np.zeros(40, dtype=bool)
    flags[20] = True
    decoded, report = run_receiver(res.packets, trace_from_flags(flags), tiny_model,
                                   ReceiverConfig(FEC))
    assert [d.code.frame_index for d in decoded] == list(range(40))
    assert decoded[20].path == "plc_high"
    assert report.plc_high_count == 1 and report.plc_low_count == 0
    # concealment output is the broadcast decoded summary (zero tokens)
    from voxfec.hyperprior import hyper_synthesis, rvq_decode
    si = dict(res.packets[21].z_blocks)[1]
    z_hat = rvq_decode(si, tiny_model.codebooks, tiny_model.tokens.m_z)
    want = hyper_synthesis(z_hat, tiny_model).mu
    assert np.allclose(decoded[20].code.coeffs, want)


def test_burst_14_forces_low_confidence(tiny_model):
    clip, res = encode_for(tiny_model, 60, FEC)
    flags = np.zeros(60, dtype=bool)
    flags[20:34] = True  # burst of 14
    decoded, report = run_receiver(res.packets, trace_from_flags(flags), tiny_model,
                                   ReceiverConfig(FEC))
    assert report.plc_low_count >= 1
    assert decoded[20].path == "plc_low"  # first of the burst has no copy left


def test_burst_within_13_all_high(tiny_model):
    clip, res = encode_for(tiny_model, 60, FEC)
    for b in (1, 5, 13):
        flags = np.zeros(60, dtype=bool)
        flags[20 : 20 + b] = True
        decoded, report = run_receiver(res.packets, trace_from_flags(flags), tiny_model,
                                       ReceiverConfig(FEC))
        lost_paths = {decoded[t].path for t in range(20, 20 + b)}
        assert lost_paths == {"plc_high"}, b


def test_cold_start_loss_is_low_and_zero(tiny_model):
    clip, res = encode_for(tiny_model, 20, FecConfig(1, ()))
    flags = np.zeros(20, dtype=bool)
    flags[0] = True
    decoded, _ = run_receiver(res.packets, trace_from_flags(flags), tiny_model,
                              ReceiverConfig(FecConfig(1, ()), playout_delay=0))
    assert decoded[0].path == "plc_low"
    assert np.all(decoded[0].code.coeffs == 0.0)  # no history, zero tokens


def test_negative_playout_delay_rejected_when_built():
    with pytest.raises(ValueError, match="non-negative"):
        ReceiverConfig(FEC, playout_delay=-1)
    assert ReceiverConfig(FEC).delay == 13  # the largest backup offset
    assert ReceiverConfig(FEC, playout_delay=0).delay == 0
    assert ReceiverConfig(FecConfig(1, ())).delay == 0


def test_out_of_order_rejected(tiny_model):
    rx = Receiver(tiny_model, ReceiverConfig(FEC))
    with pytest.raises(ProtocolError, match="out-of-order"):
        rx.ingest(LostPacket(3))


def test_emission_in_order_gap_free(tiny_model):
    clip, res = encode_for(tiny_model, 50, FEC)
    trace = gen_bernoulli(0.4, 50, seed=13)
    decoded, report = run_receiver(res.packets, trace, tiny_model, ReceiverConfig(FEC))
    assert [d.code.frame_index for d in decoded] == list(range(50))
    assert report.frames == 50
    assert report.entropy_count + report.plc_high_count + report.plc_low_count == 50


def test_received_frames_decode_identically_under_loss(tiny_model):
    # per-frame conditioning: a received frame's output never depends on
    # its neighbours' fate
    clip, res = encode_for(tiny_model, 80, FEC)
    clean = decode_stream(res.packets, tiny_model, ReceiverConfig(FEC), len(clip))
    rng = np.random.default_rng(7)
    for seed in range(10):
        trace = gen_bernoulli(0.3, 80, seed=seed)
        # fresh copies, so that every run decodes its packets itself
        packets = fresh_copies(res.packets)
        sim = simulate_stream(packets, trace, tiny_model, ReceiverConfig(FEC), len(clip))
        for t in range(80):
            if not trace.flags[t]:
                assert np.array_equal(sim.codes[t], clean.codes[t]), t


def test_zero_delay_drops_late_backups(tiny_model):
    # with no playout buffering, a lost frame is concealed low-confidence
    # even though its summary arrives one packet later
    clip, res = encode_for(tiny_model, 30, FEC)
    flags = np.zeros(30, dtype=bool)
    flags[10] = True
    decoded, _ = run_receiver(res.packets, trace_from_flags(flags), tiny_model,
                              ReceiverConfig(FEC, playout_delay=0))
    assert decoded[10].path == "plc_low"


def test_delay_one_recovers_from_offset_one(tiny_model):
    clip, res = encode_for(tiny_model, 30, FEC)
    flags = np.zeros(30, dtype=bool)
    flags[10] = True
    decoded, _ = run_receiver(res.packets, trace_from_flags(flags), tiny_model,
                              ReceiverConfig(FEC, playout_delay=1))
    assert decoded[10].path == "plc_high"


def test_all_lost_outputs_decay_to_silence(tiny_model):
    clip, res = encode_for(tiny_model, 25, FEC)
    flags = np.ones(25, dtype=bool)
    sim = simulate_stream(res.packets, trace_from_flags(flags), tiny_model,
                          ReceiverConfig(FEC), len(clip))
    assert sim.report.plc_low_count + sim.report.plc_high_count == 25
    assert sim.report.entropy_count == 0
    assert np.all(np.isfinite(sim.codes))


def test_trace_shorter_than_stream_rejected(tiny_model):
    clip, res = encode_for(tiny_model, 30, FEC)
    short = trace_from_flags(np.zeros(10, dtype=bool))
    with pytest.raises(ValueError, match="trace has 10"):
        run_receiver(res.packets, short, tiny_model, ReceiverConfig(FEC))


def test_finalize_empty_stream(tiny_model):
    rx = Receiver(tiny_model, ReceiverConfig(FEC))
    final, report = rx.finalize()
    assert final == []
    assert report.frames == 0
    assert report.entropy_count == report.plc_high_count == report.plc_low_count == 0


def test_loss_masks_record(tiny_model):
    # each emitted frame's path records whether its packet was lost and
    # whether a copy of its side info survived
    clip, res = encode_for(tiny_model, 40, FEC)
    flags = np.zeros(40, dtype=bool)
    flags[20] = True
    flags[30] = True
    rx = Receiver(tiny_model, ReceiverConfig(FEC))
    decoded = []
    for t, p in enumerate(res.packets):
        decoded += rx.ingest(LostPacket(t) if flags[t] else p)
    decoded += rx.finalize()[0]
    assert len(decoded) == 40
    assert decoded[0].path == "entropy"
    assert decoded[20].path == "plc_high"
    assert decoded[30].path in ("plc_high", "plc_low")


def test_finalize_flushes_delay_window(tiny_model):
    clip, res = encode_for(tiny_model, 20, FEC)
    rx = Receiver(tiny_model, ReceiverConfig(FEC, playout_delay=13))
    emitted = []
    for p in res.packets:
        emitted += rx.ingest(p)
    assert len(emitted) == 20 - 13
    final, report = rx.finalize()
    assert len(final) == 13
    assert report.frames == 20


# A packet can pass its CRC and still be unusable by the receiver's model.
# Each case below swaps frame 5's packet for such a packet (sent through
# serialize and parse); the receiver must treat it exactly as a lost packet.


@pytest.fixture(scope="module")
def q0_model():
    rng = np.random.default_rng(11)
    return build_model(rng.normal(0.0, 0.2, size=(2000, 8)), q=0, seed=3, d_z=4)


def with_packet(packets, t, q_lambda, z_blocks, payload=None):
    pkt = packets[t]
    bad = Packet(t, q_lambda, pkt.payload if payload is None else payload, z_blocks)
    return packets[:t] + [parse(serialize(bad))] + packets[t + 1 :]


def assert_treated_as_lost(model, fec, packets, t, clean_packets):
    flags = np.zeros(len(packets), dtype=bool)
    flags[t] = True
    config = ReceiverConfig(fec)
    got, got_report = run_receiver(packets, None, model, config)
    want, want_report = run_receiver(clean_packets, trace_from_flags(flags), model, config)
    assert [d.code.frame_index for d in got] == list(range(len(packets)))
    assert [d.path for d in got] == [d.path for d in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.code.coeffs, b.code.coeffs)
    assert got_report == want_report


def test_rate_index_out_of_range_is_a_loss(tiny_model):
    clip, res = encode_for(tiny_model, 20, FEC)
    packets = with_packet(res.packets, 5, 70, res.packets[5].z_blocks)
    assert packets[5].q_lambda == 70
    assert_treated_as_lost(tiny_model, FEC, packets, 5, res.packets)


def test_more_stages_than_the_model_is_a_loss(tiny_model):
    clip, res = encode_for(tiny_model, 20, FEC)
    packets = with_packet(res.packets, 5, 32, ((0, SideInfo((5, 7), 5)),))
    assert packets[5].z_blocks[0][1].stages == 2 > tiny_model.codebooks.n_stages
    assert_treated_as_lost(tiny_model, FEC, packets, 5, res.packets)


def test_side_info_to_a_model_without_codebooks_is_a_loss(q0_model):
    fec = FecConfig(0, ())
    clip, res = encode_for(q0_model, 20, fec)
    packets = with_packet(res.packets, 5, 32, ((0, SideInfo((5,), 5)),))
    assert q0_model.codebooks is None
    assert_treated_as_lost(q0_model, fec, packets, 5, res.packets)


@pytest.fixture(scope="module")
def streams(tiny_model, q0_model):
    fec0 = FecConfig(0, ())
    return {
        1: (tiny_model, FEC, encode_for(tiny_model, 16, FEC)[1].packets),
        0: (q0_model, fec0, encode_for(q0_model, 16, fec0)[1].packets),
    }


@settings(max_examples=150)
@given(
    model_q=st.sampled_from([0, 1]),
    q_lambda=st.integers(0, 255),
    stages=st.integers(0, 8),
    t=st.integers(0, 15),
    delay=st.sampled_from([None, 0, 1]),
    index=st.integers(0, 1023),
    payload=st.one_of(st.none(), st.binary(max_size=8)),
)
def test_any_crc_valid_packet_keeps_the_stream_going(
    streams, model_q, q_lambda, stages, t, delay, index, payload
):
    model, fec, clean = streams[model_q]
    blocks = [(0, SideInfo((index,) * stages, t))]
    if t >= 1:
        blocks.append((1, SideInfo((1023 - index,) * stages, t - 1)))
    if payload is not None:
        payload = Bitstream(payload, 8 * len(payload))
    packets = with_packet(clean, t, q_lambda, tuple(blocks), payload)
    config = ReceiverConfig(fec, delay)
    decoded, report = run_receiver(packets, None, model, config)
    assert [d.code.frame_index for d in decoded] == list(range(16))
    assert report.frames == 16
    assert report.entropy_count + report.plc_high_count + report.plc_low_count == 16
    # every other frame arrived with its own side info and decodes as if
    # nothing had happened
    reference, _ = run_receiver(clean, None, model, config)
    for s, (a, b) in enumerate(zip(decoded, reference)):
        if s != t:
            assert a.path == "entropy" and np.array_equal(a.code.coeffs, b.code.coeffs), s


# Every path through the receiver, in one 60-frame stream: frame 10 lost
# with backups (plc_high), frames 20..33 lost, one beyond the offset-13
# reach (plc_low), and frame 45 received with a payload that fails to decode.
DECODE_FAILURE_AT = 45


@pytest.fixture(scope="module")
def every_path(tiny_model):
    clip, res = encode_for(tiny_model, 60, FEC)
    t = DECODE_FAILURE_AT
    bad = Bitstream(b"\xff\x00", 16)
    tables, _ = frame_tables(tiny_model, res.packets[t].z_blocks[0][1], 32)
    with pytest.raises(DecodeFailure):
        decode_frame(bad, tables, tiny_model.d_y)
    packets = with_packet(res.packets, t, 32, res.packets[t].z_blocks, bad)
    flags = np.zeros(60, dtype=bool)
    flags[10] = True
    flags[20:34] = True
    return packets, trace_from_flags(flags)


def test_every_frame_carries_its_own_index(tiny_model, every_path):
    packets, trace = every_path
    for delay in (None, 0, 1):
        decoded, _ = run_receiver(packets, trace, tiny_model, ReceiverConfig(FEC, delay))
        assert [d.code.frame_index for d in decoded] == list(range(60))
        assert {d.path for d in decoded} == {"entropy", "plc_high", "plc_low"}
        assert decoded[DECODE_FAILURE_AT].path == "plc_high"


def test_entropy_frames_are_the_dequantized_payload(tiny_model, every_path):
    packets, trace = every_path
    decoded, report = run_receiver(packets, trace, tiny_model, ReceiverConfig(FEC))
    entropy = [d for d in decoded if d.path == "entropy"]
    assert len(entropy) == report.entropy_count == 60 - 15 - 1
    for d in entropy:
        pkt = packets[d.code.frame_index]
        tables, step = frame_tables(tiny_model, pkt.z_blocks[0][1], pkt.q_lambda)
        want = dequantize(decode_frame(pkt.payload, tables, tiny_model.d_y), step)
        assert np.array_equal(d.code.coeffs, want.coeffs)


def test_each_emitted_frame_is_validated_once(tiny_model, every_path, monkeypatch):
    # one LatentCode, so one finiteness check, per emitted frame on every path
    checks = []
    post_init = LatentCode.__post_init__

    def counted(self):
        checks.append(self.frame_index)
        post_init(self)

    monkeypatch.setattr(LatentCode, "__post_init__", counted)
    packets, trace = every_path
    packets = fresh_copies(packets)
    run_receiver(packets, trace, tiny_model, ReceiverConfig(FEC))
    assert checks == list(range(60))
    # a second run over the same packets reuses their kept codes, so only
    # its concealed frames make a LatentCode
    checks.clear()
    decoded, _ = run_receiver(packets, trace, tiny_model, ReceiverConfig(FEC))
    assert checks == [d.code.frame_index for d in decoded if d.path != "entropy"]
    assert len(checks) == 16


def test_receiver_reuses_the_encoders_tables(speech_model, monkeypatch):
    # a stream with more distinct tables than the live memo holds: the
    # receiver finds every one the encoder built, live or packed
    fec = FecConfig(2, (1, 13))
    clip = speech_like_clip(12.0, 4)
    model = dataclasses.replace(speech_model)  # with its own, empty memo
    res = encode_stream(clip, model, 32, fec)
    memo = model._tables
    assert len(memo.packed) > 0
    assert len(set(memo) | set(memo.packed)) > rangecoder.MEMO_ROWS // 16
    builds = []
    build_cdf = rangecoder.build_cdf
    monkeypatch.setattr(
        rangecoder, "build_cdf", lambda *args: builds.append(1) or build_cdf(*args)
    )
    warm = decode_stream(res.packets, model, ReceiverConfig(fec), len(clip))
    assert builds == []
    cold = decode_stream(
        res.packets, dataclasses.replace(speech_model), ReceiverConfig(fec), len(clip)
    )
    assert len(builds) > rangecoder.MEMO_ROWS // 16
    assert np.array_equal(warm.clip.samples, cold.clip.samples)
    assert np.array_equal(warm.codes, cold.codes) and warm.paths == cold.paths


# A packet keeps its entropy decode, so repeated receiver runs over the same
# packet objects must give exactly what runs over fresh copies give. The
# stream holds a payload that fails its guard (frame 5), a packet without
# its own side-info block whose two backups differ, so its decode depends
# on which copy arrives (frame 9), and a packet the receiver cannot use
# (frame 14).
SHARED_FRAMES = 40


@pytest.fixture(scope="module")
def shared_stream(tiny_model):
    clip, res = encode_for(tiny_model, SHARED_FRAMES, FEC)
    packets = list(res.packets)
    bad = Bitstream(b"\xff\x00", 16)
    tables, _ = frame_tables(tiny_model, packets[5].z_blocks[0][1], 32)
    with pytest.raises(DecodeFailure):
        decode_frame(bad, tables, tiny_model.d_y)
    packets[5] = Packet(5, 32, bad, packets[5].z_blocks)
    packets[9] = Packet(9, 32, packets[9].payload, ())
    (own, (_, si21), (_, si9)) = packets[22].z_blocks
    other = SideInfo(tuple(1023 - i for i in si9.indices), 9)
    packets[22] = Packet(22, 32, packets[22].payload, (own, (1, si21), (13, other)))
    packets[14] = Packet(14, 70, packets[14].payload, packets[14].z_blocks)
    return packets


def count_decodes(monkeypatch):
    calls = []
    decode = receiver._decode_symbols
    monkeypatch.setattr(
        receiver, "_decode_symbols", lambda *args: calls.append(1) or decode(*args)
    )
    return calls


def assert_same_runs(got, want):
    (got_frames, got_report), (want_frames, want_report) = got, want
    assert [d.path for d in got_frames] == [d.path for d in want_frames]
    for a, b in zip(got_frames, want_frames):
        assert a.code.frame_index == b.code.frame_index
        assert a.code.coeffs.tobytes() == b.code.coeffs.tobytes(), a.code.frame_index
    assert got_report == want_report


@settings(max_examples=60)
@given(
    runs=st.lists(
        st.tuples(
            st.lists(st.booleans(), min_size=SHARED_FRAMES, max_size=SHARED_FRAMES),
            st.sampled_from([None, 0, 1, 5, 13]),
        ),
        min_size=2,
        max_size=5,
    )
)
def test_kept_decodes_match_runs_over_fresh_copies(tiny_model, shared_stream, runs):
    packets = shared_stream
    for flags, delay in runs:
        trace = trace_from_flags(flags)
        config = ReceiverConfig(FEC, delay)
        got = run_receiver(packets, trace, tiny_model, config)
        assert_same_runs(got, run_receiver(fresh_copies(packets), trace, tiny_model, config))
        for d in got[0]:
            if d.path == "entropy":
                assert not d.code.coeffs.flags.writeable


def test_kept_decode_follows_the_side_info_copy(tiny_model, shared_stream, monkeypatch):
    # frame 9 carries no block of its own: with packet 10 it decodes under
    # the offset-1 copy, without it under packet 22's different offset-13
    # copy, and a kept decode under one copy is not reused under the other
    packets = shared_stream
    config = ReceiverConfig(FEC)
    flags = np.zeros(SHARED_FRAMES, dtype=bool)
    lose_10 = flags.copy()
    lose_10[10] = True
    fresh = [run_receiver(fresh_copies(packets), trace_from_flags(f), tiny_model, config)
             for f in (flags, lose_10)]
    assert fresh[0][0][9].code.coeffs.tobytes() != fresh[1][0][9].code.coeffs.tobytes()
    run_receiver(packets, None, tiny_model, config)
    decodes = count_decodes(monkeypatch)
    for f, want in zip((lose_10, flags), fresh[::-1]):
        decodes.clear()
        assert_same_runs(run_receiver(packets, trace_from_flags(f), tiny_model, config), want)
        assert len(decodes) == 1  # frame 9 only; every other kept decode serves


def test_kept_decode_is_not_used_for_other_packet_objects(tiny_model, shared_stream):
    # a receiver fed packets that are not the decoded objects decodes them
    # itself: here frame 5's good payload under the very side info whose
    # kept decode failed
    config = ReceiverConfig(FEC)
    run_receiver(shared_stream, None, tiny_model, config)
    payload = encode_for(tiny_model, SHARED_FRAMES, FEC)[1].packets[5].payload
    good = Packet(5, 32, payload, shared_stream[5].z_blocks)
    events = shared_stream[:5] + [good] + shared_stream[6:]
    decoded = run_receiver(events, None, tiny_model, config)
    assert decoded[0][5].path == "entropy"
    assert_same_runs(decoded, run_receiver(fresh_copies(events), None, tiny_model, config))


def test_kept_codes_are_read_only(tiny_model, shared_stream):
    decoded, _ = run_receiver(shared_stream, None, tiny_model, ReceiverConfig(FEC))
    with pytest.raises(ValueError, match="read-only"):
        decoded[0].code.coeffs[0] = 1.0
    again, _ = run_receiver(shared_stream, None, tiny_model, ReceiverConfig(FEC))
    assert again[0].code is decoded[0].code


def test_another_model_decodes_the_packets_again(tiny_model, shared_stream, monkeypatch):
    # a kept decode belongs to the model object that made it: an equal twin
    # decodes every usable received packet afresh, to the same output
    config = ReceiverConfig(FEC)
    want = run_receiver(shared_stream, None, tiny_model, config)
    twin = dataclasses.replace(tiny_model)
    decodes = count_decodes(monkeypatch)
    got = run_receiver(shared_stream, None, twin, config)
    assert len(decodes) == SHARED_FRAMES - 1  # all but the unusable frame 14
    assert_same_runs(got, want)
    assert got[0][0].code is not want[0][0].code


def test_a_decoded_packet_stays_the_same_value(tiny_model):
    clip, res = encode_for(tiny_model, 20, FEC)
    packets = res.packets
    del res
    copies = fresh_copies(packets)
    wire = [serialize(p) for p in packets]
    decoded, _ = run_receiver(packets, None, tiny_model, ReceiverConfig(FEC))
    assert packets == copies
    assert [serialize(p) for p in packets] == wire
    again, _ = run_receiver(packets, None, tiny_model, ReceiverConfig(FEC))
    assert again[3].code is decoded[3].code
    kept = weakref.ref(decoded[3].code)
    # kept decodes live exactly as long as the packets and the outputs
    del packets, decoded, again
    assert kept() is None


@settings(max_examples=100)
@given(
    flags=st.lists(st.booleans(), min_size=0, max_size=SHARED_FRAMES),
    delay=st.one_of(st.none(), st.integers(0, 20)),
)
def test_receiver_holds_at_most_delay_frames(tiny_model, shared_stream, flags, delay):
    config = ReceiverConfig(FEC, delay)
    rx = Receiver(tiny_model, config)
    for t, lost in enumerate(flags):
        rx.ingest(LostPacket(t) if lost else shared_stream[t])
        assert len(rx._pending) == min(t + 1, config.delay)
        assert len(rx._cache) <= config.delay
