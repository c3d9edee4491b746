import numpy as np
import pytest

from voxfec.frontend import (
    FRAME_SAMPLES,
    LatentFrame,
    PcmClip,
    frame_decode,
    frame_encode,
    read_wav,
    write_wav,
)


def clip_of(samples):
    return PcmClip(np.asarray(samples, dtype=np.int16))


def test_exact_division_two_frames():
    frames = frame_encode(clip_of(np.arange(640)))
    assert len(frames) == 2
    assert [f.frame_index for f in frames] == [0, 1]
    assert all(f.coeffs.size == FRAME_SAMPLES for f in frames)


def test_padding_rule_321_samples():
    frames = frame_encode(clip_of(np.ones(321)))
    assert len(frames) == 2
    assert np.all(frames[1].coeffs[1:] == 0.0)
    assert frames[1].coeffs[0] == 1.0 / 32768.0


def test_zero_clip_single_frame():
    frames = frame_encode(clip_of(np.zeros(320)))
    assert len(frames) == 1
    assert np.all(frames[0].coeffs == 0.0)


def test_empty_clip_rejected():
    with pytest.raises(ValueError, match="empty input"):
        PcmClip(np.array([], dtype=np.int16))


def test_frame_count_exhaustive():
    # ceil rule over every length up to ten frames
    for n in range(1, 10 * FRAME_SAMPLES + 1):
        frames = frame_encode(clip_of(np.zeros(n)))
        assert len(frames) == -(-n // FRAME_SAMPLES), n


def test_round_trip_bit_exact():
    rng = np.random.default_rng(5)
    for n in (1, 319, 320, 321, 1000, 4800):
        samples = rng.integers(-32768, 32768, size=n).astype(np.int16)
        clip = clip_of(samples)
        back = frame_decode(frame_encode(clip), n)
        assert np.array_equal(back.samples, samples)


def test_saturation():
    frames = [LatentFrame(np.full(FRAME_SAMPLES, 1.5), 0)]
    out = frame_decode(frames, FRAME_SAMPLES)
    assert np.all(out.samples == 32767)
    frames = [LatentFrame(np.full(FRAME_SAMPLES, -1.5), 0)]
    out = frame_decode(frames, FRAME_SAMPLES)
    assert np.all(out.samples == -32768)


def test_decode_empty_sequence_rejected():
    with pytest.raises(ValueError, match="empty input"):
        frame_decode([], 320)


def test_decode_gap_rejected():
    frames = [
        LatentFrame(np.zeros(FRAME_SAMPLES), 0),
        LatentFrame(np.zeros(FRAME_SAMPLES), 2),
    ]
    with pytest.raises(ValueError, match="discontinuous stream"):
        frame_decode(frames, 640)


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    clip = clip_of(rng.integers(-32768, 32768, size=5000).astype(np.int16))
    path = tmp_path / "x.wav"
    write_wav(path, clip)
    back = read_wav(path)
    assert np.array_equal(back.samples, clip.samples)


def test_wav_rejects_stereo(tmp_path):
    import wave

    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(b"\x00\x00" * 200)
    with pytest.raises(ValueError, match="channel count"):
        read_wav(path)


def test_wav_rejects_wrong_rate(tmp_path):
    import wave

    path = tmp_path / "cd.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(44100)
        w.writeframes(b"\x00\x00" * 100)
    with pytest.raises(ValueError, match="sample rate"):
        read_wav(path)


def test_wav_rejects_wrong_width(tmp_path):
    import wave

    path = tmp_path / "w8.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(16000)
        w.writeframes(b"\x00" * 100)
    with pytest.raises(ValueError, match="sample width"):
        read_wav(path)


def test_wav_rejects_garbage(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"not a riff file at all")
    with pytest.raises(ValueError):
        read_wav(path)
