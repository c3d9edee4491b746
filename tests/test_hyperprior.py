import dataclasses
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxfec.hyperprior import (
    CODEBOOK_SIZE,
    CodecModel,
    ConfidenceTokens,
    RvqCodebooks,
    SideInfo,
    _nearest,
    apply_confidence,
    calibrate,
    hyper_analysis,
    hyper_synthesis,
    load_model,
    rvq_decode,
    rvq_encode,
    save_model,
)
from tests.conftest import build_model


def toy_books():
    # two tiny stages embedded in full-size codebooks (rest far away)
    stages = np.full((2, CODEBOOK_SIZE, 2), 1e6)
    stages[0, 0] = [0.0, 0.0]
    stages[0, 1] = [1.0, 1.0]
    stages[1, 0] = [0.0, 0.0]
    stages[1, 1] = [0.5, -0.5]
    return RvqCodebooks(stages)


def test_hyper_analysis_zero_constant_and_oracle():
    assert np.all(hyper_analysis(np.zeros(320), 16) == 0.0)
    assert np.allclose(hyper_analysis(np.full(320, 2.5), 16), 2.5)
    rng = np.random.default_rng(2)
    y = rng.normal(size=320)
    got = hyper_analysis(y, 16)
    want = np.array([y[b * 20 : (b + 1) * 20].sum() / 20.0 for b in range(16)])
    assert np.allclose(got, want, atol=1e-12)


def test_hyper_analysis_dimension_mismatch():
    with pytest.raises(ValueError, match="not divisible"):
        hyper_analysis(np.zeros(10), 3)
    # 30 values divide by 3, but each 10-dim row does not
    with pytest.raises(ValueError, match="latent dimension 10 not divisible"):
        hyper_analysis(np.zeros((3, 10)), 3)


def test_hyper_analysis_pools_each_row_of_a_matrix():
    y = np.arange(640.0).reshape(2, 320)
    got = hyper_analysis(y, 16)
    assert got.shape == (2, 16)
    assert got[0, 0] == 9.5 and got[1, 0] == 329.5
    rng = np.random.default_rng(5)
    y = rng.normal(size=(50, 320))
    got = hyper_analysis(y, 16)
    for t in range(50):
        assert got[t].tobytes() == hyper_analysis(y[t], 16).tobytes()


def test_rvq_toy_example():
    books = toy_books()
    si = rvq_encode(np.array([1.4, 0.6]), books)
    assert si.indices == (1, 1)
    recon = rvq_decode(si, books)
    assert np.allclose(recon, [1.5, 0.5])


def test_rvq_norms_are_the_squared_centroid_norms(tiny_model):
    books = toy_books()
    assert books.norms.shape == (2, CODEBOOK_SIZE)
    assert books.norms[0, :2].tolist() == [0.0, 2.0]
    assert books.norms[1, :2].tolist() == [0.0, 0.5]
    assert books.norms[0, 2] == 2e12
    books = tiny_model.codebooks
    assert books.norms is books.norms
    assert np.allclose(books.norms, (books.stages**2).sum(axis=2), rtol=1e-14, atol=0)


def test_rvq_exact_match_case():
    books = toy_books()
    si = rvq_encode(np.array([1.0, 1.0]), books)
    assert si.indices == (1, 0)
    assert np.allclose(rvq_decode(si, books), [1.0, 1.0])


def test_rvq_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    stages = np.full((2, CODEBOOK_SIZE, 3), 1e6)
    stages[0, :8] = rng.normal(size=(8, 3))
    stages[1, :8] = 0.3 * rng.normal(size=(8, 3))
    stages[1, 0] = 0.0
    books = RvqCodebooks(stages)
    for _ in range(50):
        v = rng.normal(size=3)
        si = rvq_encode(v, books)
        residual = v.copy()
        for s in range(2):
            d2 = np.sum((books.stages[s] - residual) ** 2, axis=1)
            best = int(np.argmin(d2))
            assert si.indices[s] == best
            residual = residual - books.stages[s, best]


def test_rvq_residual_energy_non_increasing():
    # vectorized over 10^4 random inputs: residual energy never grows with
    # the stage count
    rng = np.random.default_rng(8)
    data = rng.normal(0, 1, size=(10_000, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        books, _ = calibrate(rng.normal(0, 1, size=(500, 8)), q=3, seed=5, d_z=4)
    residual = data.copy()
    prev = np.einsum("nd,nd->n", residual, residual)
    for s in range(3):
        cents = books.stages[s]
        d2 = (
            np.einsum("nd,nd->n", residual, residual)[:, None]
            - 2.0 * (residual @ cents.T)
            + np.einsum("kd,kd->k", cents, cents)
        )
        residual = residual - cents[np.argmin(d2, axis=1)]
        energy = np.einsum("nd,nd->n", residual, residual)
        assert np.all(energy <= prev + 1e-12)
        prev = energy
    # the vectorized walk matches the per-vector operation
    for v in data[:50]:
        si = rvq_encode(v, books)
        recon = rvq_decode(si, books)
        assert np.sum((v - recon) ** 2) <= np.sum(v**2) + 1e-12


def test_sideinfo_validation():
    with pytest.raises(ValueError, match="out of range"):
        SideInfo((1024,), 0)


def make_small_model(d_y=8, d_z=4, q=1, seed=3):
    rng = np.random.default_rng(seed)
    return build_model(rng.normal(0, 0.2, size=(600, d_y)), q=q, seed=seed, d_z=d_z)


def test_hyper_synthesis_unmasked():
    model = make_small_model()
    theta = hyper_synthesis(np.zeros(4), model)
    assert np.all(theta.mu == 0.0)
    assert np.allclose(theta.sigma, np.maximum(model.sigma_table, model.sigma_min))
    rng = np.random.default_rng(1)
    z = rng.normal(size=4)
    theta = hyper_synthesis(z, model)
    want = np.empty(8)
    for b in range(4):  # explicit per-block replication oracle
        want[2 * b] = z[b]
        want[2 * b + 1] = z[b]
    assert np.array_equal(theta.mu, want)


def test_sigma_always_floored():
    model = make_small_model()
    theta = hyper_synthesis(np.zeros(4), model)
    assert np.all(theta.sigma >= model.sigma_min)


def test_apply_confidence():
    tokens = ConfidenceTokens(np.full(2, 0.1), np.full(2, -0.1), np.zeros((1, 2)))
    y = np.array([1.0, 1.0])
    assert np.allclose(apply_confidence(y, True, tokens), [1.1, 1.1])
    assert np.allclose(apply_confidence(y, False, tokens), [0.9, 0.9])
    zero = ConfidenceTokens.zeros(2, 1, 2)
    assert np.allclose(apply_confidence(y, True, zero), y)
    assert np.allclose(apply_confidence(y, False, zero), y)


def test_calibrate_repeated_vector_degenerate():
    vec = np.tile(np.array([1.0, -1.0, 0.5, 0.25, 0.0, 0.0, 2.0, -2.0]), (50, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        books, _ = calibrate(vec, q=1, seed=2, d_z=4)
    si = rvq_encode(hyper_analysis(vec[0], 4), books)
    recon = rvq_decode(si, books)
    assert np.allclose(recon, hyper_analysis(vec[0], 4), atol=1e-12)


def test_nearest_matches_the_written_out_distance():
    # the in-place distance buffer must pick what the plain expression
    # picks, or model files would change; mirror pairs x +- e sit at equal
    # true distance from x, so rounding decides between them
    rng = np.random.default_rng(13)
    for _ in range(40):
        n, d = rng.integers(1, 200), rng.integers(1, 17)
        data = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-5, 3)
        x = data[rng.integers(0, n, 32)]
        e = rng.normal(size=x.shape) * np.abs(x).max() * 10.0 ** rng.uniform(-8, 0)
        cents = np.concatenate([x + e, x - e])
        sq = np.einsum("nd,nd->n", data, data)
        d2 = sq[:, None] - 2.0 * (data @ cents.T) + np.einsum("kd,kd->k", cents, cents)
        assert np.array_equal(_nearest(data, sq, cents), np.argmin(d2, axis=1))


def test_calibrate_deterministic():
    rng = np.random.default_rng(21)
    codes = rng.normal(0, 0.3, size=(400, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        b1, s1 = calibrate(codes, q=2, seed=9, d_z=4)
        b2, s2 = calibrate(codes, q=2, seed=9, d_z=4)
    assert b1.checksum == b2.checksum
    assert np.array_equal(b1.stages, b2.stages)
    assert np.array_equal(s1, s2)


def test_calibrate_warns_on_small_corpus():
    rng = np.random.default_rng(22)
    with pytest.warns(UserWarning, match="below the recommended"):
        calibrate(rng.normal(size=(50, 8)), q=1, seed=1, d_z=4)


def test_sigma_table_recovers_known_band_noise():
    # band values from a small exactly-representable set, plus within-band
    # noise with zero block mean and std 0.1: sigma_table ~= 0.1
    rng = np.random.default_rng(23)
    n, d_z, block = 4000, 4, 5
    vocab = rng.normal(0, 1.0, size=(32, d_z))
    bands = vocab[rng.integers(0, 32, size=n)]
    noise = rng.normal(0, 0.1 / np.sqrt(1 - 1 / block), size=(n, d_z, block))
    noise -= noise.mean(axis=2, keepdims=True)
    codes = np.repeat(bands, block, axis=1) + noise.reshape(n, d_z * block)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, sigma_table = calibrate(codes, q=1, seed=4, d_z=d_z)
    assert np.all(np.abs(sigma_table - 0.1) < 0.005)


def test_model_file_round_trip(tmp_path, tiny_model):
    path = tmp_path / "m.vxm"
    crc = save_model(path, tiny_model)
    back = load_model(path)
    assert back.d_y == tiny_model.d_y
    assert back.q == tiny_model.q
    assert np.array_equal(back.sigma_table, tiny_model.sigma_table)
    assert np.array_equal(back.codebooks.stages, tiny_model.codebooks.stages)
    assert back.content_crc == crc == tiny_model.content_crc


def test_model_file_rejects_corruption(tmp_path, tiny_model):
    path = tmp_path / "m.vxm"
    save_model(path, tiny_model)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="checksum mismatch"):
        load_model(path)
    path.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(ValueError, match="not a codec model"):
        load_model(path)


def test_model_file_rejects_other_versions(tmp_path, tiny_model):
    path = tmp_path / "m.vxm"
    save_model(path, tiny_model)
    body = bytearray(path.read_bytes()[:-4])
    for version in (0, 2, 7):
        # a well-formed file in every other respect, its CRC recomputed
        struct.pack_into("<H", body, 4, version)
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(ValueError, match=f"unsupported model version {version}"):
            load_model(path)


def test_model_file_rejects_zero_side_info_dimension(tmp_path):
    # a CRC-valid file with d_z = 0 and no codebook stages
    d_y = 8
    body = (
        b"GLRM"
        + struct.pack("<HHHHB", 1, d_y, d_y, 0, 0)
        + struct.pack("<ddd", 0.05 / 1024, 0.9, 4.0)
        + np.ones(3 * d_y).astype("<f8").tobytes()  # sigma_table, m_high, m_low
    )
    path = tmp_path / "m.vxm"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(ValueError, match="side-info dimension 0 must be at least 1"):
        load_model(path)


@pytest.mark.parametrize("d_y, q", [(65536, 0), (16, 256)])
def test_model_rejects_sizes_its_file_cannot_hold(d_y, q):
    # d_y is a u16 field of the model file and q a u8 one
    books = RvqCodebooks(np.zeros((q, CODEBOOK_SIZE, 1))) if q else None
    with pytest.raises(ValueError, match=f"model sizes d_l {d_y}, d_y {d_y}, q {q}: need"):
        CodecModel(
            d_l=d_y,
            d_y=d_y,
            d_z=1,
            q=q,
            sigma_min=0.05 / 1024,
            rho=0.9,
            kappa=4.0,
            sigma_table=np.ones(d_y),
            tokens=ConfidenceTokens.zeros(d_y, max(q, 1), 1),
            codebooks=books,
        )


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, tiny_model):
    """The tiny model's file bytes, and a path to write edited copies to."""
    d = tmp_path_factory.mktemp("model")
    save_model(d / "m.vxm", tiny_model)
    return (d / "m.vxm").read_bytes(), d / "edited.vxm"


def _load_bytes(path, blob):
    path.write_bytes(blob)
    return load_model(path)


@settings(max_examples=100)
@given(data=st.data())
def test_model_file_cut_anywhere_is_rejected(model_file, data):
    blob, path = model_file
    with pytest.raises(ValueError):
        _load_bytes(path, blob[: data.draw(st.integers(0, len(blob) - 1))])


# the model file's integer header fields: offset and struct format
_MODEL_FIELDS = {
    "version": (4, "<H"),
    "d_l": (6, "<H"),
    "d_y": (8, "<H"),
    "d_z": (10, "<H"),
    "q": (12, "<B"),
}


@settings(max_examples=200)
@given(field=st.sampled_from(sorted(_MODEL_FIELDS)), data=st.data())
def test_model_file_header_edits_load_the_same_model_or_are_rejected(model_file, field, data):
    # one integer header field set to any value it can hold, the CRC
    # recomputed: the file loads only when the value is unchanged
    blob, path = model_file
    at, fmt = _MODEL_FIELDS[field]
    value = data.draw(st.integers(0, (1 << 8 * struct.calcsize(fmt)) - 1))
    body = bytearray(blob[:-4])
    struct.pack_into(fmt, body, at, value)
    try:
        model = _load_bytes(path, bytes(body) + struct.pack("<I", zlib.crc32(body)))
    except ValueError:
        return
    assert bytes(body) == blob[:-4] and model.content_crc == zlib.crc32(body)


def test_model_stage_count_is_q(tiny_model):
    # the file holds q stages, so a model with more codebook stages than q
    # would code side info that its own file cannot decode
    books = RvqCodebooks(np.zeros((2, CODEBOOK_SIZE, tiny_model.d_z)))
    tokens = ConfidenceTokens.zeros(tiny_model.d_y, 2, tiny_model.d_z)
    two = dataclasses.replace(tiny_model, q=2, codebooks=books, tokens=tokens)
    with pytest.raises(ValueError, match="model q 1 with 2 codebook stages"):
        dataclasses.replace(two, q=1)
    with pytest.raises(ValueError, match="model q 0 with 1 codebook stages"):
        dataclasses.replace(tiny_model, q=0)
    with pytest.raises(ValueError, match="model q 1 with 0 codebook stages"):
        dataclasses.replace(tiny_model, codebooks=None)


@pytest.mark.parametrize(
    "m_high, m_low, m_z",
    [(7, 8, (2, 4)), (1, 8, (2, 4)), (8, 7, (2, 4)), (8, 8, (1, 4)), (8, 8, (2, 3))],
    ids=["m_high7", "m_high1", "m_low7", "m_z1row", "m_z3col"],
)
def test_model_rejects_confidence_tokens_of_other_shapes(tiny_model, m_high, m_low, m_z):
    # an 8-dim, 2-stage model; the file stores (d_y,) twice and (q, d_z),
    # so any other shape would save a file that load_model cannot read
    books = RvqCodebooks(np.zeros((2, CODEBOOK_SIZE, tiny_model.d_z)))
    tokens = ConfidenceTokens(np.zeros(m_high), np.zeros(m_low), np.zeros(m_z))
    with pytest.raises(ValueError, match="confidence tokens of shapes"):
        dataclasses.replace(tiny_model, q=2, codebooks=books, tokens=tokens)


def test_model_rejects_codebooks_of_another_dimension():
    books = RvqCodebooks(np.zeros((1, CODEBOOK_SIZE, 8)))
    with pytest.raises(ValueError, match="codebooks have dimension 8, model d_z 16"):
        CodecModel(
            d_l=320,
            d_y=320,
            d_z=16,
            q=1,
            sigma_min=0.05 / 1024,
            rho=0.9,
            kappa=4.0,
            sigma_table=np.ones(320),
            tokens=ConfidenceTokens.zeros(320, 1, 16),
            codebooks=books,
        )


def test_encoder_decoder_theta_bit_identical(tiny_model):
    # the entropy-coding precondition: both ends expand the same bits to
    # the exact same parameters
    rng = np.random.default_rng(31)
    v = rng.normal(0, 0.2, size=4)
    si = rvq_encode(v, tiny_model.codebooks)
    z1 = rvq_decode(si, tiny_model.codebooks, tiny_model.tokens.m_z)
    z2 = rvq_decode(
        SideInfo(si.indices, si.frame_index), tiny_model.codebooks, tiny_model.tokens.m_z
    )
    t1 = hyper_synthesis(z1, tiny_model)
    t2 = hyper_synthesis(z2, tiny_model)
    assert np.array_equal(t1.mu, t2.mu) and np.array_equal(t1.sigma, t2.sigma)
