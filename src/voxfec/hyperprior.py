"""Side-information model.

A compact per-frame summary vector is pooled from the latent code, coded
with residual vector quantization into a fixed tuple of 10-bit indices, and
expanded at both ends into per-dimension Gaussian parameters. The same
expansion serves two consumers: it conditions the entropy coder for
received frames, and its mean is the concealment prediction for lost
frames. When no copy of the summary survives, the receiver repeats the last
emitted latent, decayed by rho.

Codebooks are produced offline by `calibrate` (residual k-means with
deterministic farthest-point seeding) together with a per-band spread table
measured on the calibration corpus. Model parameters travel in a small
binary file; see `save_model` / `load_model`.
"""

from __future__ import annotations

import struct
import warnings
import zlib
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .seeds import derive
from .transform import STEP_REF

CODEBOOK_BITS = 10
CODEBOOK_SIZE = 1 << CODEBOOK_BITS
D_Z_DEFAULT = 16
SIGMA_MIN_DEFAULT = 0.05 * STEP_REF
RHO_DEFAULT = 0.9
KAPPA_DEFAULT = 4.0
KMEANS_ITERS = 25

MODEL_MAGIC = b"GLRM"
MODEL_VERSION = 1


@dataclass(frozen=True)
class SideInfo:
    """Fixed-length index tuple describing one frame's summary vector."""

    indices: tuple[int, ...]
    frame_index: int

    def __post_init__(self):
        indices = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", indices)
        for i in indices:
            if not 0 <= i < CODEBOOK_SIZE:
                raise ValueError(f"side-info index {i} out of range")

    @property
    def stages(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class RvqCodebooks:
    """Stacked per-stage codebooks, each CODEBOOK_SIZE centroids of dim d_z."""

    stages: np.ndarray  # (q, CODEBOOK_SIZE, d_z)

    def __post_init__(self):
        stages = np.ascontiguousarray(self.stages, dtype=np.float64)
        object.__setattr__(self, "stages", stages)
        if stages.ndim != 3 or stages.shape[1] != CODEBOOK_SIZE:
            raise ValueError(f"bad codebook shape {stages.shape}")
        if not np.all(np.isfinite(stages)):
            raise ValueError("non-finite centroid")

    @cached_property
    def checksum(self) -> int:
        return zlib.crc32(self.stages.tobytes()) & 0xFFFFFFFF

    @cached_property
    def norms(self) -> np.ndarray:
        """Squared norm of every centroid, (n_stages, CODEBOOK_SIZE)."""
        return np.stack([np.einsum("kd,kd->k", cents, cents) for cents in self.stages])

    @property
    def n_stages(self) -> int:
        return int(self.stages.shape[0])

    @property
    def d_z(self) -> int:
        return int(self.stages.shape[2])


@dataclass(frozen=True)
class GaussianParams:
    """Per-dimension mean and spread conditioning the entropy coder."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if mu.shape != sigma.shape:
            raise ValueError("mu/sigma shape mismatch")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise ValueError("non-finite Gaussian parameters")
        if np.any(sigma <= 0):
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class ConfidenceTokens:
    """Additive markers distinguishing concealment with and without side info."""

    m_high: np.ndarray
    m_low: np.ndarray
    m_z: np.ndarray  # (max(q, 1), d_z), in the model file when q > 0; no stage is ever missing

    def __post_init__(self):
        object.__setattr__(self, "m_high", np.asarray(self.m_high, dtype=np.float64))
        object.__setattr__(self, "m_low", np.asarray(self.m_low, dtype=np.float64))
        object.__setattr__(self, "m_z", np.atleast_2d(np.asarray(self.m_z, dtype=np.float64)))
        for arr in (self.m_high, self.m_low, self.m_z):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite confidence token")

    @classmethod
    def zeros(cls, d_y: int, q: int, d_z: int) -> "ConfidenceTokens":
        return cls(np.zeros(d_y), np.zeros(d_y), np.zeros((max(q, 1), d_z)))


@dataclass(frozen=True)
class CodecModel:
    """Everything the encoder and receiver share: dims, tables, codebooks."""

    d_l: int
    d_y: int
    d_z: int
    q: int
    sigma_min: float
    rho: float
    kappa: float  # kept in the model file; no output depends on it
    sigma_table: np.ndarray
    tokens: ConfidenceTokens
    codebooks: RvqCodebooks | None

    def __post_init__(self):
        object.__setattr__(
            self, "sigma_table", np.asarray(self.sigma_table, dtype=np.float64)
        )
        # the DCT is square, and the sizes are u16 and u8 fields of the model file
        if not (self.d_l == self.d_y and 1 <= self.d_y <= 0xFFFF and 0 <= self.q <= 0xFF):
            raise ValueError(f"model sizes d_l {self.d_l}, d_y {self.d_y}, q {self.q}: "
                             "need d_l = d_y in 1..65535 and q in 0..255")
        if self.d_z < 1:
            raise ValueError(f"side-info dimension {self.d_z} must be at least 1")
        if self.d_y % self.d_z != 0:
            raise ValueError(
                f"latent dimension {self.d_y} not divisible by side-info dimension {self.d_z}"
            )
        if self.sigma_table.shape != (self.d_y,):
            raise ValueError("sigma_table must have one entry per latent dimension")
        stages = 0 if self.codebooks is None else self.codebooks.n_stages
        if stages != self.q or (self.codebooks is None) != (self.q == 0):
            raise ValueError(f"model q {self.q} with {stages} codebook stages: need one stage "
                             "per q, and no codebooks when q = 0")
        if self.codebooks is not None and self.codebooks.d_z != self.d_z:
            raise ValueError(
                f"codebooks have dimension {self.codebooks.d_z}, model d_z {self.d_z}"
            )
        # the shapes the model file stores; ConfidenceTokens.zeros builds them
        tokens = self.tokens
        if not (tokens.m_high.shape == tokens.m_low.shape == (self.d_y,)
                and tokens.m_z.shape == (max(self.q, 1), self.d_z)):
            raise ValueError(
                f"confidence tokens of shapes {tokens.m_high.shape}, {tokens.m_low.shape} and "
                f"{tokens.m_z.shape}: need ({self.d_y},), ({self.d_y},) and "
                f"({max(self.q, 1)}, {self.d_z})"
            )
        # the floats the coder and the concealment read; kappa is read by nothing
        floats = np.append(self.sigma_table, (self.sigma_min, self.rho))
        spreads = np.maximum(self.sigma_table, self.sigma_min)  # as hyper_synthesis floors them
        if not (np.all(np.isfinite(floats)) and np.all(spreads > 0)):
            raise ValueError("model sigma_table, sigma_min and rho must be finite, "
                             "and max(sigma_table, sigma_min) above 0")

    @property
    def block(self) -> int:
        return self.d_y // self.d_z

    def check_stages(self, q: int) -> None:
        """Raise ValueError unless the codebooks can code `q` side-info stages."""
        if q > self.q:
            raise ValueError(f"requested {q} side-info stages, model codebooks have {self.q}")

    @cached_property
    def content_crc(self) -> int:
        return zlib.crc32(_model_body(self)) & 0xFFFFFFFF

    def __getstate__(self):
        # caches built on first use (the CRC, and the CDF-table memo with up
        # to several MB of tables) stay behind in a pickle or a copy, which
        # rebuilds them as it needs them
        return {f.name: getattr(self, f.name) for f in fields(self)}


def hyper_analysis(coeffs: np.ndarray, d_z: int) -> np.ndarray:
    """Pool a latent code, or each row of a matrix of them, into d_z band
    means along the last axis."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-1] % d_z != 0:
        raise ValueError(
            f"latent dimension {coeffs.shape[-1]} not divisible by side-info dimension {d_z}"
        )
    return coeffs.reshape(*coeffs.shape[:-1], d_z, -1).mean(axis=-1)


def rvq_encode(
    v: np.ndarray,
    books: RvqCodebooks,
    n_stages: int | None = None,
    frame_index: int = 0,
) -> SideInfo:
    """Greedy residual quantization: each stage picks the nearest centroid of
    the running residual (squared Euclidean, ties to the lowest index)."""
    residual = np.asarray(v, dtype=np.float64).copy()
    if residual.shape != (books.d_z,):
        raise ValueError(f"vector dimension {residual.shape} != ({books.d_z},)")
    q = books.n_stages if n_stages is None else n_stages
    if q > books.n_stages:
        raise ValueError(f"requested {q} stages, codebooks have {books.n_stages}")
    indices = []
    for s in range(q):
        cents = books.stages[s]
        d2 = books.norms[s] - 2.0 * (cents @ residual)
        idx = int(np.argmin(d2))
        indices.append(idx)
        residual -= cents[idx]
    return SideInfo(tuple(indices), frame_index)


def rvq_decode(
    si: SideInfo, books: RvqCodebooks, mask_tokens: np.ndarray | None = None
) -> np.ndarray:
    """Sum the indexed centroids. Copies of side info are all-or-nothing, so
    no stage is ever masked and `mask_tokens` is unused."""
    if si.stages > books.n_stages:
        raise ValueError(f"side info has {si.stages} stages, codebooks {books.n_stages}")
    out = np.zeros(books.d_z)
    for s, idx in enumerate(si.indices):
        out += books.stages[s, idx]
    return out


def hyper_synthesis(z_hat: np.ndarray | None, model: CodecModel) -> GaussianParams:
    """Expand a decoded summary into Gaussian parameters over the latent:
    the mean is its block-wise broadcast, the spread the calibrated table
    floored at sigma_min."""
    z_hat = np.zeros(model.d_z) if z_hat is None else np.asarray(z_hat, dtype=np.float64)
    if z_hat.shape != (model.d_z,):
        raise ValueError(f"summary dimension {z_hat.shape} != ({model.d_z},)")
    mu = np.repeat(z_hat, model.block)
    return GaussianParams(mu, np.maximum(model.sigma_table, model.sigma_min))


def apply_confidence(
    y_p: np.ndarray, z_fully_available: bool, tokens: ConfidenceTokens
) -> np.ndarray:
    """Add the high- or low-confidence token to a concealment prediction."""
    token = tokens.m_high if z_fully_available else tokens.m_low
    return np.asarray(y_p, dtype=np.float64) + token


def _nearest(data: np.ndarray, sq_data: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Each row's nearest centroid: squared Euclidean, ties to the lowest index."""
    # sq_data - 2 data.cents + |cents|^2 in one buffer: scaling by -2 is
    # exact and x + (-y) is x - y, so the sums round as written
    d2 = data @ cents.T
    d2 *= -2.0
    d2 += sq_data[:, None]
    d2 += np.einsum("kd,kd->k", cents, cents)
    return np.argmin(d2, axis=1)


def _kmeans(data: np.ndarray, k: int, iters: int, seed: int) -> np.ndarray:
    """Plain Lloyd iterations with deterministic farthest-point seeding.

    Hand-rolled so that identical (corpus, seed) pairs give identical
    centroids; empty clusters keep their previous centroid. With fewer
    points than centroids, duplicates are expected and harmless.
    """
    n, d = data.shape
    cents = np.empty((k, d))
    first = derive(seed, 0x5EED) % n
    cents[0] = data[first]
    min_d2 = np.einsum("nd,nd->n", data - cents[0], data - cents[0])
    for j in range(1, k):
        nxt = int(np.argmax(min_d2))
        cents[j] = data[nxt]
        diff = data - cents[j]
        np.minimum(min_d2, np.einsum("nd,nd->n", diff, diff), out=min_d2)
    sq_data = np.einsum("nd,nd->n", data, data)
    for _ in range(iters):
        assign = _nearest(data, sq_data, cents)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros((k, d))
        np.add.at(sums, assign, data)
        occupied = counts > 0
        cents[occupied] = sums[occupied] / counts[occupied, None]
    return cents


def calibrate(
    codes: np.ndarray,
    q: int,
    seed: int,
    d_z: int = D_Z_DEFAULT,
    sigma_min: float = SIGMA_MIN_DEFAULT,
) -> tuple[RvqCodebooks | None, np.ndarray]:
    """Train the residual codebooks and the per-band spread table.

    `codes` is an (n, d_y) matrix of latent codes. Returns the codebooks
    (None when q == 0) and the d_y-long spread table, which holds the
    per-band standard deviation of the latent minus its broadcast decoded
    summary, floored at sigma_min.
    """
    codes = np.asarray(codes, dtype=np.float64)
    n, d_y = codes.shape
    vectors = hyper_analysis(codes, d_z)
    block = d_y // d_z
    if q > 0 and n < 100 * CODEBOOK_SIZE:
        warnings.warn(
            f"calibration corpus has {n} vectors, below the recommended "
            f"{100 * CODEBOOK_SIZE}; duplicated centroids are likely",
            stacklevel=2,
        )
    books = None
    residual = vectors.copy()
    if q > 0:
        stages = np.empty((q, CODEBOOK_SIZE, d_z))
        for s in range(q):
            # last slot pinned to the exact zero vector: choosing it leaves
            # the residual unchanged, so per-stage residual energy can never
            # grow, for any input
            cents = np.zeros((CODEBOOK_SIZE, d_z))
            cents[:-1] = _kmeans(residual, CODEBOOK_SIZE - 1, KMEANS_ITERS, derive(seed, s))
            assign = _nearest(residual, np.einsum("nd,nd->n", residual, residual), cents)
            residual -= cents[assign]
            stages[s] = cents
        books = RvqCodebooks(stages)
    z_hat = vectors - residual  # sum of all stage reconstructions
    resid_y = codes - np.repeat(z_hat, block, axis=1)
    band_sigma = resid_y.reshape(n, d_z, block).std(axis=(0, 2))
    sigma_table = np.maximum(np.repeat(band_sigma, block), sigma_min)
    return books, sigma_table


def _model_body(model: CodecModel) -> bytes:
    parts = [
        MODEL_MAGIC,
        struct.pack(
            "<HHHHB",
            MODEL_VERSION,
            model.d_l,
            model.d_y,
            model.d_z,
            model.q,
        ),
        struct.pack("<ddd", model.sigma_min, model.rho, model.kappa),
        model.sigma_table.astype("<f8").tobytes(),
        model.tokens.m_high.astype("<f8").tobytes(),
        model.tokens.m_low.astype("<f8").tobytes(),
    ]
    if model.q > 0:
        parts.append(model.tokens.m_z.astype("<f8").tobytes())
        parts.append(model.codebooks.stages.astype("<f8").tobytes())
    return b"".join(parts)


def save_model(path, model: CodecModel) -> int:
    """Write the model file; returns its content CRC32."""
    body = _model_body(model)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", crc))
    return crc


def load_model(path) -> CodecModel:
    """Read and validate a model file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 + 9 + 24 + 4 or blob[:4] != MODEL_MAGIC:
        raise ValueError("not a codec model file")
    body, crc_bytes = blob[:-4], blob[-4:]
    if zlib.crc32(body) & 0xFFFFFFFF != struct.unpack("<I", crc_bytes)[0]:
        raise ValueError("corrupt model file (checksum mismatch)")
    off = 4
    version, d_l, d_y, d_z, q = struct.unpack_from("<HHHHB", body, off)
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model version {version}")
    off += 9
    sigma_min, rho, kappa = struct.unpack_from("<ddd", body, off)
    off += 24

    def take(n_floats: int) -> np.ndarray:
        nonlocal off
        arr = np.frombuffer(body, dtype="<f8", count=n_floats, offset=off)
        off += 8 * n_floats
        return arr.astype(np.float64)

    sigma_table = take(d_y)
    m_high = take(d_y)
    m_low = take(d_y)
    if q > 0:
        m_z = take(q * d_z).reshape(q, d_z)
        stages = take(q * CODEBOOK_SIZE * d_z).reshape(q, CODEBOOK_SIZE, d_z)
        books = RvqCodebooks(stages)
    else:
        m_z = np.zeros((1, d_z))
        books = None
    if off != len(body):
        raise ValueError("corrupt model file (length mismatch)")
    tokens = ConfidenceTokens(m_high, m_low, m_z)
    return CodecModel(
        d_l=d_l,
        d_y=d_y,
        d_z=d_z,
        q=q,
        sigma_min=sigma_min,
        rho=rho,
        kappa=kappa,
        sigma_table=sigma_table,
        tokens=tokens,
        codebooks=books,
    )
