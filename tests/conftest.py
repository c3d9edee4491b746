import warnings

import numpy as np
import pytest
from hypothesis import settings

from voxfec.corpus import speech_like_clip
from voxfec.frontend import frame_rows
from voxfec.hyperprior import CodecModel, ConfidenceTokens, calibrate
from voxfec.transform import analysis_rows

# Timings on a shared machine drift by up to 1.6x, so a per-example
# deadline would make properties flake; none has one.
settings.register_profile("voxfec", deadline=None)
settings.load_profile("voxfec")


def build_model(codes, q, seed, d_z, sigma_min=0.05 / 1024, rho=0.9, kappa=4.0):
    """Calibrate a model on a code matrix, ignoring the small-corpus warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        books, sigma_table = calibrate(codes, q, seed, d_z=d_z, sigma_min=sigma_min)
    d_y = codes.shape[1]
    tokens = ConfidenceTokens.zeros(d_y, max(q, 1), d_z)
    return CodecModel(
        d_l=d_y,
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


@pytest.fixture(scope="session")
def tiny_model():
    """Small 8-dim model for fast pipeline tests."""
    rng = np.random.default_rng(11)
    codes = rng.normal(0.0, 0.2, size=(2000, 8))
    return build_model(codes, q=1, seed=3, d_z=4)


@pytest.fixture(scope="session")
def speech_clip():
    return speech_like_clip(64.0, 20260810)


@pytest.fixture(scope="session")
def speech_codes(speech_clip):
    return analysis_rows(frame_rows(speech_clip))


@pytest.fixture(scope="session")
def speech_model(speech_codes):
    return build_model(speech_codes, q=2, seed=1, d_z=16)
