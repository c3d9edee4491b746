"""Loss-resilient speech transport simulator.

Latent transform coding with a scalar-quantized Gaussian entropy model,
fixed-length side information reused as both entropy-coder conditioning and
in-band redundancy, confidence-tagged concealment of lost frames, packet
loss channel models, and an evaluation harness.
"""

from .channel import (
    LossTrace,
    Markov3Params,
    PRESETS,
    gen_bernoulli,
    gen_markov3,
    load_trace,
    save_trace,
    stationary_loss_rate,
    trace_stats,
)
from .frontend import (
    FRAME_SAMPLES,
    LatentFrame,
    PcmClip,
    SAMPLE_RATE,
    frame_decode,
    frame_encode,
    frame_rows,
    pcm_from_rows,
    read_wav,
    write_wav,
)
from .hyperprior import (
    CodecModel,
    ConfidenceTokens,
    GaussianParams,
    RvqCodebooks,
    SideInfo,
    apply_confidence,
    calibrate,
    hyper_analysis,
    hyper_synthesis,
    load_model,
    rvq_decode,
    rvq_encode,
    save_model,
)
from .metrics import WaveMetrics, compute_metrics
from .packets import (
    BitrateReport,
    FecConfig,
    Packet,
    account_stream,
    build_packet,
    parse,
    prob_all_copies_lost,
    read_container,
    redundancy_bitrate,
    serialize,
    write_container,
)
from .pipeline import decode_stream, encode_stream, run_receiver, simulate_stream
from .rangecoder import (
    Bitstream,
    CdfTable,
    DecodeFailure,
    build_cdf,
    decode_frame,
    encode_frame,
    measure_rate,
)
from .receiver import (
    DecodedFrame,
    LostPacket,
    ProtocolError,
    Receiver,
    ReceiverConfig,
    ReceiverReport,
)
from .transform import (
    LatentCode,
    QuantizedLatent,
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

__version__ = "0.1.0"
