"""Command-line front end: calibration, coding, loss simulation, sweeps.

Every subcommand accepts --config pointing to a JSON file whose keys match
the flag names (underscored). Each entry is parsed as its flag would be,
and explicit flags override it. All outputs are deterministic given
identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import corpus
from .channel import (
    Markov3Params,
    PRESETS,
    gen_bernoulli,
    gen_markov3,
    load_trace,
    stationary_loss_rate,
    trace_stats,
)
from .frontend import FRAME_SAMPLES, frame_rows, read_wav, write_wav
from .hyperprior import CodecModel, ConfidenceTokens, calibrate, load_model, save_model
from .hyperprior import D_Z_DEFAULT, KAPPA_DEFAULT, RHO_DEFAULT, SIGMA_MIN_DEFAULT
from .metrics import WaveMetrics, compute_metrics
from .packets import (
    FecConfig,
    account_stream,
    read_container,
    redundancy_bitrate,
    write_container,
)
from .pipeline import decode_stream, encode_stream, simulate_stream
from .receiver import ReceiverConfig
from .transform import RateControl, analysis_rows

METRICS_SCHEMA = "# voxfec metrics v1"
REPORT_SCHEMA = "# voxfec receiver-report v1"
TRACE_SCHEMA = "# voxfec trace-stats v1"

_METRIC_COLUMNS = (
    "point,bitrate_total_kbps,bitrate_src_kbps,bitrate_fec_kbps,mse,snr_db,"
    "seg_snr_db,snr_q10_db,frames,entropy_frames,plc_high_frames,"
    "plc_low_frames,z_recovery_rate"
)

# offsets used for sweep points by backup count
_SWEEP_OFFSETS = {0: (), 1: (1,), 2: (1, 13), 3: (1, 7, 13), 4: (1, 5, 9, 13)}


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _config_text(value) -> str:
    """A config value as it is typed after its flag: a list joined with
    commas, an object in JSON."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(map(_config_text, value))
    return json.dumps(value)


def _config_args(path: str) -> list[str]:
    """The entries of a JSON config file as the flags they name; null
    entries are left out."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    if "config" in cfg:
        # it would be parsed before the user's own --config, which wins
        raise ValueError(f"config file {path}: key 'config' cannot name another config file")
    return [f"--{key.replace('_', '-')}={_config_text(value)}"
            for key, value in cfg.items() if value is not None]


def _parse_offsets(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    return tuple(int(x) for x in raw.split(",")) if raw else ()


def _collect_wavs(path: str) -> list[Path]:
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.wav"))
        if not files:
            raise ValueError(f"no .wav files under {p}")
        return files
    return [p]


def _trace_for(args, length: int):
    if args.channel == "none" or (args.channel == "bernoulli" and args.loss_rate == 0.0):
        return None
    if args.channel == "bernoulli":
        return gen_bernoulli(args.loss_rate, length, args.seed)
    if args.channel == "markov":
        raw = args.markov_params
        if raw is not None:
            if not isinstance(raw, dict):
                raise ValueError("markov_params must be a JSON object")
            for key in ("transition", "loss_probs"):
                if key not in raw:
                    raise ValueError(f"markov_params lacks {key!r}")
            params = Markov3Params(
                np.asarray(raw["transition"], dtype=float),
                np.asarray(raw["loss_probs"], dtype=float),
                int(raw.get("initial_state", 0)),
            )
            label = "custom markov"
        else:
            params = PRESETS[args.preset]
            label = f"preset {args.preset}"
        print(f"{label}: analytic loss rate {_fmt(stationary_loss_rate(params))}")
        return gen_markov3(params, length, args.seed)
    if args.trace_file is None:
        raise ValueError("--channel trace needs --trace-file")
    tr = load_trace(args.trace_file)
    if len(tr) < length:
        raise ValueError(f"trace has {len(tr)} entries, stream needs {length}")
    return tr


def _metrics_row(
    point: str,
    report_rates,
    wave: WaveMetrics,
    rx_report,
) -> str:
    if report_rates is not None:
        total, src, fec = report_rates.total_kbps, report_rates.source_kbps, report_rates.redundant_kbps
    else:
        total = src = fec = float("nan")
    fields = [
        point,
        _fmt(total),
        _fmt(src),
        _fmt(fec),
        _fmt(wave.mse),
        _fmt(wave.snr_db),
        _fmt(wave.seg_snr_db),
        _fmt(wave.snr_q10_db),
        str(rx_report.frames),
        str(rx_report.entropy_count),
        str(rx_report.plc_high_count),
        str(rx_report.plc_low_count),
        _fmt(rx_report.z_recovery_rate),
    ]
    return ",".join(fields)


def _write_report_csv(path, report) -> None:
    fields = [
        str(report.frames),
        str(report.entropy_count),
        str(report.plc_high_count),
        str(report.plc_low_count),
        _fmt(report.z_recovery_rate),
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(REPORT_SCHEMA + "\n")
        fh.write(
            "frames,entropy_count,plc_high_count,plc_low_count,z_recovery_rate,"
            "mse_entropy,mse_plc_high,mse_plc_low\n"
        )
        # the v1 schema keeps its three per-path MSE columns; no run fills them
        fh.write(",".join(fields) + ",nan,nan,nan\n")


def cmd_calibrate(args) -> int:
    inputs = _collect_wavs(args.input)
    codes = np.concatenate(
        [analysis_rows(frame_rows(read_wav(path), FRAME_SAMPLES)) for path in inputs]
    )
    books, sigma_table = calibrate(codes, args.stages, args.seed, d_z=D_Z_DEFAULT)
    d_y = codes.shape[1]
    tokens = ConfidenceTokens.zeros(d_y, args.stages, D_Z_DEFAULT)
    model = CodecModel(
        d_l=d_y,
        d_y=d_y,
        d_z=D_Z_DEFAULT,
        q=args.stages,
        sigma_min=SIGMA_MIN_DEFAULT,
        rho=RHO_DEFAULT,
        kappa=KAPPA_DEFAULT,
        sigma_table=sigma_table,
        tokens=tokens,
        codebooks=books,
    )
    crc = save_model(args.out, model)
    print(f"model written to {args.out}")
    print(f"model checksum {crc:08x}")
    if books is not None:
        print(f"codebook checksum {books.checksum:08x}")
    return 0


def cmd_encode(args) -> int:
    clip = read_wav(args.input)
    model = load_model(args.model)
    fec = FecConfig(args.fec_q, args.fec_offsets)
    result = encode_stream(clip, model, args.q_lambda, fec)
    write_container(args.out, result.header, result.packets)
    print(f"container written to {args.out} ({result.header.frame_count} frames)")
    if result.report is not None:
        r = result.report
        print(
            f"bitrate kbps: total {_fmt(r.total_kbps)} source {_fmt(r.source_kbps)} "
            f"sideinfo {_fmt(r.sideinfo_kbps)} redundant {_fmt(r.redundant_kbps)}"
        )
    print(f"fec schedule: redundant {_fmt(redundancy_bitrate(fec))} kbps steady state")
    return 0


def _open_stream(args):
    header, packets = read_container(args.container)
    model = load_model(args.model)
    if model.content_crc != header.model_crc:
        raise ValueError("model checksum mismatch: container was encoded with a different model")
    return header, packets, model, ReceiverConfig(header.fec, args.delay)


def cmd_decode(args) -> int:
    header, packets, model, config = _open_stream(args)
    result = decode_stream(packets, model, config, header.sample_count)
    write_wav(args.out, result.clip)
    print(f"decoded {header.frame_count} frames to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    header, packets, model, config = _open_stream(args)
    trace = _trace_for(args, len(packets))
    result = simulate_stream(packets, trace, model, config, header.sample_count)
    if args.out_wav:
        write_wav(args.out_wav, result.clip)
    if args.ref:
        ref = read_wav(args.ref)
    else:
        # the packets keep the lossy run's decodes, so this reuses them
        ref = decode_stream(packets, model, config, header.sample_count).clip
    wave = compute_metrics(ref, result.clip)
    rates = account_stream(packets, header.fec.frame_rate) if len(packets) >= header.fec.frame_rate else None
    if args.out_csv:
        with open(args.out_csv, "w", encoding="ascii") as fh:
            fh.write(METRICS_SCHEMA + "\n")
            fh.write(_METRIC_COLUMNS + "\n")
            fh.write(_metrics_row("simulate", rates, wave, result.report) + "\n")
    if args.report_csv:
        _write_report_csv(args.report_csv, result.report)
    r = result.report
    print(
        f"frames {r.frames}: entropy {r.entropy_count}, plc_high {r.plc_high_count}, "
        f"plc_low {r.plc_low_count}, z-recovery {_fmt(r.z_recovery_rate)}"
    )
    print(f"snr {_fmt(wave.snr_db)} dB, q10 {_fmt(wave.snr_q10_db)} dB")
    return 0


def cmd_sweep(args) -> int:
    clip = read_wav(args.input)
    model = load_model(args.model)
    fec = FecConfig(args.fec_q, args.fec_offsets)

    # points are (label, rate index, fec, loss rate), all checked before any is coded
    if args.axis == "q_lambda":
        vals = [int(v) for v in (args.values or "0,8,16,24,32,40,48,56,63").split(",")]
        model.check_stages(fec.q)
        points = [(f"q{v}", v, fec, args.loss_rate) for v in vals]
    elif args.axis == "loss":
        vals = [float(v) for v in (args.values or "0,0.05,0.1,0.2,0.3").split(",")]
        points = [(f"p{_fmt(v)}", args.q_lambda, fec, v) for v in vals]
    else:
        points = []
        for v in (args.values or "1x1,2x1,2x2").split(","):
            try:
                q, n = map(int, v.lower().split("x"))
            except ValueError:
                raise ValueError(f"fec point {v!r}: expected QxN, e.g. 2x2") from None
            offsets = _SWEEP_OFFSETS.get(n)
            if offsets is None:
                raise ValueError(f"fec point {v!r}: backup count {n} out of range 0..4")
            points.append((f"fec{v}", args.q_lambda, FecConfig(q, offsets), args.loss_rate))
            model.check_stages(q)
    for _, q, _, p in points:
        RateControl(q)  # raises on a rate index out of range
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability {p} out of range")

    rows, result = [], None
    for label, q, point_fec, p in points:
        # the encoding does not depend on the loss rate, so a loss sweep
        # codes the stream once and decodes each packet at most once
        if result is None or args.axis != "loss":
            result = encode_stream(clip, model, q, point_fec)
        trace = gen_bernoulli(p, len(result.packets), args.seed) if p > 0 else None
        config = ReceiverConfig(result.header.fec, args.delay)
        sim = simulate_stream(result.packets, trace, model, config, result.header.sample_count)
        rows.append(_metrics_row(label, result.report, compute_metrics(clip, sim.clip), sim.report))
        print(f"{label}: done")
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(METRICS_SCHEMA + "\n")
        fh.write(_METRIC_COLUMNS + "\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"sweep written to {args.out}")
    return 0


def cmd_trace_stats(args) -> int:
    st = trace_stats(load_trace(args.trace))
    print(TRACE_SCHEMA)
    cols = ["loss_rate", "max_burst"] + [f"hist_{k}" for k in st.burst_histogram]
    vals = [_fmt(st.loss_rate), str(st.max_burst)] + [
        str(v) for v in st.burst_histogram.values()
    ]
    print(",".join(cols))
    print(",".join(vals))
    return 0


def cmd_make_corpus(args) -> int:
    clip = corpus.speech_like_clip(args.duration, args.seed)
    write_wav(args.out, clip)
    print(f"corpus written to {args.out} ({clip.duration_s:.1f} s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxfec",
        description="Loss-resilient speech transport simulator",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON file of option values; flags given here win")
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        p.set_defaults(handler=fn)

    def need(text):
        return {"required": True, "help": text}

    def default(value, text, **kwargs):
        return {"default": value, "help": f"{text} (default %(default)s)", **kwargs}

    seed = default(1, "random seed", type=int)
    q_lambda = default(32, "rate index 0..63", type=int)
    loss_rate = default(0.0, "Bernoulli loss probability", type=float)
    fec = {
        "fec_q": default(2, "side-info stages per copy", type=int),
        "fec_offsets": default("1,13", "comma-separated backup offsets", type=_parse_offsets),
    }
    delay = {"type": int, "help": "playout delay in frames (default: the largest backup offset)"}

    add(
        "calibrate",
        cmd_calibrate,
        input=need("WAV file or directory of WAVs"),
        stages=default(2, "RVQ stages to train", type=int),
        seed=seed,
        out=need("output model file"),
    )
    add(
        "encode",
        cmd_encode,
        input=need("input WAV"),
        model=need("model file"),
        q_lambda=q_lambda,
        **fec,
        out=need("output container"),
    )
    add(
        "decode",
        cmd_decode,
        container=need("stream container"),
        model=need("model file"),
        delay=delay,
        out=need("output WAV"),
    )
    add(
        "simulate",
        cmd_simulate,
        container=need("stream container"),
        model=need("model file"),
        channel=default(
            "bernoulli", "loss channel", choices=["bernoulli", "markov", "trace", "none"]
        ),
        loss_rate=loss_rate,
        preset=default("burst10", "markov preset", choices=sorted(PRESETS)),
        markov_params={
            "type": json.loads,
            "help": "JSON object with transition, loss_probs and optionally initial_state",
        },
        trace_file={"help": "loss trace for --channel trace"},
        seed=seed,
        delay=delay,
        ref={"help": "reference WAV for metrics (default: loss-free decode)"},
        out_wav={"help": "output WAV"},
        out_csv={"help": "metrics CSV"},
        report_csv={"help": "receiver report CSV"},
    )
    add(
        "sweep",
        cmd_sweep,
        input=need("input WAV"),
        model=need("model file"),
        axis=default("q_lambda", "swept value", choices=["q_lambda", "loss", "fec"]),
        values={"help": "comma-separated axis values (default: a set for each axis)"},
        q_lambda=q_lambda,
        loss_rate=loss_rate,
        **fec,
        delay=delay,
        seed=seed,
        out=need("output CSV"),
    )
    add("trace-stats", cmd_trace_stats, trace=need("trace file"))
    add(
        "make-corpus",
        cmd_make_corpus,
        duration=default(64.0, "seconds of speech", type=float),
        seed=default(20260810, "corpus seed", type=int),
        out=need("output WAV"),
    )
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config", nargs="?")
    path = pre.parse_known_args(argv)[0].config
    try:
        if path:
            # config entries go right after the subcommand, so that the
            # user's own flags, parsed later, win
            argv = argv[:1] + _config_args(path) + argv[1:]
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
