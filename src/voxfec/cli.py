"""Command-line front end: calibration, coding, loss simulation, sweeps.

Every subcommand accepts --config pointing to a JSON file whose keys match
the flag names (underscored); explicit flags override config values. All
outputs are deterministic given identical inputs and seeds.
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


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    return cfg


def _merged(args: argparse.Namespace, key: str, default=None):
    val = getattr(args, key, None)
    if val is not None:
        return val
    return args._config.get(key, default)


def _require(args: argparse.Namespace, key: str):
    val = _merged(args, key)
    if val is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return val


def _parse_offsets(raw) -> tuple[int, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(int(x) for x in raw)
    raw = str(raw).strip()
    if not raw:
        return ()
    return tuple(int(x) for x in raw.split(","))


def _fec_from_args(args) -> FecConfig:
    q = int(_merged(args, "fec_q", 2))
    offsets = _parse_offsets(_merged(args, "fec_offsets", "1,13"))
    return FecConfig(q, offsets)


def _collect_wavs(path: str) -> list[Path]:
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.wav"))
        if not files:
            raise ValueError(f"no .wav files under {p}")
        return files
    return [p]


def _trace_for(args, length: int, seed: int):
    channel = _merged(args, "channel", "bernoulli")
    if channel == "none":
        return None
    if channel == "bernoulli":
        p = float(_merged(args, "loss_rate", 0.0))
        if p == 0.0:
            return None
        return gen_bernoulli(p, length, seed)
    if channel == "markov":
        raw = _merged(args, "markov_params")
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
            preset = _merged(args, "preset", "burst10")
            if preset not in PRESETS:
                raise ValueError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
            params = PRESETS[preset]
            label = f"preset {preset}"
        print(f"{label}: analytic loss rate {_fmt(stationary_loss_rate(params))}")
        return gen_markov3(params, length, seed)
    if channel == "trace":
        path = _require(args, "trace_file")
        tr = load_trace(path)
        if len(tr) < length:
            raise ValueError(f"trace has {len(tr)} entries, stream needs {length}")
        return tr
    raise ValueError(f"unknown channel {channel!r}")


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
    inputs = _collect_wavs(_require(args, "input"))
    stages = int(_merged(args, "stages", 2))
    seed = int(_merged(args, "seed", 1))
    out = _require(args, "out")
    codes = np.concatenate(
        [analysis_rows(frame_rows(read_wav(path), FRAME_SAMPLES)) for path in inputs]
    )
    books, sigma_table = calibrate(codes, stages, seed, d_z=D_Z_DEFAULT)
    d_y = codes.shape[1]
    tokens = ConfidenceTokens.zeros(d_y, max(stages, 1), D_Z_DEFAULT)
    model = CodecModel(
        d_l=d_y,
        d_y=d_y,
        d_z=D_Z_DEFAULT,
        q=stages,
        sigma_min=SIGMA_MIN_DEFAULT,
        rho=RHO_DEFAULT,
        kappa=KAPPA_DEFAULT,
        sigma_table=sigma_table,
        tokens=tokens,
        codebooks=books,
    )
    crc = save_model(out, model)
    print(f"model written to {out}")
    print(f"model checksum {crc:08x}")
    if books is not None:
        print(f"codebook checksum {books.checksum:08x}")
    return 0


def cmd_encode(args) -> int:
    clip = read_wav(_require(args, "input"))
    model = load_model(_require(args, "model"))
    q_lambda = int(_merged(args, "q_lambda", 32))
    fec = _fec_from_args(args)
    out = _require(args, "out")
    result = encode_stream(clip, model, q_lambda, fec)
    write_container(out, result.header, result.packets)
    print(f"container written to {out} ({result.header.frame_count} frames)")
    if result.report is not None:
        r = result.report
        print(
            f"bitrate kbps: total {_fmt(r.total_kbps)} source {_fmt(r.source_kbps)} "
            f"sideinfo {_fmt(r.sideinfo_kbps)} redundant {_fmt(r.redundant_kbps)}"
        )
    print(f"fec schedule: redundant {_fmt(redundancy_bitrate(fec))} kbps steady state")
    return 0


def _open_stream(args):
    header, packets = read_container(_require(args, "container"))
    model = load_model(_require(args, "model"))
    if model.content_crc != header.model_crc:
        raise ValueError("model checksum mismatch: container was encoded with a different model")
    delay = _merged(args, "delay")
    config = ReceiverConfig(header.fec, None if delay is None else int(delay))
    return header, packets, model, config


def cmd_decode(args) -> int:
    header, packets, model, config = _open_stream(args)
    out = _require(args, "out")
    result = decode_stream(packets, model, config, header.sample_count)
    write_wav(out, result.clip)
    print(f"decoded {header.frame_count} frames to {out}")
    return 0


def cmd_simulate(args) -> int:
    header, packets, model, config = _open_stream(args)
    seed = int(_merged(args, "seed", 1))
    trace = _trace_for(args, len(packets), seed)
    ref_path = _merged(args, "ref")
    result = simulate_stream(packets, trace, model, config, header.sample_count)
    out_wav = _merged(args, "out_wav")
    if out_wav:
        write_wav(out_wav, result.clip)
    if ref_path:
        ref = read_wav(ref_path)
    else:
        ref = decode_stream(packets, model, config, header.sample_count).clip
    wave = compute_metrics(ref, result.clip)
    rates = account_stream(packets, header.fec.frame_rate) if len(packets) >= header.fec.frame_rate else None
    out_csv = _merged(args, "out_csv")
    if out_csv:
        with open(out_csv, "w", encoding="ascii") as fh:
            fh.write(METRICS_SCHEMA + "\n")
            fh.write(_METRIC_COLUMNS + "\n")
            fh.write(_metrics_row("simulate", rates, wave, result.report) + "\n")
    report_csv = _merged(args, "report_csv")
    if report_csv:
        _write_report_csv(report_csv, result.report)
    r = result.report
    print(
        f"frames {r.frames}: entropy {r.entropy_count}, plc_high {r.plc_high_count}, "
        f"plc_low {r.plc_low_count}, z-recovery {_fmt(r.z_recovery_rate)}"
    )
    print(f"snr {_fmt(wave.snr_db)} dB, q10 {_fmt(wave.snr_q10_db)} dB")
    return 0


def cmd_sweep(args) -> int:
    clip = read_wav(_require(args, "input"))
    model = load_model(_require(args, "model"))
    axis = _merged(args, "axis", "q_lambda")
    values = _merged(args, "values")
    seed = int(_merged(args, "seed", 1))
    q_lambda = int(_merged(args, "q_lambda", 32))
    loss_rate = float(_merged(args, "loss_rate", 0.0))
    delay = _merged(args, "delay")
    delay = None if delay is None else int(delay)
    fec = _fec_from_args(args)
    out = _require(args, "out")

    # points are (label, rate index, fec, loss rate), all checked before any is coded
    if axis == "q_lambda":
        vals = [int(v) for v in str(values or "0,8,16,24,32,40,48,56,63").split(",")]
        model.check_stages(fec.q)
        points = [(f"q{v}", v, fec, loss_rate) for v in vals]
    elif axis == "loss":
        vals = [float(v) for v in str(values or "0,0.05,0.1,0.2,0.3").split(",")]
        points = [(f"p{_fmt(v)}", q_lambda, fec, v) for v in vals]
    elif axis == "fec":
        points = []
        for v in str(values or "1x1,2x1,2x2").split(","):
            try:
                q, n = map(int, v.lower().split("x"))
            except ValueError:
                raise ValueError(f"fec point {v!r}: expected QxN, e.g. 2x2") from None
            offsets = _SWEEP_OFFSETS.get(n)
            if offsets is None:
                raise ValueError(f"fec point {v!r}: backup count {n} out of range 0..4")
            points.append((f"fec{v}", q_lambda, FecConfig(q, offsets), loss_rate))
            model.check_stages(q)
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    for _, q, _, p in points:
        RateControl(q)  # raises on a rate index out of range
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability {p} out of range")

    rows, result = [], None
    for label, q, point_fec, p in points:
        # the encoding does not depend on the loss rate
        if result is None or axis != "loss":
            result = encode_stream(clip, model, q, point_fec)
        trace = gen_bernoulli(p, len(result.packets), seed) if p > 0 else None
        config = ReceiverConfig(result.header.fec, delay)
        sim = simulate_stream(result.packets, trace, model, config, result.header.sample_count)
        rows.append(_metrics_row(label, result.report, compute_metrics(clip, sim.clip), sim.report))
        print(f"{label}: done")
    with open(out, "w", encoding="ascii") as fh:
        fh.write(METRICS_SCHEMA + "\n")
        fh.write(_METRIC_COLUMNS + "\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"sweep written to {out}")
    return 0


def cmd_trace_stats(args) -> int:
    tr = load_trace(_require(args, "trace"))
    st = trace_stats(tr)
    print(TRACE_SCHEMA)
    cols = ["loss_rate", "max_burst"] + [f"hist_{k}" for k in st.burst_histogram]
    vals = [_fmt(st.loss_rate), str(st.max_burst)] + [
        str(v) for v in st.burst_histogram.values()
    ]
    print(",".join(cols))
    print(",".join(vals))
    return 0


def cmd_make_corpus(args) -> int:
    duration = float(_merged(args, "duration", 64.0))
    seed = int(_merged(args, "seed", 20260810))
    out = _require(args, "out")
    clip = corpus.speech_like_clip(duration, seed)
    write_wav(out, clip)
    print(f"corpus written to {out} ({clip.duration_s:.1f} s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxfec",
        description="Loss-resilient speech transport simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON file with option defaults")
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, **kwargs)
        p.set_defaults(handler=fn)
        return p

    add(
        "calibrate",
        cmd_calibrate,
        input={"help": "WAV file or directory of WAVs"},
        stages={"type": int, "help": "RVQ stages to train (default 2)"},
        seed={"type": int},
        out={"help": "output model file"},
    )
    add(
        "encode",
        cmd_encode,
        input={"help": "input WAV"},
        model={"help": "model file"},
        q_lambda={"type": int, "help": "rate index 0..63 (default 32)"},
        fec_q={"type": int, "help": "side-info stages per copy (default 2)"},
        fec_offsets={"help": "comma-separated backup offsets (default 1,13)"},
        out={"help": "output container"},
    )
    add(
        "decode",
        cmd_decode,
        container={}, model={}, delay={"type": int}, out={"help": "output WAV"},
    )
    add(
        "simulate",
        cmd_simulate,
        container={},
        model={},
        channel={"help": "bernoulli | markov | trace | none"},
        loss_rate={"type": float},
        preset={"help": "markov preset name"},
        trace_file={},
        seed={"type": int},
        delay={"type": int},
        ref={"help": "reference WAV for metrics (default: loss-free decode)"},
        out_wav={},
        out_csv={},
        report_csv={},
    )
    add(
        "sweep",
        cmd_sweep,
        input={},
        model={},
        axis={"help": "q_lambda | loss | fec"},
        values={"help": "comma-separated axis values"},
        q_lambda={"type": int},
        loss_rate={"type": float},
        fec_q={"type": int},
        fec_offsets={},
        delay={"type": int},
        seed={"type": int},
        out={},
    )
    add("trace-stats", cmd_trace_stats, trace={"help": "trace file"})
    add(
        "make-corpus",
        cmd_make_corpus,
        duration={"type": float},
        seed={"type": int},
        out={},
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _load_config(getattr(args, "config", None))
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
