import contextlib
import dataclasses
import io
import json
import shlex
import struct
import zlib
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

import voxfec.cli as cli
import voxfec.receiver as receiver
from voxfec.cli import main
from voxfec.corpus import speech_like_clip
from voxfec.frontend import read_wav, write_wav
from voxfec.hyperprior import load_model
from voxfec.packets import read_container, write_container


def _run(argv):
    """Run the CLI in this process; return its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A short corpus, calibrated model, and encoded container."""
    d = tmp_path_factory.mktemp("cli")
    wav = d / "in.wav"
    write_wav(wav, speech_like_clip(8.0, 77))
    model = d / "m.vxm"
    assert main([
        "calibrate", "--input", str(wav), "--stages", "2", "--seed", "5",
        "--out", str(model),
    ]) == 0
    container = d / "s.vxs"
    assert main([
        "encode", "--input", str(wav), "--model", str(model),
        "--q-lambda", "40", "--fec-q", "2", "--fec-offsets", "1,13",
        "--out", str(container),
    ]) == 0
    return d, wav, model, container


def test_calibrate_deterministic(workdir, capsys):
    d, wav, model, _ = workdir
    other = d / "m2.vxm"
    main(["calibrate", "--input", str(wav), "--stages", "2", "--seed", "5",
          "--out", str(other)])
    assert other.read_bytes() == model.read_bytes()


def test_encode_deterministic(workdir):
    d, wav, model, container = workdir
    other = d / "s2.vxs"
    main(["encode", "--input", str(wav), "--model", str(model),
          "--q-lambda", "40", "--fec-q", "2", "--fec-offsets", "1,13",
          "--out", str(other)])
    assert other.read_bytes() == container.read_bytes()


def test_decode_and_null_channel_simulate_agree(workdir):
    d, wav, model, container = workdir
    out1 = d / "dec.wav"
    out2 = d / "sim.wav"
    assert main(["decode", "--container", str(container), "--model", str(model),
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--container", str(container), "--model", str(model),
                 "--channel", "none", "--out-wav", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_with_loss_and_reports(workdir):
    d, wav, model, container = workdir
    out = d / "lossy.wav"
    csv = d / "metrics.csv"
    rep = d / "report.csv"
    assert main([
        "simulate", "--container", str(container), "--model", str(model),
        "--channel", "bernoulli", "--loss-rate", "0.2", "--seed", "3",
        "--ref", str(wav), "--out-wav", str(out), "--out-csv", str(csv),
        "--report-csv", str(rep),
    ]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# voxfec metrics")
    assert lines[1].startswith("point,")
    row = lines[2].split(",")
    assert row[0] == "simulate"
    assert float(row[1]) > 0  # total kbps
    rep_lines = rep.read_text().splitlines()
    assert rep_lines[1].startswith("frames,")
    decoded = read_wav(out)
    assert len(decoded) == len(read_wav(wav))


def test_report_csv_mse_columns_read_nan(workdir):
    # the v1 receiver report keeps three per-path MSE columns that no run fills
    d, wav, model, container = workdir
    rep = d / "report_nan.csv"
    assert main([
        "simulate", "--container", str(container), "--model", str(model),
        "--channel", "markov", "--preset", "burst10", "--seed", "3",
        "--report-csv", str(rep),
    ]) == 0
    header, row = rep.read_text().splitlines()[1:]
    assert header.endswith(",mse_entropy,mse_plc_high,mse_plc_low")
    assert row.endswith(",nan,nan,nan")


def test_simulate_all_lost_finite(workdir):
    d, wav, model, container = workdir
    csv = d / "all_lost.csv"
    assert main([
        "simulate", "--container", str(container), "--model", str(model),
        "--channel", "bernoulli", "--loss-rate", "1.0", "--seed", "3",
        "--ref", str(wav), "--out-csv", str(csv),
    ]) == 0
    row = csv.read_text().splitlines()[2].split(",")
    snr = float(row[5])
    assert np.isfinite(snr)
    assert int(row[9]) == 0  # no entropy frames


def test_sweep_qlambda_monotone_smoke(workdir):
    d, wav, model, _ = workdir
    out = d / "sweep.csv"
    assert main([
        "sweep", "--input", str(wav), "--model", str(model),
        "--axis", "q_lambda", "--values", "0,32,63",
        "--fec-q", "2", "--fec-offsets", "1,13", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    rows = [l.split(",") for l in lines[2:]]
    rates = [float(r[1]) for r in rows]
    mses = [float(r[4]) for r in rows]
    assert rates[0] > rates[1] > rates[2]
    assert mses[0] <= mses[1] <= mses[2]


def test_sweep_fec_rates(workdir):
    d, wav, model, _ = workdir
    out = d / "fec.csv"
    assert main([
        "sweep", "--input", str(wav), "--model", str(model),
        "--axis", "fec", "--values", "1x1,2x2",
        "--out", str(out),
    ]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    # measured rates include the deterministic startup under-count
    n = 400  # frames in the 8 s module corpus
    expect_1x1 = (n - 1) * 10 * 1 / (n / 50) / 1000
    expect_2x2 = ((n - 1) + (n - 13)) * 10 * 2 / (n / 50) / 1000
    assert float(rows[0][3]) == pytest.approx(expect_1x1, rel=1e-12)
    assert float(rows[1][3]) == pytest.approx(expect_2x2, rel=1e-12)
    assert float(rows[0][3]) == pytest.approx(0.5, rel=0.01)
    assert float(rows[1][3]) == pytest.approx(2.0, rel=0.02)


def test_sweep_deterministic(workdir):
    d, wav, model, _ = workdir
    a = d / "sw_a.csv"
    b = d / "sw_b.csv"
    args = ["sweep", "--input", str(wav), "--model", str(model),
            "--axis", "loss", "--values", "0,0.1", "--q-lambda", "32",
            "--seed", "9"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    # the same values as a JSON list in a config file
    c = d / "sw_c.csv"
    cfg = d / "sw_cfg.json"
    cfg.write_text(json.dumps({"values": [0, 0.1]}))
    assert main(["sweep", "--input", str(wav), "--model", str(model), "--axis", "loss",
                 "--config", str(cfg), "--q-lambda", "32", "--seed", "9", "--out", str(c)]) == 0
    assert c.read_bytes() == a.read_bytes()


def test_sweep_has_no_jobs_option(workdir):
    # every sweep runs its points in one loop in this process
    d, wav, model, _ = workdir
    code, err = _run(["sweep", "--input", str(wav), "--model", str(model),
                      "--jobs", "2", "--out", str(d / "sw_jobs.csv")])
    assert code == 2 and "unrecognized arguments: --jobs 2" in err


def _count_calls(monkeypatch, module, name):
    """Calls to module.name from now on, each recorded as its arguments."""
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _count_encodes(monkeypatch):
    return _count_calls(monkeypatch, cli, "encode_stream")


@pytest.mark.parametrize(
    "axis, values, encodes",
    [("loss", "0,0.1,0.3", 1), ("q_lambda", "16,40,63", 3), ("fec", "1x1,2x1,2x2", 3)],
    ids=["loss", "q_lambda", "fec"],
)
def test_loss_sweep_encodes_once(workdir, monkeypatch, axis, values, encodes):
    # the encoding does not depend on the loss rate, so a loss sweep codes
    # the stream once; the other axes code it once per point
    calls = _count_encodes(monkeypatch)
    d, wav, model, _ = workdir
    out = d / f"sw_{axis}.csv"
    assert main(["sweep", "--input", str(wav), "--model", str(model), "--axis", axis,
                 "--values", values, "--seed", "9", "--out", str(out)]) == 0
    assert len(calls) == encodes
    assert len(out.read_text().splitlines()) == 2 + 3


def test_loss_sweep_decodes_each_packet_once(workdir, monkeypatch):
    # every point receives the one packet list, so the points share one
    # decode per frame; cli.simulate_stream, the binding the benchmark
    # times, runs once per point
    decodes = _count_calls(monkeypatch, receiver, "_decode_symbols")
    runs = _count_calls(monkeypatch, cli, "simulate_stream")
    d, wav, model, container = workdir
    frames = read_container(container)[0].frame_count
    assert main(["sweep", "--input", str(wav), "--model", str(model), "--axis", "loss",
                 "--values", "0.2,0,0.05,0.1", "--seed", "9",
                 "--out", str(d / "sw_once.csv")]) == 0
    assert len(decodes) == frames == 400
    assert len(runs) == 4


@pytest.mark.parametrize("ref", [False, True], ids=["decoded-ref", "wav-ref"])
def test_simulate_decodes_each_packet_at_most_once(workdir, monkeypatch, ref):
    # without --ref the loss-free reference reuses the lossy run's decodes
    decodes = _count_calls(monkeypatch, receiver, "_decode_symbols")
    runs = _count_calls(monkeypatch, cli, "simulate_stream")
    d, wav, model, container = workdir
    argv = ["simulate", "--container", str(container), "--model", str(model),
            "--channel", "markov", "--preset", "burst30", "--seed", "3"]
    assert main(argv + (["--ref", str(wav)] if ref else [])) == 0
    frames = read_container(container)[0].frame_count
    if ref:
        assert 0 < len(decodes) < frames  # the received frames only
    else:
        assert len(decodes) == frames
    assert len(runs) == 1


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("q_lambda", "0,64", "invalid rate index 64, expected 0..63"),
        ("loss", "0,1.5", "loss probability 1.5 out of range"),
    ],
    ids=["q_lambda", "loss"],
)
def test_sweep_checks_every_value_before_coding(workdir, monkeypatch, capsys, axis, values,
                                                message):
    calls = _count_encodes(monkeypatch)
    d, wav, model, _ = workdir
    out = d / f"bad_{axis}.csv"
    code, err = _run(["sweep", "--input", str(wav), "--model", str(model), "--axis", axis,
                      "--values", values, "--out", str(out)])
    assert code == 1 and f"error: {message}" in err
    assert "done" not in capsys.readouterr().out
    assert calls == [] and not out.exists()


def test_config_file_supplies_defaults(workdir):
    d, wav, model, _ = workdir
    cfg = d / "cfg.json"
    out = d / "from_cfg.vxs"
    # each config is parsed as --q-lambda 40 would be; in the last, the
    # flag given after or before --config beats the entry
    for q_lambda, flags in ((40, []), ("40", []), (12, ["--q-lambda", "40"])):
        cfg.write_text(json.dumps({
            "input": str(wav), "model": str(model), "q_lambda": q_lambda,
            "fec_q": 2, "fec_offsets": [1, 13], "out": str(out),
        }))
        for argv in (["--config", str(cfg)] + flags, flags + ["--config", str(cfg)]):
            out.unlink(missing_ok=True)
            assert main(["encode"] + argv) == 0
            assert out.read_bytes() == (d / "s.vxs").read_bytes()


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"q_lamda": 40}, "unrecognized arguments: --q-lamda=40"),
        ({"q": 40}, "unrecognized arguments: --q=40"),
        ({"q_lambda": 40.9}, "argument --q-lambda: invalid int value: '40.9'"),
        ({"q_lambda": True}, "argument --q-lambda: invalid int value: 'true'"),
        ({"out": None}, "the following arguments are required: --out"),
    ],
    ids=["misspelled", "abbreviated", "float", "bool", "no-out"],
)
def test_config_entry_is_parsed_like_its_flag(workdir, entry, message):
    # an unknown key, a bad value or a missing required option is a usage
    # error, as on the command line; a null entry sets nothing
    d, wav, model, _ = workdir
    out = d / "cfg_bad.vxs"
    cfg = d / "cfg_bad.json"
    cfg.write_text(json.dumps({"input": str(wav), "model": str(model), "out": str(out), **entry}))
    code, err = _run(["encode", "--config", str(cfg)])
    assert code == 2 and message in err and err.startswith("usage:")
    assert not out.exists()


def test_config_file_naming_a_config_file_exits(workdir):
    # a "config" entry would be read before the user's own --config and lose
    # to it, so the file it names would be silently ignored
    d, wav, model, _ = workdir
    out = d / "nested.vxs"
    inner = d / "inner.json"
    inner.write_text(json.dumps({"q_lambda": 5}))
    outer = d / "outer.json"
    outer.write_text(json.dumps({
        "input": str(wav), "model": str(model), "out": str(out), "config": str(inner),
    }))
    code, err = _run(["encode", "--config", str(outer)])
    assert code == 1
    assert f"error: config file {outer}: key 'config' cannot name another config file" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["transition", "loss_probs"])
def test_markov_params_missing_key_exits(workdir, key):
    d, wav, model, container = workdir
    params = {
        "transition": [[0.9, 0.1, 0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]],
        "loss_probs": [0.0, 1.0, 0.0],
    }
    del params[key]
    cfg = d / f"markov_no_{key}.json"
    cfg.write_text(json.dumps({
        "container": str(container), "model": str(model),
        "channel": "markov", "markov_params": params,
    }))
    code, err = _run(["simulate", "--config", str(cfg)])
    assert code == 1 and f"error: markov_params lacks '{key}'" in err


def test_sweep_fec_backup_count_out_of_range_exits(workdir):
    d, wav, model, _ = workdir
    code, err = _run(["sweep", "--input", str(wav), "--model", str(model), "--axis", "fec",
                      "--values", "1x5", "--out", str(d / "fec_bad.csv")])
    assert code == 1 and "error: fec point '1x5': backup count 5 out of range 0..4" in err


@pytest.mark.parametrize("value", ["2", "ax2"])
def test_sweep_fec_malformed_point_exits(workdir, value):
    d, wav, model, _ = workdir
    code, err = _run(["sweep", "--input", str(wav), "--model", str(model), "--axis", "fec",
                      "--values", value, "--out", str(d / "fec_bad.csv")])
    assert code == 1 and f"error: fec point '{value}': expected QxN" in err


def test_markov_params_not_an_object_exits(workdir):
    d, wav, model, container = workdir
    cfg = d / "markov_int.json"
    cfg.write_text(json.dumps({
        "container": str(container), "model": str(model),
        "channel": "markov", "markov_params": 5,
    }))
    code, err = _run(["simulate", "--config", str(cfg)])
    assert code == 1 and "error: markov_params must be a JSON object" in err


@pytest.fixture(scope="module")
def model0(workdir):
    """A model calibrated with no side-info stages."""
    d, wav, _, _ = workdir
    m0 = d / "m0.vxm"
    assert main(["calibrate", "--input", str(wav), "--stages", "0", "--seed", "5",
                 "--out", str(m0)]) == 0
    return m0


def test_encode_with_more_stages_than_the_model_exits(workdir, model0, capsys):
    d, wav, _, _ = workdir
    assert main(["encode", "--input", str(wav), "--model", str(model0), "--fec-q", "2",
                 "--out", str(d / "s0_bad.vxs")]) == 1
    assert "requested 2 side-info stages, model codebooks have 0" in capsys.readouterr().err


def test_sweep_fec_with_more_stages_than_the_model_exits(workdir, model0, capsys):
    d, wav, _, _ = workdir
    assert main(["sweep", "--input", str(wav), "--model", str(model0), "--axis", "fec",
                 "--values", "1x1", "--out", str(d / "fec_m0.csv")]) == 1
    assert "requested 1 side-info stages, model codebooks have 0" in capsys.readouterr().err


def test_sweep_fec_checks_every_point_before_coding(workdir, capsys):
    # the last point, 6x1, needs 6 stages; the model has 2
    d, wav, model, _ = workdir
    assert main(["sweep", "--input", str(wav), "--model", str(model), "--axis", "fec",
                 "--values", "1x1,2x2,6x1", "--out", str(d / "fec_bad.csv")]) == 1
    captured = capsys.readouterr()
    assert "requested 6 side-info stages, model codebooks have 2" in captured.err
    assert "done" not in captured.out


def test_sweep_fec_default_runs_on_the_default_model(workdir):
    # calibrate makes 2 stages by default; the default points need at most 2
    d, wav, model, _ = workdir
    out = d / "fec_default.csv"
    assert main(["sweep", "--input", str(wav), "--model", str(model), "--axis", "fec",
                 "--out", str(out)]) == 0
    labels = [line.split(",")[0] for line in out.read_text().splitlines()[2:]]
    assert labels == ["fec1x1", "fec2x1", "fec2x2"]


def test_container_with_frame_rate_zero_is_rejected(workdir, capsys):
    # the u16 frame rate follows magic, version, CRC, rate index, stage
    # count, offset count and the offsets
    d, _, model, container = workdir
    blob = bytearray(container.read_bytes())
    at = 12 + blob[11]
    assert int.from_bytes(blob[at : at + 2], "little") == 50
    blob[at : at + 2] = bytes(2)
    bad = d / "rate0.vxs"
    bad.write_bytes(bytes(blob))
    assert main(["simulate", "--container", str(bad), "--model", str(model)]) == 1
    assert "error: frame rate 0 out of range 1..65535" in capsys.readouterr().err


@pytest.mark.parametrize("d_l", [0, 319])
def test_encode_with_a_model_whose_frame_length_is_not_its_latent_dimension_exits(
    workdir, capsys, d_l
):
    # a CRC-valid model file whose d_l, the u16 after magic and version, is edited
    d, wav, model, _ = workdir
    body = bytearray(model.read_bytes()[:-4])
    struct.pack_into("<H", body, 6, d_l)
    bad = d / f"dl{d_l}.vxm"
    bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    assert main(["encode", "--input", str(wav), "--model", str(bad),
                 "--out", str(d / "dl.vxs")]) == 1
    assert f"error: model sizes d_l {d_l}, d_y 320, q 2: need" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        ("cut", "truncated container"),
        ("swap", "packet 0 carries frame index 1"),
        ("dup", "packet 1 carries frame index 0"),
        ("short", "sample count 64000 does not match 400 frames of 320 samples"),
    ],
    ids=["cut", "swap", "dup", "short"],
)
def test_simulate_on_a_damaged_container_exits(workdir, capsys, edit, message):
    # cut to 20 bytes, inside its 28-byte header; packets 0 and 1 swapped;
    # packet 0 written again in place of packet 1; the header's sample count
    # halved, so it no longer needs one frame per packet
    d, _, model, container = workdir
    bad = d / f"{edit}.vxs"
    header, packets = read_container(container)
    if edit == "cut":
        bad.write_bytes(container.read_bytes()[:20])
    elif edit == "swap":
        write_container(bad, header, [packets[1], packets[0], *packets[2:]])
    elif edit == "dup":
        write_container(bad, header, [packets[0], packets[0], *packets[2:]])
    else:
        short = dataclasses.replace(header, sample_count=header.sample_count // 2)
        write_container(bad, short, packets)
    assert main(["simulate", "--container", str(bad), "--model", str(model)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
def test_bad_config_file_exits_with_error(tmp_path, capsys, text):
    # None: the file does not exist; a JSON list is valid JSON but no object
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["encode", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


# offsets of the model file's float fields after magic, version and sizes
_MODEL_FLOATS = {"sigma_min": 13, "rho": 21, "sigma_table[5]": 37 + 8 * 5}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", sorted(_MODEL_FLOATS))
def test_model_with_a_non_finite_float_exits(workdir, field, value):
    # a CRC-valid model file with one float field edited
    d, wav, model, container = workdir
    body = bytearray(model.read_bytes()[:-4])
    struct.pack_into("<d", body, _MODEL_FLOATS[field], value)
    bad = d / "float.vxm"
    bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(ValueError, match="must be finite"):
        load_model(bad)
    code, err = _run(["decode", "--container", str(container), "--model", str(bad),
                      "--out", str(d / "float.wav")])
    assert code == 1 and "error: model sigma_table, sigma_min and rho must be finite" in err


def test_simulate_markov_preset_and_custom_params(workdir, capsys):
    d, wav, model, container = workdir
    assert main([
        "simulate", "--container", str(container), "--model", str(model),
        "--channel", "markov", "--preset", "burst10", "--seed", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "preset burst10: analytic loss rate 0.1" in out
    cfg = d / "markov.json"
    cfg.write_text(json.dumps({
        "container": str(container), "model": str(model),
        "channel": "markov", "seed": 2,
        "markov_params": {
            "transition": [[0.9, 0.1, 0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]],
            "loss_probs": [0.0, 1.0, 0.0],
        },
    }))
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "custom markov: analytic loss rate 0.1666666667" in out
    # the same channel given on the command line
    params = json.loads(cfg.read_text())["markov_params"]
    assert main(["simulate", "--container", str(container), "--model", str(model),
                 "--channel", "markov", "--seed", "2",
                 "--markov-params", json.dumps(params)]) == 0
    assert capsys.readouterr().out == out


def test_readme_commands_parse():
    # every command of README's "Command line" block, continuation lines
    # joined, is one the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("voxfec ")]
    assert len(commands) == 10
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:  # argparse has printed why
            pytest.fail(f"README command does not parse: voxfec {' '.join(argv)}")


def test_trace_stats_command(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("0\n1\n1\n0\n1\n")
    assert main(["trace-stats", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "loss_rate,max_burst,hist_1,hist_2"
    assert out[2] == "0.6,2,1,1"


def test_bundled_sample_traces_round_trip(tmp_path):
    from voxfec.channel import load_trace, save_trace
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    for name in ("sample_iid30.txt", "sample_burst10.txt"):
        src = root / "traces" / name
        tr = load_trace(src)
        dst = tmp_path / name
        save_trace(dst, tr)
        assert dst.read_text() == src.read_text()


def test_no_sideinfo_configuration_end_to_end(workdir, tmp_path):
    # stages=0: model without codebooks, packets without side-info blocks,
    # every lost frame concealed low-confidence
    d, wav, model, _ = workdir
    m0 = tmp_path / "m0.vxm"
    assert main(["calibrate", "--input", str(wav), "--stages", "0", "--seed", "5",
                 "--out", str(m0)]) == 0
    c0 = tmp_path / "s0.vxs"
    assert main(["encode", "--input", str(wav), "--model", str(m0),
                 "--q-lambda", "40", "--fec-q", "0", "--fec-offsets", "",
                 "--out", str(c0)]) == 0
    out = tmp_path / "d0.wav"
    assert main(["decode", "--container", str(c0), "--model", str(m0),
                 "--out", str(out)]) == 0
    rep = tmp_path / "r0.csv"
    assert main(["simulate", "--container", str(c0), "--model", str(m0),
                 "--channel", "bernoulli", "--loss-rate", "0.3", "--seed", "4",
                 "--report-csv", str(rep)]) == 0
    row = rep.read_text().splitlines()[2].split(",")
    frames, entropy, high, low = int(row[0]), int(row[1]), int(row[2]), int(row[3])
    assert high == 0 and entropy + low == frames and low > 0


def test_model_mismatch_rejected(workdir, tmp_path):
    d, wav, model, container = workdir
    other_model = tmp_path / "other.vxm"
    main(["calibrate", "--input", str(wav), "--stages", "2", "--seed", "6",
          "--out", str(other_model)])
    code, err = _run(["decode", "--container", str(container), "--model", str(other_model),
                      "--out", str(tmp_path / "x.wav")])
    assert code == 1 and "error: model checksum mismatch" in err


def test_unreadable_input_exits_nonzero(tmp_path, capsys):
    rc = main(["calibrate", "--input", str(tmp_path / "missing.wav"),
               "--out", str(tmp_path / "m.vxm")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_make_corpus(tmp_path):
    out = tmp_path / "c.wav"
    assert main(["make-corpus", "--duration", "2", "--seed", "1", "--out", str(out)]) == 0
    clip = read_wav(out)
    assert clip.duration_s >= 2.0


# SHA-256 of each file, and of standard output, that the commands of
# test_cli_outputs_match_digests write
_CLI_DIGESTS = {
    "c.wav": "9829d219db0c97f673e1ba69ae4ea5bc38ae7adf50589b8958ea9a42beca7c10",
    "d.wav": "5ba409bbc6282095c5f580c85c7fe76658bc1a6473d340f2dc09862bf1ab4c03",
    "m.vxm": "2b8e19d554c42f4e927aebd09dd51939d2d6e78f81dafecf44d36f3443c8b6a0",
    "mk.csv": "006dd8c9eb1dc967b03a54c478dffb580010aa0d3be78f329c874458b5c66576",
    "mk.wav": "ae9bc7ab89bb563df790ec78900f6a6f8a824d7d140f214b61ea0e4498bfe348",
    "mk_r.csv": "e8836f18f4b0231f36cefaac4a8ae83e825fd0723200f8147bb457dccb0696fa",
    "s.vxs": "f1bdc9f5e26779c873758668a8c9ce19c82532f06ef5e98e391311e1bd5724ab",
    "sf.csv": "ebf4cf548891122ddf8ddfca13a55c57a3b5b9ce64e8aa4230573efdc63135d9",
    "sl.csv": "e9debef4333b14ee536fd7e6643c9a3d78e6f3a5ad9276ec2660c7f4568a3076",
    "stdout": "f702cf06425cf76a3dd9080b1d471dcad6d07979b6bcc679b6e070fbaaa6fe87",
}


def test_cli_outputs_match_digests(tmp_path, monkeypatch, capsys):
    # the CLI's outputs are byte-deterministic; these digests pin them
    monkeypatch.chdir(tmp_path)
    commands = [
        "make-corpus --duration 4 --seed 3 --out c.wav",
        "calibrate --input c.wav --stages 2 --seed 1 --out m.vxm",
        "encode --input c.wav --model m.vxm --q-lambda 32 --out s.vxs",
        "decode --container s.vxs --model m.vxm --out d.wav",
        "simulate --container s.vxs --model m.vxm --channel markov --preset burst10"
        " --seed 7 --out-wav mk.wav --out-csv mk.csv --report-csv mk_r.csv",
        "sweep --input c.wav --model m.vxm --axis fec --values 1x1,2x1,2x2"
        " --loss-rate 0.1 --out sf.csv",
        "sweep --input c.wav --model m.vxm --axis loss --values 0,0.2 --out sl.csv",
    ]
    for cmd in commands:
        assert main(cmd.split()) == 0, cmd
    digests = {p.name: sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    digests["stdout"] = sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == _CLI_DIGESTS


def test_cli_rate_sweep_matches_digest(tmp_path, monkeypatch, capsys):
    # a rate sweep over a lossy channel with a playout delay, pinned as
    # test_cli_outputs_match_digests pins the other two axes
    monkeypatch.chdir(tmp_path)
    assert main("make-corpus --duration 4 --seed 3 --out c.wav".split()) == 0
    assert main("calibrate --input c.wav --stages 2 --seed 1 --out m.vxm".split()) == 0
    capsys.readouterr()
    assert main("sweep --input c.wav --model m.vxm --axis q_lambda --values 8,40,63"
                " --loss-rate 0.2 --delay 2 --seed 5 --out sq.csv".split()) == 0
    out = capsys.readouterr().out.encode()
    assert sha256((tmp_path / "sq.csv").read_bytes()).hexdigest() == (
        "11d3b459ffe160b70302135a9a4ec8b9a67742a97807ad0b93819354068df49c"
    )
    assert sha256(out).hexdigest() == (
        "75469ed98256a4dfe4185f6f8ea7b09143b59a3ba83f0bf97bfbd8ca7b834708"
    )
