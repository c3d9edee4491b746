"""Fast checks of the benchmark's own code; no workload is started."""

import json
import math
import re
from pathlib import Path

import numpy as np

import reference as ref
import run
import voxfec.pipeline as pipeline
from layers import layer_metrics
from spans import Tracer
from voxfec.transform import RateControl, lambda_from_q, step_from_lambda

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_names_units_and_bounds():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(SPEC["per_layer"]) <= 128


def test_tracer_self_time_and_uninstall():
    tracer = Tracer()
    inner = tracer.wrap("x.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("x.outer", lambda: [inner() for _ in range(3)])
    assert outer() == [499500] * 3
    calls, total, child = tracer.stats["x.outer"]
    assert (calls, tracer.stats["x.inner"][0]) == (1, 3)
    assert child == tracer.edges[("x.outer", "x.inner")] == tracer.stats["x.inner"][1]
    assert 0 < child < total == tracer.top_ns

    original = pipeline.encode_stream
    tracer.install()
    try:
        assert pipeline.encode_stream.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert pipeline.encode_stream is original


def test_reference_schedule_matches_documented_endpoints():
    for q in range(64):
        assert ref.step_for_rate(q) == step_from_lambda(lambda_from_q(RateControl(q)))
    assert math.isclose(ref.step_for_rate(63), math.sqrt(35) / 1024)
    samples = np.array([0, 1000, -1000, 32767], dtype=np.int16)
    # one 4-sample frame; its DC term is the sum / 2 of the scaled samples
    q = ref.quantized_latents(samples, 4, 1e-3)
    assert q.shape == (1, 4) and q[0, 0] == np.floor(32767 / 32768 / 2 / 1e-3 + 0.5)


def test_expected_paths_follow_backup_offsets():
    lost = np.zeros(20, dtype=bool)
    lost[[2, 3, 15, 16]] = True
    paths = ref.expected_paths(lost, (1, 13))
    # frame 2: packets 3 and 15 lost; frame 3: packet 4 arrived; frame 15:
    # packet 16 lost and packet 28 is past the end of the stream
    assert paths[2] == "plc_low" and paths[3] == "plc_high"
    assert paths[15] == "plc_low" and paths[16] == "plc_high"
    assert paths.count("entropy") == 16


def test_layer_metrics_from_span_table():
    stats = {
        "receiver.ingest": [10, 5_000_000, 3_000_000],
        "rangecoder.encode_frame": [4, 1_000_000, 0],
        "pipeline.encode_stream": [2, 3_000_000, 1_000_000],
        "cli.sweep": [2, 8_000_000, 6_000_000],
    }
    trace = {
        "rounds": 2, "setup_reps": 3, "timed_s": 0.02, "payload_bits_per_frame": 9.5,
        "paths": {"entropy": 8, "plc_high": 1, "plc_low": 1},
        "setup": {"stats": {"hyperprior.calibrate": [3, 6_000, 0]}},
        "timed": {"stats": stats, "edges": {"cli.sweep>pipeline.encode_stream": 3_000_000},
                  "top_ns": 19_000_000, "cache_hits": 3, "cache_lookups": 4},
    }
    m = layer_metrics(trace, {"wall_s": {"value": 1.5}}, {"wall_s": {"value": 1.0}})
    assert m["receiver.ingest.calls"] == 5 and m["receiver.ingest.us_per_call"] == 500
    assert m["receiver.self_us_per_frame"] == 200
    assert m["pipeline.encode_stream.self_us_per_frame"] == 500
    assert m["hyperprior.calibrate.calls"] == 1 and m["hyperprior.calibrate.us_per_call"] == 2
    assert m["cli.sweep.s"] == 0.004 and m["cli.sweep.encode_share_pct"] == 15
    assert m["rangecoder.table_cache.hit_ratio"] == 0.75
    assert m["receiver.frames.plc_low"] == 0.5
    assert math.isclose(m["other.s"], 0.0005) and m["trace.overhead_s"] == 0.5
