"""Per-layer metrics from the span table of a traced run.

Spans of the timed phase are reported per round, spans of the set-up per
set-up repetition; a function called in both phases is reported from the
timed phase. Every value is a plain number; a function the workload never
calls reads 0.
"""

from __future__ import annotations


def _self_ns(stats: dict, name: str) -> int:
    entry = stats.get(name)
    return entry[1] - entry[2] if entry else 0


def layer_metrics(trace: dict, traced: dict, plain: dict) -> dict[str, float]:
    rounds = trace["rounds"]
    reps = trace["setup_reps"]
    timed = trace["timed"]
    stats = timed["stats"]
    out: dict[str, float] = {}

    for phase, per in ((trace["setup"], reps), (timed, rounds)):
        for name, (calls, total_ns, _) in phase["stats"].items():
            if name.startswith("cli."):
                out[f"{name}.s"] = total_ns / per / 1e9
            else:
                out[f"{name}.calls"] = calls / per
                out[f"{name}.us_per_call"] = total_ns / calls / 1e3

    paths = trace["paths"]
    emitted = sum(paths.values())
    for path, count in paths.items():
        out[f"receiver.frames.{path}"] = count / rounds
    per_frame_us = lambda ns, frames: ns / frames / 1e3 if frames else 0.0  # noqa: E731
    receiver_self = _self_ns(stats, "receiver.ingest") + _self_ns(stats, "receiver.finalize")
    out["receiver.self_us_per_frame"] = per_frame_us(receiver_self, emitted)
    encoded = stats.get("rangecoder.encode_frame", [0])[0]
    out["pipeline.encode_stream.self_us_per_frame"] = per_frame_us(
        _self_ns(stats, "pipeline.encode_stream"), encoded
    )
    # every receiver run of the workloads that call simulate_stream goes
    # through it, so its frames are all the emitted frames
    out["pipeline.simulate_stream.self_us_per_frame"] = per_frame_us(
        _self_ns(stats, "pipeline.simulate_stream"), emitted
    )

    lookups = timed["cache_lookups"]
    out["rangecoder.table_cache.lookups"] = lookups / rounds
    out["rangecoder.table_cache.hit_ratio"] = timed["cache_hits"] / lookups if lookups else 0.0
    out["rangecoder.payload_bits_per_frame"] = trace["payload_bits_per_frame"]

    timed_ns = trace["timed_s"] * 1e9
    out["other.s"] = (timed_ns - timed["top_ns"]) / rounds / 1e9
    sweep_encode_ns = timed["edges"].get("cli.sweep>pipeline.encode_stream", 0)
    out["cli.sweep.encode_share_pct"] = 100.0 * sweep_encode_ns / timed_ns
    out["trace.wall_s"] = traced["wall_s"]["value"]
    out["trace.overhead_s"] = traced["wall_s"]["value"] - plain["wall_s"]["value"]
    return out
