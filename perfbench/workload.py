"""One run of one benchmark workload, in a fresh interpreter.

Started by run.py, which fixes the thread limits and PYTHONPATH first:

    python3 perfbench/workload.py --workload stream-bern10 --seed 1 --seconds 15 --trace 0

Prints one JSON object as the last line of standard output. With
--trace 0 it carries the end-to-end metrics; with --trace 1 the spans and
counters of a traced run (run.py turns those into the per-layer metrics).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import reference as ref
from spans import Tracer

import voxfec.channel as channel
import voxfec.cli as cli
import voxfec.corpus as corpus
import voxfec.frontend as frontend
import voxfec.hyperprior as hyperprior
import voxfec.metrics as metrics
import voxfec.packets as packets
import voxfec.pipeline as pipeline
import voxfec.receiver as receiver
import voxfec.transform as transform

SETUP_REPS = 3  # setup_s is the median of this many set-ups
RATE_INDEX = 32
CORPUS_SEED = 20260810
MODEL_SEED = 1
OFFSETS = (1, 13)
OUT_DIR = Path(".perfbench_out")

clock = time.perf_counter


def build_model(codes: np.ndarray, stages: int, seed: int, d_z: int):
    """Calibrate a model on a code matrix, as the acceptance tests do."""
    sigma_min = 0.05 / 1024
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-corpus warning
        books, sigma_table = hyperprior.calibrate(codes, stages, seed, d_z=d_z, sigma_min=sigma_min)
    d_y = codes.shape[1]
    return hyperprior.CodecModel(
        d_l=d_y,
        d_y=d_y,
        d_z=d_z,
        q=stages,
        sigma_min=sigma_min,
        rho=ref.RHO,
        kappa=4.0,
        sigma_table=sigma_table,
        tokens=hyperprior.ConfidenceTokens.zeros(d_y, max(stages, 1), d_z),
        codebooks=books,
    )


class Round:
    """Timings and outputs of one round of the timed phase."""

    def __init__(self):
        self.wall_s = 0.0
        self.encode_s = 0.0  # time in the encoder, when the round encodes
        self.receive_s = 0.0  # time in the receiver
        self.frames_encoded = 0
        self.frames_received = 0
        self.paths = {"entropy": 0, "plc_high": 0, "plc_low": 0}
        self.failed = 0  # operations of the round that failed a check


class Workload:
    """Inputs built by `setup`, rounds of the timed phase by `run_round`,
    and `check` of each round's outputs after the round ends. `check` sets
    total_kbps, snr_db and payload_bits from the outputs it checked."""

    ops_per_round = 1
    total_kbps = 0.0
    snr_db = 0.0
    payload_bits = 0.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.digests: dict[str, str] = {}  # operation -> SHA-256 of its output

    def same_output(self, op: str, *chunks: bytes) -> bool:
        """Record the digest of an operation's output bytes; False when it
        differs from the same operation's output in an earlier round."""
        h = hashlib.sha256()
        for chunk in chunks:
            h.update(chunk)
        return self.digests.setdefault(op, h.hexdigest()) == h.hexdigest()

    def prepare_checks(self) -> None:
        """Reference symbols of the source clip, for the entropy frames."""
        self.step = ref.step_for_rate(RATE_INDEX)
        self.quantized = ref.quantized_latents(self.clip.samples, self.model.d_l, self.step)


class StreamBern10(Workload):
    """Criterion 11: the 64 s corpus at rate index 32, two side-info stages
    with backups at offsets {1, 13}, 10% Bernoulli loss."""

    def setup(self) -> None:
        clip = corpus.speech_like_clip(64.0, CORPUS_SEED)
        codes = np.stack([transform.analysis(f).coeffs for f in frontend.frame_encode(clip)])
        self.model = build_model(codes, stages=2, seed=MODEL_SEED, d_z=16)
        self.clip = clip
        self.fec = packets.FecConfig(2, OFFSETS)
        self.trace = channel.gen_bernoulli(0.1, codes.shape[0], self.seed)

    def run_round(self) -> tuple[Round, tuple]:
        rnd = Round()
        t0 = clock()
        enc = pipeline.encode_stream(self.clip, self.model, RATE_INDEX, self.fec)
        t1 = clock()
        sim = pipeline.simulate_stream(
            enc.packets, self.trace, self.model, receiver.ReceiverConfig(self.fec), len(self.clip)
        )
        t2 = clock()
        wave = metrics.compute_metrics(self.clip, sim.clip)
        rnd.wall_s = clock() - t0
        rnd.encode_s = t1 - t0
        rnd.receive_s = t2 - t1
        rnd.frames_encoded = len(enc.packets)
        rnd.frames_received = len(sim.paths)
        for p in sim.paths:
            rnd.paths[p] += 1
        return rnd, (enc, sim, wave)

    def check(self, rnd: Round, out) -> list[str]:
        enc, sim, wave = out
        n = len(enc.packets)
        lost = self.trace.flags[:n]
        errors = ref.check_stream_output(
            sim.codes, sim.paths, lost, enc.packets, OFFSETS,
            self.quantized, self.step, self.model.codebooks.stages,
        )
        if len(sim.clip) != len(self.clip):
            errors.append("output clip length differs from the source")
        if not np.isclose(enc.report.total_kbps, ref.stream_kbps(enc.packets), rtol=1e-12, atol=0):
            errors.append("total_kbps differs from the bits in the packets")
        if not np.isclose(wave.snr_db, ref.snr_db(self.clip.samples, sim.clip.samples), rtol=1e-9, atol=0):
            errors.append("snr_db differs from its numpy recomputation")
        side_info = [i for p in enc.packets for _, si in p.z_blocks for i in si.indices]
        if not self.same_output(
            "stream",
            b"".join(p.payload.data for p in enc.packets),
            np.array(side_info, dtype=np.int64).tobytes(),
            sim.clip.samples.tobytes(),
        ):
            errors.append("output bytes differ from an earlier round")
        self.total_kbps = enc.report.total_kbps
        self.snr_db = wave.snr_db
        self.payload_bits = sum(p.payload.bit_length for p in enc.packets) / n
        rnd.failed = min(len(errors), 1)
        return errors


class BurstSweep(Workload):
    """Criterion 4: the 4-dim, 1-stage model and a 200-frame stream encoded
    in set-up; one receiver run per burst placement, plus one loss-free run
    whose output gives snr_db."""

    N_FRAMES = 200
    # one encode of 200 tiny frames takes ~25 ms, too short to time once
    ENCODE_REPEATS = 50
    LONG_BURST = (14, 50)  # one frame beyond the offset-13 reach

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.placements = (
            [(0, 0)]
            + [(b, start) for b in range(1, 14) for start in range(0, 189 - b)]
            + [self.LONG_BURST]
        )
        self.ops_per_round = len(self.placements)
        self.encode_times: list[float] = []

    def setup(self) -> None:
        rng = np.random.default_rng(13)
        self.model = build_model(rng.normal(0, 0.2, size=(1500, 4)), stages=1, seed=3, d_z=2)
        rng = np.random.default_rng(self.seed)
        samples = rng.normal(0, 3000, self.N_FRAMES * self.model.d_l)
        self.clip = frontend.PcmClip(samples.clip(-32768, 32767).astype(np.int16))
        self.fec = packets.FecConfig(1, OFFSETS)
        t0 = clock()
        for _ in range(self.ENCODE_REPEATS):
            self.enc = pipeline.encode_stream(self.clip, self.model, RATE_INDEX, self.fec)
        self.encode_times.append((clock() - t0) / self.ENCODE_REPEATS)
        self.traces = []
        for b, start in self.placements:
            flags = np.zeros(self.N_FRAMES, dtype=bool)
            flags[start : start + b] = True
            self.traces.append(channel.LossTrace(flags, "file"))
        self.config = receiver.ReceiverConfig(self.fec, 13)

    def run_round(self) -> tuple[Round, tuple]:
        rnd = Round()
        enc, model, config = self.enc, self.model, self.config
        in_order = list(range(self.N_FRAMES))
        checked = {}
        for (b, start), trace in zip(self.placements, self.traces):
            t0 = clock()
            decoded, rep = pipeline.run_receiver(enc.packets, trace, model, config)
            rnd.receive_s += clock() - t0
            rnd.frames_received += len(decoded)
            rnd.paths["entropy"] += rep.entropy_count
            rnd.paths["plc_high"] += rep.plc_high_count
            rnd.paths["plc_low"] += rep.plc_low_count
            if b == 0 or b > 13:
                checked[b] = (decoded, rep, trace)  # checked in full by check()
            elif not (
                rep.plc_low_count == 0
                and rep.plc_high_count == b
                and [d.code.frame_index for d in decoded] == in_order
            ):
                rnd.failed += 1
                print(f"burst-sweep: burst of {b} at {start} gave {rep}", file=sys.stderr)
        rnd.wall_s = rnd.receive_s
        return rnd, checked

    def check(self, rnd: Round, out) -> list[str]:
        """Every frame of the loss-free run and of the 14-frame burst run
        against its reference (the other runs are checked as they go), the
        stream's size and the loss-free output's SNR."""
        failures = {}  # burst length of the run -> its failed checks
        for b, (decoded, rep, trace) in sorted(out.items()):
            errors = failures[b] = []
            if b and rep.plc_low_count < 1:
                errors.append("the 14-frame burst gave no plc_low frame")
            if [d.code.frame_index for d in decoded] != list(range(self.N_FRAMES)):
                errors.append(f"the run with a {b}-frame burst did not emit every frame in order")
                continue
            codes = np.stack([d.code.coeffs for d in decoded])
            if not self.same_output(f"burst{b}", codes.tobytes()):
                errors.append(f"the run with a {b}-frame burst differs from an earlier round")
            errors += ref.check_stream_output(
                codes, [d.path for d in decoded], trace.flags, self.enc.packets, OFFSETS,
                self.quantized, self.step, self.model.codebooks.stages,
            )
            if b == 0:
                frames = [transform.synthesis(d.code) for d in decoded]
                out_clip = frontend.frame_decode(frames, len(self.clip))
                self.snr_db = metrics.compute_metrics(self.clip, out_clip).snr_db
                if not np.isclose(self.snr_db, ref.snr_db(self.clip.samples, out_clip.samples), rtol=1e-9, atol=0):
                    errors.append("snr_db differs from its numpy recomputation")
                self.total_kbps = self.enc.report.total_kbps
                if not np.isclose(self.total_kbps, ref.stream_kbps(self.enc.packets), rtol=1e-12, atol=0):
                    errors.append("total_kbps differs from the bits in the packets")
        self.payload_bits = sum(p.payload.bit_length for p in self.enc.packets) / self.N_FRAMES
        rnd.failed += sum(1 for errors in failures.values() if errors)
        return [e for errors in failures.values() for e in errors]


METRICS_SCHEMA = "# voxfec metrics v1"
REPORT_SCHEMA = "# voxfec receiver-report v1"


def read_csv(path) -> tuple[str, list[dict]]:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    cols = lines[1].split(",")
    return lines[0], [dict(zip(cols, line.split(","))) for line in lines[2:]]


class CliLossSweep(Workload):
    """The command line on a 12 s corpus: encode to a container, simulate
    from it over the burst10 Markov channel, sweep the loss rate."""

    ops_per_round = 3  # encode, simulate, sweep
    DURATION_S = 12.0
    LOSS_VALUES = "0,0.05,0.1,0.2"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.wav = str(workdir / "corpus.wav")
        self.model_path = str(workdir / "model.vxm")
        self.container = str(workdir / "stream.vxs")

    @staticmethod
    def run_cli(*argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main(list(argv))
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2

    def setup(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small-corpus warning
            codes = (
                self.run_cli("make-corpus", "--duration", str(self.DURATION_S),
                             "--seed", str(CORPUS_SEED), "--out", self.wav),
                self.run_cli("calibrate", "--input", self.wav, "--stages", "2",
                             "--seed", str(MODEL_SEED), "--out", self.model_path),
            )
        if codes != (0, 0):
            raise RuntimeError(f"set-up subcommands exited with {codes}")

    def prepare_checks(self) -> None:
        self.source = ref.read_pcm16(self.wav)
        clip = frontend.read_wav(self.wav)
        model = hyperprior.load_model(self.model_path)
        self.expected_packets = pipeline.encode_stream(
            clip, model, RATE_INDEX, packets.FecConfig(2, OFFSETS)
        ).packets
        self.n = len(self.expected_packets)
        self.expected_kbps = ref.stream_kbps(self.expected_packets)

    def run_round(self) -> tuple[Round, tuple]:
        rnd = Round()
        d = self.workdir
        # time the encoder and receiver calls that the subcommands make
        timer = Tracer()
        timer.time_binding(cli, "encode_stream", "encode")
        timer.time_binding(cli, "simulate_stream", "receive")
        t0 = clock()
        try:
            rc_enc = self.run_cli(
                "encode", "--input", self.wav, "--model", self.model_path,
                "--q-lambda", str(RATE_INDEX), "--fec-q", "2", "--fec-offsets", "1,13",
                "--out", self.container,
            )
            rc_sim = self.run_cli(
                "simulate", "--container", self.container, "--model", self.model_path,
                "--channel", "markov", "--preset", "burst10", "--seed", str(self.seed),
                "--ref", self.wav, "--out-wav", str(d / "lossy.wav"),
                "--out-csv", str(d / "metrics.csv"), "--report-csv", str(d / "receiver.csv"),
            )
            rc_sweep = self.run_cli(
                "sweep", "--input", self.wav, "--model", self.model_path, "--axis", "loss",
                "--values", self.LOSS_VALUES, "--seed", str(self.seed), "--out", str(d / "sweep.csv"),
            )
            rnd.wall_s = clock() - t0
        finally:
            timer.uninstall()
        calls, ns, _ = timer.stats.get("encode", (0, 0, 0))
        rnd.frames_encoded, rnd.encode_s = calls * self.n, ns / 1e9
        calls, ns, _ = timer.stats.get("receive", (0, 0, 0))
        rnd.frames_received, rnd.receive_s = calls * self.n, ns / 1e9
        return rnd, (rc_enc, rc_sim, rc_sweep)

    def check(self, rnd: Round, out) -> list[str]:
        """Checks of the three subcommands; an error names its subcommand."""
        rc_enc, rc_sim, rc_sweep = out
        d, n = self.workdir, self.n
        errors = []
        if rc_enc != 0:
            errors.append(f"encode: exit code {rc_enc}")
        else:
            _, got = packets.read_container(self.container)
            if got != self.expected_packets:
                errors.append("encode: container does not read back to the in-memory packets")
            if not self.same_output("encode", Path(self.container).read_bytes()):
                errors.append("encode: container differs from an earlier round")
        if rc_sim != 0:
            errors.append(f"simulate: exit code {rc_sim}")
        else:
            lossy = ref.read_pcm16(d / "lossy.wav")
            schema, rows = read_csv(d / "metrics.csv")
            rep_schema, rep_rows = read_csv(d / "receiver.csv")
            row = rows[0]
            if lossy.size != self.source.size:
                errors.append("simulate: output WAV length differs from the input")
            elif not np.isclose(float(row["snr_db"]), ref.snr_db(self.source, lossy), rtol=1e-8, atol=0):
                errors.append("simulate: snr_db differs from its numpy recomputation")
            if schema != METRICS_SCHEMA or rep_schema != REPORT_SCHEMA:
                errors.append("simulate: CSV schema line missing")
            files = ("lossy.wav", "metrics.csv", "receiver.csv")
            if not self.same_output("simulate", *((d / f).read_bytes() for f in files)):
                errors.append("simulate: outputs differ from an earlier round")
            if not np.isclose(float(row["bitrate_total_kbps"]), self.expected_kbps, rtol=1e-8, atol=0):
                errors.append("simulate: total kbps differs from the bits in the packets")
            counts = [int(row[k]) for k in ("entropy_frames", "plc_high_frames", "plc_low_frames")]
            rep_counts = [int(rep_rows[0][k]) for k in ("entropy_count", "plc_high_count", "plc_low_count")]
            if int(row["frames"]) != n or sum(counts) != n or counts != rep_counts:
                errors.append("simulate: frame counts inconsistent")
            self.total_kbps = float(row["bitrate_total_kbps"])
            for k, v in zip(("entropy", "plc_high", "plc_low"), counts):
                rnd.paths[k] += v
        if rc_sweep != 0:
            errors.append(f"sweep: exit code {rc_sweep}")
        else:
            schema, rows = read_csv(d / "sweep.csv")
            if not self.same_output("sweep", (d / "sweep.csv").read_bytes()):
                errors.append("sweep: CSV differs from an earlier round")
            entropy = [int(r["entropy_frames"]) for r in rows]
            if schema != METRICS_SCHEMA or len(rows) != len(self.LOSS_VALUES.split(",")):
                errors.append("sweep: CSV schema line or rows missing")
            elif any(b > a for a, b in zip(entropy, entropy[1:])):
                errors.append(f"sweep: entropy frames rise with the loss rate: {entropy}")
            elif (int(rows[0]["plc_high_frames"]), int(rows[0]["plc_low_frames"]), entropy[0]) != (0, 0, n):
                errors.append("sweep: the loss-0 point concealed a frame")
            elif any(not np.isclose(float(r["bitrate_total_kbps"]), self.expected_kbps, rtol=1e-8, atol=0) for r in rows):
                errors.append("sweep: total kbps differs from the bits in the packets")
            else:
                self.snr_db = float(rows[0]["snr_db"])
                for r in rows:
                    rnd.paths["entropy"] += int(r["entropy_frames"])
                    rnd.paths["plc_high"] += int(r["plc_high_frames"])
                    rnd.paths["plc_low"] += int(r["plc_low_frames"])
        self.payload_bits = sum(p.payload.bit_length for p in self.expected_packets) / n
        rnd.failed = len({e.split(":", 1)[0] for e in errors})
        return errors


WORKLOADS = {
    "stream-bern10": StreamBern10,
    "burst-sweep": BurstSweep,
    "cli-loss-sweep": CliLossSweep,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp))
        if tracer:
            tracer.install()
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = clock()
            wl.setup()
            setup_times.append(clock() - t0)
        setup_spans = None
        if tracer:
            tracer.uninstall()
            setup_spans = tracer.snapshot()
            tracer.reset()
        wl.prepare_checks()

        rounds: list[Round] = []
        attempted = failed = 0
        timed_s = 0.0
        while not rounds or timed_s < args.seconds:
            attempted += wl.ops_per_round
            if tracer:
                tracer.install()
            try:
                rnd, out = wl.run_round()
            except Exception:
                traceback.print_exc()
                failed += wl.ops_per_round
                break
            finally:
                if tracer:
                    tracer.uninstall()
            try:
                errors = wl.check(rnd, out)
            except Exception:
                traceback.print_exc()
                errors, rnd.failed = ["check raised"], wl.ops_per_round
            del out
            for e in errors:
                print(f"{args.workload}: {e}", file=sys.stderr)
            failed += rnd.failed
            rounds.append(rnd)
            timed_s += rnd.wall_s

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if not rounds:
        result["metrics"] = {}
        print(json.dumps(result))
        return 1
    # rates over the run's whole measured time: on a machine whose speed
    # drifts, that spreads less from run to run than a median of 2-4 rounds
    total = lambda attr: sum(getattr(r, attr) for r in rounds)  # noqa: E731
    if isinstance(wl, BurstSweep):
        encode_fps = wl.N_FRAMES / statistics.median(wl.encode_times)
    else:
        encode_fps = total("frames_encoded") / total("encode_s")
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "encode_fps": (encode_fps, "frames/s"),
        "receive_fps": (total("frames_received") / total("receive_s"), "frames/s"),
        "wall_s": (total("wall_s") / len(rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "total_kbps": (wl.total_kbps, "kbps"),
        "snr_db": (float(wl.snr_db), "dB"),
    }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    result["digests"] = wl.digests
    if tracer:
        result["trace"] = {
            "rounds": len(rounds),
            "setup_reps": SETUP_REPS,
            "timed_s": timed_s,
            "paths": {k: sum(r.paths[k] for r in rounds) for k in rounds[0].paths},
            "payload_bits_per_frame": wl.payload_bits,
            "setup": jsonable(setup_spans),
            "timed": jsonable(tracer.snapshot()),
        }
    print(json.dumps(result))
    return 0


def jsonable(snap: dict) -> dict:
    snap = dict(snap)
    snap["edges"] = {f"{a}>{b}": v for (a, b), v in snap["edges"].items()}
    return snap


if __name__ == "__main__":
    sys.exit(main())
