"""voxfec benchmark launcher.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Each run starts the workload in a
fresh interpreter (perfbench/workload.py) with the voxfec sources of the
checkout on PYTHONPATH and every BLAS/OpenMP pool limited to one thread,
waits for it, and prints one JSON object as the last line of standard
output: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload twice, untraced and then traced, and reports the per-layer
metrics of BENCHMARK.json; the full span table of the traced run is also
written to .perfbench_out/trace-<workload>-seed<n>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from layers import layer_metrics

HERE = Path(__file__).resolve().parent
WORKLOADS = ("stream-bern10", "burst-sweep", "cli-loss-sweep")
DEADLINE_S = 170.0  # a run, traced or not, ends within this
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(root: Path, args, trace: int, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the run")
    proc = subprocess.run(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "voxfec" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of a voxfec checkout: src/voxfec or BENCHMARK.json missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    try:
        if not args.trace:
            result = run_child(root, args, 0, deadline)
            declared = spec["end_to_end"]
            values = {k: m["value"] for k, m in result["metrics"].items()}
        else:
            plain = run_child(root, args, 0, deadline)
            result = run_child(root, args, 1, deadline)
            table = layer_metrics(result["trace"], result["metrics"], plain["metrics"])
            out = root / ".perfbench_out"
            out.mkdir(exist_ok=True)
            (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="ascii"
            )
            declared = spec["per_layer"]
            values = table
            same_bytes = result["digests"] == plain["digests"]
            if not same_bytes:
                print("the traced run changed the program's output bytes", file=sys.stderr)
            result["correct"] = result["correct"] and plain["correct"] and same_bytes
            result["attempted"] += plain["attempted"]
            result["failed"] += plain["failed"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    out_metrics = {}
    for m in declared:
        if m["name"] in values:
            value = values[m["name"]]
        elif args.trace:
            value = 0.0  # a function this workload does not call
        else:
            print(f"benchmark run failed: no value for {m['name']}", file=sys.stderr)
            return 1
        out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
