#!/usr/bin/env python3
"""End-to-end benchmark of the SerDes simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the library and the harness
(perfbench/CMakeLists.txt, Release) under .bench_build/, writes the
workload's spec files for the seed, then:

  * set-up: starts the harness three times (twice with --setup-only) and
    times each from process start until the inputs are loaded, validated
    and expanded and the first, cold pass has finished; setup_s is the
    median;
  * measurement: the third harness process runs warm passes for --seconds
    seconds, replays one pass traced, and checks every report (see
    harness.cc for the accounting).

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics under --trace 0 and the
per-layer metrics of the traced replay under --trace 1.  A fuller record
(environment, per-workload metrics, failures) goes to
.bench_build/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import specs  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
PINS = BENCH_DIR / "digests.json"

SETUP_SAMPLES = 3
# Time allowed for all harness processes of one run, after the build.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "analog.rx_char_ms": "ms",
    "core.link_build_ms": "ms",
    "stat.analyze_ms": "ms",
    "stat.calls": "count",
    "stat.isi_cursors": "count",
    "opt.optimize_ms": "ms",
    "opt.evaluations": "count",
    "opt.ms_per_eval": "ms",
    "core.train_ms": "ms",
    "core.train_passes": "count",
    "core.mc_ns_per_bit": "ns",
    "core.lane_ns_per_lane_bit": "ns",
    "api.run_bus_ms": "ms",
    "core.eye_ms": "ms",
    "channel.build_ms": "ms",
    "api.lower_ms": "ms",
    "sweep.aggregate_ms": "ms",
    "api.serialize_ms": "ms",
    "api.parse_ms": "ms",
    "sweep.expand_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    pass


def log(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)


def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no library sources under {ROOT}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j2"])
    for cmd in steps:
        # A process group of its own, so an interrupted build takes its
        # compilers down with it.
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              start_new_session=True) as proc:
            try:
                output, _ = proc.communicate()
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        if proc.returncode != 0:
            log(output[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_harness(args: list[str], deadline: float) -> tuple[float, str]:
    """Runs the harness, killing it at `deadline` (time.perf_counter());
    returns (seconds from start to SETUP_DONE, the last stdout line)."""
    start = time.perf_counter()
    timeout = max(0.0, deadline - start)
    setup_s = None
    last = ""
    with subprocess.Popen([str(HARNESS), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                line = line.rstrip("\n")
                if line == "SETUP_DONE" and setup_s is None:
                    setup_s = time.perf_counter() - start
                elif line:
                    last = line
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or setup_s is None:
        raise BenchError(f"harness exited with code {proc.returncode}")
    return setup_s, last


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def fast_decile(values: list[float]) -> float:
    """Every pass does identical, deterministic work, and on a machine whose
    cores are shared, contention only ever adds time; the fastest decile of
    the repeated measurements is the steady estimate of the work's cost."""
    return nearest_rank(values, 0.1)


def op_ms(op: dict) -> float:
    return fast_decile(op["warm_ms"])


def pass_ms(result: dict) -> float:
    """One warm pass: the sum of its top-level operations' times, each the
    fastest decile of that operation's runs."""
    return sum(op_ms(op) for op in result["ops"] if op["top"])


def workload_metrics(result: dict) -> dict:
    """The per-operation figures of the workload (recorded, not gated)."""
    ops = {op["name"]: op for op in result["ops"]}
    out = {}
    if "sweep_1k" in ops or "nrz_deep" in ops:
        top_bits = sum(op["sim_bits"] for op in result["ops"] if op["top"])
        out["sim_bits_per_s"] = top_bits / (pass_ms(result) / 1e3)
    if "sweep_1k" in ops:
        cells = [op for op in result["ops"] if op["kind"] == "cell"]
        cell_ms = [op_ms(op) for op in cells]
        out["cells_per_s"] = len(cells) / (op_ms(ops["sweep_1k"]) / 1e3)
        out["cell_ms_p50"] = statistics.median(cell_ms)
        out["cell_ms_p90"] = nearest_rank(cell_ms, 0.9)
    if "nrz_deep" in ops:
        for name, key in (("nrz_deep", "nrz_bits_per_s"),
                          ("lane_tile", "lane_tile_bits_per_s"),
                          ("pam4_bus", "pam4_bus_bits_per_s")):
            out[key] = ops[name]["sim_bits"] / (op_ms(ops[name]) / 1e3)
    if "stat_sweep" in ops:
        cells = [op for op in result["ops"] if op["kind"] == "stat_cell"]
        out["stat_cells_per_s"] = len(cells) / (op_ms(ops["stat_sweep"]) / 1e3)
        out["trained_cell_s"] = op_ms(ops["trained_cell"]) / 1e3
        out["optimize_s"] = op_ms(ops["optimize"]) / 1e3
    out["failed_frac"] = result["failed"] / result["attempted"]
    return out


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": pass_ms(result) / 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's digests as the pinned ones "
                             "(default seed only)")
    args = parser.parse_args()
    # On SIGTERM, unwind so that every child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    if args.write_pins and args.seed != specs.DEFAULT_SEED:
        parser.error(f"--write-pins needs --seed {specs.DEFAULT_SEED}")

    build()
    deadline = time.perf_counter() + RUN_BUDGET_S
    tag = f"{args.workload}-seed{args.seed}"
    inputs = BUILD_ROOT / "inputs" / tag
    specs.write(args.workload, args.seed, inputs)
    results = BUILD_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)

    base = ["--workload", args.workload, "--inputs", str(inputs)]
    setup_samples = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, _ = run_harness([*base, "--setup-only"], deadline)
            setup_samples.append(setup_s)
    trace_path = results / f"{tag}-trace.json"
    measure = [*base, "--seconds", str(args.seconds),
               "--trace-out", str(trace_path)]
    pinned = args.seed == specs.DEFAULT_SEED and not args.write_pins
    if pinned:
        measure += ["--pins", str(PINS)]
    setup_s, last = run_harness(measure, deadline)
    setup_samples.append(setup_s)
    result = json.loads(last)

    if args.write_pins:
        pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
        pins[args.workload] = {op["name"]: op["digest"] for op in result["ops"]}
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    failures = [f"{op['name']}: {op['failure']}" for op in result["ops"]
                if op["failed_runs"]]
    failures += [f"{c['name']}: {c.get('detail', '')}"
                 for c in result["checks"] if not c["ok"]]
    e2e = end_to_end(result, setup_samples)
    env = {**result["env"], "seed": args.seed, "git_commit": git_commit()}
    trace = json.loads(trace_path.read_text())
    trace["env"] = env
    trace_path.write_text(json.dumps(trace) + "\n")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "env": env,
        "digest_reference": "pinned" if pinned else "first run in process",
        "setup_samples_s": setup_samples,
        "pass_wall_ms": result["pass_wall_ms"],
        "end_to_end": e2e,
        "workload_metrics": workload_metrics(result),
        "per_layer": result["layers"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": failures[:50],
    }
    (results / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for line in failures[:10]:
        log("FAILED", line)
    log("env:", json.dumps(env))
    log("workload metrics:", json.dumps(record["workload_metrics"]))

    if args.trace == 0:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}
    else:
        metrics = {k: {"value": result["layers"][k], "unit": unit}
                   for k, unit in PER_LAYER_UNITS.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
