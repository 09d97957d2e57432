"""Spec files for each benchmark workload, generated from the seed.

The seed only picks the noise seeds of the scenarios; the scenario grid,
payload sizes and every physical parameter are fixed, so each seed does the
same amount of work and only the random realizations differ.  The one
exception is the trained cell, whose seed is fixed: sign-sign LMS training
converges to different FFE/CTLE settings from seed to seed, and the stat
engine's cost on the trained link then ranges from 0.13 s to 1.1 s.  Every value
stays inside the ranges the spec validator accepts today and well inside
the physical ranges a stricter validator would, and only streaming
execution is used.

    python3 perfbench/specs.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

DEFAULT_SEED = 1

# lossy_line trace and seed of the training CI scenario
# (examples/specs/trained_ci.json).
LOSSY_LINE = {"kind": "lossy_line", "loss_db": 8.0,
              "skin_loss_db_at_1ghz": 12.0, "dielectric_loss_db_at_1ghz": 4.0}
TRAINED_SEED = 20260808


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def sweep_1k(rng: random.Random) -> dict:
    """200 cells of 1024-bit NRZ Monte Carlo: channel kind x noise x CTLE
    boost x dsp (4 x 5 x 5 x 2)."""
    channels = [
        {"kind": "flat", "loss_db": 30.0},
        {"kind": "rc", "pole_hz": 1.5e9, "loss_db": 6.0},
        LOSSY_LINE,
        {"kind": "composite", "stages": [
            {"kind": "flat", "loss_db": 20.0},
            {"kind": "fir", "fir_taps": [1.0, 0.25, 0.08]}]},
    ]
    return {"sweep.json": {
        "name": "sweep_1k",
        "base": {"name": "cell", "payload_bits": 1024, "chunk_bits": 1024,
                 "analysis": "mc", "seed": _seed(rng)},
        "axes": [
            {"field": "channel", "values": channels},
            {"field": "noise_rms_v",
             "values": [0.0005, 0.001, 0.0015, 0.002, 0.003]},
            {"field": "rx_ctle_boost_db", "values": [0.0, 2.0, 4.0, 6.0, 8.0]},
            {"field": "dsp", "values": [False, True]},
        ],
    }}


def deep_mc(rng: random.Random) -> dict:
    """One long Monte Carlo run per sampler/CDR sink: scalar NRZ, an 8-lane
    SoA tile and a coupled 4-lane PAM4 bus."""
    nrz = {
        "name": "nrz_deep", "channel": LOSSY_LINE, "noise_rms_v": 0.002,
        "rx_ctle_boost_db": 4.0, "dfe_taps": [0.04, 0.015, 0.005],
        "payload_bits": 262144, "chunk_bits": 8192, "seed": _seed(rng),
    }
    tile = {
        "name": "lane_tile", "lanes": 8,
        "base": {"name": "lane", "channel": {"kind": "flat", "loss_db": 30.0},
                 "noise_rms_v": 0.001, "payload_bits": 32768,
                 "chunk_bits": 8192, "lane_batch": 8, "seed": _seed(rng)},
    }
    ring = [[0.0] * 4 for _ in range(4)]
    fext = [row[:] for row in ring]
    next_ = [row[:] for row in ring]
    for v in range(4):
        for a in (v - 1, v + 1):
            if 0 <= a < 4:
                fext[v][a] = 0.03
                next_[v][a] = 0.01
    bus = {
        "name": "pam4_bus", "lanes": 4,
        "base": {"name": "lane", "channel": {"kind": "flat", "loss_db": 4.0},
                 "modulation": "pam4", "noise_rms_v": 0.005,
                 "payload_bits": 32768, "chunk_bits": 16384,
                 "analysis": "mc", "seed": _seed(rng)},
        "coupling": fext, "next_coupling": next_,
    }
    return {"nrz_deep.json": nrz, "lane_tile.json": tile,
            "pam4_bus.json": bus}


def design_loop(rng: random.Random) -> dict:
    """A 12-cell stat sweep, one trained stat cell and one optimize call."""
    stat_sweep = {
        "name": "stat_sweep",
        "base": {"name": "stat", "analysis": "stat",
                 "stat_target_ber": 1e-15, "seed": _seed(rng)},
        "axes": [
            {"field": "channel", "values": [
                {"kind": "flat", "loss_db": 34.0},
                {"kind": "rc", "pole_hz": 1.5e9, "loss_db": 6.0},
                LOSSY_LINE]},
            {"field": "noise_rms_v", "values": [0.002, 0.004]},
            {"field": "dfe_taps", "values": [[], [0.04, 0.015, 0.005]]},
        ],
    }
    trained = {
        "name": "trained_cell", "channel": LOSSY_LINE, "noise_rms_v": 0.004,
        "eq": "trained", "training_uis": 4096, "analysis": "stat",
        "stat_target_ber": 1e-15, "seed": TRAINED_SEED,
    }
    optimize = {
        "name": "optimize",
        "channel": {"kind": "fir", "fir_taps": [0.5, 0.3, 0.15, 0.05],
                    "fir_samples_per_tap": 0},
        "noise_rms_v": 0.004, "seed": _seed(rng),
    }
    return {"stat_sweep.json": stat_sweep, "trained.json": trained,
            "optimize.json": optimize}


WORKLOADS = {"sweep_1k": sweep_1k, "deep_mc": deep_mc,
             "design_loop": design_loop}


def generate(workload: str, seed: int) -> dict:
    """File name -> JSON document for `workload` at `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def write(workload: str, seed: int, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in generate(workload, seed).items():
        (out_dir / name).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    write(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
