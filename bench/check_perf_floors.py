#!/usr/bin/env python3
"""Compare a fresh BENCH_perf.json against checked-in throughput floors.

Fails (exit 1) when any kernel present in the floors file runs below its
floor.  The floors encode "no more than a 25% regression from the recorded
reference run", derated for machine variance between the reference box and
CI runners — regenerate them from a representative run with --write, which
stores items_per_s * WRITE_FACTOR per kernel.

Also fails when a kernel's ns/item exceeds its RATIOS limit times another
kernel's from the same fresh run: the machine cancels out of such a ratio,
so it catches the 2-4x regressions the derated floors let through.

Usage:
  check_perf_floors.py FRESH.json FLOORS.json           # check (CI gate)
  check_perf_floors.py FRESH.json FLOORS.json --write   # regenerate floors

One-command local repro of the CI gate:
  cmake --build build --target bench_perf_kernels && \
      ./build/bench/bench_perf_kernels BENCH_perf.json --deep-bits=262144 && \
      python3 bench/check_perf_floors.py BENCH_perf.json bench/BENCH_perf_floors.json
"""

import json
import sys

# reference * (1 - 0.25 regression budget) * 1/3 machine-variance derate:
# GitHub-hosted runners span CPU generations and are oversubscribed, so the
# derate is generous — the gate exists to catch order-of-magnitude kernel
# regressions, not single-digit drift (the uploaded artifact tracks that).
WRITE_FACTOR = 0.75 / 3.0

# Kernels excluded from the gate: single-shot timings (iterations == 1 at
# small --deep-bits) are too noisy for a hard floor; the deep kernel's
# trajectory is tracked through the uploaded artifact instead.
EXCLUDE = ("deep_ber_streaming_bit",)

# Kernels that MUST have a floor: if one goes missing from the floors file
# (e.g. a careless --write on a build without the bench), the gate fails
# instead of silently ungating the kernel.  The stat-engine kernel backs
# the `serdes_cli stat` path and the "stat"/"both" sweep scenarios; the
# lanes8 kernels pin the SoA lane-tiling speedup (the batch8 floor is
# deliberately >= 3x the batch4 floor, so losing the tiling win is a
# gate failure, not drift); receiver_build pins the receiver front-end
# characterization memo (a cold build is ~10^4x slower, and reports are
# byte-identical either way, so losing the memo is a gate failure only
# here); stat_contour_grid pins the bisection deciders that settle each
# eye-contour step from the leading tail terms (without them it runs ~4.5x
# slower, below its floor, and the quantiles are bit-identical either way);
# stat_engine_margins_paper_default is the stat engine as sweep rows and
# optimizer scores run it, bisecting the best phase's contour alone;
# eye_fold_ui is the eye fold every MC report and sweep cell runs;
# stat_noise_gain_paper_default pins the noise-gain sum's early stop (the
# subnormal tail it skips made it ~300x slower, with the same bits) and
# stat_mixture_grid_build the grid mixture's unchecked interior over the
# bins that hold mass (about 2.6x on the -O2 build, the same bits);
# stage_source_quotient_sample and stage_xtalk4_sample are the two
# kernels the TX source's ratio gates below read;
# full_link_run_block4096_bit is full_link_run_bit at 4096-sample blocks,
# where its 20992-sample stream re-runs the front in pass 2 instead of
# resuming from pass 1's output.
REQUIRED = (
    "eye_fold_ui",
    "receiver_build",
    "stat_contour_grid",
    "stat_noise_gain_paper_default",
    "stat_mixture_grid_build",
    "stat_engine_paper_default",
    "stat_engine_margins_paper_default",
    "stat_engine_bus4_pam4",
    "stat_engine_dfe_sample",
    "optimize_paper_default",
    "stage_pam4_slicer_sample",
    "stage_source_quotient_sample",
    "stage_xtalk4_sample",
    "full_link_run_bit",
    "full_link_run_block4096_bit",
    "simulator_run_batch8_lanes_bit",
    "stage_awgn_lanes8_sample",
    "stage_channel_fir64_lanes8_sample",
    "stage_ctle_lanes8_sample",
    "stage_restore_lanes8_sample",
    "stage_rfi_lanes8_sample",
    "stage_sampler_cdr_lanes8_sample",
)

# Same-process ratio gates: (kernel, baseline, limit) fails when the
# kernel's ns/item exceeds limit x the baseline's, or when either kernel is
# missing from the fresh results.
#   rng_gaussian / rng_u64: the ziggurat's fast path is one xoshiro step, a
#     table compare, a multiply and a sign-bit XOR: 2.9-3.2x the step alone
#     on a shared 4-core x86-64 box (Release), with single runs up to 3.6x.
#     Picking the sign with a branch on the random bit mispredicts half the
#     draws: 5.6-6.0x.
#   stage_channel_lossy_sample / stage_ctle_sample: the lossy line steps
#     two one-pole recurrences, the CTLE one.  In one loop the lossy line's
#     two latency chains overlap: 0.98-1.03x the CTLE on the same box.  As
#     separate passes over the block they run back to back: 1.9-2.1x.
#   stat_engine_margins_paper_default / stat_engine_paper_default: the
#     margins-only analysis bisects one eye contour where the full one
#     bisects 64: 0.18-0.19x on the same box.  A margins mode that bisects
#     every phase again reads about 1.0x, and its margins are bit-identical,
#     so only this gate notices.
#   stage_channel_fir513_fft_sample / stage_channel_fir513_direct_sample:
#     overlap-save with butterflies on plain doubles runs at 0.07-0.09x the
#     513-tap direct kernel on the same box.  std::complex<double> products
#     (a NaN test and a recovery branch per butterfly) put it at
#     0.31-0.40x, with bit-identical output, so only this gate notices.
#   stat_mixture_grid_build / stat_mixture_grid_plain: the library's grid
#     mixture build (support tracking, unchecked interior) against the
#     tests' plain full-grid, bounds-checked loop on the same 40-cursor,
#     4097-bin mixture: 0.26-0.36x on the same box (-O2 build, 3 runs).
#     The plain loop is the build as it was before those two changes, with
#     the same bits; timed in the library's place it read 1.20x, and at
#     1272-1533/s it clears the derated floor, so only this gate notices.
#   stage_source_sample / stage_source_quotient_sample: the TX source finds
#     each sample's bit by integer index, walks the block UI by UI and
#     blends only the edge samples: 0.21-0.24x the quotient loop it
#     replaced (tests/level_pulse_reference.h, a division per sample) on
#     the same box (-O2 build, 7 runs).  The replaced source read 0.91-1.12x
#     (3 runs), with the same bits.
#   stage_xtalk4_sample / stage_source_sample: four crosstalk paths at one
#     delay (2 FEXT through a flat channel, 2 NEXT) share one launch and one
#     channel stream and add two paths per sweep: 3.1-3.4x one source on
#     the same box (-O2 build, 7 runs).  The replaced stage synthesized a
#     launch and opened a stream per path: 4.5-5.2x its own source (3
#     runs), with the same bits.
RATIOS = (
    ("rng_gaussian", "rng_u64", 4.0),
    ("stage_channel_lossy_sample", "stage_ctle_sample", 1.25),
    ("stat_engine_margins_paper_default", "stat_engine_paper_default", 0.5),
    ("stage_channel_fir513_fft_sample", "stage_channel_fir513_direct_sample",
     0.2),
    ("stat_mixture_grid_build", "stat_mixture_grid_plain", 0.6),
    ("stage_source_sample", "stage_source_quotient_sample", 0.6),
    ("stage_xtalk4_sample", "stage_source_sample", 4.0),
)


def load(path):
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b["items_per_s"] for b in data["benchmarks"]}


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    fresh_path, floors_path = args
    fresh = load(fresh_path)

    if "--write" in sys.argv:
        floors = {
            name: round(rate * WRITE_FACTOR, 1)
            for name, rate in sorted(fresh.items())
            if name not in EXCLUDE
        }
        with open(floors_path, "w") as f:
            json.dump({"floors": floors}, f, indent=2)
            f.write("\n")
        print(f"wrote {floors_path} ({len(floors)} floors, "
              f"factor {WRITE_FACTOR})")
        return 0

    with open(floors_path) as f:
        floors = json.load(f)["floors"]
    failures = []
    for name in REQUIRED:
        if name not in floors:
            failures.append(f"{name}: required kernel has no floor in "
                            f"{floors_path}")
    for name, floor in sorted(floors.items()):
        rate = fresh.get(name)
        if rate is None:
            failures.append(f"{name}: missing from {fresh_path}")
            continue
        verdict = "ok" if rate >= floor else "REGRESSION"
        print(f"{name:40s} {rate:16.1f} items/s  floor {floor:16.1f}  "
              f"{verdict}")
        if rate < floor:
            failures.append(
                f"{name}: {rate:.1f} items/s is below the floor {floor:.1f}")
    for name, base, limit in RATIOS:
        label = f"{name} / {base}"
        if name not in fresh or base not in fresh:
            failures.append(f"{label}: ratio gate needs both kernels in "
                            f"{fresh_path}")
            continue
        ratio = fresh[base] / fresh[name]  # ns/item over the baseline's
        verdict = "ok" if ratio <= limit else "REGRESSION"
        print(f"{label:58s} {ratio:6.2f}x ns/item  limit {limit:.2f}x  "
              f"{verdict}")
        if ratio > limit:
            failures.append(f"{label}: {ratio:.2f}x ns/item exceeds the "
                            f"limit {limit:.2f}x")
    if failures:
        print("\nperf floor check FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nperf floor check passed ({len(floors)} kernels, "
          f"{len(RATIOS)} ratios)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
