#!/usr/bin/env python3
"""Fail CI when a fresh run_suite output regresses vs the committed
BENCH_*.json perf trajectory.

Contract (documented in docs/BENCHMARKS.md):

- Timing series (keys ending in ``_ns``, lower is better) and speedup
  series (keys starting with ``speedup_``, higher is better) are
  compared pairwise between the committed baseline JSON (repo root)
  and the fresh JSON (build directory).
- A series regresses when it is worse than the baseline by more than
  the threshold (default 25%).
- Timing series are only comparable on the machine that produced the
  baseline; cross-machine runs (CI) pass ``--relative-only`` so only
  the machine-relative speedup series and the allocation invariant are
  gated.
- ``steady_state_allocs`` must not grow at all: new steady-state heap
  allocations are a correctness-of-architecture regression, not noise.
- Setting the environment variable ``HENTT_SKIP_BENCH_GATE`` (any
  non-empty value) skips the gate with a notice — the escape hatch for
  known-slow or heavily shared runners (CI wires a PR label to it).
- A series present in the baseline but missing from the fresh output
  fails the gate (a silently dropped column is how a perf trajectory
  rots), and so does a fresh key the baseline lacks (a new column must
  be committed with its baseline, or it is never gated); series that
  are 0 in the baseline are skipped (e.g. AVX-512 columns recorded on
  a host without AVX-512).

Usage:
    check_bench_regression.py --baseline DIR --fresh DIR
                              [--threshold 0.25] [--relative-only]
    check_bench_regression.py --self-test
"""

import argparse
import json
import os
import pathlib
import sys

DEFAULT_THRESHOLD = 0.25


def classify(key):
    """Return 'time', 'speedup', 'allocs', or None (ungated)."""
    if key == "steady_state_allocs":
        return "allocs"
    if key.startswith("speedup_"):
        return "speedup"
    if key.endswith("_ns"):
        return "time"
    return None


def capability_mismatch(baseline, fresh):
    """True when the two runs saw different SIMD capabilities.

    Speedup series that compare across backends or against the seed
    path (e.g. ``speedup_fast_vs_seed`` with an AVX-512 fast path) are
    only comparable between hosts whose backend availability matches;
    on a mismatch the gate falls back to the structural checks
    (series presence + the allocation invariant)."""
    flags = {k for k in baseline if k.endswith("_available")}
    flags |= {k for k in fresh if k.endswith("_available")}
    # Not every bench records every capability flag (BENCH_he_pipeline
    # predates AVX-512), so a differing resolved default backend is a
    # mismatch in its own right: the default-path series ran on
    # different hardware paths.
    flags.add("simd_default_backend")
    return any(baseline.get(k) != fresh.get(k) for k in flags)


def compare(baseline, fresh, threshold=DEFAULT_THRESHOLD,
            relative_only=False):
    """Compare two bench dicts; returns a list of failure strings."""
    failures = []
    caps_differ = capability_mismatch(baseline, fresh)
    if caps_differ:
        print("  note: SIMD capability differs from the baseline "
              "host; gating structural checks only")
    for key, base_value in baseline.items():
        kind = classify(key)
        if kind is None or not isinstance(base_value, (int, float)):
            continue
        # Presence is gated in every mode — a silently dropped column
        # is how a perf trajectory rots — before any value skips.
        if key not in fresh:
            failures.append(f"{key}: series missing from fresh output")
            continue
        if kind == "time" and relative_only:
            continue
        if caps_differ and kind in ("time", "speedup"):
            continue
        new_value = fresh[key]
        if not isinstance(new_value, (int, float)):
            failures.append(f"{key}: non-numeric fresh value {new_value!r}")
            continue
        if kind == "allocs":
            if new_value > base_value:
                failures.append(
                    f"{key}: {base_value} -> {new_value} steady-state "
                    f"allocations (must not grow)")
            continue
        if base_value <= 0:
            continue  # column not recorded on the baseline host
        if new_value == 0:
            # The benches write exact 0 for columns the current host
            # cannot measure (e.g. AVX-512 series on a runner without
            # AVX-512); that is unavailability, not a regression.
            continue
        if kind == "time" and new_value > base_value * (1 + threshold):
            failures.append(
                f"{key}: {base_value:.1f} -> {new_value:.1f} ns "
                f"({new_value / base_value:.2f}x slower, threshold "
                f"{1 + threshold:.2f}x)")
        elif kind == "speedup" and new_value < base_value * (1 - threshold):
            failures.append(
                f"{key}: {base_value:.3f}x -> {new_value:.3f}x "
                f"({new_value / base_value:.2f} of baseline, threshold "
                f"{1 - threshold:.2f})")
    for key in fresh:
        if key not in baseline:
            failures.append(f"{key}: fresh key missing from the baseline")
    return failures


def check_pair(baseline_path, fresh_path, threshold, relative_only):
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    failures = compare(baseline, fresh, threshold, relative_only)
    name = os.path.basename(baseline_path)
    if failures:
        print(f"FAIL {name}:")
        for failure in failures:
            print(f"  - {failure}")
    else:
        mode = "relative series" if relative_only else "all series"
        print(f"ok   {name} ({mode}, threshold "
              f"{int(threshold * 100)}%)")
    return failures


def run_gate(args):
    if os.environ.get("HENTT_SKIP_BENCH_GATE"):
        print("bench regression gate SKIPPED "
              "(HENTT_SKIP_BENCH_GATE is set)")
        return 0
    baseline_dir = pathlib.Path(args.baseline)
    fresh_dir = pathlib.Path(args.fresh)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json under {baseline_dir}",
              file=sys.stderr)
        return 2
    total_failures = 0
    for baseline_path in baselines:
        fresh_path = fresh_dir / baseline_path.name
        if not fresh_path.exists():
            print(f"FAIL {baseline_path.name}: fresh output "
                  f"{fresh_path} not found")
            total_failures += 1
            continue
        total_failures += len(
            check_pair(baseline_path, fresh_path, args.threshold,
                       args.relative_only))
    if total_failures:
        print(f"\n{total_failures} regression(s); rerun locally or set "
              "HENTT_SKIP_BENCH_GATE=1 / apply the skip-bench-gate "
              "label for known-slow runners")
        return 1
    return 0


def self_test():
    """Unit tests of the comparison logic (run as a ctest suite)."""
    base = {
        "bench": "rns_batch",
        "n": 4096,
        "ntt4096_avx2_ns": 1000.0,
        "speedup_ntt4096_radix4_vs_radix2_avx512": 1.2,
        "ntt4096_avx512_ns": 0.0,  # not recorded on baseline host
        "steady_state_allocs": 0,
        "simd_default_backend": "avx2",
    }
    failed = []

    def expect(name, condition):
        print(f"  {'ok  ' if condition else 'FAIL'} {name}")
        if not condition:
            failed.append(name)

    # Identical run: clean.
    expect("identical run passes", compare(base, dict(base)) == [])

    # The acceptance case: a synthetic 2x slowdown of a timing series
    # must fail the absolute gate...
    slow = dict(base)
    slow["ntt4096_avx2_ns"] = 2000.0
    expect("2x slowdown fails", len(compare(base, slow)) == 1)
    # ...and stays within threshold at +10%.
    mild = dict(base)
    mild["ntt4096_avx2_ns"] = 1100.0
    expect("+10% passes at 25% threshold", compare(base, mild) == [])
    expect("+10% fails at 5% threshold",
           len(compare(base, mild, threshold=0.05)) == 1)

    # Relative-only mode ignores raw timings but still catches a
    # halved speedup (the cross-machine CI configuration).
    slow_rel = dict(slow)
    slow_rel["speedup_ntt4096_radix4_vs_radix2_avx512"] = 0.6
    expect("relative-only ignores ns series",
           len(compare(base, slow, relative_only=True)) == 0)
    expect("relative-only catches halved speedup",
           len(compare(base, slow_rel, relative_only=True)) == 1)

    # Structural failures — gated in relative-only mode too (CI runs
    # that mode exclusively, and dropped columns must never pass).
    dropped = dict(base)
    del dropped["ntt4096_avx2_ns"]
    expect("dropped series fails", len(compare(base, dropped)) == 1)
    expect("dropped series fails in relative-only mode",
           len(compare(base, dropped, relative_only=True)) == 1)
    # ...and so is the reverse: a fresh key the baseline never had.
    added = dict(base)
    added["speedup_new_series"] = 1.5
    expect("fresh key absent from the baseline fails",
           len(compare(base, added)) == 1)
    expect("fresh key absent from the baseline fails relative-only",
           len(compare(base, added, relative_only=True)) == 1)
    added_meta = dict(base)
    added_meta["lanes"] = 4
    expect("fresh metadata key absent from the baseline fails",
           len(compare(base, added_meta, relative_only=True)) == 1)
    # A differing resolved default backend counts as a capability
    # mismatch even when no *_available flag records the difference
    # (BENCH_he_pipeline carries only avx2_available).
    diff_default = dict(base)
    diff_default["simd_default_backend"] = "avx512"
    diff_default["speedup_ntt4096_radix4_vs_radix2_avx512"] = 0.4
    expect("default-backend difference excuses speedup series",
           compare(base, diff_default, relative_only=True) == [])
    alloc = dict(base)
    alloc["steady_state_allocs"] = 3
    expect("new steady-state allocs fail",
           len(compare(base, alloc, relative_only=True)) == 1)

    # Baseline zeros (columns the baseline host could not measure) are
    # skipped, and so are fresh zeros (columns THIS host cannot
    # measure, e.g. AVX-512 series on a non-AVX-512 runner).
    zeroed = dict(base)
    zeroed["ntt4096_avx512_ns"] = 123456.0
    expect("baseline-zero column skipped", compare(base, zeroed) == [])
    no_avx512 = dict(base)
    no_avx512["speedup_ntt4096_radix4_vs_radix2_avx512"] = 0.0
    expect("fresh-zero column skipped",
           compare(base, no_avx512, relative_only=True) == [])

    # A host with different SIMD capability gates structure only: a
    # 'regressed' speedup is excused (it reflects hardware, not code)
    # but dropped series and alloc growth still fail.
    base_caps = dict(base)
    base_caps["avx512_available"] = True
    other_host = dict(base_caps)
    other_host["avx512_available"] = False
    other_host["speedup_ntt4096_radix4_vs_radix2_avx512"] = 0.4
    expect("capability mismatch excuses speedup series",
           compare(base_caps, other_host, relative_only=True) == [])
    other_bad = dict(other_host)
    other_bad["steady_state_allocs"] = 2
    del other_bad["ntt4096_avx2_ns"]
    expect("capability mismatch still gates structure",
           len(compare(base_caps, other_bad)) == 2)

    # Non-gated keys never trip.
    meta = dict(base)
    meta["simd_default_backend"] = "scalar"
    meta["n"] = 8192
    expect("metadata keys ignored", compare(base, meta) == [])

    # The BENCH_deep_circuit.json series (sweep_params --json): raw
    # tower timings are machine-local, the depth-scaling ratios travel
    # cross-machine, and the tower must never allocate in steady
    # state at any depth.
    deep = {
        "bench": "deep_circuit",
        "n": 4096,
        "limbs": 8,
        "depth": 7,
        "deep_tower_depth1_ns": 7.0e6,
        "deep_tower_depth7_ns": 24.0e6,
        "deep_tower_depth7_scalar_ns": 55.0e6,
        "speedup_deep_tower_vs_scalar": 2.3,
        "speedup_deep_depth_scaling": 2.0,
        "speedup_deep_level2_vs_level8": 9.0,
        "steady_state_allocs": 0,
        "simd_default_backend": "avx512",
        "avx2_available": True,
        "avx512_available": True,
    }
    deep_slow = dict(deep)
    deep_slow["deep_tower_depth7_ns"] = 48.0e6
    expect("deep: 2x tower slowdown fails the absolute gate",
           len(compare(deep, deep_slow)) == 1)
    expect("deep: 2x tower slowdown passes relative-only (CI)",
           compare(deep, deep_slow, relative_only=True) == [])
    deep_flat = dict(deep)
    deep_flat["speedup_deep_depth_scaling"] = 1.0
    expect("deep: halved depth-scaling ratio fails relative-only",
           len(compare(deep, deep_flat, relative_only=True)) == 1)
    deep_alloc = dict(deep)
    deep_alloc["steady_state_allocs"] = 1
    expect("deep: a single steady-state alloc at depth fails",
           len(compare(deep, deep_alloc, relative_only=True)) == 1)
    deep_dropped = dict(deep)
    del deep_dropped["deep_tower_depth1_ns"]
    expect("deep: dropped depth column fails relative-only",
           len(compare(deep, deep_dropped, relative_only=True)) == 1)

    # The PR 9 element-wise family series (BENCH_rns_batch.json): the
    # avx512-vs-avx2 tensor/fold+rescale ratios are the cross-machine
    # acceptance record for the 8-lane element-wise table. They gate
    # only where the backend is CPUID-available — a runner without
    # AVX-512 writes 0 (skipped as unavailability) and flips
    # avx512_available (capability mismatch excuses the rest).
    ew = {
        "bench": "rns_batch",
        "n": 4096,
        "elementwise_tensor_avx2_ns": 4000.0,
        "elementwise_tensor_avx512_ns": 2500.0,
        "elementwise_tensor_neon_ns": 0.0,  # x86 baseline host
        "speedup_elementwise_tensor_avx512_vs_avx2": 1.6,
        "speedup_elementwise_foldrescale_avx512_vs_avx2": 1.4,
        "steady_state_allocs": 0,
        "simd_default_backend": "avx512",
        "avx2_available": True,
        "avx512_available": True,
        "neon_available": False,
    }
    ew_flat = dict(ew)
    ew_flat["speedup_elementwise_tensor_avx512_vs_avx2"] = 1.0
    expect("elementwise: lost avx512 tensor win fails relative-only",
           len(compare(ew, ew_flat, relative_only=True)) == 1)
    ew_no512 = dict(ew)
    ew_no512["avx512_available"] = False
    ew_no512["simd_default_backend"] = "avx2"
    ew_no512["elementwise_tensor_avx512_ns"] = 0.0
    ew_no512["speedup_elementwise_tensor_avx512_vs_avx2"] = 0.0
    ew_no512["speedup_elementwise_foldrescale_avx512_vs_avx2"] = 0.0
    expect("elementwise: non-avx512 runner passes relative-only",
           compare(ew, ew_no512, relative_only=True) == [])
    ew_dropped = dict(ew)
    del ew_dropped["speedup_elementwise_foldrescale_avx512_vs_avx2"]
    expect("elementwise: dropped speedup column fails relative-only",
           len(compare(ew, ew_dropped, relative_only=True)) == 1)
    ew_neon = dict(ew)
    ew_neon["neon_available"] = True
    ew_neon["simd_default_backend"] = "neon"
    ew_neon["elementwise_tensor_avx2_ns"] = 0.0
    ew_neon["elementwise_tensor_avx512_ns"] = 0.0
    ew_neon["elementwise_tensor_neon_ns"] = 9000.0
    ew_neon["speedup_elementwise_tensor_avx512_vs_avx2"] = 0.0
    ew_neon["speedup_elementwise_foldrescale_avx512_vs_avx2"] = 0.0
    expect("elementwise: arm64 runner gates structure only",
           compare(ew, ew_neon, relative_only=True) == [])

    # The serving-layer series (BENCH_serve.json, PR 10): per-session
    # throughput and latency numbers are machine-local; what travels
    # cross-machine is speedup_batched_vs_unbatched — cross-client
    # coalescing must keep beating the per-session-dispatch ablation —
    # and steady_state_allocs, which must stay 0 in the serve hot loop
    # (the wavefront batch kernels on a warm worker arena).
    serve = {
        "bench": "serve",
        "n": 64,
        "limbs": 2,
        "lanes": 1,
        "serve_batched_1_ns": 2.2e6,
        "serve_batched_8_ns": 2.9e5,
        "serve_batched_64_ns": 1.3e4,
        "serve_batched_512_ns": 1.4e4,
        "serve_p50_64_ns": 7.6e5,
        "serve_p99_64_ns": 8.7e5,
        "serve_unbatched_64_ns": 2.4e4,
        "speedup_batched_vs_unbatched": 1.8,
        "coalesced_requests_64": 512,
        "max_batch_observed_64": 64,
        "steady_state_allocs": 0,
        "simd_default_backend": "avx512",
        "avx2_available": True,
        "avx512_available": True,
    }
    serve_slow = dict(serve)
    serve_slow["serve_p99_64_ns"] = 2.5e6
    expect("serve: 3x p99 fails the absolute gate",
           len(compare(serve, serve_slow)) == 1)
    expect("serve: 3x p99 passes relative-only (CI runner)",
           compare(serve, serve_slow, relative_only=True) == [])
    serve_flat = dict(serve)
    serve_flat["speedup_batched_vs_unbatched"] = 1.0
    expect("serve: lost coalescing win fails relative-only",
           len(compare(serve, serve_flat, relative_only=True)) == 1)
    serve_alloc = dict(serve)
    serve_alloc["steady_state_allocs"] = 1
    expect("serve: an alloc in the serve hot loop fails",
           len(compare(serve, serve_alloc, relative_only=True)) == 1)
    serve_dropped = dict(serve)
    del serve_dropped["speedup_batched_vs_unbatched"]
    expect("serve: dropped speedup series fails relative-only",
           len(compare(serve, serve_dropped, relative_only=True)) == 1)
    serve_counters = dict(serve)
    serve_counters["coalesced_requests_64"] = 448
    serve_counters["max_batch_observed_64"] = 56
    expect("serve: batch-shape counters are informational, not gated",
           compare(serve, serve_counters, relative_only=True) == [])

    if failed:
        print(f"self-test: {len(failed)} failure(s)")
        return 1
    print("self-test: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=".",
                        help="directory with committed BENCH_*.json")
    parser.add_argument("--fresh", default="build",
                        help="directory with freshly generated JSONs")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="fractional regression tolerance")
    parser.add_argument("--relative-only", action="store_true",
                        help="gate only machine-relative series "
                             "(cross-machine runs)")
    parser.add_argument("--self-test", action="store_true",
                        help="run unit tests of the comparison logic")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    sys.exit(run_gate(args))


if __name__ == "__main__":
    main()
