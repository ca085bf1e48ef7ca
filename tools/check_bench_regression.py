#!/usr/bin/env python3
"""Perf-regression gate for bench_kernels / bench_serving output.

Compares a fresh bench JSON (typically the CI --quick smoke) against the
committed baseline (BENCH_kernels.json / BENCH_serving.json at the repo
root) and flags any metric that regressed by more than the threshold:

  * "gemm" shapes: packed_gflops (higher is better)
  * "int8_gemm" shapes: int8_gflops (higher is better)
  * "conv_lowering" shapes: fused_ms (lower is better)
  * "fused_conv" shapes: fused_ms (lower is better)
  * "training" entries: ms (lower is better) — the protection pipeline's
    inner loop: training-mode ReLU and BatchNorm2d forward/backward at
    batch 8, 8 channels, 32x32, and conv3x3 backward at 8 and 16 channels
  * "soak" (bench_serving): goodput_vs_1x (higher is better) — the bounded
    queue's goodput at 10x offered load as a fraction of 1x goodput. The
    ratio is dimensionless (both sides measured on the same run/host), so it
    gates portably across runners of different absolute speed.
  * "chaos" (bench_serving --chaos): recovery_ratio (higher is better) —
    goodput after a killed worker recovers as a fraction of pre-kill
    goodput, compared against the baseline AND held to an absolute floor of
    0.95 (self-healing must restore service, not merely limp). Two absolute
    invariants are also enforced whenever the current run carries a chaos
    section: unresolved == 0 (drain never abandons a future) and
    recoveries >= 1 (the killed worker actually came back).
  * "elastic" (bench_serving, soak enabled): the autoscaled pool vs the
    fixed single-worker baseline under the 1x->10x->1x load step. Absolute
    floors whenever the current run carries the section: goodput at least
    the fixed baseline's (goodput_elastic_vs_fixed >= 1.0), shed rate
    strictly below the fixed pool's, workers_high_water > min_workers (the
    autoscaler actually grew the pool), and unresolved == 0 (scale-down
    strands no future). goodput_elastic_vs_fixed is additionally compared
    against the baseline file under the regression threshold.

Sections absent from either file are skipped, so the one script gates both
bench artifacts.

Only shapes present in BOTH files are compared (the --quick smoke runs a
subset of the full baseline). The gate is BLOCKING (exit 1 on regression);
--warn-only remains for calibrating new runners. When the two files report
different kernel tiers ("isa" / "int8_isa" fields) the numbers are not
comparable — a VNNI baseline against a maddubs runner would flag phantom
regressions — so the gate automatically downgrades to warn-only.

Noise floor: genuinely tiny shapes are timing noise on shared CI vCPUs, so
any shape whose flop count (2*m*n*k for gemm entries, the emitted "flops"
field elsewhere) falls below --min-flops is reported but exempt from
gating. Shapes without flop information are always gated.

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json
                            [--threshold 0.2] [--min-flops 1e3] [--warn-only]

Stdlib only — no third-party dependencies.
"""

import argparse
import json
import sys

# Top-level baseline keys that are deliberately NOT gated: run metadata
# (machine shape, kernel tiers, bench mode), derived summary numbers whose
# inputs are already gated shape-by-shape above, and descriptive sections
# (scaling curves, stage tables, sweeps) that vary too much across runners
# to hold to a ratio. tools/tbnet_lint.py enforces that every top-level key
# of BENCH_*.json appears either in a compare_* gate or in this set — adding
# a bench section without deciding its gating status fails CI.
METADATA_KEYS = frozenset({
    # BENCH_kernels.json
    "bench", "isa", "int8_isa", "fast_kernels", "threads", "quick",
    "hardware_threads", "geomean_speedup", "min_resnet_speedup",
    "int8_geomean_vs_f32", "micro_roofline_gflops", "thread_scaling",
    "nested_scaling",
    # BENCH_serving.json
    "model", "stages", "device_timing",
})


def index_by_name(entries):
    return {e["name"]: e for e in entries}


def entry_flops(entry):
    """Flop count of one shape, or None when the entry carries no size info."""
    if all(k in entry for k in ("m", "n", "k")):
        return 2.0 * float(entry["m"]) * float(entry["n"]) * float(entry["k"])
    if "flops" in entry:
        return float(entry["flops"])
    return None


def compare(baseline, current, key, higher_is_better, threshold, min_flops,
            label):
    """Returns a list of (name, base, cur, ratio) regressions."""
    regressions = []
    base_by_name = index_by_name(baseline.get(label, []))
    for entry in current.get(label, []):
        base = base_by_name.get(entry["name"])
        if base is None or key not in base or key not in entry:
            continue
        b, c = float(base[key]), float(entry[key])
        if b <= 0 or c <= 0:
            continue
        # Normalize so ratio < 1 always means "worse than baseline".
        ratio = (c / b) if higher_is_better else (b / c)
        flops = entry_flops(entry)
        noisy = flops is not None and flops < min_flops
        if ratio >= 1.0 - threshold:
            status = "OK"
        elif noisy:
            status = "NOISY-EXEMPT"
        else:
            status = "REGRESSED"
        print(f"  [{status}] {label}/{entry['name']}: {key} "
              f"baseline={b:.4g} current={c:.4g} (ratio {ratio:.2f})")
        if status == "REGRESSED":
            regressions.append((entry["name"], b, c, ratio))
    return regressions


def compare_soak(baseline, current, threshold):
    """Gates bench_serving's soak.goodput_vs_1x (higher is better)."""
    b = (baseline.get("soak") or {}).get("goodput_vs_1x")
    c = (current.get("soak") or {}).get("goodput_vs_1x")
    if b is None or c is None:
        return []
    b, c = float(b), float(c)
    if b <= 0 or c <= 0:
        return []
    ratio = c / b
    status = "OK" if ratio >= 1.0 - threshold else "REGRESSED"
    print(f"  [{status}] soak/goodput_vs_1x: "
          f"baseline={b:.4g} current={c:.4g} (ratio {ratio:.2f})")
    if status == "REGRESSED":
        return [("soak/goodput_vs_1x", b, c, ratio)]
    return []


# Absolute floor for chaos/recovery_ratio: after the killed worker is
# re-admitted, goodput must be back within 5% of pre-kill goodput.
CHAOS_RECOVERY_FLOOR = 0.95


def compare_chaos(baseline, current, threshold):
    """Gates the chaos soak: recovery_ratio vs baseline + absolute invariants.

    Skipped entirely when the current run has no "chaos" section (the flag
    was not passed); the baseline-relative leg is additionally skipped when
    the baseline predates the section.
    """
    cur = current.get("chaos")
    if not cur:
        return []
    regressions = []

    unresolved = int(cur.get("unresolved", 0))
    recoveries = int(cur.get("recoveries", 0))
    ratio = float(cur.get("recovery_ratio", 0.0))
    ok = (unresolved == 0 and recoveries >= 1
          and ratio >= CHAOS_RECOVERY_FLOOR)
    status = "OK" if ok else "REGRESSED"
    print(f"  [{status}] chaos: recovery_ratio={ratio:.3f} "
          f"(floor {CHAOS_RECOVERY_FLOOR}), unresolved={unresolved}, "
          f"recoveries={recoveries}")
    if not ok:
        regressions.append(("chaos/recovery (absolute floor)",
                            CHAOS_RECOVERY_FLOOR, ratio,
                            ratio / CHAOS_RECOVERY_FLOOR))

    base = baseline.get("chaos")
    if base:
        b, c = float(base.get("recovery_ratio", 0.0)), ratio
        if b > 0 and c > 0:
            rel = c / b
            status = "OK" if rel >= 1.0 - threshold else "REGRESSED"
            print(f"  [{status}] chaos/recovery_ratio: baseline={b:.4g} "
                  f"current={c:.4g} (ratio {rel:.2f})")
            if status == "REGRESSED":
                regressions.append(("chaos/recovery_ratio", b, c, rel))
    return regressions


def compare_elastic(baseline, current, threshold):
    """Gates the elastic soak: absolute floors + baseline-relative goodput.

    Skipped when the current run has no "elastic" section (soak disabled);
    the baseline-relative leg is additionally skipped when the baseline
    predates the section.
    """
    cur = current.get("elastic")
    if not cur:
        return []
    regressions = []

    goodput_ratio = float(cur.get("goodput_elastic_vs_fixed", 0.0))
    shed_fixed = float(cur.get("shed_rate_fixed", 0.0))
    shed_elastic = float(cur.get("shed_rate_elastic", 0.0))
    unresolved = int(cur.get("unresolved", 0))
    high_water = int(cur.get("workers_high_water", 0))
    min_workers = int(cur.get("min_workers", 1))
    ok = (goodput_ratio >= 1.0 and shed_elastic < shed_fixed
          and unresolved == 0 and high_water > min_workers)
    status = "OK" if ok else "REGRESSED"
    print(f"  [{status}] elastic: goodput_elastic_vs_fixed="
          f"{goodput_ratio:.3f} (floor 1.0), shed_rate {shed_elastic:.3f} "
          f"vs fixed {shed_fixed:.3f} (must be strictly lower), "
          f"workers_high_water={high_water} (must exceed {min_workers}), "
          f"unresolved={unresolved}")
    if not ok:
        regressions.append(("elastic/autoscale (absolute floors)", 1.0,
                            goodput_ratio, goodput_ratio))

    base = baseline.get("elastic")
    if base:
        b = float(base.get("goodput_elastic_vs_fixed", 0.0))
        if b > 0 and goodput_ratio > 0:
            rel = goodput_ratio / b
            status = "OK" if rel >= 1.0 - threshold else "REGRESSED"
            print(f"  [{status}] elastic/goodput_elastic_vs_fixed: "
                  f"baseline={b:.4g} current={goodput_ratio:.4g} "
                  f"(ratio {rel:.2f})")
            if status == "REGRESSED":
                regressions.append(("elastic/goodput_elastic_vs_fixed", b,
                                    goodput_ratio, rel))
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.2,
                    help="allowed fractional regression per shape "
                         "(default 0.2 = 20%%)")
    ap.add_argument("--min-flops", type=float, default=1e3,
                    help="shapes below this flop count are reported but "
                         "never fail the gate (default 1e3: every emitted "
                         "shape, including the batch-1 dense head, is gated "
                         "by default)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0 (runner calibration)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    warn_only = args.warn_only
    for tier_key in ("isa", "int8_isa"):
        b_tier, c_tier = baseline.get(tier_key), current.get(tier_key)
        if b_tier is not None and c_tier is not None and b_tier != c_tier:
            print(f"NOTE: {tier_key} mismatch (baseline '{b_tier}' vs "
                  f"current '{c_tier}'); numbers are not comparable — "
                  f"downgrading to warn-only.")
            warn_only = True

    print(f"Comparing {args.current} against {args.baseline} "
          f"(threshold {args.threshold:.0%}, "
          f"noise floor {args.min_flops:.0g} flops):")
    regressions = []
    regressions += compare(baseline, current, "packed_gflops", True,
                           args.threshold, args.min_flops, "gemm")
    regressions += compare(baseline, current, "int8_gflops", True,
                           args.threshold, args.min_flops, "int8_gemm")
    regressions += compare(baseline, current, "fused_ms", False,
                           args.threshold, args.min_flops, "conv_lowering")
    regressions += compare(baseline, current, "fused_ms", False,
                           args.threshold, args.min_flops, "fused_conv")
    regressions += compare(baseline, current, "ms", False,
                           args.threshold, args.min_flops, "training")
    regressions += compare_soak(baseline, current, args.threshold)
    regressions += compare_chaos(baseline, current, args.threshold)
    regressions += compare_elastic(baseline, current, args.threshold)

    if not regressions:
        print("No gated per-shape regression beyond threshold.")
        return 0
    print(f"{len(regressions)} shape(s) regressed beyond "
          f"{args.threshold:.0%}:")
    for name, b, c, ratio in regressions:
        print(f"  {name}: baseline={b:.4g} current={c:.4g} "
              f"(ratio {ratio:.2f})")
    if warn_only:
        print("warn-only mode: not failing the build.")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
