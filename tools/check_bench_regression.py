#!/usr/bin/env python3
"""Speedup / metric regression gate for the committed bench JSONs.

Two input shapes are recognized automatically:

* **Kernel mode** — a google-benchmark JSON (BENCH_micro_kernels.json).
  Pairs every ``BM_Kernel<Name>_Scalar`` row with its
  ``BM_Kernel<Name>_Dispatch`` twin run on identical inputs and prints a
  speedup table plus the geometric mean.

* **Metrics mode** — a bench JSON carrying a top-level ``"metrics"`` object
  of machine-portable numbers (BENCH_hotpath.json, BENCH_serving.json).
  Each metric is compared against the committed baseline's value with a
  per-metric delta column. Metrics whose name contains ``alloc`` are
  **hard-gated to zero** regardless of baseline — one steady-state heap
  allocation per request is a correctness failure, not a slowdown.

Gating always compares *ratios or counts from one machine's run* against the
baseline's, never absolute times: CI runners and dev machines differ wildly
in clocks, but the rows of one run share the machine, so their ratio is the
portable signal. A value fails the gate when it drops more than
``--threshold`` (default 10%) below the baseline's.

Usage:
  check_bench_regression.py CURRENT.json [--baseline BASELINE.json]
                            [--threshold 0.10] [--mask PATH ...]

``--mask`` names dotted key paths (see :func:`flatten_json`) whose values are
non-deterministic — wall-clock metrics, host info — and must be excluded from
comparison. The same flatten/mask/diff helpers back
``check_scenario_golden.py`` so there is exactly one JSON-walking
implementation in the tree.

A missing baseline file reports without gating (exit 0) so a new bench can
land before its first committed baseline — except the hard-zero alloc gate,
which always bites. A metric (or kernel pair) that the baseline gates but
the current run no longer reports fails the gate, naming it: a gate must
never vanish silently because a bench stopped emitting its number. Retiring
a gate means deleting it from the committed baseline.

Exit status: 0 on pass, 1 on any gated regression, missing gated metric or
malformed input.
"""

import argparse
import json
import math
import os
import sys

SCALAR_SUFFIX = "_Scalar"
DISPATCH_SUFFIX = "_Dispatch"


# --- Shared JSON walking (also imported by check_scenario_golden.py) -------

def flatten_json(node, prefix=""):
    """Flatten a JSON document into {dotted.path: scalar}.

    Objects nest with ``.`` (``serving.workers``), arrays index with
    ``[i]`` (``results[0].model``). Scalars (str/num/bool/null) are the
    leaves; an empty object or array flattens to nothing.
    """
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            out.update(flatten_json(value, f"{prefix}.{key}" if prefix else key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.update(flatten_json(value, f"{prefix}[{i}]"))
    else:
        out[prefix] = node
    return out


def is_masked(path, masks):
    """True when `path` equals a mask entry or lives under one."""
    return any(path == mask or path.startswith(mask + ".")
               or path.startswith(mask + "[") for mask in masks)


def diff_flat(current, golden, masks=()):
    """Compare two flattened documents, ignoring masked paths.

    Returns ``[(path, kind, current_value, golden_value)]`` where kind is
    ``mismatch`` / ``missing`` (golden-only) / ``unexpected`` (current-only).
    Values compare exactly — deterministic fields must be bit-identical.
    """
    rows = []
    for path in sorted(set(current) | set(golden)):
        if is_masked(path, masks):
            continue
        if path not in golden:
            rows.append((path, "unexpected", current[path], None))
        elif path not in current:
            rows.append((path, "missing", None, golden[path]))
        elif current[path] != golden[path]:
            rows.append((path, "mismatch", current[path], golden[path]))
    return rows


def load_runs(path):
    """Map benchmark name -> cpu_time (ns) for kernel-pair rows."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    runs = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        name = row.get("name", "")
        if not name.startswith("BM_Kernel"):
            continue
        unit_scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(
            row.get("time_unit", "ns"), 1.0)
        runs[name] = float(row["cpu_time"]) * unit_scale
    return runs


def pair_speedups(runs):
    """kernel label -> (scalar_ns, dispatch_ns, speedup)."""
    speedups = {}
    for name, scalar_ns in runs.items():
        base, sep, args = name.partition("/")
        if not base.endswith(SCALAR_SUFFIX):
            continue
        twin = base[: -len(SCALAR_SUFFIX)] + DISPATCH_SUFFIX + sep + args
        if twin not in runs:
            continue
        label = base[len("BM_Kernel"): -len(SCALAR_SUFFIX)] + sep + args
        dispatch_ns = runs[twin]
        speedups[label] = (scalar_ns, dispatch_ns, scalar_ns / dispatch_ns)
    return speedups


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def load_metrics(path, masks=()):
    """Validated top-level "metrics" object of a bench JSON.

    Returns ``(metrics, errors)``: name -> float for every usable metric,
    plus a list of per-metric complaints for everything that is not a real
    finite number. A bool is not a metric (``True`` satisfies
    ``isinstance(v, int)`` but carries no magnitude), and ``NaN``/``Inf``
    survive ``json.load`` yet make every ``<`` comparison silently false —
    a NaN metric would sail through the regression gate looking healthy.
    Both must fail loudly, naming the metric, instead of being dropped.
    Masked names are exempt: they are excluded from comparison anyway and
    are allowed to hold junk (wall-clock, host info).
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    metrics_obj = doc.get("metrics", {})
    if not isinstance(metrics_obj, dict):
        return {}, [f"'metrics' is {type(metrics_obj).__name__}, "
                    "not an object"]
    metrics, errors = {}, []
    for name, value in metrics_obj.items():
        if is_masked(name, masks):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"metric '{name}': non-numeric value {value!r} "
                          f"({type(value).__name__})")
        elif not math.isfinite(value):
            errors.append(f"metric '{name}': non-finite value {value!r}")
        else:
            metrics[name] = float(value)
    return metrics, errors


def check_metrics(args):
    """Gate a "metrics"-style bench JSON; returns the process exit status."""
    current, errors = load_metrics(args.current, args.mask)
    for err in errors:
        print(f"error: {args.current}: {err}")
    if not current and not errors:
        print("error: no usable 'metrics' object in", args.current)
        return 1

    baseline = {}
    if args.baseline:
        if os.path.exists(args.baseline):
            baseline, base_errors = load_metrics(args.baseline, args.mask)
            for err in base_errors:
                print(f"error: {args.baseline}: {err}")
            errors += base_errors
        else:
            print(f"skip: baseline '{args.baseline}' not found; "
                  "reporting metrics without a regression gate "
                  "(commit the baseline to enable gating)")
    if errors:
        print(f"FAIL: {len(errors)} malformed metric value(s); every gated "
              "metric must be a finite number")
        return 1

    print(f"{'metric':<40} {'current':>10} {'baseline':>10} "
          f"{'delta':>8} {'status':>10}")
    failures = 0
    for name in sorted(current):
        value = current[name]
        base = baseline.get(name)
        status = "ok"
        delta_txt = "-"
        if base is not None and base != 0.0:
            delta = (value - base) / abs(base)
            delta_txt = f"{delta:+.1%}"
            # Higher is better for every ratio metric; allocs are handled by
            # the hard-zero gate below, not by the relative threshold.
            if "alloc" not in name and value < base * (1.0 - args.threshold):
                status = "REGRESSED"
                failures += 1
        if "alloc" in name and value != 0.0:
            status = "NONZERO"
            failures += 1
        base_txt = f"{base:.3f}" if base is not None else "-"
        print(f"{name:<40} {value:>10.3f} {base_txt:>10} "
              f"{delta_txt:>8} {status:>10}")

    for name in sorted(set(baseline) - set(current)):
        print(f"error: baseline metric '{name}' missing from current run")
        failures += 1
    if failures:
        print(f"FAIL: {failures} metric(s) regressed or missing (threshold "
              f"{args.threshold:.0%}; alloc metrics hard-gated to zero)")
        return 1
    print("PASS: no metric regression"
          + (f" (threshold {args.threshold:.0%})" if baseline else
             " (no baseline provided; alloc hard-zero gate only)"))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current",
                    help="bench JSON from this run (google-benchmark kernel "
                         "pairs, or a 'metrics'-carrying bench JSON)")
    ap.add_argument("--baseline", default=None,
                    help="committed baseline JSON to gate against")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="allowed fractional speedup drop vs baseline")
    ap.add_argument("--mask", action="append", default=[],
                    help="metric name / kernel label (or prefix) that is "
                         "non-deterministic and excluded from comparison; "
                         "repeatable")
    args = ap.parse_args()

    with open(args.current, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "metrics" in doc and "benchmarks" not in doc:
        return check_metrics(args)

    current = pair_speedups(load_runs(args.current))
    current = {label: row for label, row in current.items()
               if not is_masked(label, args.mask)}
    if not current:
        print("error: no BM_Kernel*_Scalar/_Dispatch pairs in", args.current)
        return 1

    # A missing baseline is a skip, not a failure: new benches land before
    # their first committed baseline, and the gate must not block that PR.
    baseline = {}
    if args.baseline:
        if os.path.exists(args.baseline):
            baseline = pair_speedups(load_runs(args.baseline))
        else:
            print(f"skip: baseline '{args.baseline}' not found; "
                  "reporting speedups without a regression gate "
                  "(commit the baseline to enable gating)")

    print(f"{'kernel':<28} {'scalar ns':>12} {'dispatch ns':>12} "
          f"{'speedup':>8} {'baseline':>9} {'status':>8}")
    failures = 0
    for label in sorted(current):
        scalar_ns, dispatch_ns, speedup = current[label]
        base_speedup = baseline.get(label, (0, 0, None))[2]
        status = "ok"
        if base_speedup is not None:
            floor = base_speedup * (1.0 - args.threshold)
            if speedup < floor:
                status = "REGRESSED"
                failures += 1
        base_txt = f"{base_speedup:.2f}x" if base_speedup is not None else "-"
        print(f"{label:<28} {scalar_ns:>12.1f} {dispatch_ns:>12.1f} "
              f"{speedup:>7.2f}x {base_txt:>9} {status:>8}")

    gm = geomean([v[2] for v in current.values()])
    print(f"{'geomean':<28} {'':>12} {'':>12} {gm:>7.2f}x")

    for label in sorted(set(baseline) - set(current)):
        if is_masked(label, args.mask):
            continue
        print(f"error: baseline kernel '{label}' missing from current run")
        failures += 1
    if failures:
        print(f"FAIL: {failures} kernel(s) regressed more than "
              f"{args.threshold:.0%} vs baseline or missing")
        return 1
    print("PASS: no dispatch speedup regression"
          + (f" (threshold {args.threshold:.0%})" if baseline else
             " (no baseline provided; report only)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
