#!/usr/bin/env python3
"""The CrossLight benchmark: build the benchmark program from source, run one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Build perfbench/ (first run only; later runs rebuild incrementally),
      run one workload and print, as the last line, one JSON object with
      the keys correct, attempted, failed and metrics. The full record,
      with the build and machine context, is also written to
      .bench_build/perfbench/results/.

  python3 perfbench/run.py --steadiness [--runs 10] [--workloads a,b]
      Run each workload --runs times with seeds 1..runs and report, per
      end-to-end metric, the median, the quartiles and their spread as a
      share of the median against the bound in BENCHMARK.json.

  python3 perfbench/run.py --compare BASE.json NEW.json
      Compare two results (single runs or steadiness summaries). Results
      whose contexts differ are refused: the comparison fails loudly
      instead of comparing numbers from different builds or machines.

  python3 perfbench/run.py --selftest
      Build and run the benchmark's own unit tests.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = BUILD_DIR / "results"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Context fields two results must share before their numbers are compared.
CONTEXT_KEYS = ("compiler", "build_type", "isa", "exec_width", "nproc", "workload",
                "seconds", "trace")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def cpus():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def run_cmd(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group; on timeout kill the whole group
    (a build's compilers included) and wait for it before raising."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build(targets):
    """Configure once, then build incrementally; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("CrossLight sources (CMakeLists.txt, src/) not found in %s" % ROOT)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(cpus()), "--target"]
                 + targets)
    for cmd in steps:
        try:
            done = run_cmd(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed (exit %d): %s" % (done.returncode, " ".join(cmd)))


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def check_result(result, spec, trace):
    """The last line must carry exactly the declared metrics with their units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra)
    return None


def run_once(workload, seed, seconds, trace, spec, echo=True):
    """Run one workload; returns (exit code, result dict or None, record)."""
    binary = BUILD_DIR / ("perfbench_traced" if trace else "perfbench")
    out_dir = BUILD_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--out-dir", str(out_dir)]
    try:
        done = run_cmd(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, errors="replace", cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = done.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    sys.stderr.write(done.stderr)
    context = {}
    for line in lines:
        if line.startswith("context: "):
            context = json.loads(line[len("context: "):])
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is not None:
        problem = check_result(result, spec, trace)
        if problem:
            fail(problem, 1)
    context["commit"] = commit()
    context["source_sha256"] = source_digest()
    record = {"context": context, "result": result}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%s-trace%d.json" % (workload, seed, 1 if trace else 0)
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    return done.returncode, result, record


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def steadiness(args, spec):
    build(["perfbench"])
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    summary = {"runs": args.runs, "workloads": {}}
    worst = 0.0
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        context = None
        for seed in range(1, args.runs + 1):
            code, result, record = run_once(workload, seed, spec["run_seconds"], False,
                                            spec, echo=False)
            if code != 0 or result is None or not result["correct"]:
                fail("%s seed %d failed (exit %d)" % (workload, seed, code), 1)
            context = {k: record["context"].get(k) for k in CONTEXT_KEYS + ("commit",
                                                                            "source_sha256")}
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("\n%s (%d runs)" % (workload, args.runs))
        print("  %-16s %14s %14s %14s %8s %8s %s" % ("metric", "q1", "median", "q3",
                                                   "spread", "bound", ""))
        rows = {}
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles(values[m["name"]])
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok"
            if spread > m["bound"]:
                verdict = "OVER BOUND"
                ok = False
            elif spread > m["bound"] / 3:
                verdict = "over bound/3"
            worst = max(worst, spread / m["bound"])
            print("  %-16s %14.6g %14.6g %14.6g %8.4f %8.3f %s" % (
                m["name"], q1, med, q3, spread, m["bound"], verdict))
            rows[m["name"]] = {"q1": q1, "median": med, "q3": q3, "spread": spread,
                               "values": values[m["name"]]}
        summary["workloads"][workload] = {"context": context, "metrics": rows}
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("\nworst spread / bound: %.3f" % worst)
    return 0 if ok else 1


def as_medians(doc):
    """{workload: (context, {metric: median})} from a run record or a summary."""
    if "workloads" in doc:
        return {w: (v["context"], {k: m["median"] for k, m in v["metrics"].items()})
                for w, v in doc["workloads"].items()}
    ctx = doc["context"]
    return {ctx["workload"]: (ctx, {k: m["value"] for k, m in doc["result"]["metrics"].items()})}


def compare(args, spec):
    base = as_medians(json.loads(pathlib.Path(args.compare[0]).read_text()))
    new = as_medians(json.loads(pathlib.Path(args.compare[1]).read_text()))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for workload in sorted(set(base) & set(new)):
        (bctx, bvals), (nctx, nvals) = base[workload], new[workload]
        diff = [k for k in CONTEXT_KEYS if bctx.get(k) != nctx.get(k)]
        if diff:
            fail("context mismatch on %s: %s -- refusing to compare numbers from "
                 "different builds or machines" % (
                     workload, ", ".join("%s %r vs %r" % (k, bctx.get(k), nctx.get(k))
                                         for k in diff)), 3)
        print("\n%s" % workload)
        for name in sorted(set(bvals) & set(nvals)):
            m = metrics.get(name, {})
            b, n = bvals[name], nvals[name]
            ratio = n / b if b else float("nan")
            verdict = ""
            if "bound" in m:
                change = (n - b) / b if m["better"] == "lower" else (b - n) / b
                verdict = "WORSE" if change > m["bound"] else "within bound"
                worse += change > m["bound"]
            print("  %-34s %14.6g -> %14.6g  x%.4f  %s" % (name, b, n, ratio, verdict))
    return 1 if worse else 0


def selftest():
    build(["perfbench_tests"])
    binary = BUILD_DIR / "perfbench_tests"
    if not binary.is_file():
        fail("googletest not found; perfbench_tests was not built")
    return run_cmd([str(binary)], RUN_TIMEOUT_S).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    if args.steadiness:
        return steadiness(args, spec)
    if args.compare:
        return compare(args, spec)
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build(["perfbench_traced" if args.trace else "perfbench"])
    code, result, _ = run_once(args.workload, args.seed, seconds, bool(args.trace), spec)
    if result is None:
        fail("%s printed no result (exit %d)" % (args.workload, code), 1)
    print(json.dumps(result))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
