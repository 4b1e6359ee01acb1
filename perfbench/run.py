#!/usr/bin/env python3
"""The repository benchmark: builds the `hyperbench` binary from source,
runs workloads against the HypeR public API, checks every answer and prints
every metric by name with its unit.

  python3 perfbench/run.py                       # all workloads + manifest
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end metrics
of spec.END_TO_END, with --trace 1 the per-layer metrics of spec.PER_LAYER
(from a separate traced run). The command exits non-zero when an answer is
wrong or a check fails. Full results, each with its machine record, are
written under .bench_run/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import spec  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_run"
BINARY = BUILD_DIR / "hyperbench"
BINARY_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds hyperbench; output goes to stderr."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "hyperbench",
         "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0 and BINARY.exists()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def source_sha256():
    """Hash of the program sources: names the code where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_binary(workload, seed, seconds, trace, tiny=False):
    run_dir = RUN_DIR / workload
    run_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--run-dir", str(run_dir), "--git-sha", git_sha()]
    if tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=BINARY_TIMEOUT_S)
    if out.stderr:
        sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise RuntimeError(f"hyperbench exited with {out.returncode}")
    raw = json.loads(out.stdout.strip().splitlines()[-1])
    raw["machine"]["source_sha256"] = source_sha256()
    return raw


def segments(raw):
    """(ops, seconds, query samples) of each of the run's segments. A run of
    one segment (branch_churn_100k, every traced run) has one."""
    start = 0
    for seg in raw["segments"]:
        end = seg["query_end"]
        yield seg["ops"], seg["seconds"], raw["query_ms"][start:end]
        start = end


def segment_median(raw, stat):
    """Median over the run's segments of stat(ops, seconds, samples)."""
    return spec.median([stat(*seg) for seg in segments(raw)])


def end_to_end(raw):
    """Every metric of spec.END_TO_END, then the ones printed but not gated
    (they do not exist on every workload, move with throughput, follow the
    host more than the program, or are 0 when all is well), as name ->
    (value, unit, samples). Throughput and the p50 and p90 latencies are
    medians over segments, which drops a segment hit by a burst of
    contention from outside the process."""
    q = raw["query_ms"]
    if not q:
        raise RuntimeError("no query completed in the timed window")
    fewest = min(len(samples) for _, _, samples in segments(raw))
    if (spec.tail_percentile(fewest) or 0.0) < 90.0:
        log(f"warning: a segment's {fewest} query samples leave fewer than "
            "ten beyond latency_p90_ms")

    m = {
        "setup_s": (spec.median(raw["setup_s"]), "s", len(raw["setup_s"])),
        "throughput_ops": (segment_median(raw, lambda ops, s, _: ops / s),
                           "1/s", raw["ops"]),
        "latency_p50_ms": (segment_median(
            raw, lambda _o, _s, x: spec.percentile(x, 50.0)), "ms", len(q)),
        "latency_p90_ms": (segment_median(
            raw, lambda _o, _s, x: spec.percentile(x, 90.0)), "ms", len(q)),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", 1),
        "run_peak_rss_mb": (raw["run_peak_rss_mb"], "MB", 1),
    }
    if (spec.tail_percentile(len(q)) or 0.0) >= 99.0:
        m["latency_p99_ms"] = (spec.percentile(q, 99.0), "ms", len(q))
    if raw["apply_ms"]:
        a = raw["apply_ms"]
        m["apply_p50_ms"] = (spec.percentile(a, 50.0), "ms", len(a))
    if raw["howto_ms"]:
        h = raw["howto_ms"]
        m["howto_p50_ms"] = (spec.percentile(h, 50.0), "ms", len(h))
    m["error_rate"] = (raw["failed"] / max(1, raw["attempted"]), "ratio",
                       raw["attempted"])
    return m


def per_layer(raw):
    layers = raw["layers"]
    missing = [n for n, _, _ in spec.PER_LAYER if n not in layers]
    if missing:
        raise RuntimeError("traced run did not report: " + ", ".join(missing))
    return {n: (layers[n], u, None) for n, u, _ in spec.PER_LAYER}


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Runs one workload; prints the report; returns the final-line object."""
    raw = run_binary(workload, seed, seconds, trace, tiny)
    metrics = per_layer(raw) if trace else end_to_end(raw)
    correct = raw["failed"] == 0 and not raw["problems"]
    print(f"== {workload} seed={seed} seconds={seconds} "
          f"trace={1 if trace else 0}")
    print("machine: " + json.dumps(raw["machine"], sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        samples = "" if n is None else f"  (n={n})"
        print(f"{name} = {value:.6g} {unit}{samples}")
    print(f"ops: {raw['ops']} {raw['op_unit']}(s) in {raw['window_s']:.3f} s; "
          f"answers verified: {raw['verified']}; failed: {raw['failed']} "
          f"of {raw['attempted']} ({raw['mismatches']} wrong)")
    for problem in raw["problems"]:
        print("problem: " + problem)

    gated = spec.END_TO_END if not trace else spec.PER_LAYER
    record = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n, *_ in gated},
    }
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    full = dict(record, machine=raw["machine"], workload=workload,
                trace=trace, tiny=tiny, problems=raw["problems"],
                report={n: {"value": v, "unit": u, "samples": s}
                        for n, (v, u, s) in metrics.items()},
                finished_unix=time.time())
    name = f"{workload}-seed{seed}-trace{1 if trace else 0}.json"
    (results / name).write_text(json.dumps(full, indent=1) + "\n")
    return record


def write_manifest():
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(spec.manifest(), indent=2) + "\n")
    log(f"wrote {path}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small data sets (harness self-test)")
    args = parser.parse_args(argv)

    if not args.workload:
        write_manifest()
    if not build():
        log("build failed")
        return 1
    names = [args.workload] if args.workload else [n for n, _ in spec.WORKLOADS]
    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.tiny)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log(f"benchmark failed: {err}")
        return 1
    final = records[names[0]] if len(names) == 1 else records
    print(json.dumps(final, sort_keys=False))
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
