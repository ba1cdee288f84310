#!/usr/bin/env python3
"""E-tier planning benchmark: build, run one workload, print one JSON line.

    python3 planbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The script builds planbench/planbench.exe
with dune, then runs the workload in its own process (at most two OCaml
domains).  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run,
whose spans are written under .planbench/.  Every result, with commit,
core count and seed, is also appended to .planbench/results.jsonl so that
drift in host speed can be read next to the numbers.

Exit status is 0 when a result was printed, non-zero (and no result) when
the build or a run fails.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".planbench")
EXE = os.path.join(ROOT, "_build", "default", "planbench", "planbench.exe")

WORKLOADS = {"plan-hgrid-e": 1, "plan-ssw-e-j2": 2, "replan-dmag-e": 1}  # name -> jobs

END_TO_END = {
    "setup_s": "s",
    "plan_s": "s",
    "time_to_plan_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "topology.gen_s": "s",
    "topology.gen_alloc_mw": "Mword",
    "topology.universe_mb": "MB",
    "migration.blocks_s": "s",
    "migration.task_s": "s",
    "migration.task_alloc_mw": "Mword",
    "traffic.stage_circuits": "count",
    "migration.deps_entries": "count",
    "migration.check_s": "s",
    "migration.checks": "count",
    "migration.cache_hits": "count",
    "migration.hit_ratio": "ratio",
    "migration.check_ms": "ms",
    "migration.full_check_ms": "ms",
    "migration.default_check_ms": "ms",
    "migration.first_check_ms": "ms",
    "planner.search_self_s": "s",
    "planner.expanded": "count",
    "planner.generated": "count",
    "planner.alloc_mw": "Mword",
    "planner.extra_checks": "count",
    "planner.validate_s": "s",
    "core.remainder_s": "s",
    "core.replan_plan_s": "s",
    "core.replan_checks": "count",
    "gc.top_heap_mb": "MB",
    "npd.self_s": "s",
    "topology.self_s": "s",
    "migration.self_s": "s",
    "planner.self_s": "s",
    "core.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

# Spans must account for this share of a traced run's wall-clock.
MIN_COVERAGE = 0.95

# Every run must end within 180 s; the build and all processes share this.
DEADLINE = time.monotonic() + 170


def fail(msg):
    print("planbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", "2", "./planbench/planbench.exe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")


def commit_id():
    """The git commit, or a fingerprint of the sources outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("lib", "bin", "planbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_exe(args):
    try:
        proc = subprocess.run(
            [EXE] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, DEADLINE - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail("run timed out: " + " ".join(args))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("run failed: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("run printed nothing: " + " ".join(args))
    return json.loads(lines[-1])


def finite(metrics, names):
    return all(
        isinstance(metrics.get(n), (int, float)) and math.isfinite(metrics[n])
        for n in names
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    meta = {
        "workload": a.workload,
        "seed": str(a.seed),
        "commit": commit_id(),
        "cores": str(os.cpu_count()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    problems = []

    if a.trace == 0:
        r = run_exe(base + ["--seconds", str(a.seconds)])
        names, units = list(END_TO_END), END_TO_END
        attempted, errors = r["attempted"], r["errors"]
        kept = ("passes", "run_s", "laps", "kernel_s", "wall_s")
        samples = tuple(
            m + "_samples" for m in ("setup", "plan", "time_to_plan", "kernel")
        )
        record = {k: r[k] for k in kept + samples}
        # The metrics are host-adjusted (planbench.ml, "Host speed"); the
        # wall-clock medians and the kernel's speed go to stderr as well.
        print(
            "planbench: wall-clock medians %s, kernel %.4f s over %d laps"
            % (
                ", ".join("%s %.4f" % kv for kv in sorted(r["wall_s"].items())),
                r["kernel_s"],
                r["laps"],
            ),
            file=sys.stderr,
        )
    else:
        # Two traced processes on the jobs=1 workloads: their counts must
        # repeat exactly.  At jobs>1 counts may drift (Sat_engine.mli), so
        # one traced run is reported without that check.
        meta_args = []
        for kv in sorted(meta.items()):
            meta_args += ["--meta", "%s=%s" % kv]
        runs = []
        for i in range(1 if WORKLOADS[a.workload] > 1 else 2):
            trace_file = os.path.join(
                OUT, "%s-seed%d-%d.trace.json" % (a.workload, a.seed, i + 1)
            )
            args = ["--seconds", "0", "--trace", trace_file] + meta_args
            runs.append(run_exe(base + args))
        r = runs[0]
        counts = r["counts"]
        diff = sorted(k for x in runs[1:] for k in counts if x["counts"].get(k) != counts[k])
        if diff:
            problems.append("counts differ between traced runs: " + ", ".join(diff))
        names, units = list(PER_LAYER), PER_LAYER
        attempted = sum(x["attempted"] for x in runs)
        errors = [e for x in runs for e in x["errors"]]
        if r["metrics"].get("trace.coverage", 0.0) < MIN_COVERAGE:
            problems.append("spans cover under %.0f%% of the run" % (100 * MIN_COVERAGE))
        record = {"counts": counts, "counts_repeat": len(runs) > 1 and not diff}

    if not finite(r["metrics"], names):
        problems.append("missing or non-finite metric")
    problems += errors
    for p in problems:
        print("planbench: " + p, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {n: {"value": r["metrics"].get(n), "unit": units[n]} for n in names},
    }
    record.update(meta, trace=a.trace, result=result)
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(
        "planbench: workload=%s seed=%d commit=%s cores=%s"
        % (a.workload, a.seed, meta["commit"], meta["cores"])
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
