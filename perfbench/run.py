"""Benchmark of r13verify: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The run first byte-compiles the sources (the build of a Python package),
then starts fresh child processes (perfbench/child.py), one repetition of
the workload each, with every BLAS thread variable set to 1, until the next
repetition would end after S seconds; at least three repetitions always run.

--trace 0 prints the end-to-end metrics (medians over repetitions). The
times of report-default and solve-many-loads are reported at a nominal
host speed, gauged by reference work timed around each repetition
(calibrate.py, child.py).
--trace 1 alternates traced and untraced repetitions and prints the
per-layer metrics of the traced ones plus trace.overhead_ratio.

The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted/failed count the workload's operations over all
repetitions. The line before it carries the provenance. Details of every
repetition go to .perfbench_out/ in the checkout. Without a program to
measure, or when a repetition crashes, the run exits non-zero and prints
no result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import BLAS_THREAD_VARS, ROOT, SCRATCH, WORKLOADS
from layertrace import LAYER_METRICS

HARD_LIMIT_S = 170.0  # every run must end well within 180 s
MIN_REPS = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "verify_top_s": "s",
    "load_p50_s": "s",
    "load_p90_s": "s",
}


def git_sha(root: Path) -> str | None:
    """Commit of the checkout when it is a git work tree, read from .git directly."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    """Digest of the program's sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_child(args, traced: bool, rep: int, deadline: float) -> dict:
    env = dict(os.environ, **{v: "1" for v in BLAS_THREAD_VARS})
    cmd = [
        sys.executable, str(Path(__file__).with_name("child.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
    ]
    if traced:
        cmd += ["--spans", str(SCRATCH / f"spans-{args.workload}-seed{args.seed}.json")]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(deadline - spawned, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {rep} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["traced"] = traced
    record["duration_s"] = time.monotonic() - spawned
    return record


def repetitions(args) -> list[dict]:
    """Fresh child processes until the next one would overrun --seconds."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    reps: list[dict] = []
    while True:
        if len(reps) >= MIN_REPS:
            expected = max(r["duration_s"] for r in reps)
            now = time.monotonic()
            if now + expected > start + args.seconds or now + expected > hard_deadline:
                return reps
        traced = bool(args.trace) and len(reps) % 2 == 0
        reps.append(run_child(args, traced, len(reps), hard_deadline))


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def end_to_end(reps) -> dict:
    values = {
        "wall_s": median_of(reps, "wall_s"),
        "setup_s": median_of(reps, "setup_s"),
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
        "pass_ratio": sum(r["checks_passed"] for r in reps) / sum(r["checks"] for r in reps),
        "verify_top_s": median_of(reps, "verify_top_s"),
        "load_p50_s": median_of(reps, "load_p50_s"),
        "load_p90_s": median_of(reps, "load_p90_s"),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(reps) -> dict:
    """Medians over the traced repetitions; the overhead against the untraced ones."""
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    # median_low keeps each value one repetition measured, so counts stay integers
    metrics = {
        name: {"value": statistics.median_low(r["layers"][name] for r in traced), "unit": unit}
        for name, (unit, _) in LAYER_METRICS.items()
    }
    overhead = median_of(traced, "wall_s") / median_of(untraced, "wall_s") - 1.0
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src" / "r13verify"
    if not (src / "__init__.py").is_file():
        print(f"no program to measure: {src} is missing", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(src), quiet=1) or not compileall.compile_dir(
        str(Path(__file__).parent), quiet=1
    ):
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    try:
        reps = repetitions(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    digests = [r["extra"].get("csv_sha256") for r in reps]  # report-default only
    first = next((d for d in digests if d), None)
    for i, (r, digest) in enumerate(zip(reps, digests)):
        if digest and digest != first:
            r["failures"].append(f"report.csv of repetition {i} differs from the first one written")
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["ops"] for r in reps)
    failed = sum(min(len(r["failures"]), r["ops"]) for r in reps)
    metrics = per_layer(reps) if args.trace else end_to_end(reps)

    provenance = dict(reps[0]["provenance"], git_sha=git_sha(ROOT),
                      source_sha256=source_sha256(src), repetitions=len(reps),
                      traced_repetitions=sum(r["traced"] for r in reps),
                      scale_median=median_of(reps, "scale"))
    details = {"provenance": provenance, "failures": failures, "metrics": metrics, "repetitions": reps}
    out = SCRATCH / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1))
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
