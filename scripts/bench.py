#!/usr/bin/env python3
"""Wall time of each CLI suite and of the constants ladder, as one JSON record.

    PYTHONPATH=src python scripts/bench.py --out BENCH.json --label after
    PYTHONPATH=<other checkout>/src python scripts/bench.py --out BENCH.json --label before

Run from the root of the checkout; without PYTHONPATH (or an installed
package) the script stops at `import r13verify`.

The `report` record times one `r13verify.run` of all six suites at the
default configuration, as perfbench's report-default workload does, and
records `peak_rss_mb` after it; it runs first, so that figure is the
report's own. The suites then run one at a time. The report and each suite
record `csv_sha256`, the digest of the last run's `report.csv` bytes, so two
records show whether a change kept the report byte-identical. Each ladder
rung (N, k) builds fresh spaces and times four steps: `build_spaces`, `assemble_system`, `brezzi_constants` and
`solve_mixed` on seeded wall data; the rung also records the constants,
whether the verified answer holds (alpha0 > 0, k0 > 0, solver residuals
within the report's tolerance, stability bounds hold) and `peak_rss_mb`,
the process's peak resident set size (ru_maxrss) after the rung: the
memory a rung needs when it is the only one timed in its process, as with
`--rungs N,k` and `--repeat 1`. Between two records of the same code the
report's `peak_rss_mb` varies by a few MB, so a difference under about 3%
is noise. Only public calls are used, so pointing PYTHONPATH at another
checkout of the package times that checkout with the same script.

With --repeat n, the report, each suite and each rung are timed n times; the
record keeps the median as `wall_s` (report, suites) or `total_s` (rungs) and
the n times beside it as `wall_s_runs` or `total_s_runs`.

BLAS is pinned to one thread when the script starts a fresh interpreter.
The record carries the Python, numpy, scipy and BLAS versions, the thread
settings and the git revision of the imported package, suffixed -dirty
when it has uncommitted changes. A record replaces the one of the same
label in the output file, so several labels (say the parent and the
change) sit side by side.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import r13verify  # noqa: E402
from r13verify.report import ALL_SUITES, TOLERANCES  # noqa: E402

LADDER = ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2))


def provenance() -> dict:
    blas = {}
    for lib in (np, scipy):
        dep = lib.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas[lib.__name__] = f"{dep.get('name', '?')} {dep.get('version', '?')}"
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(r13verify.__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


def time_run(suites, repeat: int) -> dict:
    runs = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        rep = r13verify.run(r13verify.RunConfig(suites=suites))
        runs.append(time.perf_counter() - t0)
    return {
        "wall_s": statistics.median(runs),
        "wall_s_runs": runs,
        "rows": len(rep.rows),
        "failed": [r.quantity for r in rep.failed_rows()],
        "csv_sha256": hashlib.sha256(rep.to_csv().encode()).hexdigest(),
    }


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (ru_maxrss; Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_report(repeat: int) -> dict:
    return {**time_run(ALL_SUITES, repeat), "peak_rss_mb": peak_rss_mb()}


def time_suites(suites, repeat: int) -> dict:
    return {suite: time_run((suite,), repeat) for suite in suites}


def time_rung(N: int, k: int, pairing: str, rng: np.random.Generator) -> dict:
    wall = r13verify.BoundaryData(*(0.5 * rng.standard_normal((5, 6))))
    t0 = time.perf_counter()
    spaces = r13verify.build_spaces(N, k, "zero_mean", pairing)
    t1 = time.perf_counter()
    system = r13verify.assemble_system(spaces, r13verify.ModelParams(), None, wall)
    t2 = time.perf_counter()
    consts = r13verify.brezzi_constants(system)
    t3 = time.perf_counter()
    sol = r13verify.solve_mixed(system, consts)
    t4 = time.perf_counter()
    steps = {
        "build_spaces": t1 - t0,
        "assemble_system": t2 - t1,
        "brezzi_constants": t3 - t2,
        "solve_mixed": t4 - t3,
    }
    verified = (
        consts.alpha0 > 0
        and consts.k0 > 0
        and max(sol.residual_primal, sol.residual_constraint) <= TOLERANCES["solver_residual"]
        and sol.bounds_hold
    )
    return {
        "n_V": spaces.n_V,
        "n_Q": spaces.n_Q,
        "steps_s": steps,
        "total_s": t4 - t0,
        "verified": bool(verified),
        "constants": {name: float(v) for name, v in vars(consts).items()},
        "peak_rss_mb": peak_rss_mb(),
    }


def time_ladder(rungs, pairing: str, repeat: int) -> dict:
    out = {}
    for N, k in rungs:
        rng = np.random.default_rng(0)
        runs = [time_rung(N, k, pairing, rng) for _ in range(repeat)]
        rec = runs[-1]
        rec["total_s_runs"] = [r["total_s"] for r in runs]
        rec["total_s"] = statistics.median(rec["total_s_runs"])
        out[f"N{N}_k{k}"] = rec
    return out


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_rung(text: str) -> tuple[int, int]:
    """An "N,k" rung: degree N >= 1 and k >= 1 subdivisions."""
    try:
        N, k = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N,k, got {text!r}") from None
    if N < 1 or k < 1:
        raise argparse.ArgumentTypeError(f"N and k must be at least 1, got {text!r}")
    return N, k


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to create or update")
    ap.add_argument("--label", required=True, help="name of this record in the file")
    ap.add_argument("--suites", nargs="*", default=list(ALL_SUITES), choices=ALL_SUITES)
    ap.add_argument("--rungs", nargs="*", type=parse_rung, default=list(LADDER), help="N,k pairs")
    ap.add_argument("--pairing", default="equal", choices=("equal", "enriched"))
    ap.add_argument("--repeat", type=positive_int, default=1, help="timed runs per report, suite, rung (median kept)")
    args = ap.parse_args(argv)

    record = {
        "provenance": provenance(),
        "report": time_report(args.repeat),
        "suites": time_suites(args.suites, args.repeat),
        "ladder": {
            "pairing": args.pairing,
            "pressure_mode": "zero_mean",
            "rungs": time_ladder(args.rungs, args.pairing, args.repeat),
        },
    }
    path = Path(args.out)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[args.label] = record
    path.write_text(json.dumps(data, indent=2) + "\n")
    rep = record["report"]
    print(f"report {rep['wall_s']:8.3f} s rows {rep['rows']} peak {rep['peak_rss_mb']:.0f} MB")
    for name, s in record["suites"].items():
        print(f"suite {name:12s} {s['wall_s']:8.3f} s")
    for name, r in record["ladder"]["rungs"].items():
        steps = " ".join(f"{k} {v:.3f}" for k, v in r["steps_s"].items())
        print(
            f"rung {name:8s} n_V {r['n_V']:5d} total {r['total_s']:8.3f} s ({steps}) "
            f"peak {r['peak_rss_mb']:.0f} MB verified {r['verified']}"
        )


if __name__ == "__main__":
    main()
