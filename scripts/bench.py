#!/usr/bin/env python3
"""Wall time of each CLI suite, of the constants ladder and of the Korn ladder, as one JSON record.

    PYTHONPATH=src python scripts/bench.py --out BENCH.json --label after
    PYTHONPATH=<other checkout>/src python scripts/bench.py --out BENCH.json --label before

Run from the root of the checkout; without PYTHONPATH (or an installed
package) the script stops at `import r13verify`.

The `report` record times one `r13verify.run` of all six suites at the
default configuration, as perfbench's report-default workload does, and
records `peak_rss_mb` after it; it runs first, so that figure is the
report's own. The suites then run one at a time. The report and each suite
record `csv_sha256`, the digest of the last run's `report.csv` bytes, so two
records show whether a change kept the report byte-identical. Each run of a
ladder rung (N, k) takes place in a fresh interpreter that imports the same
package (`fresh_rung`). It builds spaces and times four steps: `build_spaces`,
`assemble_system`, `brezzi_constants` and `solve_mixed` on seeded wall data
(run i of a rung reads draw i of a generator seeded 0); the rung also records
the constants, whether the verified answer holds (alpha0 > 0, k0 > 0, solver
residuals within the report's tolerance, stability bounds hold) and
`peak_rss_mb`, that interpreter's peak resident set size (`peak_rss_mb()`)
after the rung: the memory the rung needs alone, whatever the script ran
before it. `steps_peak_rss_mb` holds that peak after each of the four
steps, so it shows which step sets it; the last is `peak_rss_mb`. Between
two records of the same code the report's `peak_rss_mb` varies by a few
MB, so a difference under about 3% is noise. Only public calls are used,
so pointing PYTHONPATH at another checkout of the package times that
checkout with the same script, as long as it has the same public calls
(see the `korn` record).

With --repeat n, the report, each suite and each rung are timed n times; the
record keeps the median as `wall_s` (report, suites) or `total_s` (rungs) and
the n times beside it as `wall_s_runs` or `total_s_runs`.

The `loads` record, always taken and once whatever --repeat, is the cost
of a bounds-checked load once the constants are held, as perfbench's
solve-many-loads workload measures it: one (3,1) zero-mean structure and
its constants, then 100 seeded wall loads, each timed as one
`assemble_system` plus `solve_mixed(system, constants)`. It keeps the
median and the 90th percentile (inclusive, linearly interpolated) of the
100 latencies as `p50_s` and `p90_s`, and whether every load verified
(solver residuals within the report's tolerance, stability bounds hold).
It also keeps `constants_s`, the time of that one `brezzi_constants` on
the unloaded (3,1) system, timed as perfbench's setup times it: with the
median load it makes up solve-many-loads' `verify_top_s`.

The `korn` record, always taken, is the cost of the discrete Korn ladder:
per operator, `sym_vec` (the symmetrized gradient of 3D vectors), `stf_stf`
(the Stf gradient of 3D stf tensors) and `stf_vec` (the trace-free
symmetrized gradient of 3D vectors, the C-elliptic control), and per
degree N in 4, 6 and 8 at k = 1, one `korn_constant` on a fresh
`r13verify.ScalarBasis(3, N, 1)`, so its grams are built inside the timed
call. Each entry keeps the constant and, like the suites, the median
`wall_s` of --repeat runs with the runs as `wall_s_runs`. `korn_constant`
took a `DiscreteSpaces` before it took a basis, and such a checkout does
not export `ScalarBasis`, so a checkout from before that change must be
timed with its own copy of this script.

BLAS is pinned to one thread when the script starts, and the rung
interpreters inherit that setting.
The record carries the Python, numpy, scipy and BLAS versions, the thread
settings and the git revision of the imported package, suffixed -dirty
when it has uncommitted changes, and `src_lines`, the line count of each
of the package's modules (as `wc -l` counts them) and their `total`. A record replaces the one of the same
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
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import r13verify  # noqa: E402
from r13verify.report import ALL_SUITES, TOLERANCES  # noqa: E402

LADDER = ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2))
LOADS_SPACE, N_LOADS = (3, 1), 100
KORN_OPS = {"sym_vec": ("vectors", "sym"), "stf_stf": ("stf2", "Stf"), "stf_vec": ("vectors", "stf")}
KORN_DEGREES = (4, 6, 8)
RUNG_CHILD = "import json, runpy, sys; bench = runpy.run_path(sys.argv[1]); print(json.dumps(bench['time_rung'](*json.loads(sys.argv[2]))))"


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


def src_lines() -> dict:
    """Per module of the imported package, its line count (its newlines, as wc -l counts), and the total."""
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(Path(r13verify.__file__).parent.glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


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
    """This interpreter's peak resident set size so far, in MB: Linux's VmHWM, the peak of its own address space."""
    return int(re.search(r"VmHWM:\s+(\d+) kB", Path("/proc/self/status").read_text()).group(1)) / 1024.0


def time_report(repeat: int) -> dict:
    return {**time_run(ALL_SUITES, repeat), "peak_rss_mb": peak_rss_mb()}


def time_suites(suites, repeat: int) -> dict:
    return {suite: time_run((suite,), repeat) for suite in suites}


def time_rung(N: int, k: int, pairing: str, draw: int) -> dict:
    """One verified answer at (N, k) on wall data draw `draw` (from 0) of a generator seeded 0."""
    wall = r13verify.BoundaryData(*(0.5 * np.random.default_rng(0).standard_normal((draw + 1, 5, 6))[draw]))
    t0 = time.perf_counter()
    spaces = r13verify.build_spaces(N, k, "zero_mean", pairing)
    t1, rss1 = time.perf_counter(), peak_rss_mb()
    system = r13verify.assemble_system(spaces, r13verify.ModelParams(), None, wall)
    t2, rss2 = time.perf_counter(), peak_rss_mb()
    consts = r13verify.brezzi_constants(system)
    t3, rss3 = time.perf_counter(), peak_rss_mb()
    sol = r13verify.solve_mixed(system, consts)
    t4, rss4 = time.perf_counter(), peak_rss_mb()
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
        "peak_rss_mb": rss4,
        "steps_peak_rss_mb": dict(zip(steps, (rss1, rss2, rss3, rss4))),
    }


def fresh_rung(N: int, k: int, pairing: str, draw: int) -> dict:
    """time_rung in a fresh interpreter that imports this package, so nothing run before shapes its peak_rss_mb."""
    path = os.pathsep.join(filter(None, (str(Path(r13verify.__file__).parent.parent), os.environ.get("PYTHONPATH"))))
    args = [sys.executable, "-c", RUNG_CHILD, str(Path(__file__).resolve()), json.dumps([N, k, pairing, draw])]
    proc = subprocess.run(args, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"rung {N},{k} failed in its interpreter:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def time_ladder(rungs, pairing: str, repeat: int) -> dict:
    out = {}
    for N, k in rungs:
        runs = [fresh_rung(N, k, pairing, draw) for draw in range(repeat)]
        rec = runs[-1]
        rec["total_s_runs"] = [r["total_s"] for r in runs]
        rec["total_s"] = statistics.median(rec["total_s_runs"])
        out[f"N{N}_k{k}"] = rec
    return out


def time_loads() -> dict:
    rng = np.random.default_rng(0)
    spaces, params = r13verify.build_spaces(*LOADS_SPACE, "zero_mean"), r13verify.ModelParams()
    base = r13verify.assemble_system(spaces, params)
    t0 = time.perf_counter()
    consts = r13verify.brezzi_constants(base)
    constants_s = time.perf_counter() - t0
    walls = [r13verify.BoundaryData(*(0.5 * rng.standard_normal((5, 6)))) for _ in range(N_LOADS)]
    times, verified = [], True
    for wall in walls:
        t0 = time.perf_counter()
        sol = r13verify.solve_mixed(r13verify.assemble_system(spaces, params, None, wall), consts)
        times.append(time.perf_counter() - t0)
        res = max(sol.residual_primal, sol.residual_constraint)
        verified = verified and res <= TOLERANCES["solver_residual"] and sol.bounds_hold
    return {
        "N_k": list(LOADS_SPACE),
        "loads": N_LOADS,
        "constants_s": constants_s,
        "p50_s": statistics.median(times),
        "p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "verified": bool(verified),
    }


def time_korn(repeat: int) -> dict:
    out = {}
    for label, (domain, codomain) in KORN_OPS.items():
        op = r13verify.OperatorSpec(domain, codomain, 3)
        for N in KORN_DEGREES:
            runs = []
            for _ in range(repeat):
                basis = r13verify.ScalarBasis(3, N, 1)
                t0 = time.perf_counter()
                est = r13verify.korn_constant(op, basis)
                runs.append(time.perf_counter() - t0)
            out[f"{label}_N{N}_k1"] = {"wall_s": statistics.median(runs), "wall_s_runs": runs, "constant": est.constant}
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
        "src_lines": src_lines(),
        "report": time_report(args.repeat),
        "suites": time_suites(args.suites, args.repeat),
        "ladder": {
            "pairing": args.pairing,
            "pressure_mode": "zero_mean",
            "rungs": time_ladder(args.rungs, args.pairing, args.repeat),
        },
        "loads": time_loads(),
        "korn": time_korn(args.repeat),
    }
    path = Path(args.out)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[args.label] = record
    path.write_text(json.dumps(data, indent=2) + "\n")
    rep = record["report"]
    print(f"report {rep['wall_s']:8.3f} s rows {rep['rows']} peak {rep['peak_rss_mb']:.0f} MB")
    print(f"src_lines {record['src_lines']['total']}")
    for name, s in record["suites"].items():
        print(f"suite {name:12s} {s['wall_s']:8.3f} s")
    for name, r in record["ladder"]["rungs"].items():
        steps = " ".join(f"{k} {v:.3f}" for k, v in r["steps_s"].items())
        print(
            f"rung {name:8s} n_V {r['n_V']:5d} total {r['total_s']:8.3f} s ({steps}) "
            f"peak {r['peak_rss_mb']:.0f} MB verified {r['verified']}"
        )
    loads = record["loads"]
    print(
        f"loads {loads['loads']} constants {loads['constants_s'] * 1e3:.2f} ms p50 {loads['p50_s'] * 1e6:.0f} us "
        f"p90 {loads['p90_s'] * 1e6:.0f} us verified {loads['verified']}"
    )
    for name, r in record["korn"].items():
        print(f"korn {name:14s} {r['wall_s']:8.3f} s constant {r['constant']:.6f}")


if __name__ == "__main__":
    main()
