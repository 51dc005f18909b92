"""The experiment scripts run end to end at small arguments."""

import json
import re
import runpy
import statistics
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, args: list[str], monkeypatch, capsys) -> list[list[str]]:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def test_ellipticity_survey(monkeypatch, capsys):
    rows = run_script("ellipticity_survey.py", ["--dims", "2", "3"], monkeypatch, capsys)
    # the planar counterexample: R-elliptic, not C-elliptic
    assert ["2", "R", "True"] in [r[:3] for r in rows]
    assert ["2", "C", "False"] in [r[:3] for r in rows]
    assert "d=3: identity 1.000000, sym 0.707107, skew 0.000000, dev 0.816497, stf 0.707107".split() in rows


def test_constants_sweep(monkeypatch, capsys):
    rows = run_script(
        "constants_sweep.py", ["--degrees", "1", "--kn", "1.0", "--epsilon-w", "0.1"], monkeypatch, capsys
    )
    # N eps Kn alpha0 k0 |A| |B| kerB kerBT: the equal pairing's structural cokernel
    [row] = [r for r in rows if r[:3] == ["1", "0.10", "1.00"]]
    assert row[-1] == "7"


def test_korn_limit_study(monkeypatch, capsys):
    rows = run_script("korn_limit_study.py", ["--max-degree", "2", "--kn", "1.0", "0.1"], monkeypatch, capsys)
    # rigid motions span the kernel of the symmetrized gradient at every degree
    assert "sym grad, vectors (d=3) [6, 6]".split() in rows
    # the C-elliptic control: 7 fields at N = 1, then its 10 conformal Killing fields
    assert "stf grad, vectors (d=3) [7, 10]".split() in rows
    misfits = {r[0]: r[1:] for r in rows if len(r) == 3 and r[0] in ("1.00", "0.10")}
    assert set(misfits) == {"1.00", "0.10"}
    assert float(misfits["0.10"][0]) < float(misfits["1.00"][0])



def test_bench(monkeypatch, capsys, tmp_path):
    out = tmp_path / "bench.json"
    args = ["--out", str(out), "--suites", "bc", "--rungs", "1,1"]
    run_script("bench.py", [*args, "--label", "first"], monkeypatch, capsys)
    rows = run_script("bench.py", [*args, "--label", "second", "--repeat", "2"], monkeypatch, capsys)
    assert rows[0][0] == "report" and rows[1][0] == "src_lines" and rows[2][:2] == ["suite", "bc"]
    data = json.loads(out.read_text())
    assert set(data) == {"first", "second"}
    rec = data["second"]
    assert {"python", "numpy", "scipy", "blas", "blas_threads"} <= set(rec["provenance"])
    # the imported package's line count per module, as wc -l counts, and their total
    import r13verify

    modules = sorted(Path(r13verify.__file__).parent.glob("*.py"))
    lines = rec["src_lines"]
    assert list(lines) == [p.name for p in modules] + ["total"]
    for p in modules:
        assert lines[p.name] == len(p.read_text().splitlines()) > 0
    assert lines["total"] == sum(lines[p.name] for p in modules) == int(rows[1][1])
    [rung] = rec["ladder"]["rungs"].values()
    assert set(rung["steps_s"]) == {"build_spaces", "assemble_system", "brezzi_constants", "solve_mixed"}
    assert rung["verified"] and rung["constants"]["alpha0"] > 0
    # the process's peak resident set so far, in MB: at least the interpreter with numpy
    assert 10.0 < rung["peak_rss_mb"] < 1e5
    # and that peak after each step: it never falls, and after the last it is the rung's
    peaks = rung["steps_peak_rss_mb"]
    assert list(peaks) == list(rung["steps_s"])
    assert 10.0 < min(peaks.values()) and list(peaks.values()) == sorted(peaks.values())
    assert peaks["solve_mixed"] == rung["peak_rss_mb"]
    # --repeat times each suite as often as each rung and keeps the median
    assert len(rec["suites"]["bc"]["wall_s_runs"]) == len(rung["total_s_runs"]) == 2
    # the report record: one run of all six suites per repeat, the default report's rows
    report = rec["report"]
    assert len(report["wall_s_runs"]) == 2 and report["wall_s"] == statistics.median(report["wall_s_runs"])
    assert report["rows"] == 93 and report["failed"] == ["dim_kerBT_N2_eps0.0_kn1.0"]
    # the digest of the report's csv bytes: the same code writes the same report
    assert re.fullmatch("[0-9a-f]{64}", report["csv_sha256"])
    assert report["csv_sha256"] == data["first"]["report"]["csv_sha256"]
    # each rung runs in a fresh interpreter, so its peak is its own: the (1,1)
    # rung alone needs less than the whole report before it
    assert 10.0 < rung["peak_rss_mb"] < report["peak_rss_mb"]
    # the loads record, taken once whatever --repeat: 100 seeded (3,1) loads, each verified
    loads = rec["loads"]
    assert loads["N_k"] == [3, 1] and loads["loads"] == 100 and loads["verified"] is True
    assert 0.0 < loads["p50_s"] <= loads["p90_s"] < 1.0
    # and the one brezzi_constants on the unloaded (3,1) system before them, in seconds
    assert 0.0 < loads["constants_s"] < 10.0
    assert rows[-10][:2] == ["loads", "100"] and rows[-10][-1] == "True"
    assert rows[-10][2:5] == ["constants", f"{loads['constants_s'] * 1e3:.2f}", "ms"]
    # the korn record: korn_constant of sym3, Stf3 and the control at (N,1), N = 4, 6, 8, timed per --repeat
    korn = rec["korn"]
    assert list(korn) == [f"{op}_N{N}_k1" for op in ("sym_vec", "stf_stf", "stf_vec") for N in (4, 6, 8)]
    assert [r[:2] for r in rows[-9:]] == [["korn", name] for name in korn]
    for name, r in korn.items():
        assert len(r["wall_s_runs"]) == 2 and r["wall_s"] == statistics.median(r["wall_s_runs"]) > 0
        assert r["constant"] == data["first"]["korn"][name]["constant"]
    # sym3 levels off near 13.9 (rigid motions aside); Stf3 grows with the degree
    assert 13.0 < korn["sym_vec_N4_k1"]["constant"] < korn["sym_vec_N8_k1"]["constant"] < 14.0
    assert 100.0 < korn["stf_stf_N4_k1"]["constant"] < korn["stf_stf_N6_k1"]["constant"] < korn["stf_stf_N8_k1"]["constant"]
    # the C-elliptic control lies between them at each degree
    for N in (4, 6, 8):
        assert korn[f"sym_vec_N{N}_k1"]["constant"] < korn[f"stf_vec_N{N}_k1"]["constant"] < korn[f"stf_stf_N{N}_k1"]["constant"]


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_bench_rejects_repeat_below_one(repeat, monkeypatch, capsys, tmp_path):
    # no median of zero runs: argument parsing stops before any timing
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit):
        run_script("bench.py", ["--out", str(out), "--label", "x", "--repeat", repeat], monkeypatch, capsys)
    assert "--repeat: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rung", ["0,1", "2,0", "2,-1", "2", "1,2,3", "a,1"])
def test_bench_rejects_bad_rungs(rung, monkeypatch, capsys, tmp_path):
    # a rung that build_spaces would refuse stops argument parsing, before any timing
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit):
        run_script("bench.py", ["--out", str(out), "--label", "x", "--rungs", "1,1", rung], monkeypatch, capsys)
    assert "--rungs:" in capsys.readouterr().err
    assert not out.exists()
