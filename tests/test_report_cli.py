import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from r13verify.assembly import SaddleStructure
from r13verify.cli import main
from r13verify.report import (
    ALL_SUITES,
    RunConfig,
    VerificationReport,
    export_fields_csv,
    export_matrix_coo,
    run,
)
from r13verify.spaces import PAIRINGS


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"kn": 1.0, "knn": 2.0})


def test_config_rejects_empty_suites():
    with pytest.raises(ValueError, match="nonempty"):
        RunConfig(suites=())


def test_config_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suites"):
        RunConfig(suites=("ellipticity", "nope"))


def test_config_validates_params():
    with pytest.raises(ValueError):
        RunConfig(kn=-1.0)
    with pytest.raises(ValueError):
        RunConfig(degree=0)


def test_config_json_roundtrip(tmp_path):
    cfg = RunConfig(kn=0.5, epsilon_w=0.1, degree=1, seed=3, suites=("ellipticity",))
    path = tmp_path / "cfg.json"
    data = {
        "kn": 0.5,
        "epsilon_w": 0.1,
        "degree": 1,
        "seed": 3,
        "suites": ["ellipticity"],
    }
    path.write_text(json.dumps(data))
    loaded = RunConfig.from_json(path)
    assert loaded.kn == cfg.kn and loaded.suites == cfg.suites


@pytest.fixture(scope="module")
def ellipticity_report():
    return run(RunConfig(suites=("ellipticity",), seed=1))


def test_ellipticity_suite_verdicts(ellipticity_report):
    rows = {r.quantity: r for r in ellipticity_report.rows}
    for d in (3, 4, 5):
        assert rows[f"stf_grad_C_elliptic_d{d}"].value == 1.0
        assert rows[f"stf_grad_C_elliptic_d{d}"].passed
    assert rows["stf_grad_C_elliptic_d2"].value == 0.0
    assert rows["stf_grad_C_elliptic_d2"].passed  # non-ellipticity is expected
    for d in (2, 3, 4, 5):
        assert rows[f"stf_grad_R_elliptic_d{d}"].passed
    assert ellipticity_report.all_passed


def test_constants_suite_marks_deficiency():
    rep = run(RunConfig(suites=("constants",), degree=1, epsilon_w=0.0, seed=0))
    rows = {r.quantity: r for r in rep.rows}
    assert rows["alpha0_N1_eps0.0_kn1.0"].passed
    assert rows["k0_N1_eps0.0_kn1.0"].passed
    deficiency = rows["dim_kerBT_N1_eps0.0_kn1.0"]
    assert deficiency.value > 0
    assert deficiency.passed is False  # reported honestly, not hidden


def test_constants_and_solve_suites_share_one_structure(monkeypatch):
    # the two suites measure the same (degree, subdivisions, pressure mode,
    # params) system; one run builds its structure once, and the solve
    # suite alone still builds it
    built = []
    init = SaddleStructure.__init__

    def counting(self, spaces, *args, **kwargs):
        built.append((spaces.degree, spaces.subdivisions, spaces.pressure_mode))
        init(self, spaces, *args, **kwargs)

    monkeypatch.setattr(SaddleStructure, "__init__", counting)
    rep = run(RunConfig(suites=("constants", "solve")))
    assert built.count((2, 1, "zero_mean")) == 1
    assert {r.suite for r in rep.rows} == {"constants", "solve"}
    built.clear()
    solo = run(RunConfig(suites=("solve",)))
    assert built == [(2, 1, "zero_mean")]
    assert [r for r in solo.rows] == [r for r in rep.rows if r.suite == "solve"]


def test_report_json_roundtrip(tmp_path, ellipticity_report):
    jpath, cpath = ellipticity_report.write(tmp_path)
    loaded = json.loads(jpath.read_text())
    assert loaded["summary"]["rows"] == len(ellipticity_report.rows)
    for row, raw in zip(ellipticity_report.rows, loaded["rows"]):
        assert raw["value"] == row.value
        assert raw["quantity"] == row.quantity


def test_csv_row_count(tmp_path, ellipticity_report):
    _, cpath = ellipticity_report.write(tmp_path)
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == len(ellipticity_report.rows) + 1  # header


def test_csv_byte_identical_across_runs(tmp_path):
    cfg = dict(suites=("ellipticity",), seed=7)
    a = run(RunConfig(**cfg))
    b = run(RunConfig(**cfg))
    pa = a.write(tmp_path / "a")[1].read_bytes()
    pb = b.write(tmp_path / "b")[1].read_bytes()
    assert pa == pb


def test_cli_verify_ellipticity(tmp_path, capsys):
    code = main(["verify-ellipticity", "--seed", "2", "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.csv").exists()


def test_cli_config_override(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"kn": 2.0, "suites": ["ellipticity"]}))
    code = main(
        ["report", "--config", str(cfgfile), "--kn", "0.5", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["kn"] == 0.5


def test_cli_usage_error_on_bad_config(tmp_path, capsys):
    # exit 1 is reserved for failed criteria; a bad value never reaches a suite
    bad = [
        {"suites": []},
        {"epsilon_w": float("nan")},
        {"kn": float("inf")},
        {"seed": 1.5},
        {"seed": -1},
        {"degree": 2.5},
    ]
    for data in bad:
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(data))
        code = main(["report", "--config", str(cfgfile), "--output-dir", str(tmp_path)])
        assert code == 2, data
        assert "configuration error" in capsys.readouterr().err, data


def test_cli_estimate_constants_reports_deficiency(tmp_path, capsys):
    code = main(
        ["estimate-constants", "--degree", "1", "--output-dir", str(tmp_path)]
    )
    # pairing deficiency is a failed criterion: nonzero exit, named on stderr
    assert code == 1
    err = capsys.readouterr().err
    assert "dim_kerBT" in err


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("R13_OUTPUT_DIR", str(tmp_path / "envout"))
    cfg = RunConfig(suites=("ellipticity",))
    assert str(cfg.resolved_output_dir()) == str(tmp_path / "envout")


def test_export_matrix_coo(tmp_path):
    M = np.array([[1.0, 0.0], [0.25, 3.0]])
    path = tmp_path / "m.coo"
    export_matrix_coo(M, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "% 2 2"
    assert len(lines) == 4  # 3 nonzeros + header
    assert [line.split() for line in lines[1:]] == [["0", "0", "1.0"], ["1", "0", "0.25"], ["1", "1", "3.0"]]


def test_export_fields_csv(tmp_path):
    from r13verify.assembly import ModelParams, assemble_system
    from r13verify.saddlepoint import solve_mixed
    from r13verify.spaces import build_spaces
    from r13verify.assembly import BoundaryData

    sp = build_spaces(1, 1, "full")
    system = assemble_system(
        sp, ModelParams(1.0, 1.0, 0.1), None, BoundaryData(theta_w=np.ones(6))
    )
    sol = solve_mixed(system)
    path = tmp_path / "fields.csv"
    export_fields_csv(sp, sol.U, sol.P, path)
    lines = path.read_text().strip().splitlines()
    n_q = sp.scalar.weights.size
    n_fields = 6 + 3 + 3 + 2  # sigma upper triangle, s, u, p, theta
    assert len(lines) == 1 + n_q * n_fields

    # the values: polynomials projected onto each pairing's own bases come
    # back at the points; p = x - 1/2 has zero mean and enters through Cp
    for pairing in PAIRINGS:
        sp = build_spaces(2, 1, "zero_mean", pairing)
        sb, pb = sp.scalar, sp.scalar_pq
        U, P = np.zeros(sp.n_V), np.zeros(sp.n_Q)
        U[sp.v_blocks["sigma"]][: sb.n] = sb.project(lambda q: q[:, 2] ** 2)
        U[sp.v_blocks["s"]][sb.n : 2 * sb.n] = sb.project(lambda q: q[:, 0] * q[:, 1])
        U[sp.v_blocks["p"]] = sp.Cp.T @ pb.project(lambda q: q[:, 0] - 0.5)
        P[sp.q_blocks["u"]][: pb.n] = pb.project(lambda q: q[:, 1] * q[:, 2])
        P[sp.q_blocks["theta"]] = pb.project(lambda q: 1.0 + q[:, 0])
        export_fields_csv(sp, U, P, path)
        values = {}
        for line in path.read_text().strip().splitlines()[1:]:
            *point, name, v = line.split(",")
            values.setdefault(name, []).append([*map(float, point), float(v)])
        x, y, z = sb.points.T
        expected = {f"sigma_{i}{j}": z**2 * sp.E[0, i, j] for i in range(3) for j in range(i, 3)}
        expected.update(s_0=0 * x, s_1=x * y, s_2=0 * x, u_0=y * z, u_1=0 * x, u_2=0 * x, p=x - 0.5, theta=1 + x)
        assert set(values) == set(expected)
        for name, rows in values.items():
            rows = np.array(rows)
            assert np.array_equal(rows[:, :3], sb.points)
            assert_allclose(rows[:, 3], expected[name], rtol=0, atol=1e-12, err_msg=name)


def test_every_checked_row_carries_tolerance(ellipticity_report):
    for row in ellipticity_report.rows:
        if row.passed is not None:
            assert row.tolerance is not None


def test_export_single_format(tmp_path, ellipticity_report):
    from r13verify.report import export

    jpath = export(ellipticity_report, "json", tmp_path)
    assert jpath.name == "report.json" and jpath.exists()
    cpath = export(ellipticity_report, "csv", tmp_path)
    assert cpath.read_text().startswith("suite,quantity,value,tolerance,pass")
    with pytest.raises(ValueError, match="unknown format"):
        export(ellipticity_report, "xml", tmp_path)


def test_bc_rows_measure_a_driven_load():
    # the bc suite solves a load that drives every field, so each wall residual
    # reads the weak imposition of its relation, far above rounding
    rows = run(RunConfig(suites=("bc",))).rows
    assert len(rows) == 7
    for row in rows:
        assert row.value > 1e-6, row.quantity
