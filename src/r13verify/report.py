"""Run configuration, verification suites, and report/export surface.

Every numeric result lands in a flat row (suite, quantity, value,
tolerance, pass); rows without a pass criterion carry empty tolerance and
pass fields. The CSV export contains exactly these rows and is
byte-identical across runs with the same configuration and seed; timings
live only in the JSON report.
"""

from __future__ import annotations

import functools
import json
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .assembly import BoundaryData, ModelParams, assemble_system, bc_residuals
from .ellipticity import (
    SINGULAR_VALUE_THRESHOLD,
    OperatorSpec,
    SamplingPlan,
    apply_symbol,
    check_ellipticity,
    general_d_prefactors,
    lh_constant,
)
from .korn import (
    CHAIN_VIOLATION_RTOL,
    coercivity_chain_check,
    div_right_inverse,
    korn_constant,
    korn_rayleigh,
    operator_kernel_dimension,
    scalar_div_right_inverse,
)
from .saddlepoint import KERNEL_RTOL, brezzi_constants, limit_consistency, solve_mixed
from .spaces import build_spaces

ALL_SUITES = ("ellipticity", "korn", "constants", "solve", "limit", "bc")

TOLERANCES = {
    "symbol_singular_value_threshold": SINGULAR_VALUE_THRESHOLD,
    "kernel_witness_residual": 1e-10,
    "planar_kernel_pair_residual": 1e-12,
    "prefactor_exactness": 0.0,
    "rank_one_bound": 1e-3,
    "korn_rayleigh_consistency": 1e-9,
    "coercivity_chain_violation": CHAIN_VIOLATION_RTOL,
    "weak_divergence_residual": 1e-10,
    "range_projection_residual": 1e-13,
    "energy_identity": 1e-10,
    "bound_ratio_stability": 0.2,
    "solver_residual": 1e-10,
    "linearity": 1e-11,
    "zero_data_solution": 1e-12,
    "kernel_rank_cutoff": KERNEL_RTOL,
}


@dataclass(frozen=True)
class Row:
    suite: str
    quantity: str
    value: float
    tolerance: float | None = None
    passed: bool | None = None


@dataclass
class RunConfig:
    kn: float = 1.0
    chi_tilde: float = 1.0
    epsilon_w: float = 0.0
    degree: int = 2
    subdivisions: int = 1
    suites: tuple[str, ...] = ALL_SUITES
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        ModelParams(self.kn, self.chi_tilde, self.epsilon_w)  # reuse validation
        for name, minimum in (("degree", 1), ("subdivisions", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
        self.suites = tuple(self.suites)
        if not self.suites:
            raise ValueError("suites must be nonempty")
        unknown = [s for s in self.suites if s not in ALL_SUITES]
        if unknown:
            raise ValueError(f"unknown suites {unknown}; valid: {list(ALL_SUITES)}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        allowed = set(cls.__dataclass_fields__)
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.kn, self.chi_tilde, self.epsilon_w)

    @property
    def pressure_mode(self) -> str:
        return "zero_mean" if self.epsilon_w == 0.0 else "full"

    def resolved_output_dir(self) -> Path:
        if self.output_dir is not None:
            return Path(self.output_dir)
        return Path(os.environ.get("R13_OUTPUT_DIR", "."))


@dataclass
class VerificationReport:
    config: dict
    rows: list[Row] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=lambda: dict(TOLERANCES))

    def add(self, suite, quantity, value, tolerance=None, passed=None):
        # every checked quantity carries the tolerance it was checked
        # against; 0.0 encodes an exact (no-slack) comparison
        tol = None if tolerance is None else float(tolerance)
        ok = None if passed is None else bool(passed)
        if ok is not None and tol is None:
            tol = 0.0
        self.rows.append(Row(suite, quantity, float(value), tol, ok))

    def check(self, suite, quantity, value, tolerance_key):
        """Add a row that passes when value <= TOLERANCES[tolerance_key]."""
        tol = TOLERANCES[tolerance_key]
        self.add(suite, quantity, value, tol, value <= tol)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if r.passed is False)

    @property
    def all_passed(self) -> bool:
        return self.n_failed == 0

    def failed_rows(self) -> list[Row]:
        return [r for r in self.rows if r.passed is False]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "tolerances": self.tolerances,
            "rows": [asdict(r) for r in self.rows],
            "timings": self.timings,
            "summary": {
                "rows": len(self.rows),
                "failed": self.n_failed,
                "all_passed": self.all_passed,
            },
        }

    def to_csv(self) -> str:
        lines = ["suite,quantity,value,tolerance,pass"]
        for r in self.rows:
            tol = "" if r.tolerance is None else repr(r.tolerance)
            ok = "" if r.passed is None else str(r.passed)
            lines.append(f"{r.suite},{r.quantity},{r.value!r},{tol},{ok}")
        return "\n".join(lines) + "\n"

    def write(self, output_dir: str | Path) -> tuple[Path, Path]:
        return export(self, "json", output_dir), export(self, "csv", output_dir)


def export(report: VerificationReport, fmt: str, output_dir: str | Path) -> Path:
    """Write the report in one format ('json' or 'csv') and return the path."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out / "report.json"
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        return path
    if fmt == "csv":
        path = out / "report.csv"
        with open(path, "w") as fh:
            fh.write(report.to_csv())
        return path
    raise ValueError(f"unknown format {fmt!r}")


def export_matrix_coo(M: np.ndarray, path: str | Path, drop_tol: float = 0.0) -> None:
    """Write a dense matrix in (row, col, value) text form."""
    with open(path, "w") as fh:
        fh.write(f"% {M.shape[0]} {M.shape[1]}\n")
        for i, j in zip(*np.nonzero(np.abs(M) > drop_tol)):
            fh.write(f"{i} {j} {float(M[i, j])!r}\n")


def export_fields_csv(spaces, U, P, path: str | Path) -> None:
    """Write all solution fields at the volume quadrature points."""
    sig, s, u = (spaces.evaluate(name, U, P) for name in ("sigma", "s", "u"))
    cols = {f"sigma_{i}{j}": sig[:, i, j] for i in range(3) for j in range(i, 3)}
    for i in range(3):
        cols[f"s_{i}"], cols[f"u_{i}"] = s[:, i], u[:, i]
    cols["p"], cols["theta"] = spaces.evaluate("p", U, P), spaces.evaluate("theta", U, P)
    pts = spaces.scalar.points
    with open(path, "w") as fh:
        fh.write("x,y,z,field,value\n")
        for name, vals in cols.items():
            # Python floats: the repr of a numpy scalar is not a number
            for (x, y, z), v in zip(pts.tolist(), vals.tolist()):
                fh.write(f"{x!r},{y!r},{z!r},{name},{v!r}\n")


# -- suites -------------------------------------------------------------------


def _suite_ellipticity(cfg: RunConfig, rep: VerificationReport, base) -> None:
    plan = SamplingPlan(seed=cfg.seed)
    for d in (2, 3, 4, 5):
        op = OperatorSpec("stf2", "Stf", d)
        check = check_ellipticity(op, plan)
        vc, vr = check.complex, check.real
        expected = d >= 3
        rep.add(
            "ellipticity",
            f"stf_grad_C_elliptic_d{d}",
            float(vc.elliptic),
            None,
            vc.elliptic == expected,
        )
        rep.add(
            "ellipticity",
            f"stf_grad_C_min_singular_d{d}",
            vc.min_singular_value,
            TOLERANCES["symbol_singular_value_threshold"],
            None,
        )
        if d == 2:
            rep.check(
                "ellipticity", "planar_witness_residual", vc.witness_residual, "kernel_witness_residual"
            )
            T = np.array([[1j, 1.0], [1.0, -1j]])
            xi = np.array([1.0, 1j])
            res = float(np.linalg.norm(apply_symbol(op, T, xi)) / np.linalg.norm(T))
            rep.check(
                "ellipticity", "planar_reference_pair_residual", res, "planar_kernel_pair_residual"
            )
        rep.add("ellipticity", f"stf_grad_R_elliptic_d{d}", float(vr.elliptic), None, vr.elliptic)
        pf = general_d_prefactors(d)
        for name, val in zip(
            ("c_stf", "c_symbol", "c_core1", "c_case1", "c_case2"), pf.as_tuple()
        ):
            rep.add("ellipticity", f"prefactor_{name}_d{d}", float(val), None, None)
    pf3 = general_d_prefactors(3).as_tuple()
    from fractions import Fraction

    target = (Fraction(1, 5), Fraction(2, 15), Fraction(3, 5), Fraction(8, 15), Fraction(1, 15))
    rep.add(
        "ellipticity",
        "prefactor_table_d3_exact",
        float(pf3 == target),
        TOLERANCES["prefactor_exactness"],
        pf3 == target,
    )
    c22 = general_d_prefactors(2).c_case2
    rep.add("ellipticity", "prefactor_case2_d2_zero", float(c22), 0.0, c22 == 0)

    targets = {"identity": 1.0, "sym": 1.0 / np.sqrt(2.0), "stf": 1.0 / np.sqrt(2.0)}
    for kind, ref in targets.items():
        lam = lh_constant(OperatorSpec("vectors", kind, 3))
        rep.add(
            "ellipticity",
            f"rank_one_bound_{kind}",
            lam,
            TOLERANCES["rank_one_bound"],
            abs(lam - ref) <= TOLERANCES["rank_one_bound"],
        )


def _suite_korn(cfg: RunConfig, rep: VerificationReport, base) -> None:
    degrees = sorted({1, 2, 3, cfg.degree})
    full = {N: build_spaces(N, cfg.subdivisions, "full") for N in sorted({*degrees, max(cfg.degree, 2), 4})}
    for label, op in (
        ("sym_vec", OperatorSpec("vectors", "sym", 3)),
        ("stf_stf", OperatorSpec("stf2", "Stf", 3)),
    ):
        prev = 0.0
        for N in degrees:
            sp = full[N]
            est = korn_constant(op, sp)
            ok = np.isfinite(est.constant) and est.constant > 0 and est.constant >= prev - 1e-9
            rep.add("korn", f"korn_{label}_N{N}", est.constant, None, bool(ok))
            ray = korn_rayleigh(op, sp, est.extremizer)
            dev = abs(ray - est.constant) / est.constant
            rep.check("korn", f"korn_{label}_rayleigh_dev_N{N}", dev, "korn_rayleigh_consistency")
            prev = est.constant
    # planar diagnostic: finite at fixed degree, growth with N is the signal
    planar = OperatorSpec("stf2", "Stf", 2)
    vals = []
    for N in degrees:
        est = korn_constant(planar, full[N])
        vals.append(est.constant)
        rep.add("korn", f"korn_planar_N{N}", est.constant, None, bool(np.isfinite(est.constant)))
    rep.add("korn", "korn_planar_growth", vals[-1] / vals[0], None, None)
    # discrete kernel dimensions: saturation is the complex-ellipticity
    # signature, linear growth the planar counterexample
    dims3 = [operator_kernel_dimension(OperatorSpec("stf2", "Stf", 3), N) for N in (4, 5)]
    rep.add("korn", "stf_kernel_dim_d3", dims3[-1], None, dims3[0] == dims3[1] == 35)
    dims2 = [operator_kernel_dimension(planar, N) for N in (2, 3, 4)]
    rep.add(
        "korn",
        "stf_kernel_growth_d2",
        dims2[-1] - dims2[0],
        None,
        all(b - a == 2 for a, b in zip(dims2, dims2[1:])),
    )

    sp = base.system.spaces
    rng = np.random.default_rng(cfg.seed + 1)
    fields = {"heat": [], "stress": []}
    for _ in range(200):
        fields["heat"].append(rng.standard_normal((3, sp.n_scalar)))
        fields["stress"].append((rng.standard_normal((5, sp.n_scalar)), rng.standard_normal(sp.n_p)))
    violations = sum(
        not r.holds for kind, batch in fields.items() for r in coercivity_chain_check(kind, batch, sp, cfg.params)
    )
    rep.add(
        "korn",
        "coercivity_chain_violations",
        violations,
        TOLERANCES["coercivity_chain_violation"],
        violations == 0,
    )

    # divergence right-inverses at the configured degree
    sp_ri = full[max(cfg.degree, 2)]
    u = np.zeros((3, sp_ri.n_scalar))
    u[0] = sp_ri.scalar.project(lambda q: np.ones(q.shape[0]))
    for proj in ("identity", "stf"):
        res = div_right_inverse(u, proj, sp_ri)
        rep.check(
            "korn", f"rinv_{proj}_weak_residual", res.weak_residual, "weak_divergence_residual"
        )
        rep.check(
            "korn", f"rinv_{proj}_range_residual", res.range_residual, "range_projection_residual"
        )
        rep.check("korn", f"rinv_{proj}_energy_gap", res.energy_gap, "energy_identity")
        rep.add("korn", f"rinv_{proj}_bound_ratio", res.bound_ratio, None, None)
    kappa = sp_ri.scalar.project(lambda q: 1.0 + q[:, 0])
    sres = scalar_div_right_inverse(kappa, sp_ri)
    rep.check("korn", "rinv_scalar_weak_residual", sres.weak_residual, "weak_divergence_residual")
    # stability under degree refinement, past the low-degree parity staircase
    ratios = {}
    for N in (3, 4):
        spN = full[N]
        uN = np.zeros((3, spN.n_scalar))
        uN[0] = spN.scalar.project(lambda q: np.ones(q.shape[0]))
        ratios[N] = div_right_inverse(uN, "stf", spN).bound_ratio
    rel = abs(ratios[4] - ratios[3]) / ratios[3]
    rep.check("korn", "rinv_stf_ratio_stability", rel, "bound_ratio_stability")


class _Base:
    """The system at the configured degree, subdivisions, pressure mode and parameters,
    and its constants, each built once per run on first read."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @functools.cached_property
    def system(self):
        cfg = self.cfg
        return assemble_system(build_spaces(cfg.degree, cfg.subdivisions, cfg.pressure_mode), cfg.params)

    @functools.cached_property
    def constants(self):
        return brezzi_constants(self.system)


def _suite_constants(cfg: RunConfig, rep: VerificationReport, base) -> None:
    consts = base.constants
    tag = f"N{cfg.degree}_eps{cfg.epsilon_w}_kn{cfg.kn}"
    rep.add("constants", f"alpha0_{tag}", consts.alpha0, None, consts.alpha0 > 0)
    rep.add("constants", f"k0_{tag}", consts.k0, None, consts.k0 > 0)
    rep.add("constants", f"norm_A_{tag}", consts.norm_A, None, None)
    rep.add("constants", f"norm_B_{tag}", consts.norm_B, None, None)
    rep.add("constants", f"dim_kerB_{tag}", consts.dim_kerB, None, None)
    # the equal-degree pairing is structurally deficient; reported, not hidden
    rep.add("constants", f"dim_kerBT_{tag}", consts.dim_kerBT, 0.0, consts.dim_kerBT == 0)


def _seeded_boundary_data(rng: np.random.Generator) -> BoundaryData:
    return BoundaryData(*(0.5 * rng.standard_normal((5, 6))))  # field order u_n, u_t1, u_t2, p, theta


def _suite_solve(cfg: RunConfig, rep: VerificationReport, base, n_datasets: int = 10) -> None:
    system, consts = base.system, base.constants
    sp = system.spaces
    rng = np.random.default_rng(cfg.seed + 2)
    worst_res = 0.0
    bounds_ok = True
    for _ in range(n_datasets):
        sol = solve_mixed(assemble_system(sp, cfg.params, None, _seeded_boundary_data(rng)), consts)
        worst_res = max(worst_res, sol.residual_primal, sol.residual_constraint)
        bounds_ok = bounds_ok and sol.bounds_hold
    rep.check("solve", "max_system_residual", worst_res, "solver_residual")
    rep.add("solve", "stability_bounds_hold", float(bounds_ok), None, bounds_ok)

    sol0 = solve_mixed(system, consts)
    zero_norm = float(np.linalg.norm(sol0.U) + np.linalg.norm(sol0.P))
    rep.check("solve", "zero_data_solution_norm", zero_norm, "zero_data_solution")

    sys_1 = assemble_system(sp, cfg.params, None, _seeded_boundary_data(rng))
    sol1 = solve_mixed(sys_1, consts)
    sol2 = solve_mixed(replace(sys_1, F=2.0 * sys_1.F, G=2.0 * sys_1.G), consts)
    dev = float(
        (np.linalg.norm(sol2.U - 2 * sol1.U) + np.linalg.norm(sol2.P - 2 * sol1.P))
        / max(np.linalg.norm(sol1.U) + np.linalg.norm(sol1.P), 1.0)
    )
    rep.check("solve", "linearity_dev", dev, "linearity")


def limit_study_boundary_data() -> BoundaryData:
    """Through-flow with top-face heating; both closure misfits stay visible."""
    return BoundaryData(
        theta_w=np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
        u_n_w=np.array([0.3, -0.3, 0.0, 0.0, 0.0, 0.0]),
    )


def _suite_limit(cfg: RunConfig, rep: VerificationReport, base) -> None:
    # fixed diagnostic configuration: the trend needs the resolution where
    # representative noise of the L2 variables stays below the signal
    sp = build_spaces(2, 2, "full")
    bdata = limit_study_boundary_data()
    results = []
    for kn in (1.0, 0.3, 0.1):
        system = assemble_system(sp, ModelParams(kn, cfg.chi_tilde, 0.1), None, bdata)
        sol = solve_mixed(system)
        res_ns, res_f = limit_consistency(sol.U, sol.P, system)
        results.append((res_ns, res_f))
        rep.add("limit", f"res_NS_kn{kn}", res_ns, None, None)
        rep.add("limit", f"res_Fourier_kn{kn}", res_f, None, None)
    ns_mono = results[0][0] > results[1][0] > results[2][0]
    f_mono = results[0][1] > results[1][1] > results[2][1]
    rep.add("limit", "res_NS_monotone", float(ns_mono), None, ns_mono)
    rep.add("limit", "res_Fourier_monotone", float(f_mono), None, f_mono)


def _suite_bc(cfg: RunConfig, rep: VerificationReport, base) -> None:
    eps = cfg.epsilon_w if cfg.epsilon_w > 0 else 0.1
    sp = build_spaces(cfg.degree, cfg.subdivisions, "full")
    params = ModelParams(cfg.kn, cfg.chi_tilde, eps)
    bdata = limit_study_boundary_data()  # a load that drives every field, so the rows read imposition, not rounding
    system = assemble_system(sp, params, None, bdata)
    sol = solve_mixed(system)
    res = bc_residuals(sol.U, sol.P, sp, params, bdata)
    for name, val in res.items():
        rep.add("bc", f"onsager_{name}", val, None, bool(np.isfinite(val)))


_SUITE_FUNCS = {
    "ellipticity": _suite_ellipticity,
    "korn": _suite_korn,
    "constants": _suite_constants,
    "solve": _suite_solve,
    "limit": _suite_limit,
    "bc": _suite_bc,
}


def run(config: RunConfig) -> VerificationReport:
    """Execute the configured suites and assemble the report.

    Every suite is called as suite(config, report, base). base (`_Base`)
    builds the configured system and its constants once per run on first
    read: the korn suite shares its spaces and operator, the constants and
    the solve suite its constants.
    """
    rep = VerificationReport(config=asdict(config))
    rep.config["suites"] = list(config.suites)
    base = _Base(config)
    for suite in ALL_SUITES:  # fixed dependency order
        if suite not in config.suites:
            continue
        t0 = time.perf_counter()
        _SUITE_FUNCS[suite](config, rep, base)
        rep.timings[suite] = time.perf_counter() - t0
    return rep
