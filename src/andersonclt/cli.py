"""Config-driven experiment runner.

Experiments are declared in JSON files (diffable provenance), dispatched to
the owning module, and reported as a CSV table plus a JSON sidecar carrying
the config echo, wall time, library versions, and pass/fail verdicts.  With
``--assert`` any failed verdict turns into a nonzero exit code.

Exit codes: 0 ok, 1 assertion failure, 2 config error, 3 compute error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__, clt, measures, spectral, walks
from .dists import SiteDistribution, distribution_from_config
from .lattice import enumerate_cube
from .testfuncs import Polynomial, catalog, label_of

__all__ = ["main", "run_experiment", "ExperimentConfig", "RunReport", "ConfigError"]

KINDS = (
    "clt",
    "variance-scan",
    "approx-convergence",
    "moments",
    "nubar",
    "martingale",
    "directional",
    "hf-check",
    "ids",
)

CONFIG_SCHEMA = {
    "kind": f"experiment kind, one of {', '.join(KINDS)}",
    "d": "lattice dimension (>= 1; <= 4 for ids)",
    "L": "cube half-side (>= 0); some kinds use L_grid instead",
    "L_grid": "strictly ascending list of half-sides (variance-scan, ids)",
    "ssd": "site distribution: 'rademacher' or {kind: two_point|uniform|gaussian, ...}",
    "f": (
        "test function: catalog name or {poly: [coefficients]}, lowest degree "
        "first, each an integer or a finite float"
    ),
    "R": "number of replicates",
    "p": "weight order of the modified measure, integer >= 0 (moments, nubar)",
    "k": "moment order; some kinds use k_grid",
    "k_grid": "list of moment orders (moments, nubar)",
    "degrees": "ascending polynomial degrees (approx-convergence)",
    "interval": "[lo, hi] approximation/monotonicity interval, finite lo < hi",
    "scheme": (
        f"approximation scheme, one of {', '.join(clt.APPROX_SCHEMES)} "
        "(approx-convergence; default bernstein)"
    ),
    "norm_replicates": (
        "replicates of the weighted-measure norm estimate, integer >= 2 "
        "(approx-convergence; default 24)"
    ),
    "h": "finite-difference step, finite number > 0 (hf-check; default 1e-4)",
    "count": "number of random test matrices, integer >= 1 (hf-check; default 100)",
    "master_seed": (
        "integer seed; with the seed fixed, every result is a pure function "
        "of the config and is bit-identical for any worker count"
    ),
    "workers": "positive integer, accepted and validated; computation is serial",
    "out": "output directory (default 'results')",
    "assert": "true: exit nonzero when any verdict fails",
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    raw: dict

    def get(self, field, default=None):
        return self.raw.get(field, default)

    def require(self, field):
        if field not in self.raw:
            raise ConfigError(f"{self.kind}: missing required field '{field}'")
        return self.raw[field]

    def positive_int(self, field, default=None, minimum=1):
        value = self.raw.get(field, default)
        if value is None:
            raise ConfigError(f"{self.kind}: missing required field '{field}'")
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise ConfigError(f"{self.kind}: field '{field}' must be an integer >= {minimum}")
        return value

    def int_list(self, field, minimum=0):
        value = self.require(field)
        if (
            not isinstance(value, list)
            or not value
            or not all(type(v) is int and v >= minimum for v in value)
        ):
            raise ConfigError(
                f"{self.kind}: field '{field}' must be a non-empty list of integers >= {minimum}"
            )
        return value

    def interval(self):
        value = self.require("interval")
        ok = isinstance(value, list) and len(value) == 2 and all(map(_finite, value))
        if not (ok and value[0] < value[1]):
            raise ConfigError(f"{self.kind}: field 'interval' must be finite [lo, hi], lo < hi")
        return tuple(value)


def _finite(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _ascending(cfg: ExperimentConfig, field, minimum=0, strict=False):
    """An integer list field that must be ascending (strictly: no repeats)."""
    values = cfg.int_list(field, minimum)
    if values != sorted(set(values) if strict else values):
        order = "strictly ascending" if strict else "ascending"
        raise ConfigError(f"{cfg.kind}: field '{field}' must be {order}")
    return values


@dataclass
class RunReport:
    config: dict
    columns: list
    rows: list
    verdicts: list  # (name, ok, detail)
    wall_time_s: float = 0.0
    numerics: dict = field(default_factory=dict)  # health of the numerics, sidecar only

    @property
    def ok(self) -> bool:
        return all(v[1] for v in self.verdicts)


def _fmt(value) -> str:
    if isinstance(value, np.generic):  # numpy 2 reprs np.float64(x) as such
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_test_function(cfg: ExperimentConfig, field="f"):
    spec = cfg.require(field)
    if isinstance(spec, str):
        cat = catalog()
        if spec not in cat:
            raise ConfigError(
                f"{cfg.kind}: unknown test function {spec!r}; catalog has "
                f"{sorted(cat)} (or use {{'poly': [...]}})"
            )
        return cat[spec]
    if isinstance(spec, dict) and "poly" in spec:
        coeffs = spec["poly"]
        if not isinstance(coeffs, list) or not coeffs or not all(map(_finite, coeffs)):
            raise ConfigError(
                f"{cfg.kind}: 'f.poly' must be a non-empty list of integers or finite floats"
            )
        return Polynomial(tuple(coeffs))
    raise ConfigError(f"{cfg.kind}: field '{field}' must be a catalog name or {{'poly': [...]}}")


def _parse_dist(cfg: ExperimentConfig) -> SiteDistribution:
    try:
        return distribution_from_config(cfg.require("ssd"))
    except ValueError as exc:
        raise ConfigError(f"{cfg.kind}: ssd: {exc}") from exc


def _seed(cfg: ExperimentConfig, override) -> int:
    if override is not None:
        return override
    seed = cfg.get("master_seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"{cfg.kind}: master_seed must be an integer")
    return seed


# ---------------------------------------------------------------------------
# experiment implementations


def _run_clt(cfg, seed):
    d = cfg.positive_int("d")
    L = cfg.positive_int("L", minimum=0)
    R = cfg.positive_int("R", minimum=200)
    dist = _parse_dist(cfg)
    f = _parse_test_function(cfg)
    interval = cfg.interval() if "interval" in cfg.raw else None
    samples = clt.sample_centered_traces(d, L, dist, f, R, seed)
    report = clt.normality_test(samples)
    thresholds = clt.normality_thresholds(R)
    row = {
        "d": d,
        "L": L,
        "f": samples.f_label,
        "ssd": dist.label,
        "R": R,
        "seed": seed,
        "sigma2_hat": report.sigma2_hat,
        "std_error": report.std_error,
        "skewness": report.skewness,
        "excess_kurtosis": report.excess_kurtosis,
        "ks_statistic": report.ks_statistic,
        "degenerate": report.degenerate,
    }
    verdicts = []
    if report.degenerate:
        verdicts.append(("degenerate-case-reported", True, "sigma2_hat == 0"))
    else:
        verdicts.append(
            (
                "skewness",
                abs(report.skewness) <= thresholds["skewness"],
                f"|{report.skewness:.4g}| <= {thresholds['skewness']:.4g}",
            )
        )
        verdicts.append(
            (
                "excess-kurtosis",
                abs(report.excess_kurtosis) <= thresholds["excess_kurtosis"],
                f"|{report.excess_kurtosis:.4g}| <= {thresholds['excess_kurtosis']:.4g}",
            )
        )
        ks_scaled = report.ks_statistic * math.sqrt(R)
        verdicts.append(
            ("ks", ks_scaled <= thresholds["ks_scaled"], f"{ks_scaled:.4g} <= 1.95")
        )
        monotone = getattr(f, "monotone", False)
        if interval is not None and monotone:
            verdict = clt.positivity_check(samples, monotone, interval)
            row["positivity"] = verdict.status
            verdicts.append(
                (
                    "positivity",
                    verdict.status == "positive",
                    f"sigma2={verdict.sigma2_hat:.4g} > 5*SE={verdict.threshold:.4g}",
                )
            )
    numerics = {
        "min_pivot_re": samples.min_pivot_re,
        "spot_check_residual": samples.spot_check_residual,
    }
    return [row], verdicts, numerics


def _run_variance_scan(cfg, seed):
    d = cfg.positive_int("d")
    grid = _ascending(cfg, "L_grid", strict=True)
    R = cfg.positive_int("R", minimum=8)
    dist = _parse_dist(cfg)
    f = _parse_test_function(cfg)
    if not isinstance(f, Polynomial):
        raise ConfigError("variance-scan: f must be a polynomial")
    scan = clt.variance_scan(f, d, dist, grid, R, seed)
    rows = [
        {
            "d": d,
            "L": L,
            "f": label_of(f),
            "ssd": dist.label,
            "R": R,
            "seed": seed,
            "sigma2_hat": rep.sigma2_hat,
            "std_error": rep.std_error,
        }
        for L, rep in zip(scan.levels, scan.reports)
    ]
    return rows, [("stabilized", scan.stabilized, "last two grid points within 3 SE")]


def _run_approx_convergence(cfg, seed):
    d = cfg.positive_int("d")
    L = cfg.positive_int("L", minimum=0)
    R = cfg.positive_int("R", minimum=8)
    degrees = _ascending(cfg, "degrees", minimum=1)
    interval = cfg.interval()
    scheme = cfg.get("scheme", "bernstein")
    if scheme not in clt.APPROX_SCHEMES:
        raise ConfigError(f"approx-convergence: scheme {scheme!r} not in {clt.APPROX_SCHEMES}")
    norm_replicates = cfg.positive_int("norm_replicates", 24, minimum=2)
    dist = _parse_dist(cfg)
    f = _parse_test_function(cfg)
    if isinstance(f, Polynomial):
        raise ConfigError("approx-convergence: f must be a smooth catalog function")
    report = clt.approx_variance_convergence(
        f,
        degrees,
        interval,
        d,
        L,
        dist,
        R,
        seed,
        scheme=scheme,
        norm_replicates=norm_replicates,
    )
    rows = [
        {
            "d": d,
            "L": L,
            "f": f.label,
            "ssd": dist.label,
            "R": R,
            "seed": seed,
            "degree": row.degree,
            "sigma_f": row.sigma_f,
            "sigma_q": row.sigma_q,
            "bound": row.bound,
            "bound_se": row.bound_se,
            "lhs": row.lhs,
            "rhs": row.rhs,
            "ok": row.ok,
        }
        for row in report.rows
    ]
    verdicts = [
        (f"inequality-degree-{row.degree}", row.ok, f"{row.lhs:.4g} <= {row.rhs:.4g}")
        for row in report.rows
    ]
    verdicts.append(("bounds-decreasing", report.bounds_decreasing, "bound column strictly decreasing"))
    return rows, verdicts


def _run_moments(cfg, seed):
    d = cfg.positive_int("d")
    ks = cfg.int_list("k_grid", minimum=0)
    p = cfg.positive_int("p", 1, minimum=0)
    dist = _parse_dist(cfg)
    C, a = dist.growth_constants()
    rows, verdicts = [], []
    moment_table = []
    for k in ks:
        wp = walks.moment_polynomial(d, k)
        mk = walks.dos_moment(wp, dist)
        mbar = walks.modified_moment(wp, dist, p)
        check = walks.moment_bound_check(mbar, k, d, C, a, p)
        rows.append(
            {
                "d": d,
                "k": k,
                "p": p,
                "ssd": dist.label,
                "moment": mk,
                "modified_moment": mbar,
                "bound": check.bound,
                "bound_ratio": check.ratio,
            }
        )
        moment_table.append(mk)
        verdicts.append(
            (f"moment-bound-k{k}", check.ok, f"|{float(mbar):.4g}| <= {check.bound:.4g}")
        )
    carleman = walks.carleman_radius(d, C, a, moment_table)
    verdicts.append(
        (
            "carleman-positive-radius",
            carleman.verdict == "positive-radius",
            f"lower bound {carleman.lower_bound:.6g}",
        )
    )
    return rows, verdicts


def _run_nubar(cfg, seed):
    d = cfg.positive_int("d")
    L = cfg.positive_int("L", minimum=0)
    R = cfg.positive_int("R", minimum=2)
    p = cfg.positive_int("p", 1, minimum=0)
    ks = cfg.int_list("k_grid", minimum=0)
    dist = _parse_dist(cfg)
    rows, verdicts = [], []
    for k in ks:
        est = measures.modified_dos_moment_mc(d, L, dist, p, k, R, seed)
        row = {
            "estimator": "mc",
            "d": d,
            "L": L,
            "p": p,
            "k": k,
            "value": est.value,
            "std_error": est.std_error,
            "seed": seed,
        }
        if dist.is_exact:
            exact = measures.modified_dos_moment_exact(d, L, dist, p, k)
            row["exact"] = exact
            gap = abs(est.value - float(exact))
            tol = 4.0 * est.std_error + 1e-12
            verdicts.append(
                (f"mc-vs-exact-k{k}", gap <= tol, f"|{gap:.4g}| <= {tol:.4g}")
            )
        rows.append(row)
    return rows, verdicts


def _run_martingale(cfg, seed):
    d = cfg.positive_int("d")
    L = cfg.positive_int("L", minimum=0)
    dist = _parse_dist(cfg)
    f = _parse_test_function(cfg)
    cube = enumerate_cube(d, L)
    engine = clt.EnumerationEngine(cube, dist)
    rep = clt.martingale_decomposition(engine, f)
    rows = [
        {
            "d": d,
            "L": L,
            "f": label_of(f),
            "ssd": dist.label,
            "variance": rep.variance,
            "sum_sq_differences": rep.sum_sq_differences,
            "max_cross_term": rep.max_cross_term,
            "identity_residual": rep.identity_residual,
            "exact": rep.exact,
        }
    ]
    verdicts = [
        ("variance-identity", rep.identity_residual <= 1e-10, f"residual {rep.identity_residual:.3g}"),
        ("orthogonality", rep.max_cross_term <= 1e-10, f"max cross {rep.max_cross_term:.3g}"),
        ("pointwise-sum", rep.max_pointwise_residual <= 1e-10, f"residual {rep.max_pointwise_residual:.3g}"),
    ]
    return rows, verdicts


def _run_directional(cfg, seed):
    d = cfg.positive_int("d")
    L = cfg.positive_int("L", minimum=0)
    dist = _parse_dist(cfg)
    f = _parse_test_function(cfg)
    if not isinstance(f, Polynomial):
        raise ConfigError("directional: f must be a polynomial")
    cube = enumerate_cube(d, L)
    engine = clt.EnumerationEngine(cube, dist)
    rep = clt.directional_decomposition(engine, f)
    rows = [
        {
            "d": d,
            "L": L,
            "f": label_of(f),
            "ssd": dist.label,
            "variance": rep.variance,
            "factor": rep.factor,
            "lower_bound": rep.lower_bound,
            "margin": rep.margin,
        }
    ]
    return rows, [("lower-bound", rep.ok, f"margin {float(rep.margin):.4g}")]


def _run_hf_check(cfg, seed):
    count = cfg.positive_int("count", 100)
    h = cfg.get("h", 1e-4)
    if not _finite(h) or h <= 0:
        raise ConfigError("hf-check: field 'h' must be a finite number > 0")
    f = _parse_test_function(cfg)
    gen = np.random.Generator(np.random.Philox(key=[seed, 0x48462D43]))
    rows = []
    worst = 0.0
    for i in range(count):
        n = int(gen.integers(5, 51))
        mat = gen.standard_normal((n, n))
        mat = (mat + mat.T) / 2.0 + np.diag(gen.uniform(-2, 2, n))
        site = int(gen.integers(0, n))
        res = spectral.hellmann_feynman_check(mat, f, site, h)
        rel = res.abs_err / (1.0 + abs(res.formula))
        worst = max(worst, rel)
        rows.append(
            {
                "instance": i,
                "size": n,
                "site": site,
                "formula": res.formula,
                "finite_diff": res.finite_diff,
                "abs_err": res.abs_err,
                "rel_err": rel,
            }
        )
    return rows, [("hellmann-feynman", worst <= 1e-6, f"worst relative error {worst:.3g}")]


def _run_ids(cfg, seed):
    d = cfg.positive_int("d")
    if d > 4:  # coordinate-keyed sampling packs at most 4 coordinates
        raise ConfigError("ids: field 'd' must be <= 4")
    grid = _ascending(cfg, "L_grid", strict=True)
    k = cfg.positive_int("k", minimum=0)
    dist = _parse_dist(cfg)
    rep = measures.ids_moment_convergence(d, dist, k, grid, seed)
    bands = rep.bands()
    rows = [
        {
            "d": d,
            "L": L,
            "k": k,
            "ssd": dist.label,
            "seed": seed,
            "value": v,
            "oracle": rep.oracle,
            "abs_error": e,
            "band": band,
        }
        for L, v, e, band in zip(rep.levels, rep.values, rep.errors, bands)
    ]
    final_ok = rep.errors[-1] <= bands[-1]
    return rows, [
        ("final-within-band", final_ok, f"{rep.errors[-1]:.4g} <= {bands[-1]:.4g}")
    ]


_RUNNERS = {
    "clt": _run_clt,
    "variance-scan": _run_variance_scan,
    "approx-convergence": _run_approx_convergence,
    "moments": _run_moments,
    "nubar": _run_nubar,
    "martingale": _run_martingale,
    "directional": _run_directional,
    "hf-check": _run_hf_check,
    "ids": _run_ids,
}


def run_experiment(config: dict, seed_override=None, workers_override=None) -> RunReport:
    """Validate and execute one experiment config; pure function of its inputs."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    kind = config.get("kind")
    if kind not in KINDS:
        hint = ", ".join(KINDS)
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of: {hint}")
    cfg = ExperimentConfig(kind, config)
    seed = _seed(cfg, seed_override)
    # validated for compatibility only: every run is serial
    workers = workers_override if workers_override is not None else cfg.get("workers", 1)
    if type(workers) is not int or workers < 1:
        raise ConfigError(f"{kind}: workers must be a positive integer")
    start = time.perf_counter()
    # a runner returns (rows, verdicts), or (rows, verdicts, numerics)
    rows, verdicts, *numerics = _RUNNERS[kind](cfg, seed)
    wall = time.perf_counter() - start
    columns = sorted({key for row in rows for key in row})
    echo = dict(config)
    echo["master_seed"] = seed
    return RunReport(echo, columns, rows, verdicts, wall, *numerics)


def write_report(report: RunReport, out_dir: Path, stem: str) -> tuple[Path, Path]:
    """Write the CSV table and the JSON sidecar.

    The CSV carries no timing field, so re-running an identical config yields
    byte-identical CSV output regardless of worker count.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_fmt(row.get(col, "")) for col in report.columns])
    json_path = out_dir / f"{stem}.json"
    sidecar = {
        "config": report.config,
        "verdicts": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in report.verdicts
        ],
        "wall_time_s": report.wall_time_s,
        "numerics": report.numerics,
        "versions": {
            "andersonclt": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "rows": [
            {col: _fmt(row.get(col, "")) for col in report.columns}
            for row in report.rows
        ],
    }
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def _cmd_run(args) -> int:
    path = Path(args.config)
    try:
        config = json.loads(path.read_text())
    except FileNotFoundError:
        print(f"config error: no such file: {path}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: {path}: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(config, args.seed, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # compute error: report and signal distinctly
        print(f"compute error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    out_dir = Path(args.out) if args.out else Path(config.get("out", "results"))
    csv_path, json_path = write_report(report, out_dir, path.stem)
    for name, ok, detail in report.verdicts:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print(f"wrote {csv_path} and {json_path} ({report.wall_time_s:.2f}s)")
    do_assert = args.assert_verdicts or bool(config.get("assert", False))
    if do_assert and not report.ok:
        return 1
    return 0


def _cmd_list_catalog(args) -> int:
    print("test functions:")
    for name, sf in sorted(catalog().items()):
        print(f"  {name}: monotone={sf.monotone}, |f'| <= "
              f"poly{list(sf.growth.coefficients)}")
    print("distributions: two_point(a, b, prob_a), uniform(lo, hi), "
          "gaussian(mean, std); shorthand: rademacher")
    print(f"experiment kinds: {', '.join(KINDS)}")
    return 0


def _cmd_schema(args) -> int:
    print("config schema (JSON object):")
    for field, doc in CONFIG_SCHEMA.items():
        print(f"  {field}: {doc}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="andersonclt",
        description="Config-driven experiments for Anderson-model eigenvalue statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--assert", dest="assert_verdicts", action="store_true",
                       help="exit 1 when any verdict fails")
    run_p.add_argument("--workers", type=int, default=None,
                       help="accepted and validated (positive integer); "
                            "computation is serial")
    run_p.add_argument("--seed", type=int, default=None, help="master seed override")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.set_defaults(handler=_cmd_run)

    cat_p = sub.add_parser("list-catalog", help="list test functions and kinds")
    cat_p.set_defaults(handler=_cmd_list_catalog)

    schema_p = sub.add_parser("print-config-schema", help="print the config schema")
    schema_p.set_defaults(handler=_cmd_schema)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
