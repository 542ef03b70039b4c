"""Workload definitions: configs generated from the seed, and output checks.

Each workload is a list of experiment configs that one pass hands to
``andersonclt.cli.run_experiment`` in order.  The configs depend only on the
seed and the size ("full" for measurement, "tiny" for the smoke test).
Checks come in two kinds: cheap ones on every pass, and oracle
recomputations on the first pass only.  Every later pass must be
bit-identical to the first, so the oracle checks extend to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from andersonclt import (
    bernstein_approx,
    catalog,
    enumerate_cube,
    nested_disorder,
    rademacher,
    sample_disorder,
)

import oracles

# pinned relative tolerance of the spot checks against dense eigvalsh,
# relative to sum_k |f(E_k)| over the spectra involved
SPOT_RTOL = 1e-10
# relative tolerance for sigma estimates recomputed from dense spectra
SIGMA_RTOL = 1e-9
# replicate pairs recomputed per pass of a clt config
PAIRS_PER_PASS = 2
# exact-oracles: spectral-measure moments checked by the walk count up to
MAX_ORACLE_MOMENT = 6


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict  # size -> callable(seed) -> list of configs
    layers: frozenset  # layers every pass must call

    def configs(self, seed: int, size: str = "full") -> list:
        return self.sizes[size](seed)


def _clt(d, L, R, seed):
    hull = 2 * d + 1  # spectral hull of Rademacher disorder is [-2d-1, 2d+1]
    return {
        "kind": "clt", "d": d, "L": L, "R": R, "f": "arctan",
        "ssd": "rademacher", "master_seed": seed,
        "interval": [-hull - 0.5, hull + 0.5],
    }


def _ids(L_grid, seed):
    return {"kind": "ids", "d": 2, "k": 4, "L_grid": L_grid,
            "ssd": "rademacher", "master_seed": seed}


def _approx(L, R, norm_replicates, seed):
    return {
        "kind": "approx-convergence", "d": 1, "L": L, "R": R,
        "degrees": [4, 8, 16], "interval": [-3.0, 3.0], "f": "arctan",
        "ssd": "rademacher", "master_seed": seed,
        "norm_replicates": norm_replicates,
    }


def _exact(L_cubic, L, moment_d, k_max, seed):
    return [
        {"kind": "martingale", "d": 1, "L": L_cubic, "f": {"poly": [0, 0, 0, 1]},
         "ssd": "rademacher", "master_seed": seed},
        {"kind": "martingale", "d": 1, "L": L, "f": "arctan",
         "ssd": "rademacher", "master_seed": seed},
        {"kind": "directional", "d": 1, "L": L, "f": {"poly": [0, 1]},
         "ssd": "rademacher", "master_seed": seed},
        {"kind": "moments", "d": moment_d, "k_grid": list(range(k_max + 1)),
         "p": 1, "ssd": "rademacher", "master_seed": seed},
    ]


_SAMPLING = frozenset({
    "cli.run", "lattice.enumerate", "lattice.sample", "lattice.assemble",
    "rng.stream", "spectral.solve", "clt.sample",
})

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clt-chain",
            {"full": lambda s: [_clt(1, 400, 200, s)],
             "tiny": lambda s: [_clt(1, 20, 200, s)]},
            _SAMPLING | {"clt.reduce"},
        ),
        Workload(
            "lattice-d2",
            {"full": lambda s: [_clt(2, 9, 200, s), _ids([8, 12, 16], s)],
             "tiny": lambda s: [_clt(2, 2, 200, s), _ids([2, 3, 4], s)]},
            _SAMPLING | {"clt.reduce", "rng.sites", "walks.expand", "walks.moment"},
        ),
        Workload(
            "weighted-measure",
            {"full": lambda s: [_approx(100, 400, 4, s)],
             "tiny": lambda s: [_approx(6, 40, 2, s)]},
            _SAMPLING | {"testfuncs.approx", "measures.integral", "measures.solve"},
        ),
        Workload(
            "exact-oracles",
            # the exact x^3 table at L=6 alone takes 4 s, too long a pass
            {"full": lambda s: _exact(5, 6, 3, 8, s),
             "tiny": lambda s: _exact(2, 2, 1, 6, s)},
            frozenset({"cli.run", "lattice.enumerate", "clt.enum_table",
                       "clt.enum_condexp", "clt.decompose", "walks.expand",
                       "walks.moment"}),
        ),
    )
}


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Counts checks attempted and failed, keeping the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.normality_rejections = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok


def _close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


def check_verdicts(checker: Checker, cfg: dict, report, samples) -> None:
    """Every CLI verdict must hold, except the three normality tests.

    The normality verdicts are 3-sigma tests that reject about one pass in a
    hundred on exactly normal data, so a rejection is a property of the seed,
    not a fault.  For them the check is that the CLI computed the verdict
    correctly: statistics recomputed from the pass's samples must match the
    reported ones and give the same verdict.
    """
    stats = None
    row = report.rows[0]
    for name, ok, detail in report.verdicts:
        if name not in oracles.NORMALITY_THRESHOLDS:
            checker.check(f"{cfg['kind']}:{name}", bool(ok), detail)
            continue
        if stats is None:
            stats = oracles.normality_statistics(samples.values)
        reported = {"skewness": row["skewness"],
                    "excess-kurtosis": row["excess_kurtosis"],
                    "ks": row["ks_statistic"] * math.sqrt(cfg["R"])}[name]
        mine = stats[name]
        limit = oracles.NORMALITY_THRESHOLDS[name](cfg["R"])
        checker.check(
            f"{cfg['kind']}:{name}-recomputed",
            _close(reported, mine, 1e-8, 1e-12) and bool(ok) == (abs(mine) <= limit),
            f"reported {reported!r}, recomputed {mine!r}, limit {limit!r}, ok={ok}",
        )
        if not ok:
            checker.normality_rejections += 1


def _replicate_trace(cfg, cube, dist, adj, r):
    field = sample_disorder(dist, cube, cfg["master_seed"], r)
    f_vals = np.arctan(oracles.dense_spectrum(adj, field.values))
    return float(np.sum(f_vals)), float(np.sum(np.abs(f_vals)))


class RunChecks:
    """Per-run check state: the oracle inputs are built once per config."""

    def __init__(self, configs):
        self.configs = configs
        self.dist = rademacher()
        self._cubes = {}

    def _cube_and_adjacency(self, d, L):
        if (d, L) not in self._cubes:
            cube = enumerate_cube(d, L)
            self._cubes[(d, L)] = (cube, oracles.adjacency(cube.sites))
        return self._cubes[(d, L)]

    def every_pass(self, checker: Checker, pass_index: int, outputs) -> None:
        for cfg, (report, samples) in zip(self.configs, outputs):
            if cfg["ssd"] != "rademacher":
                raise ValueError("the oracles assume Rademacher disorder")
            check_verdicts(checker, cfg, report, samples[0] if samples else None)
            kind = cfg["kind"]
            if kind == "clt":
                self._clt_pairs(checker, pass_index, cfg, report, samples[0])
            elif kind == "approx-convergence":
                for row in report.rows:
                    checker.check(
                        "approx-convergence:row-consistent",
                        row["lhs"] == abs(row["sigma_q"] - row["sigma_f"])
                        and row["ok"] == (row["lhs"] <= row["rhs"]),
                        repr(row),
                    )
            elif kind == "martingale" and isinstance(cfg["f"], dict):
                row = report.rows[0]
                checker.check(
                    "martingale:exact-identities",
                    row["exact"] and isinstance(row["variance"], Fraction)
                    and row["variance"] - row["sum_sq_differences"] == 0
                    and row["max_cross_term"] == 0.0
                    and row["identity_residual"] == 0.0,
                    repr(row),
                )

    def _clt_pairs(self, checker, pass_index, cfg, report, samples):
        cube, adj = self._cube_and_adjacency(cfg["d"], cfg["L"])
        x = samples.values
        r = len(x)
        checker.check(
            "clt:sigma2-recomputed",
            _close(report.rows[0]["sigma2_hat"], float(np.sum(x * x)) / (r - 1), 1e-12),
            repr(report.rows[0]["sigma2_hat"]),
        )
        picks = np.random.default_rng([cfg["master_seed"], pass_index]).choice(
            r, size=2 * PAIRS_PER_PASS, replace=False
        )
        scale = math.sqrt(len(cube))
        for a, b in picks.reshape(-1, 2):
            ta, sa = _replicate_trace(cfg, cube, self.dist, adj, int(a))
            tb, sb = _replicate_trace(cfg, cube, self.dist, adj, int(b))
            want = (ta - tb) / scale
            got = float(x[a] - x[b])
            checker.check(
                "clt:pair-vs-dense-eigvalsh",
                abs(want - got) <= SPOT_RTOL * (sa + sb) / scale,
                f"replicates ({a}, {b}): pass {got!r}, oracle {want!r}",
            )

    def first_pass(self, checker: Checker, outputs) -> None:
        for cfg, (report, _) in zip(self.configs, outputs):
            kind = cfg["kind"]
            if kind == "ids":
                self._ids_oracle(checker, cfg, report)
            elif kind == "approx-convergence":
                self._approx_oracle(checker, cfg, report)
            elif kind == "martingale":
                self._martingale_oracle(checker, cfg, report)
            elif kind == "directional":
                row = report.rows[0]
                n = (2 * cfg["L"] + 1) ** cfg["d"]
                # Var(sum_i v_i) = N Var(v) = N for Rademacher disorder
                checker.check("directional:variance-exact", row["variance"] == n, repr(row))
            elif kind == "moments":
                self._moments_oracle(checker, cfg, report)

    def _ids_oracle(self, checker, cfg, report):
        L = cfg["L_grid"][0]
        cube, adj = self._cube_and_adjacency(cfg["d"], L)
        field = nested_disorder(self.dist, cube, cfg["master_seed"])
        evals = oracles.dense_spectrum(adj, field.values)
        want = float(np.mean(evals ** cfg["k"]))
        got = report.rows[0]["value"]
        checker.check("ids:value-vs-dense-eigvalsh", _close(got, want, SPOT_RTOL, 1.0),
                      f"L={L}: pass {got!r}, oracle {want!r}")

    def _approx_oracle(self, checker, cfg, report):
        cube, adj = self._cube_and_adjacency(cfg["d"], cfg["L"])
        f = catalog()[cfg["f"]]
        prims = [bernstein_approx(f.fprime, tuple(cfg["interval"]), k)
                 .antiderivative().as_floats() for k in cfg["degrees"]]
        traces = np.empty((cfg["R"], 1 + len(prims)))
        for r in range(cfg["R"]):
            field = sample_disorder(self.dist, cube, cfg["master_seed"], r)
            evals = oracles.dense_spectrum(adj, field.values)
            traces[r, 0] = np.sum(np.arctan(evals))
            for j, q in enumerate(prims):
                traces[r, 1 + j] = np.sum(q(evals))
        centered = (traces - traces.mean(axis=0)) / math.sqrt(len(cube))
        sigmas = np.sqrt(np.sum(centered**2, axis=0) / (cfg["R"] - 1))
        for j, row in enumerate(report.rows):
            checker.check(
                "approx-convergence:sigmas-vs-dense-eigvalsh",
                _close(row["sigma_f"], sigmas[0], SIGMA_RTOL)
                and _close(row["sigma_q"], sigmas[1 + j], SIGMA_RTOL),
                f"degree {row['degree']}: pass ({row['sigma_f']!r}, {row['sigma_q']!r}), "
                f"oracle ({sigmas[0]!r}, {sigmas[1 + j]!r})",
            )

    def _martingale_oracle(self, checker, cfg, report):
        cube, _ = self._cube_and_adjacency(cfg["d"], cfg["L"])
        row = report.rows[0]
        if isinstance(cfg["f"], dict):  # the monomial x^power
            power = len(cfg["f"]["poly"]) - 1
            want = oracles.exact_trace_power_variance(cube.sites, power)
            checker.check("martingale:variance-vs-enumeration", row["variance"] == want,
                          f"pass {row['variance']}, oracle {want}")
        else:
            want = oracles.float_trace_variance(cube.sites, np.arctan)
            checker.check("martingale:variance-vs-dense-eigvalsh",
                          _close(float(row["variance"]), want, SIGMA_RTOL),
                          f"pass {row['variance']!r}, oracle {want!r}")

    def _moments_oracle(self, checker, cfg, report):
        for row in report.rows:
            k = row["k"]
            if k > MAX_ORACLE_MOMENT:
                continue
            want = oracles.rademacher_dos_moment(cfg["d"], k)
            checker.check("moments:dos-moment-vs-walk-count", row["moment"] == want,
                          f"k={k}: pass {row['moment']}, oracle {want}")
