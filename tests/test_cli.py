import csv
import json

import pytest

from andersonclt.cli import CONFIG_SCHEMA, KINDS, ConfigError, main, run_experiment


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_moments_kind_matches_oracle(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "moments.json",
        {
            "kind": "moments",
            "d": 1,
            "k_grid": [0, 1, 2, 3, 4],
            "ssd": "rademacher",
            "out": str(tmp_path / "results"),
        },
    )
    assert main(["run", str(cfg), "--assert"]) == 0
    csv_text = (tmp_path / "results" / "moments.csv").read_text()
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    moments = {int(r["k"]): r["moment"] for r in rows}
    assert moments[0] == "1" and moments[1] == "0" and moments[2] == "3"
    modified = {int(r["k"]): r["modified_moment"] for r in rows}
    assert modified[2] == "7/3"


def test_invalid_ssd_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "kind": "moments",
            "d": 1,
            "k_grid": [0],
            "ssd": {"kind": "gaussian", "mean": 0, "std": 0},
        },
    )
    assert main(["run", str(cfg)]) == 2
    assert not (tmp_path / "results").exists()  # no compute, no output
    assert "ssd" in capsys.readouterr().err


def test_unknown_kind_lists_alternatives():
    with pytest.raises(ConfigError, match="martingale"):
        run_experiment({"kind": "nope"})


def test_missing_field_has_path():
    with pytest.raises(ConfigError, match="k_grid"):
        run_experiment({"kind": "moments", "d": 1, "ssd": "rademacher"})


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


def test_clt_kind_small_run(tmp_path):
    cfg = write_config(
        tmp_path,
        "clt.json",
        {
            "kind": "clt",
            "d": 1,
            "L": 40,
            "R": 400,
            "f": "arctan",
            "ssd": "rademacher",
            "master_seed": 4,
            "interval": [-3.5, 3.5],
            "out": str(tmp_path / "results"),
        },
    )
    assert main(["run", str(cfg), "--assert"]) == 0
    sidecar = json.loads((tmp_path / "results" / "clt.json").read_text())
    names = {v["name"] for v in sidecar["verdicts"]}
    assert {"skewness", "excess-kurtosis", "ks", "positivity"} <= names
    assert all(v["ok"] for v in sidecar["verdicts"])
    assert "wall_time_s" in sidecar and "versions" in sidecar
    # the chain kernel's health goes to the sidecar, never to the CSV
    numerics = sidecar["numerics"]
    assert numerics["min_pivot_re"] >= 1.0 - 1e-12
    assert 0.0 <= numerics["spot_check_residual"] <= 1e-12
    header = (tmp_path / "results" / "clt.csv").read_text().splitlines()[0]
    assert header.split(",") == [
        "L", "R", "d", "degenerate", "excess_kurtosis", "f", "ks_statistic",
        "positivity", "seed", "sigma2_hat", "skewness", "ssd", "std_error",
    ]


def test_degenerate_clt_reports_branch(tmp_path):
    cfg = write_config(
        tmp_path,
        "degenerate.json",
        {
            "kind": "clt",
            "d": 1,
            "L": 20,
            "R": 200,
            "f": {"poly": [0, 0, 1]},
            "ssd": "rademacher",
            "out": str(tmp_path / "results"),
        },
    )
    assert main(["run", str(cfg), "--assert"]) == 0
    sidecar = json.loads((tmp_path / "results" / "degenerate.json").read_text())
    assert sidecar["verdicts"][0]["name"] == "degenerate-case-reported"
    assert sidecar["numerics"] == {"min_pivot_re": None, "spot_check_residual": None}


def test_martingale_and_directional_kinds(tmp_path):
    cases = (
        ("martingale", "martingale", {"f": "arctan"}),
        ("directional", "directional", {"f": {"poly": [0, 1]}}),
        ("directional-float", "directional", {"f": {"poly": [0, 1.5]}}),
    )
    for stem, kind, extra in cases:
        payload = {
            "kind": kind,
            "d": 1,
            "L": 2,
            "ssd": "rademacher",
            "out": str(tmp_path / "results"),
            **extra,
        }
        cfg = write_config(tmp_path, f"{stem}.json", payload)
        assert main(["run", str(cfg), "--assert"]) == 0
        # float-path values are numpy scalars: each cell must hold the plain
        # float text, which reads back to the same value
        with open(tmp_path / "results" / f"{stem}.csv", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        sidecar = json.loads((tmp_path / "results" / f"{stem}.json").read_text())
        rows = run_experiment(payload).rows
        assert len(csv_rows) == len(sidecar["rows"]) == len(rows)
        for csv_row, json_row, row in zip(csv_rows, sidecar["rows"], rows):
            for col, value in row.items():
                for cell in (csv_row[col], json_row[col]):
                    assert "np." not in cell
                    if isinstance(value, float):
                        assert float(cell) == value


def test_csv_bytes_identical_across_workers_and_reruns(tmp_path):
    base = {
        "kind": "nubar",
        "d": 1,
        "L": 5,
        "R": 12,
        "p": 1,
        "k_grid": [0, 2],
        "ssd": "rademacher",
        "master_seed": 10,
    }
    outputs = []
    for tag, workers in (("a", 1), ("b", 4), ("c", 1)):
        cfg = write_config(tmp_path, f"det-{tag}.json", {**base, "out": str(tmp_path / tag)})
        assert main(["run", str(cfg), "--workers", str(workers)]) == 0
        outputs.append((tmp_path / tag / f"det-{tag}.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_seed_override_changes_results(tmp_path):
    base = {
        "kind": "nubar",
        "d": 1,
        "L": 4,
        "R": 8,
        "p": 1,
        "k_grid": [2],
        "ssd": "rademacher",
        "master_seed": 1,
    }
    cfg = write_config(tmp_path, "seeded.json", {**base, "out": str(tmp_path / "r")})
    assert main(["run", str(cfg)]) == 0
    first = (tmp_path / "r" / "seeded.csv").read_text()
    assert main(["run", str(cfg), "--seed", "2"]) == 0
    second = (tmp_path / "r" / "seeded.csv").read_text()
    assert first != second


def test_hf_check_kind(tmp_path):
    cfg = write_config(
        tmp_path,
        "hf.json",
        {
            "kind": "hf-check",
            "count": 10,
            "f": "arctan",
            "master_seed": 3,
            "out": str(tmp_path / "results"),
        },
    )
    assert main(["run", str(cfg), "--assert"]) == 0


def test_ids_kind(tmp_path):
    cfg = write_config(
        tmp_path,
        "ids.json",
        {
            "kind": "ids",
            "d": 1,
            "k": 2,
            "L_grid": [8, 16, 32],
            "ssd": "rademacher",
            "master_seed": 5,
            "out": str(tmp_path / "results"),
        },
    )
    assert main(["run", str(cfg), "--assert"]) == 0


def test_variance_scan_kind(tmp_path):
    cfg = write_config(
        tmp_path,
        "scan.json",
        {
            "kind": "variance-scan",
            "d": 1,
            "L_grid": [20, 40],
            "R": 200,
            "f": {"poly": [0, 1]},
            "ssd": "rademacher",
            "master_seed": 6,
            "out": str(tmp_path / "results"),
        },
    )
    assert main(["run", str(cfg), "--assert"]) == 0


def test_list_catalog_and_schema(capsys):
    assert main(["list-catalog"]) == 0
    out = capsys.readouterr().out
    assert "arctan" in out and "monotone=True" in out
    assert main(["print-config-schema"]) == 0
    out = capsys.readouterr().out
    assert "master_seed" in out and "bit-identical" in out


def test_assert_flag_propagates_failure(tmp_path):
    # an ids run whose final point cannot sit inside a zero-width band:
    # force failure by requesting a huge moment order on a tiny grid
    cfg = write_config(
        tmp_path,
        "fail.json",
        {
            "kind": "clt",
            "d": 1,
            "L": 2,
            "R": 250,
            "f": "arctan",
            "ssd": "rademacher",
            "master_seed": 0,
            "out": str(tmp_path / "results"),
        },
    )
    rc = main(["run", str(cfg), "--assert"])
    assert rc in (0, 1)  # tiny-volume normality may legitimately fail
    sidecar = json.loads((tmp_path / "results" / "fail.json").read_text())
    assert (rc == 1) == (not all(v["ok"] for v in sidecar["verdicts"]))


def test_compute_error_exits_three(tmp_path, capsys):
    # valid config whose enumeration exceeds the engine budget at compute time
    cfg = write_config(
        tmp_path,
        "big.json",
        {"kind": "martingale", "d": 1, "L": 12, "f": "arctan", "ssd": "rademacher"},
    )
    assert main(["run", str(cfg)]) == 3
    assert "compute error" in capsys.readouterr().err


_SMALL = {
    "moments": {"kind": "moments", "d": 1, "k_grid": [0, 2], "ssd": "rademacher"},
    "nubar": {"kind": "nubar", "d": 1, "L": 1, "R": 2, "k_grid": [2], "ssd": "rademacher"},
    "approx-convergence": {
        "kind": "approx-convergence", "d": 1, "L": 2, "R": 8, "degrees": [2],
        "interval": [-3.0, 3.0], "f": "arctan", "ssd": "rademacher", "norm_replicates": 2,
    },
    "clt": {"kind": "clt", "d": 1, "L": 1, "R": 200, "f": "arctan", "ssd": "rademacher"},
    "hf-check": {"kind": "hf-check", "count": 2, "f": "arctan"},
    "variance-scan": {
        "kind": "variance-scan", "d": 1, "L_grid": [1, 2], "R": 8, "f": {"poly": [0, 1]},
        "ssd": "rademacher",
    },
    "ids": {"kind": "ids", "d": 1, "k": 2, "L_grid": [1, 2], "ssd": "rademacher"},
    "martingale": {
        "kind": "martingale", "d": 1, "L": 1, "f": {"poly": [0, 1]}, "ssd": "rademacher",
    },
    "directional": {
        "kind": "directional", "d": 1, "L": 1, "f": {"poly": [0, 1]}, "ssd": "rademacher",
    },
}


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("moments", "p", -1),
        ("moments", "p", 1.5),
        ("nubar", "p", -1),
        ("approx-convergence", "norm_replicates", 1),
        ("approx-convergence", "norm_replicates", "24"),
        ("approx-convergence", "interval", [3.0, -3.0]),
        ("approx-convergence", "interval", [-3.0, float("inf")]),
        ("clt", "interval", [-3.5]),
        ("hf-check", "h", 0.0),
        ("hf-check", "h", float("nan")),
        ("hf-check", "count", 0),
        ("moments", "workers", True),
        ("clt", "f", {"poly": ["a", 1]}),
        ("clt", "f", {"poly": [0, True]}),
        ("clt", "f", {"poly": [0, float("nan")]}),
        ("variance-scan", "L_grid", [True, 3]),
        ("moments", "k_grid", [True, 2]),
        ("variance-scan", "L_grid", [3, 1]),
        ("ids", "L_grid", [2, 2]),
        ("approx-convergence", "degrees", [4, 2]),
        ("ids", "d", 5),
    ],
)
def test_invalid_field_is_config_error(kind, field, value):
    with pytest.raises(ConfigError, match=field):
        run_experiment({**_SMALL[kind], field: value})


class _RecordingConfig(dict):
    """A config that records every key the runner reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


@pytest.mark.parametrize("kind", KINDS)
def test_every_field_read_is_in_schema(kind):
    config = _RecordingConfig(_SMALL[kind])
    run_experiment(config)
    assert "kind" in config.read
    assert config.read <= set(CONFIG_SCHEMA), config.read - set(CONFIG_SCHEMA)


def test_unknown_scheme_exits_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "typo.json", {**_SMALL["approx-convergence"], "scheme": "bernstien"}
    )
    assert main(["run", str(cfg)]) == 2
    assert "bernstien" in capsys.readouterr().err
