"""Set-up probe, run in a fresh interpreter: import andersonclt and validate configs.

Reads the workload's configs as a JSON list on stdin.  This is the work every
``andersonclt run`` pays before it computes anything; the benchmark times the
whole interpreter, from spawn to exit.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from andersonclt import Polynomial, catalog, cli  # noqa: E402
from andersonclt.dists import distribution_from_config  # noqa: E402


def validate(raw: dict) -> None:
    if raw.get("kind") not in cli.KINDS:
        raise cli.ConfigError(f"unknown experiment kind {raw.get('kind')!r}")
    cfg = cli.ExperimentConfig(raw["kind"], raw)
    cfg.positive_int("d")
    distribution_from_config(cfg.require("ssd"))
    spec = raw.get("f")
    if isinstance(spec, str):
        catalog()[spec]
    elif spec is not None:
        Polynomial(tuple(spec["poly"]))


if __name__ == "__main__":
    for raw in json.load(sys.stdin):
        validate(raw)
