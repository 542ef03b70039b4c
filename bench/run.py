"""Benchmark of the andersonclt simulator, driven from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from the root of a source checkout: the package is imported from
``src/`` and nothing is installed.  Workloads and their reasons are listed in
``BENCHMARK.json``; their configs are generated from ``--seed`` in
``workloads.py`` and are all the program receives.

Every workload is a closed loop with one client: a pass hands each config of
the workload to ``andersonclt.cli.run_experiment`` in turn, and the next pass
starts only after the previous one has returned.  Passes repeat while the
next one is expected to end within ``--seconds``.  BLAS threads are capped at
the number of usable cores.

With ``--trace 0`` the result holds the end-to-end metrics: median wall and
CPU seconds per pass, median fresh-interpreter set-up time, peak RSS of this
process, and the share of checks that passed.  With ``--trace 1`` passes
alternate between untraced and traced (see ``tracer.py``), and the result
holds the per-layer metrics of the traced passes, the CPU/wall ratio and the
tracing overhead.  One more traced pass at seed + 1 checks that the exact
counts do not depend on the seed.

Every pass is checked (``workloads.py``): CLI verdicts, spot checks against
independent oracles (``oracles.py``) and bit-identity with the first pass.
The line before the last is a detail record (machine, quartiles, sample
counts, failures); the last line is the result.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # fresh interpreters timed per run
MIN_PASSES = 3  # untraced passes (and as many traced ones with --trace 1)
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_fraction": "fraction",
}


def _canon(value) -> str:
    if isinstance(value, float):  # numpy float64 included
        return float(value).hex()
    return repr(value)


def fingerprint(outputs) -> str:
    """Hash of everything a pass returned, bit for bit."""
    digest = hashlib.sha256()
    for report, samples in outputs:
        table = [[_canon(row.get(col)) for col in report.columns] for row in report.rows]
        digest.update(repr((report.columns, table, report.verdicts)).encode())
        for sample_set in samples:
            digest.update(sample_set.values.tobytes())
    return digest.hexdigest()


class SampleTap:
    """Keeps what ``clt.sample_centered_traces`` returns, so that checks can
    see the per-replicate statistic the CLI reduces to a table row."""

    def __init__(self, clt_module):
        self.module = clt_module
        self.taken = []

    def __enter__(self):
        self.original = self.module.sample_centered_traces

        def tapped(*args, **kwargs):
            result = self.original(*args, **kwargs)
            self.taken.append(result)
            return result

        self.module.sample_centered_traces = tapped
        return self

    def __exit__(self, *exc):
        self.module.sample_centered_traces = self.original
        return False

    def take(self):
        taken, self.taken = self.taken, []
        return taken


def run_pass(cli, configs, tap, traced=False):
    """One pass over the configs: wall and CPU seconds, outputs, error, tracer."""
    spans = tracer.Tracer() if traced else None
    outputs, error = [], None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if spans is not None:
            spans.__enter__()
        for cfg in configs:
            outputs.append((cli.run_experiment(cfg), tap.take()))
    except Exception as exc:  # a failed pass is counted, and the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if spans is not None:
            spans.__exit__(None, None, None)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    tap.take()
    return {"wall": wall, "cpu": cpu, "outputs": outputs, "error": error, "tracer": spans}


def measure_setup(configs, repeats):
    """Wall seconds of fresh interpreters that import andersonclt and validate."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_child.py"))]
    payload = json.dumps(configs).encode()
    times, errors = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(cmd, input=payload, capture_output=True, cwd=ROOT, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            errors.append(proc.stderr.decode(errors="replace").strip().splitlines()[-1:])
        else:
            times.append(elapsed)
    return times, errors


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    llc = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in sorted(cache_dir.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            levels.append((level, size))
    if levels:
        llc = max(levels)[1]
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu_model,
        "llc": llc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def summary(values) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "andersonclt" / "__init__.py").is_file():
        print(f"no andersonclt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import andersonclt
    from andersonclt import cli, clt

    if not Path(andersonclt.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"andersonclt was imported from {andersonclt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    configs = workload.configs(args.seed, args.size)
    checker = workloads.Checker()

    setup_times, setup_errors = measure_setup(configs, SETUP_REPEATS)
    if setup_errors:
        print(f"set-up probe failed: {setup_errors}", file=sys.stderr)
        return 1

    passes = []
    with SampleTap(clt) as tap:
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(cli, configs, tap, traced))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["wall"] for p in passes)
            if len(passes) >= MIN_PASSES * (1 + args.trace) and elapsed + typical > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            other_seed = run_pass(cli, workload.configs(args.seed + 1, args.size), tap,
                                  traced=True)

    run_checks = workloads.RunChecks(configs)
    reference = None
    for index, p in enumerate(passes):
        if not checker.check("pass-completed", p["error"] is None, str(p["error"])):
            continue
        run_checks.every_pass(checker, index, p["outputs"])
        digest = fingerprint(p["outputs"])
        if reference is None:
            reference = digest
            run_checks.first_pass(checker, p["outputs"])
        else:
            checker.check("pass-bit-identical", digest == reference, f"pass {index}")

    plain = [p for p in passes if p["tracer"] is None]
    walls = [p["wall"] for p in plain]
    cpus = [p["cpu"] for p in plain]
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "machine": machine_info(),
        "wall_s": summary(walls), "cpu_s": summary(cpus),
        "setup_s": summary(setup_times), "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        traced = [p for p in passes if p["tracer"] is not None]
        t_walls = [p["wall"] for p in traced]
        metrics, missing = trace_metrics(workload, traced, other_seed, checker)
        metrics["proc.cpu_per_wall"] = statistics.median(cpus) / statistics.median(walls)
        metrics["trace.overhead_frac"] = statistics.median(t_walls) / statistics.median(walls) - 1
        units = {name: spec[0] for name, spec in tracer.LAYER_METRICS.items()}
        units.update({"proc.cpu_per_wall": "ratio", "trace.overhead_frac": "ratio"})
        detail.update({"traced_wall_s": summary(t_walls), "missing_layers": sorted(missing)})
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "pass_fraction": (checker.attempted - checker.failed) / checker.attempted,
        }
        units = END_TO_END_UNITS

    detail.update({
        "checks_attempted": checker.attempted,
        "failed_fraction": checker.failed / checker.attempted,
        "normality_rejections": checker.normality_rejections,
        "failures": checker.failures[:20],
    })
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def trace_metrics(workload, traced, other_seed, checker):
    """Median per-layer metrics of the traced passes, and the missing layers.

    The pass at the other seed only takes part in the exact-count check.
    """
    checker.check("other-seed-pass-completed", other_seed["error"] is None,
                  str(other_seed["error"]))
    missing = set()
    per_pass = []
    for p in traced + [other_seed]:
        missing |= p["tracer"].missing_layers
        if p["error"] is None:
            missing |= workload.layers - tracer.called_layers(p["tracer"].spans)
            per_pass.append(tracer.pass_metrics(p["tracer"].spans))
    for layer in sorted(missing):
        checker.check("trace:layer-present", False, f"{layer} missing or never called")
    kept = [name for name, spec in tracer.LAYER_METRICS.items() if spec[1] not in missing]
    for name in tracer.EXACT_COUNTS:
        values = {m[name] for m in per_pass} if name in kept else set()
        checker.check(f"trace:{name}-repeats", len(values) <= 1,
                      f"differs across passes and seeds: {sorted(values)}")
    if other_seed["error"] is None:
        per_pass.pop()
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in kept if per_pass}
    return metrics, missing


if __name__ == "__main__":
    sys.exit(main())
