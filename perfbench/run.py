"""End-to-end benchmark of the pbspm CLI on seeded synthetic contact streams.

    python3 perfbench/run.py --workload predict-large --seed 0 --seconds 40 --trace 0

Run from the repository root. The workload's input file is generated from
``--seed``; every CLI invocation runs in a fresh child process with
``PYTHONPATH=src`` and the BLAS thread count pinned to the CPUs available,
one child at a time (a closed loop with one client), and every invocation's
outputs are checked. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the CLI once untraced and once with every layer's public
functions wrapped (see traced_cli.py) and reports per-layer metrics. The
last line of standard output is one JSON object; a fuller record, with the
machine context, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import gen
import traced_cli

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMA = SRC / "pbspm" / "schemas" / "report.schema.json"
REFERENCE = BENCH_DIR / "reference.json"

# Set up at least MIN_SETUPS times, and keep going while set-up has used less
# than SETUP_SHARE of the run, so that short set-ups get many samples.
MIN_SETUPS = 3
SETUP_SHARE = 0.2
CHILD_TIMEOUT_S = 150.0

SWEEP_ALPHAS = (0.0, 2.0, 5.0, 10.0)
SWEEP_P_FRESHERS = (0.05, 0.1, 0.2, 0.3)
SWEEP_MS = (1, 2, 4, 8, 16, 41)


def _grid(values) -> str:
    return ",".join(f"{v:g}" for v in values)


@dataclass(frozen=True)
class Workload:
    cli_args: tuple[str, ...]
    methods: tuple[str, ...] = ()  # predict workloads


WORKLOADS = {
    "predict-large": Workload(
        cli_args=("predict", "--method", "PBSPM,SPM,FastPBSPM,CN,Katz", "--alpha", "5",
                  "--p-fresher", "0.1", "--realizations", "2"),
        methods=("PBSPM", "SPM", "FastPBSPM", "CN", "Katz"),
    ),
    "sweep-grid": Workload(
        cli_args=("sweep", "--method", "PBSPM", "--alpha-grid", _grid(SWEEP_ALPHAS),
                  "--p-fresher-grid", _grid(SWEEP_P_FRESHERS), "--m-grid", _grid(SWEEP_MS),
                  "--realizations", "10"),
    ),
    "ingest-coarse": Workload(
        cli_args=("predict", "--method", "CN,AA,RA,SRW"),
        methods=("CN", "AA", "RA", "SRW"),
    ),
}
# The m sweep runs at the CLI defaults alpha=0, p_fresher=0.1.
SWEEP_FULL_KEY = "alpha=0,pf=0.1"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "precision_mean": "ratio",
    "success_rate": "ratio",
}

# Per-layer metrics: self time and calls of traced_cli.LAYERS groups, plus counters.
PER_LAYER = {
    "graph.parse_s": "s",
    "graph.simplify_s": "s",
    "graph.adjacency_s": "s",
    "graph.adjacency_calls": "count",
    "split.split_s": "s",
    "split.split_calls": "count",
    "split.popularity_s": "s",
    "split.popularity_calls": "count",
    "spectral.perturb_s": "s",
    "spectral.eigendecompose_s": "s",
    "spectral.correction_s": "s",
    "spectral.reconstruct_s": "s",
    "spectral.select_m_s": "s",
    "spectral.eigendecompose_calls": "count",
    "spectral.reconstruct_calls": "count",
    "spectral.eigenpairs_computed": "count",
    "spectral.reconstruct_gflop_computed": "GFLOP",
    "baselines.score_s": "s",
    "baselines.max_eigenvalue_s": "s",
    "baselines.max_eigenvalue_calls": "count",
    "evaluation.rank_s": "s",
    "evaluation.rank_calls": "count",
    "evaluation.pairs_ranked": "count",
    "evaluation.precision_s": "s",
    "evaluation.delta_cc_s": "s",
    "evaluation.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    exit_code: int


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_child(cmd: list, env: dict, log: Path) -> Child:
    """Run one child to completion; wall time from spawn to exit, ru_maxrss."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode)


SETUP_CODE = (
    "import os, sys\n"
    "from pbspm.graph import parse_edge_stream, simplify\n"
    "with open(sys.argv[1], 'rb') as fh:\n"
    "    simplify(parse_edge_stream(fh))\n"
    "os._exit(0)\n"
)


class Session:
    """One benchmark run: the generated input, its truth and the checks made."""

    def __init__(self, workload: str, seed: int, work: Path, reference: dict):
        self.workload = WORKLOADS[workload]
        self.work = work
        self.input = work / f"{workload}.tsv"
        rows = gen.contacts(gen.SPECS[workload], seed)
        gen.write_stream(self.input, rows)
        self.truth = check.truth_of(rows)
        self.blas_threads = len(os.sched_getaffinity(0))
        self.env = child_env(self.blas_threads)
        self.reference = reference["precision"].get(workload, {}).get(str(seed))
        self.anchors = reference["anchors"].get(workload, {})
        self.attempted = 0
        self.failures: list[str] = []
        self.precisions = None

    def warm_up(self) -> None:
        """Compile the package's bytecode once, as an installed package has it."""
        run_child([sys.executable, "-c", "import pbspm.cli"], self.env, self.work / "warm.log")

    def setup(self) -> float:
        self.attempted += 1
        child = run_child([sys.executable, "-c", SETUP_CODE, str(self.input)], self.env,
                          self.work / "setup.log")
        if child.exit_code != 0:
            self.failures.append(f"setup exited {child.exit_code}")
        return child.wall_s

    def invoke(self, tag: str, traced_stats: Path | None = None) -> Child:
        """One CLI invocation plus its output check."""
        out = self.work / f"out-{tag}"
        args = [*self.workload.cli_args, "--input", str(self.input), "--out-dir", str(out)]
        if traced_stats is None:
            cmd = [sys.executable, "-m", "pbspm.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(traced_stats), *args]
        self.attempted += 1
        child = run_child(cmd, self.env, self.work / f"{tag}.log")
        if child.exit_code != 0:
            self.failures.append(f"{tag}: exit code {child.exit_code}")
            return child
        try:
            precisions = self.check_outputs(out)
        except (check.CheckError, OSError, ValueError, KeyError, TypeError) as err:
            self.failures.append(f"{tag}: {err}")
            return child
        if self.precisions is None:
            self.precisions = precisions
        elif precisions != self.precisions:
            self.failures.append(f"{tag}: precisions differ from the first invocation")
        shutil.rmtree(out)
        return child

    def check_outputs(self, out: Path) -> dict:
        if self.workload.methods:
            precisions = check.check_report(out, SCHEMA, self.workload.methods, self.truth)
        else:
            precisions = check.check_sweep(out, SWEEP_ALPHAS, SWEEP_P_FRESHERS, SWEEP_MS,
                                           self.truth)
            check.check_truncation_gap(precisions, SWEEP_FULL_KEY, SWEEP_MS)
        check.check_against_reference(precisions, self.reference, self.truth)
        return precisions

    @property
    def precision_mean(self) -> float:
        if not self.precisions:
            return 0.0
        return sum(self.precisions.values()) / len(self.precisions)


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    """Alternate set-ups and CLI invocations until ``seconds`` are spent.

    Alternating spreads both kinds of sample over the whole run. Another
    invocation starts only if the median so far says it ends in time.
    """
    session.warm_up()
    start = time.perf_counter()
    setups: list[float] = []
    runs: list[Child] = []

    def elapsed() -> float:
        return time.perf_counter() - start

    def want_setup() -> bool:
        return len(setups) < MIN_SETUPS or (
            sum(setups) < SETUP_SHARE * seconds and elapsed() < seconds
        )

    def want_run() -> bool:
        return not runs or elapsed() + statistics.median(r.wall_s for r in runs) <= seconds

    while want_setup() or want_run():
        if want_setup():
            setups.append(session.setup())
        if want_run():
            runs.append(session.invoke(f"run{len(runs)}"))
    failed = len(session.failures)
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "precision_mean": session.precision_mean,
        "success_rate": 1.0 - failed / session.attempted,
    }
    extra = {
        "error_rate": failed / session.attempted,
        "wall_s_samples": [r.wall_s for r in runs],
        "setup_s_samples": setups,
        "peak_rss_mb_samples": [r.peak_rss_mb for r in runs],
    }
    return metrics, extra


def measure_layers(session: Session) -> tuple[dict, dict]:
    """One untraced and one traced invocation; per-layer metrics from the traced one."""
    session.warm_up()
    plain = session.invoke("plain")
    stats_path = session.work / "trace.json"
    traced = session.invoke("traced", traced_stats=stats_path)
    stats = json.loads(stats_path.read_text()) if stats_path.is_file() else None
    metrics, absent = layer_metrics(stats)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    anchors = {
        name: {"expected": want, "measured": metrics.get(name)}
        for name, want in session.anchors.items()
    }
    extra = {
        "absent": absent,
        "anchors_match": all(a["expected"] == a["measured"] for a in anchors.values()),
        "anchors": anchors,
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "trace_stats": stats,
    }
    return metrics, extra


# Counters and the traced group whose calls produce them.
COUNTER_SOURCES = {
    "spectral.eigenpairs_computed": "spectral.eigendecompose",
    "spectral.reconstruct_gflop_computed": "spectral.reconstruct",
    "evaluation.pairs_ranked": "evaluation.rank",
}


def layer_metrics(stats: dict | None) -> tuple[dict, list]:
    """PER_LAYER values from traced_cli stats.

    A metric whose functions no longer exist (or a run that left no stats)
    reads zero and is listed as absent, so the output keeps every name.
    """
    metrics, absent = {}, []
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        group, _, kind = name.rpartition("_")
        group = COUNTER_SOURCES.get(name, group)
        module, functions = traced_cli.LAYERS[group]
        if stats is None or all(f"{module}.{fn}" in stats["absent"] for fn in functions):
            absent.append(name)
            metrics[name] = 0
        elif name in COUNTER_SOURCES:
            metrics[name] = stats["counters"].get(name, 0)
        else:
            metrics[name] = stats["self_s" if kind == "s" else "calls"][group]
    return metrics, absent


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pbspm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_context(blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so that run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "pbspm" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"run.py: no pbspm sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    work = BENCH_DIR / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(args.workload, args.seed, work, json.loads(REFERENCE.read_text()))
    if args.trace:
        metrics, extra = measure_layers(session)
        units = PER_LAYER
    else:
        metrics, extra = measure_end_to_end(session, args.seconds)
        units = END_TO_END

    failed = len(session.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": machine_context(session.blas_threads),
        "attempted": session.attempted,
        "failed": failed,
        "failures": session.failures,
        "precisions": session.precisions,
        "reference": "recorded" if session.reference else "absent, chance floor only",
        "metrics": metrics,
        **extra,
    }
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(record, indent=2) + "\n")
    if not failed:
        shutil.rmtree(work)

    for name, unit in units.items():
        print(f"{args.workload:14s} {name:38s} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:14s} {'error_rate':38s} {extra['error_rate']:>14.6g} ratio")
    else:
        print(f"anchors match: {extra['anchors_match']}; absent: {extra['absent'] or 'none'}")
    for reason in session.failures:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
