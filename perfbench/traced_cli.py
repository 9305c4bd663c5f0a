"""Run the pbspm CLI with every layer's public functions timed from outside.

    python3 perfbench/traced_cli.py STATS_JSON CLI_ARG...

Each public function named in ``LAYERS`` is replaced, in every pbspm module
that holds a reference to it, by a wrapper that records calls and self time
(its own time minus that of wrapped functions it calls). Nothing inside the
package changes. A name that no longer exists is listed as absent in
STATS_JSON instead of failing the run. The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

MODULES = ("graph", "split", "spectral", "baselines", "evaluation", "cli")

# group -> (module, public functions whose self time and calls it sums)
LAYERS = {
    "graph.parse": ("graph", ("parse_edge_stream",)),
    "graph.simplify": ("graph", ("simplify",)),
    "graph.adjacency": ("graph", ("adjacency",)),
    "split.split": ("split", ("split_train_probe",)),
    "split.popularity": ("split", ("popularity",)),
    "spectral.perturb": ("spectral", ("sample_perturbation",)),
    "spectral.eigendecompose": ("spectral", ("eigendecompose",)),
    "spectral.correction": ("spectral", ("eigenvalue_correction",)),
    "spectral.reconstruct": ("spectral", ("spm_scores", "pbspm_scores", "truncated_scores")),
    "spectral.select_m": ("spectral", ("select_m",)),
    "baselines.score": (
        "baselines", ("cn_scores", "aa_scores", "ra_scores", "katz_scores", "srw_scores")
    ),
    "baselines.max_eigenvalue": ("baselines", ("max_eigenvalue",)),
    "evaluation.rank": ("evaluation", ("rank_candidates",)),
    "evaluation.precision": ("evaluation", ("precision_at",)),
    "evaluation.delta_cc": ("evaluation", ("delta_cc", "pearson_cc")),
    "evaluation.self": ("evaluation", ("run_experiment", "sweep", "sweep_m")),
    "cli.self": ("cli", ("main", "cmd_predict", "cmd_sweep", "cmd_spectrum", "cmd_diagnose")),
}


def _eigenpairs(bound, result) -> dict:
    return {"spectral.eigenpairs_computed": len(result.eigenvalues)}


def _reconstruct_gflop(bound, result) -> dict:
    # 2 n^2 k flops for an n x k times k x n product.
    vectors = bound.arguments["model"].eigenvectors
    k = bound.arguments.get("m", vectors.shape[1])
    return {"spectral.reconstruct_gflop_computed": 2.0 * vectors.shape[0] ** 2 * k / 1e9}


def _pairs_ranked(bound, result) -> dict:
    return {"evaluation.pairs_ranked": len(result)}


# Extra counters read off a call's arguments and result. A counter whose
# inputs changed shape is counted in "counter_errors", never raised.
COUNTERS = {
    "eigendecompose": _eigenpairs,
    "spm_scores": _reconstruct_gflop,
    "pbspm_scores": _reconstruct_gflop,
    "truncated_scores": _reconstruct_gflop,
    "rank_candidates": _pairs_ranked,
}


class Tracer:
    """Self time and call counts per layer group, kept in memory."""

    def __init__(self):
        self.self_s = {group: 0.0 for group in LAYERS}
        self.calls = {group: 0 for group in LAYERS}
        self.counters: dict[str, float] = {}
        self.counter_errors = 0
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def wrap(self, group: str, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[0]
                self._stack.pop()
                self.self_s[group] += elapsed - frame[1]
                self.calls[group] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
            if counter is not None:
                self._count(counter, signature, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, counter, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            increments = counter(bound, result)
        except (AttributeError, KeyError, TypeError, IndexError):
            self.counter_errors += 1
            return
        for key, value in increments.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def install(self) -> None:
        """Wrap every listed function at every pbspm module that refers to it."""
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"pbspm.{short}")
            except ImportError:
                pass
        holders = [m for key, m in sys.modules.items() if key == "pbspm" or key.startswith("pbspm.")]
        for group, (short, names) in LAYERS.items():
            for name in names:
                fn = getattr(modules.get(short), name, None)
                if not callable(fn):
                    self.absent.append(f"{short}.{name}")
                    continue
                wrapper = self.wrap(group, name, fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)

    def stats(self) -> dict:
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "counters": self.counters,
            "counter_errors": self.counter_errors,
            "absent": self.absent,
        }


def main(argv: list[str]) -> int:
    stats_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("pbspm.cli")
    try:
        code = cli.main(cli_args)
    finally:
        stats_path.write_text(json.dumps(tracer.stats(), indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
