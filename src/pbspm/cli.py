"""Command line front end: experiments in, CSV/JSON tables out.

Subcommands:
    predict   precision report per method, plus top-L predicted pair lists
    sweep     precision curves over alpha / p_fresher grids and over m
    spectrum  eigenvalues and gaps of the training adjacency, auto-selected m
    diagnose  mean leading-eigenvalue shift and correlation gain
    fetch     download a dataset from a user-supplied URL, verify its sha256

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
Every output file is deterministic given the same arguments and seed. CSV
carries 6 significant digits; JSON keeps full double precision.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import urllib.request
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .errors import DataError, NumericalError
from .evaluation import (
    METHODS,
    ExperimentConfig,
    PrecisionReport,
    _run_points,
    _sweep_grids,
    rank_candidates,  # noqa: F401  (perfbench's tracer test wraps it here)
    run_experiment,
)
from .graph import TemporalGraph, adjacency, parse_edge_stream, simplify
from .spectral import (
    eigendecompose,  # noqa: F401  (perfbench's tracer test wraps it here)
    eigenvalues,
    select_m,
)
from .split import SplitConfig, split_train_probe

__all__ = ["RunManifest", "main", "cmd_predict", "cmd_sweep", "cmd_spectrum", "cmd_diagnose"]

_CANONICAL_METHOD = {name.lower(): name for name in METHODS}


@dataclass(frozen=True)
class RunManifest:
    """A fully resolved invocation: input, methods, grids, and emit targets."""

    input: Path
    format: str
    methods: tuple[str, ...]
    out_dir: Path
    emit: tuple[str, ...]
    base: ExperimentConfig
    alpha_grid: tuple[float, ...] = ()
    p_fresher_grid: tuple[float, ...] = ()
    m_grid: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method is required")
        for fmt in self.emit:
            if fmt not in ("csv", "json"):
                raise ValueError(f"unknown emit format {fmt!r}")


def _load_graph(manifest: RunManifest) -> TemporalGraph:
    if not manifest.input.exists():
        raise DataError(f"input file not found: {manifest.input}")
    with open(manifest.input, "rb") as fh:
        return simplify(parse_edge_stream(fh, manifest.format))


def _fmt6(value) -> str:
    """CSV cell: 6 significant digits for floats, empty for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt6(cell) if not isinstance(cell, str) else cell for cell in row])


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _report_payload(report: PrecisionReport) -> dict:
    return {
        "method": report.config.method,
        "config": asdict(report.config),
        "L": report.L,
        "probe_dropped": report.probe_dropped,
        "per_realization": list(report.per_realization),
        "mean_precision": report.mean_precision,
        "std_precision": report.std_precision,
        "mean_delta_lambda1": report.mean_delta_lambda1,
        "mean_delta_cc": report.mean_delta_cc,
        "resolved_m": report.resolved_m,
        "failures": list(report.failures),
    }


def cmd_predict(manifest: RunManifest) -> int:
    """Run every requested method and emit reports plus prediction lists."""
    graph = _load_graph(manifest)
    cfgs = [replace(manifest.base, method=method) for method in manifest.methods]
    results = _run_points(graph, cfgs, keep_top=True)
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    dataset = manifest.input.stem

    reports = [report for report, _ in results]
    for report, top in results:
        with open(manifest.out_dir / f"predictions_{report.config.method}.txt", "w") as fh:
            for (u, v), score in zip(top.pairs, top.scores):
                fh.write(f"{graph.labels[u]}\t{graph.labels[v]}\t{float(score)!r}\n")

    if "csv" in manifest.emit:
        header = [
            "dataset", "method", "alpha", "p_fresher", "p_h", "realizations",
            "m", "seed", "L", "probe_dropped", "mean_precision",
            "std_precision", "mean_delta_lambda1", "mean_delta_cc",
        ]
        rows = [
            [
                dataset, r.config.method, r.config.alpha, r.config.p_fresher,
                r.config.p_h, r.config.realizations,
                r.resolved_m if r.resolved_m is not None else r.config.m,
                r.config.seed, r.L, r.probe_dropped, r.mean_precision,
                r.std_precision, r.mean_delta_lambda1, r.mean_delta_cc,
            ]
            for r in reports
        ]
        _write_csv(manifest.out_dir / "report.csv", header, rows)
    if "json" in manifest.emit:
        payload = {
            "dataset": dataset,
            "input": str(manifest.input),
            "format": manifest.format,
            "seed": manifest.base.seed,
            "reports": [_report_payload(r) for r in reports],
        }
        _write_json(manifest.out_dir / "report.json", payload)
    return 0


def cmd_sweep(manifest: RunManifest) -> int:
    """Emit precision-vs-alpha curves and, when asked, a precision-vs-m curve."""
    if not manifest.alpha_grid and not manifest.m_grid:
        raise ValueError("sweep needs --alpha-grid and/or --m-grid")
    graph = _load_graph(manifest)
    base = replace(manifest.base, method=manifest.methods[0])
    p_freshers = manifest.p_fresher_grid or (base.p_fresher,)
    points, m_results = _sweep_grids(
        graph, base, manifest.alpha_grid, p_freshers, manifest.m_grid
    )
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    payload: dict = {"dataset": manifest.input.stem, "input": str(manifest.input)}

    if manifest.alpha_grid:
        for pf in p_freshers:
            rows = [
                [p.alpha, p.report.mean_precision, p.report.std_precision]
                for p in points
                if p.p_fresher == pf
            ]
            if "csv" in manifest.emit:
                _write_csv(
                    manifest.out_dir / f"sweep_alpha_pf{pf:g}.csv",
                    ["alpha", "mean_precision", "std_precision"],
                    rows,
                )
        payload["alpha_sweep"] = [
            {
                "alpha": p.alpha,
                "p_fresher": p.p_fresher,
                "mean_precision": p.report.mean_precision,
                "std_precision": p.report.std_precision,
            }
            for p in points
        ]

    if manifest.m_grid:
        if "csv" in manifest.emit:
            _write_csv(
                manifest.out_dir / "sweep_m.csv",
                ["m_over_n", "mean_precision"],
                [[m / graph.n, r.mean_precision] for m, r in m_results],
            )
        payload["m_sweep"] = [
            {"m": m, "m_over_n": m / graph.n, "mean_precision": r.mean_precision}
            for m, r in m_results
        ]

    if "json" in manifest.emit:
        _write_json(manifest.out_dir / "sweep.json", payload)
    return 0


def cmd_spectrum(manifest: RunManifest) -> int:
    """Spectrum of the training adjacency: eigenvalues, gaps, auto-selected m."""
    graph = _load_graph(manifest)
    split = split_train_probe(graph, SplitConfig(probe_fraction=manifest.base.probe_fraction))
    lam = eigenvalues(adjacency(graph, split.train))
    abs_lam = [abs(v) for v in lam]
    gaps = [abs_lam[i] - abs_lam[i + 1] for i in range(len(lam) - 1)]
    selected = select_m(lam, manifest.base.m_threshold)
    manifest.out_dir.mkdir(parents=True, exist_ok=True)

    if "csv" in manifest.emit:
        rows = [
            [i + 1, lam[i], abs_lam[i], gaps[i] if i < len(gaps) else None]
            for i in range(len(lam))
        ]
        _write_csv(
            manifest.out_dir / "spectrum.csv",
            ["i", "lambda_i", "abs_lambda_i", "gap_i"],
            rows,
        )
    if "json" in manifest.emit:
        _write_json(
            manifest.out_dir / "spectrum.json",
            {
                "dataset": manifest.input.stem,
                "n": graph.n,
                "threshold": manifest.base.m_threshold,
                "selected_m": selected,
                "eigenvalues": [float(v) for v in lam],
                "gaps": gaps,
            },
        )
    return 0


def cmd_diagnose(manifest: RunManifest) -> int:
    """Mean leading-eigenvalue shift and correlation gain for one method."""
    if len(manifest.methods) != 1 or manifest.methods[0] not in ("SPM", "PBSPM", "FastPBSPM"):
        raise ValueError("diagnose requires exactly one spectral method")
    graph = _load_graph(manifest)
    cfg = replace(manifest.base, method=manifest.methods[0])
    report = run_experiment(graph, cfg)
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    dataset = manifest.input.stem
    if "csv" in manifest.emit:
        _write_csv(
            manifest.out_dir / "diagnostics.csv",
            ["dataset", "mean_delta_lambda1", "delta_cc", "realizations"],
            [[dataset, report.mean_delta_lambda1, report.mean_delta_cc,
              report.config.realizations]],
        )
    if "json" in manifest.emit:
        _write_json(manifest.out_dir / "diagnostics.json", {
            "dataset": dataset,
            "method": cfg.method,
            "mean_delta_lambda1": report.mean_delta_lambda1,
            "delta_cc": report.mean_delta_cc,
            "realizations": cfg.realizations,
            "config": asdict(cfg),
        })
    return 0


def cmd_fetch(url: str, sha256: str, dest: Path) -> int:
    """Download a dataset file and require its sha256 to match."""
    with urllib.request.urlopen(url) as response:
        payload = response.read()
    digest = hashlib.sha256(payload).hexdigest()
    if digest.lower() != sha256.lower():
        raise DataError(f"checksum mismatch: expected {sha256}, got {digest}")
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_bytes(payload)
    print(f"fetched {len(payload)} bytes -> {dest}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, but usage failures exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _method_list(tokens: list[str]) -> tuple[str, ...]:
    methods = []
    for token in tokens:
        for name in token.split(","):
            name = name.strip()
            if not name:
                continue
            canonical = _CANONICAL_METHOD.get(name.lower())
            if canonical is None:
                raise ValueError(f"unknown method {name!r}; expected one of {METHODS}")
            methods.append(canonical)
    return tuple(methods)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, type=Path, help="edge list file")
    sub.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    sub.add_argument("--method", action="append", default=None,
                     help="method name; repeatable or comma separated")
    sub.add_argument("--alpha", type=float, default=0.0, help="popularity boost strength")
    sub.add_argument("--p-fresher", type=float, default=0.10,
                     help="fraction of training edges forming the fresh segment")
    sub.add_argument("--p-h", type=float, default=0.10,
                     help="fraction of training edges removed per perturbation")
    sub.add_argument("--realizations", type=int, default=10)
    sub.add_argument("--m", type=int, default=None, help="truncation size override")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--L", type=int, default=None,
                     help="ranking cutoff; defaults to the probe size")
    sub.add_argument("--out-dir", type=Path, default=Path("out"))
    sub.add_argument("--emit", default="csv,json", help="comma list of csv,json")
    sub.add_argument("--score-averaging", choices=("precision", "matrix"),
                     default="precision")
    sub.add_argument("--probe-fraction", type=float, default=0.10)
    sub.add_argument("--count-dropped-in-L", action="store_true",
                     help="use the unfiltered probe size as the default L")
    sub.add_argument("--katz-damping", type=float, default=None)
    sub.add_argument("--katz-max-path-length", type=int, default=None)
    sub.add_argument("--srw-steps", type=int, default=3)
    sub.add_argument("--m-threshold", type=float, default=0.05,
                     help="eigengap threshold, relative to the leading eigenvalue")


def _manifest_from(args: argparse.Namespace, default_methods=("PBSPM",)) -> RunManifest:
    methods = _method_list(args.method) if args.method else tuple(default_methods)
    base = ExperimentConfig(
        method=methods[0],
        alpha=args.alpha,
        p_fresher=args.p_fresher,
        p_h=args.p_h,
        realizations=args.realizations,
        m=args.m,
        seed=args.seed,
        L=args.L,
        probe_fraction=args.probe_fraction,
        score_averaging=args.score_averaging,
        count_dropped_in_L=args.count_dropped_in_L,
        katz_damping=args.katz_damping,
        katz_max_path_length=args.katz_max_path_length,
        srw_steps=args.srw_steps,
        m_threshold=args.m_threshold,
    )
    return RunManifest(
        input=args.input,
        format=args.format,
        methods=methods,
        out_dir=args.out_dir,
        emit=tuple(tok.strip() for tok in args.emit.split(",") if tok.strip()),
        base=base,
        alpha_grid=getattr(args, "alpha_grid", None) or (),
        p_fresher_grid=getattr(args, "p_fresher_grid", None) or (),
        m_grid=getattr(args, "m_grid", None) or (),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbspm", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    for name in ("predict", "sweep", "spectrum", "diagnose"):
        sub = commands.add_parser(name)
        _add_common(sub)
        if name == "sweep":
            sub.add_argument("--alpha-grid", type=_float_list, default=None,
                             help="comma list of alpha values")
            sub.add_argument("--p-fresher-grid", type=_float_list, default=None,
                             help="comma list of p_fresher values")
            sub.add_argument("--m-grid", type=_int_list, default=None,
                             help="comma list of truncation sizes")

    fetch = commands.add_parser("fetch")
    fetch.add_argument("--url", required=True)
    fetch.add_argument("--sha256", required=True)
    fetch.add_argument("--dest", required=True, type=Path)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "fetch":
            return cmd_fetch(args.url, args.sha256, args.dest)
        defaults = {"predict": ("PBSPM",), "sweep": ("PBSPM",),
                    "spectrum": ("PBSPM",), "diagnose": ("PBSPM",)}
        manifest = _manifest_from(args, defaults[args.command])
        dispatch = {
            "predict": cmd_predict,
            "sweep": cmd_sweep,
            "spectrum": cmd_spectrum,
            "diagnose": cmd_diagnose,
        }
        return dispatch[args.command](manifest)
    except SystemExit:
        raise
    except ValueError as err:
        print(f"pbspm: usage error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"pbspm: data error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"pbspm: i/o error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"pbspm: numerical error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
