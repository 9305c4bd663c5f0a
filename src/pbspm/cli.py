"""Command line front end: experiments in, CSV/JSON tables out.

Subcommands:
    predict   precision report per method, plus top-L predicted pair lists
    sweep     precision curves over alpha / p_fresher grids and over m
    spectrum  eigenvalues and gaps of the training adjacency, auto-selected m
    diagnose  mean leading-eigenvalue shift and correlation gain

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
Outputs are byte-identical across reruns with the same arguments, seed and
BLAS thread count (OPENBLAS_NUM_THREADS and the like). CSV carries 6
significant digits; JSON keeps full double precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .errors import DataError, NumericalError
from .evaluation import (
    METHODS,
    ExperimentConfig,
    PrecisionReport,
    _run_points,
    _sweep_configs,
    rank_candidates,  # noqa: F401  (perfbench's tracer test wraps it here)
    run_experiment,
)
from .graph import TemporalGraph, adjacency, parse_edge_stream, simplify
from .spectral import (
    eigendecompose,  # noqa: F401  (perfbench's tracer test wraps it here)
    eigenvalues,
    select_m,
)
from .split import split_train_probe

__all__ = ["main", "cmd_predict", "cmd_sweep", "cmd_spectrum", "cmd_diagnose"]

_CANONICAL_METHOD = {name.lower(): name for name in METHODS}


def _configs(args: argparse.Namespace) -> list[ExperimentConfig]:
    """One config per requested method (or the default one when none is).

    Each experiment flag's dest is an ``ExperimentConfig`` field, and a flag
    not given is absent from the namespace, so that field keeps the
    dataclass default.
    """
    methods = _method_list(args.methods) if hasattr(args, "methods") else ()
    names = [f.name for f in fields(ExperimentConfig) if hasattr(args, f.name)]
    base = ExperimentConfig(**{name: getattr(args, name) for name in names})
    return [replace(base, method=method) for method in methods] or [base]


def _load_graph(args: argparse.Namespace) -> TemporalGraph:
    if not args.input.exists():
        raise DataError(f"input file not found: {args.input}")
    with open(args.input, "rb") as fh:
        return simplify(parse_edge_stream(fh, args.format))


def _utf8(path: str | Path) -> str:
    """``path`` as UTF-8 text, whatever the locale decoded it from: each byte
    that is not UTF-8 becomes U+FFFD, so every output names it alike."""
    return os.fsencode(path).decode("utf-8", "replace")


def _fmt6(value) -> str:
    """CSV cell: 6 significant digits for floats, empty for None, ints and strings as is."""
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return f"{value:.6g}"


def _cells(report: PrecisionReport, columns: Sequence[str], **extra) -> dict:
    """The report's value for each column, by column name.

    A column names a config or report field, or a key of ``extra``; ``m`` is
    the truncation the method used (None for a method that does not truncate)
    and ``delta_cc`` is ``mean_delta_cc``.
    """
    values = {
        **asdict(report.config),
        **asdict(report),
        "m": report.resolved_m,
        "delta_cc": report.mean_delta_cc,
        **extra,
    }
    return {column: values[column] for column in columns}


def _write(args: argparse.Namespace, tables: dict, json_name: str, payload: dict) -> None:
    """Create ``--out-dir`` and write the CSV tables and the JSON payload.

    ``tables`` maps each CSV file name to its columns and its rows, each row a
    mapping that holds at least those columns; ``payload`` is written as JSON
    to ``json_name``. Commands call this only once their computation is done,
    so a failing command leaves no ``--out-dir`` behind.
    """
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, (columns, rows) in tables.items():
        with open(args.out_dir / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([_fmt6(row[column]) for column in columns] for row in rows)
    with open(args.out_dir / json_name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


_REPORT_COLUMNS = (
    "dataset", "method", "alpha", "p_fresher", "p_h", "realizations",
    "m", "seed", "L", "probe_dropped", "mean_precision",
    "std_precision", "mean_delta_lambda1", "mean_delta_cc",
)
_ALPHA_COLUMNS = ("alpha", "mean_precision", "std_precision")
_M_COLUMNS = ("m_over_n", "mean_precision")
_SPECTRUM_COLUMNS = ("i", "lambda_i", "abs_lambda_i", "gap_i")
_DIAGNOSTICS_COLUMNS = ("dataset", "mean_delta_lambda1", "delta_cc", "realizations")


def cmd_predict(args: argparse.Namespace) -> int:
    """Run every requested method and emit reports plus prediction lists."""
    cfgs = _configs(args)
    graph = _load_graph(args)
    results = _run_points(graph, cfgs, keep_top=True)
    reports = [report for report, _ in results]
    dataset = _utf8(args.input.stem)
    rows = [_cells(r, _REPORT_COLUMNS, dataset=dataset) for r in reports]
    payload = {
        "dataset": dataset,
        "input": _utf8(args.input),
        "format": args.format,
        "seed": cfgs[0].seed,
        "reports": [{"method": r.config.method, **asdict(r)} for r in reports],
    }
    _write(args, {"report.csv": (_REPORT_COLUMNS, rows)}, "report.json", payload)

    for report, top in results:
        name = f"predictions_{report.config.method}.txt"
        with open(args.out_dir / name, "w", encoding="utf-8") as fh:
            for (u, v), score in zip(top.pairs, top.scores):
                fh.write(f"{graph.labels[u]}\t{graph.labels[v]}\t{float(score)!r}\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Emit precision-vs-alpha curves and, when asked, a precision-vs-m curve."""
    cfgs = _configs(args)
    if not args.alpha_grid and not args.m_grid:
        raise ValueError("sweep needs --alpha-grid and/or --m-grid")
    if args.p_fresher_grid and not args.alpha_grid:
        raise ValueError("--p-fresher-grid needs --alpha-grid")
    if len(cfgs) != 1:
        raise ValueError(f"sweep takes one method, got {len(cfgs)}")
    p_freshers = args.p_fresher_grid or (cfgs[0].p_fresher,)
    names = [f"{pf:g}" for pf in p_freshers]
    if len(set(names)) != len(names):
        raise ValueError(f"--p-fresher-grid values repeat at 6 significant digits: {names}")
    cfgs = _sweep_configs(cfgs[0], args.alpha_grid, p_freshers, args.m_grid)
    graph = _load_graph(args)
    reports = [report for report, _ in _run_points(graph, cfgs)]
    n_grid = len(reports) - len(args.m_grid)
    grid = [
        _cells(r, ("alpha", "p_fresher", "mean_precision", "std_precision"))
        for r in reports[:n_grid]
    ]
    m_rows = [
        _cells(r, ("m", "m_over_n", "mean_precision"), m_over_n=r.config.m / graph.n)
        for r in reports[n_grid:]
    ]
    tables: dict = {}
    payload: dict = {"dataset": _utf8(args.input.stem), "input": _utf8(args.input)}
    if args.alpha_grid:
        for pf, name in zip(p_freshers, names):
            tables[f"sweep_alpha_pf{name}.csv"] = (
                _ALPHA_COLUMNS, [row for row in grid if row["p_fresher"] == pf]
            )
        payload["alpha_sweep"] = grid
    if args.m_grid:
        tables["sweep_m.csv"] = (_M_COLUMNS, m_rows)
        payload["m_sweep"] = m_rows
    _write(args, tables, "sweep.json", payload)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    """Spectrum of the training adjacency: eigenvalues, gaps, auto-selected m."""
    (cfg,) = _configs(args)
    graph = _load_graph(args)
    split = split_train_probe(graph, cfg.probe_fraction)
    lam = eigenvalues(adjacency(split.train, graph.n))
    gaps = [abs(a) - abs(b) for a, b in zip(lam[:-1], lam[1:])]
    rows = [
        dict(zip(_SPECTRUM_COLUMNS, (i, value, abs(value), gap)))
        for i, (value, gap) in enumerate(zip(lam, [*gaps, None]), start=1)
    ]
    payload = {
        "dataset": _utf8(args.input.stem),
        "n": graph.n,
        "threshold": cfg.m_threshold,
        "selected_m": select_m(lam, cfg.m_threshold),
        "eigenvalues": [float(v) for v in lam],
        "gaps": gaps,
    }
    _write(args, {"spectrum.csv": (_SPECTRUM_COLUMNS, rows)}, "spectrum.json", payload)
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    """Mean leading-eigenvalue shift and correlation gain for one method."""
    cfgs = _configs(args)
    if len(cfgs) != 1 or cfgs[0].method not in ("SPM", "PBSPM", "FastPBSPM"):
        raise ValueError("diagnose requires exactly one spectral method")
    cfg = cfgs[0]
    graph = _load_graph(args)
    report = run_experiment(graph, cfg)
    row = _cells(report, ("method",) + _DIAGNOSTICS_COLUMNS, dataset=_utf8(args.input.stem))
    tables = {"diagnostics.csv": (_DIAGNOSTICS_COLUMNS, [row])}
    _write(args, tables, "diagnostics.json", {**row, "config": asdict(cfg)})
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, but usage failures exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class _Subparser(_Parser):
    """A subcommand that reports its unknown arguments with its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


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
    if not methods:
        raise ValueError("at least one method is required")
    return tuple(methods)


_ALL = ("predict", "sweep", "spectrum", "diagnose")
_RUNS = ("predict", "sweep", "diagnose")
# flag, the subcommands that read it, add_argument keywords. A flag given no
# default here is absent from the namespace unless passed (see _configs).
_FLAGS = (
    ("--input", _ALL, dict(required=True, type=Path, help="edge list file")),
    ("--format", _ALL, dict(choices=("tsv", "csv"), default="tsv")),
    ("--method", _RUNS, dict(dest="methods", action="append", metavar="METHOD",
                             help="method name; repeatable or comma separated")),
    ("--alpha", _RUNS, dict(type=float, help="popularity boost strength")),
    ("--p-fresher", _RUNS, dict(type=float,
                                help="fraction of training edges forming the fresh segment")),
    ("--p-h", _RUNS, dict(type=float, help="fraction of training edges removed per perturbation")),
    ("--realizations", _RUNS, dict(type=int)),
    ("--m", ("predict", "sweep"), dict(type=int, help="truncation size override")),
    ("--seed", _RUNS, dict(type=int)),
    ("--L", ("predict", "sweep"), dict(type=int,
                                       help="ranking cutoff; defaults to the probe size")),
    ("--out-dir", _ALL, dict(type=Path, default=Path("out"))),
    ("--score-averaging", ("predict",), dict(choices=("precision", "matrix"))),
    ("--probe-fraction", _ALL, dict(type=float)),
    ("--katz-damping", ("predict",), dict(type=float)),
    ("--katz-max-path-length", ("predict",), dict(type=int)),
    ("--srw-steps", ("predict",), dict(type=int)),
    ("--m-threshold", ("predict", "sweep", "spectrum"),
     dict(type=float, help="eigengap threshold, relative to the leading eigenvalue")),
    ("--alpha-grid", ("sweep",), dict(type=_float_list, default=(),
                                      help="comma list of alpha values")),
    ("--p-fresher-grid", ("sweep",), dict(type=_float_list, default=(),
                                          help="comma list of p_fresher values")),
    ("--m-grid", ("sweep",), dict(type=_int_list, default=(),
                                  help="comma list of truncation sizes")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbspm", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)

    # No abbreviations: a flag a subcommand lacks must fail, not be read as the
    # prefix of one it has (`spectrum --m 5` as `--m-threshold 5`).
    for name in _ALL:
        sub = commands.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for flag, readers, keywords in _FLAGS:
            if name in readers:
                sub.add_argument(flag, **keywords)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Looked up at call time, so a wrapper set on this module is the one run.
        return globals()[f"cmd_{args.command}"](args)
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
