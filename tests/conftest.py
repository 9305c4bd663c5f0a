"""Shared generators: random streams, random views, and a synthetic
temporal network whose recent activity shifts from one node block to
another, so popularity carries real signal."""

from __future__ import annotations

import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from pbspm.graph import TemporalEventStream, parse_edge_stream, simplify


def tsv_text(rows) -> str:
    """``(source, target, timestamp)`` rows as TSV lines."""
    return "".join(f"{a}\t{b}\t{t}\n" for a, b, t in rows)


def tsv_stream(rows) -> TemporalEventStream:
    """The event stream of ``(source, target, timestamp)`` rows, parsed from
    their TSV text; no label may hold whitespace."""
    return parse_edge_stream(io.StringIO(tsv_text(rows)))


def random_event_stream(rng, n_labels=8, n_events=40, loop_rate=0.1, t_max=100):
    """Events with duplicate pairs and occasional self-loops, unsorted times."""
    rows = []
    for _ in range(n_events):
        a = str(rng.integers(n_labels))
        b = a if rng.random() < loop_rate else str(rng.integers(n_labels))
        rows.append((a, b, int(rng.integers(1, t_max))))
    return tsv_stream(rows)


def random_view(rng, n, p=0.35) -> np.ndarray:
    """Read-only adjacency matrix of a G(n, p) sample."""
    upper = rng.random((n, n)) < p
    matrix = np.triu(upper, k=1).astype(np.float64)
    matrix = matrix + matrix.T
    matrix.setflags(write=False)
    return matrix


def view_edges(view: np.ndarray) -> np.ndarray:
    """(m, 2) array of the adjacency matrix's edges with u < v."""
    uu, vv = np.nonzero(np.triu(view, k=1))
    return np.column_stack((uu, vv))


def popularity_shift_events(
    seed=7, n_old=40, n_new=40, m_old=500, m_bridge=40, m_new=260
):
    """``(source, target, timestamp)`` contacts where late activity
    concentrates on a fresh block.

    Nodes 0..n_old-1 accumulate a dense early block; nodes n_old.. join late
    and keep gaining edges through the probe window. Pairs are distinct, so
    the stream equals the simplified graph edge for edge.
    """
    rng = np.random.default_rng(seed)

    def distinct_pairs(nodes, count):
        nodes = list(nodes)
        all_pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
        idx = rng.choice(len(all_pairs), size=count, replace=False)
        return [all_pairs[i] for i in idx]

    old = range(n_old)
    new = range(n_old, n_old + n_new)
    pairs = distinct_pairs(old, m_old)
    bridge = [
        (int(rng.integers(0, n_old)), int(rng.integers(n_old, n_old + n_new)))
        for _ in range(m_bridge)
    ]
    bridge = list(dict.fromkeys(tuple(sorted(p)) for p in bridge))
    pairs += bridge
    pairs += distinct_pairs(new, m_new)

    return [(a, b, t) for t, (a, b) in enumerate(pairs, start=1)]


@pytest.fixture(scope="session")
def shift_graph():
    return simplify(tsv_stream(popularity_shift_events()))


@pytest.fixture()
def shift_dataset(tmp_path):
    """The popularity-shift network written as a 3-column TSV file."""
    path = tmp_path / "shiftnet.tsv"
    path.write_text("% synthetic contact network\n" + tsv_text(popularity_shift_events()))
    return path


@pytest.fixture(scope="session")
def gen():
    """``perfbench/gen.py``, loaded by path: the benchmark's seeded stream
    generator serves the tests too, with no copy of it here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look a class's module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def sweep_grid_dataset(gen, tmp_path_factory):
    """The ``sweep-grid`` workload's seed-0 stream (n=410) as a TSV file."""
    path = tmp_path_factory.mktemp("sweep-grid") / "stream.tsv"
    gen.write_stream(path, gen.contacts(gen.SPECS["sweep-grid"], 0))
    return path
