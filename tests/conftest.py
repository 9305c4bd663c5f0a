"""Shared generators: random streams, random views, and a synthetic
temporal network whose recent activity shifts from one node block to
another, so popularity carries real signal."""

from __future__ import annotations

import numpy as np
import pytest

from pbspm.graph import RawEvent, TemporalEventStream, simplify


def random_event_stream(rng, n_labels=8, n_events=40, loop_rate=0.1, t_max=100):
    """Events with duplicate pairs and occasional self-loops, unsorted times."""
    events = []
    for _ in range(n_events):
        a = str(rng.integers(n_labels))
        b = a if rng.random() < loop_rate else str(rng.integers(n_labels))
        events.append(RawEvent(a, b, int(rng.integers(1, t_max))))
    return TemporalEventStream.from_events(events)


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
    """Contact sequence where late activity concentrates on a fresh block.

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

    events = [RawEvent(str(a), str(b), t) for t, (a, b) in enumerate(pairs, start=1)]
    return TemporalEventStream.from_events(events)


@pytest.fixture(scope="session")
def shift_graph():
    return simplify(popularity_shift_events())


@pytest.fixture()
def shift_dataset(tmp_path):
    """The popularity-shift network written as a 3-column TSV file."""
    stream = popularity_shift_events()
    path = tmp_path / "shiftnet.tsv"
    lines = [f"{e.source}\t{e.target}\t{e.timestamp}" for e in stream.events]
    path.write_text("% synthetic contact network\n" + "\n".join(lines) + "\n")
    return path
