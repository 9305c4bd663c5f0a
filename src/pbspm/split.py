"""Time-ordered splitting and the recency-of-activity (popularity) score.

The probe split hides the newest fraction of edges from every predictor. The
popularity of a node is the share of its training degree acquired in the
freshest slice of the training window: 1 for a node whose every training
contact is recent, 0 for one that went quiet. Both take their fraction as a
plain float and range-check it; an experiment takes it from ``ExperimentConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSplitError
from .graph import TemporalGraph

__all__ = [
    "TrainProbeSplit",
    "split_train_probe",
    "degree_increment",
    "popularity",
]


@dataclass(frozen=True)
class TrainProbeSplit:
    """Training edge indices plus the probe pairs kept for evaluation.

    Probe pairs with an endpoint that never occurs in a training edge cannot
    be scored by structural methods; they are excluded and counted in
    ``probe_dropped``.
    """

    train: np.ndarray
    probe: frozenset[tuple[int, int]]
    probe_dropped: int

    @property
    def probe_total(self) -> int:
        """Probe size before unseen-endpoint filtering."""
        return len(self.probe) + self.probe_dropped


def split_train_probe(graph: TemporalGraph, probe_fraction: float) -> TrainProbeSplit:
    """Hold out the newest ``probe_fraction`` of edges as the probe set.

    Edges are already ordered by ``(t, u, v)``, so the split is deterministic;
    equal timestamps at the boundary are resolved by the ``(u, v)`` tie-break.

    Raises:
        ValueError: ``probe_fraction`` outside (0, 1).
        DegenerateSplitError: fewer than 10 edges, an empty side, or no
            probe pair with both endpoints seen in training.
    """
    if not 0.0 < probe_fraction < 1.0:
        raise ValueError(f"probe_fraction must be in (0,1), got {probe_fraction}")
    m = graph.m_edges
    if m < 10:
        raise DegenerateSplitError(f"need at least 10 edges to split, got {m}")
    n_train = round((1.0 - probe_fraction) * m)
    if n_train == 0 or n_train == m:
        raise DegenerateSplitError(
            f"probe_fraction={probe_fraction} leaves an empty side for m={m}"
        )
    train = np.arange(n_train, dtype=np.intp)
    train.setflags(write=False)

    train_nodes = set(graph.edges[:n_train, 0]) | set(graph.edges[:n_train, 1])
    probe: set[tuple[int, int]] = set()
    dropped = 0
    for u, v, _ in graph.edges[n_train:]:
        if u in train_nodes and v in train_nodes:
            probe.add((int(u), int(v)))
        else:
            dropped += 1
    if not probe:
        raise DegenerateSplitError(
            f"every probe pair touches a node unseen in training ({dropped} dropped)"
        )
    return TrainProbeSplit(train=train, probe=frozenset(probe), probe_dropped=dropped)


def _endpoint_counts(rows: np.ndarray, n: int) -> np.ndarray:
    """How many of the edge ``rows`` touch each of the ``n`` nodes, as float64."""
    return np.bincount(rows[:, :2].ravel(), minlength=n).astype(np.float64)


def degree_increment(graph: TemporalGraph, node: int, t: int, T: int) -> int:
    """Edges incident to ``node`` entering within ``(t, t + T]``."""
    if T <= 0:
        raise ValueError(f"duration T must be positive, got {T}")
    if not 0 <= node < graph.n:
        raise IndexError(f"node {node} out of range for n={graph.n}")
    incident = (graph.edges[:, 0] == node) | (graph.edges[:, 1] == node)
    ts = graph.edges[:, 2]
    return int(np.count_nonzero(incident & (ts > t) & (ts <= t + T)))


def popularity(
    graph: TemporalGraph, train: Sequence[int], p_fresher: float
) -> np.ndarray:
    """Fraction of each node's training degree earned in the fresh segment.

    Returns a read-only float64 vector in [0, 1], indexed by dense node id.
    The fresh segment is the last ``round(p_fresher * |train|)`` training
    edges in ``(t, u, v)`` order. Nodes with no training degree score 0.
    """
    if not 0.0 < p_fresher < 1.0:
        raise ValueError(f"p_fresher must be in (0,1), got {p_fresher}")
    idx = np.sort(np.asarray(list(train), dtype=np.intp))
    n_fresh = round(p_fresher * idx.size)
    fresh_idx = idx[idx.size - n_fresh :] if n_fresh else idx[:0]
    k_all = _endpoint_counts(graph.edges[idx], graph.n)
    k_fresh = _endpoint_counts(graph.edges[fresh_idx], graph.n)
    values = np.divide(k_fresh, k_all, out=np.zeros(graph.n), where=k_all > 0)
    values.setflags(write=False)
    return values
