"""Time-ordered splitting and the recency-of-activity (popularity) score.

The probe split hides the newest fraction of edges from every predictor. The
popularity of a node is the share of its training degree acquired in the
freshest slice of the training window: 1 for a node whose every training
contact is recent, 0 for one that went quiet. Both take their fraction as a
plain float and range-check it; an experiment takes it from ``ExperimentConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplitError
from .graph import TemporalGraph, _endpoints

__all__ = [
    "TrainProbeSplit",
    "split_train_probe",
    "popularity",
]


@dataclass(frozen=True, eq=False)
class TrainProbeSplit:
    """Training edge rows plus the probe pairs kept for evaluation.

    ``train`` is a read-only view of the oldest rows of ``graph.edges``;
    ``probe`` is a read-only ``(k, 2)`` int array of later ``(u, v)`` pairs
    in ``graph.edges`` order. Probe pairs with an endpoint that never occurs
    in a training edge cannot be scored by structural methods; they are
    excluded and counted in ``probe_dropped``.
    """

    train: np.ndarray
    probe: np.ndarray
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
    train = graph.edges[:n_train]
    train.setflags(write=False)

    in_train = np.zeros(graph.n, dtype=bool)
    in_train[train[:, :2]] = True
    later = graph.edges[n_train:, :2]
    seen = in_train[later].all(axis=1)
    probe = later[seen]
    probe.setflags(write=False)
    dropped = int(np.count_nonzero(~seen))
    if not len(probe):
        raise DegenerateSplitError(
            f"every probe pair touches a node unseen in training ({dropped} dropped)"
        )
    return TrainProbeSplit(train=train, probe=probe, probe_dropped=dropped)


def _endpoint_counts(rows: np.ndarray, n: int) -> np.ndarray:
    """How many of the edge ``rows`` touch each of the ``n`` nodes, as float64."""
    return np.bincount(rows[:, :2].ravel(), minlength=n).astype(np.float64)


def popularity(train_edges: np.ndarray, n: int, p_fresher: float) -> np.ndarray:
    """Fraction of each node's training degree earned in the fresh segment.

    ``train_edges`` are the m training rows oldest first, such as ``split.train``,
    counted as given, so they are m distinct edges as ``sample_perturbation``
    takes; the fresh segment is the last ``round(p_fresher * m)``. Returns a
    read-only float64 vector in [0, 1] over the ``n`` nodes; a node with no
    training degree scores 0.

    Raises:
        ValueError: ``p_fresher`` outside (0, 1), or an endpoint outside ``[0, n)``.
    """
    if not 0.0 < p_fresher < 1.0:
        raise ValueError(f"p_fresher must be in (0,1), got {p_fresher}")
    ends = _endpoints(train_edges, n)
    k_all = _endpoint_counts(ends, n)
    k_fresh = _endpoint_counts(ends[len(ends) - round(p_fresher * len(ends)) :], n)
    values = np.divide(k_fresh, k_all, out=np.zeros(n), where=k_all > 0)
    values.setflags(write=False)
    return values
