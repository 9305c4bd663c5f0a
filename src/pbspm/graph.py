"""Timestamped edge streams and their reduction to a simple undirected graph.

A contact dataset is a sequence of ``(source, target, [weight,] timestamp)``
events. Scoring operates on the simple graph obtained by dropping self-loops
and collapsing repeated contacts of a pair onto the pair's earliest event,
which is the time the edge entered the network.
"""

from __future__ import annotations

import csv
import heapq
import io
import sys
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .errors import EmptyGraphError, EmptyInputError, ParseError

__all__ = [
    "RawEvent",
    "TemporalEventStream",
    "TemporalGraph",
    "AdjacencyView",
    "parse_edge_stream",
    "simplify",
    "adjacency",
    "degree",
    "degrees",
]


@dataclass(frozen=True)
class RawEvent:
    """One contact event as read from disk. Weight is kept but never scored."""

    source: str
    target: str
    timestamp: int
    weight: Optional[float] = None


@dataclass(frozen=True)
class TemporalEventStream:
    """Events in file order, before any simplification."""

    events: tuple[RawEvent, ...]

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class TemporalGraph:
    """Simple undirected graph with one timestamp per edge.

    ``labels[i]`` is the external label of node ``i``; ids are dense and
    assigned by first appearance among surviving edges. ``edges`` is an
    ``(m, 3)`` int64 array of ``(u, v, t)`` rows with ``u < v``, sorted
    ascending by ``(t, u, v)``.
    """

    labels: tuple[str, ...]
    edges: np.ndarray
    node_id: dict[str, int] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def timestamps(self) -> np.ndarray:
        return self.edges[:, 2]


@dataclass(frozen=True)
class AdjacencyView:
    """Symmetric 0/1 matrix over the full node set of a graph."""

    n: int
    matrix: np.ndarray


def _decode_lines(reader: IO) -> Iterable[str]:
    data = reader.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as err:
            # The bad byte sits on the line after the last break before it;
            # the appended character gives that line its entry in splitlines.
            line_no = len((data[: err.start].decode("utf-8") + "x").splitlines())
            raise ParseError(f"invalid UTF-8 byte 0x{data[err.start]:02x}", line_no) from None
    return data.splitlines()


def _parse_timestamp(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad timestamp {token!r}", line_no) from None
    if not np.isfinite(value) or value != int(value):
        raise ParseError(f"non-integer timestamp {token!r}", line_no)
    return int(value)


def parse_edge_stream(reader: IO, format: str = "tsv") -> TemporalEventStream:
    """Read a TSV or CSV edge list into an event stream.

    Lines hold ``source target [weight] timestamp``; fields are whitespace
    separated for ``tsv`` and comma separated for ``csv``. Lines starting
    with ``%`` or ``#`` are comments; blank lines are ignored.

    Raises:
        ParseError: a non-comment line does not fit the 3/4-field layout, or
            a byte input is not valid UTF-8.
        EmptyInputError: no events survive.
    """
    if format not in ("tsv", "csv"):
        raise ValueError(f"unknown format {format!r}")
    lines = _decode_lines(reader)
    events: list[RawEvent] = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "%#":
            continue
        if format == "csv":
            fields = next(csv.reader(io.StringIO(line)))
            fields = [f.strip() for f in fields]
        else:
            fields = stripped.split()
        if len(fields) == 3:
            src, dst, ts_token = fields
            weight = None
        elif len(fields) == 4:
            src, dst, w_token, ts_token = fields
            try:
                weight = float(w_token)
            except ValueError:
                raise ParseError(f"bad weight {w_token!r}", line_no) from None
        else:
            raise ParseError(f"expected 3 or 4 fields, got {len(fields)}", line_no)
        if not src or not dst:
            raise ParseError("empty node label", line_no)
        events.append(RawEvent(src, dst, _parse_timestamp(ts_token, line_no), weight))
    if not events:
        raise EmptyInputError("edge stream contains no events")
    return TemporalEventStream(tuple(events))


def simplify(stream: TemporalEventStream) -> TemporalGraph:
    """Reduce an event stream to a simple graph with per-edge timestamps.

    Self-loops are dropped. For every unordered pair only the first contact
    survives (smallest timestamp, file order breaking ties) and the edge
    carries that timestamp. Node ids are dense, assigned by first appearance
    along the final (t, u, v) edge order; anchoring the assignment to that
    order (rather than raw file order) makes simplify a one-step fixed point
    under re-serialization.

    Within one timestamp, edges are emitted one at a time: next comes the edge
    with the smallest prospective ``(u, v)``, where an endpoint without an id
    reads as the next free id (source before target), and ties, such as
    several all-new edges, go to file order. A heap keyed on these ids emits a
    group of g edges in O(g log g).

    Raises:
        EmptyGraphError: every event was a self-loop.
    """
    best: dict[tuple[str, str], tuple[int, int]] = {}
    for idx, ev in enumerate(stream.events):
        if ev.source == ev.target:
            continue
        key = (ev.source, ev.target) if ev.source < ev.target else (ev.target, ev.source)
        candidate = (ev.timestamp, idx)
        if key not in best or candidate < best[key]:
            best[key] = candidate
    if not best:
        raise EmptyGraphError("no edges remain after dropping self-loops")

    by_time: dict[int, list[int]] = {}
    for ts, idx in best.values():
        by_time.setdefault(ts, []).append(idx)

    node_id: dict[str, int] = {}
    labels: list[str] = []

    def assign(label: str) -> int:
        if label not in node_id:
            node_id[label] = len(labels)
            labels.append(label)
        return node_id[label]

    # An unassigned endpoint would take the next free id, which exceeds every
    # assigned id; among the edges still waiting, reading it as `unseen`
    # orders them exactly as those prospective ids would.
    unseen = sys.maxsize

    def key(ev: RawEvent) -> tuple[int, int]:
        u = node_id.get(ev.source, unseen)
        v = node_id.get(ev.target, unseen)
        return (u, v) if u < v else (v, u)

    rows = np.empty((len(best), 3), dtype=np.int64)
    row = 0
    for ts in sorted(by_time):
        group = [stream.events[idx] for idx in sorted(by_time[ts])]
        keys: list[Optional[tuple[int, int]]] = [key(ev) for ev in group]
        heap = [(k, g) for g, k in enumerate(keys)]  # g: file order breaks ties
        heapq.heapify(heap)
        waiting: dict[str, list[int]] = {}
        for g, ev in enumerate(group):
            for label in (ev.source, ev.target):
                if label not in node_id:
                    waiting.setdefault(label, []).append(g)
        while heap:
            k, g = heapq.heappop(heap)
            if k != keys[g]:
                continue  # emitted, or re-keyed lower since this entry was pushed
            keys[g] = None
            ev = group[g]
            u, v = assign(ev.source), assign(ev.target)
            if u > v:
                u, v = v, u
            rows[row] = (u, v, ts)
            row += 1
            # A key falls only when one of its labels gets an id.
            for label in (ev.source, ev.target):
                for w in waiting.pop(label, ()):
                    if keys[w] is not None:
                        keys[w] = key(group[w])
                        heapq.heappush(heap, (keys[w], w))

    rows.setflags(write=False)
    return TemporalGraph(labels=tuple(labels), edges=rows, node_id=node_id)


def adjacency(
    graph: TemporalGraph, edge_subset: Optional[Sequence[int]] = None
) -> AdjacencyView:
    """Binary adjacency over the full node set, restricted to ``edge_subset``.

    ``edge_subset`` holds indices into ``graph.edges``; ``None`` means all
    edges. The matrix is dense float64 so it can feed linear algebra directly.
    """
    if edge_subset is None:
        rows = graph.edges
    else:
        idx = np.asarray(list(edge_subset), dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= graph.m_edges):
            raise IndexError("edge_subset index out of range")
        rows = graph.edges[idx]
    matrix = np.zeros((graph.n, graph.n), dtype=np.float64)
    if rows.shape[0]:
        matrix[rows[:, 0], rows[:, 1]] = 1.0
        matrix[rows[:, 1], rows[:, 0]] = 1.0
    matrix.setflags(write=False)
    return AdjacencyView(n=graph.n, matrix=matrix)


def degree(view: AdjacencyView, node: int) -> int:
    """Number of neighbors of ``node`` in the view."""
    if not 0 <= node < view.n:
        raise IndexError(f"node {node} out of range for n={view.n}")
    return int(view.matrix[node].sum())


def degrees(view: AdjacencyView) -> np.ndarray:
    """Row sums of the view as an int64 vector."""
    return view.matrix.sum(axis=1).astype(np.int64)
