"""Timestamped edge streams and their reduction to a simple undirected graph.

A contact dataset is a sequence of ``(source, target, [weight,] timestamp)``
events. Scoring operates on the simple graph obtained by dropping self-loops
and collapsing repeated contacts of a pair onto the pair's earliest event,
which is the time the edge entered the network.
"""

from __future__ import annotations

import csv
import heapq
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .errors import EmptyGraphError, EmptyInputError, ParseError

__all__ = [
    "RawEvent",
    "TemporalEventStream",
    "TemporalGraph",
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


@dataclass(frozen=True, eq=False)
class TemporalEventStream:
    """Events in file order, before any simplification, held as columns.

    ``labels`` holds the distinct node labels in order of first appearance,
    source before target. ``source`` and ``target`` are int64 codes into
    ``labels`` and ``timestamp`` is int64, one entry per event. ``weight`` is
    float64 and reads NaN where ``weighted``, a bool column, is False: the
    event has no weight. Build a stream with :func:`parse_edge_stream` or
    :meth:`from_events`.
    """

    labels: tuple[str, ...]
    source: np.ndarray
    target: np.ndarray
    timestamp: np.ndarray
    weight: np.ndarray
    weighted: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)

    @classmethod
    def from_events(cls, events: Iterable[RawEvent]) -> TemporalEventStream:
        """The stream of ``events``, in their order."""
        events = tuple(events)
        return _coded(
            [ev.source for ev in events],
            [ev.target for ev in events],
            np.fromiter((ev.timestamp for ev in events), np.int64, len(events)),
            np.array([np.nan if ev.weight is None else ev.weight for ev in events], np.float64),
            np.array([ev.weight is not None for ev in events], bool),
        )

    @cached_property
    def events(self) -> tuple[RawEvent, ...]:
        """The events as a tuple of :class:`RawEvent`, built on first access."""
        label = self.labels.__getitem__
        weights = zip(self.weight.tolist(), self.weighted.tolist())
        return tuple(map(
            RawEvent,
            map(label, self.source.tolist()),
            map(label, self.target.tolist()),
            self.timestamp.tolist(),
            [w if has else None for w, has in weights],
        ))


def _coded(
    sources: Sequence[str],
    targets: Sequence[str],
    timestamp: np.ndarray,
    weight: np.ndarray,
    weighted: np.ndarray,
) -> TemporalEventStream:
    """The stream of these columns, its labels coded by first appearance."""
    labels = tuple(dict.fromkeys(chain.from_iterable(zip(sources, targets))))
    code = dict(zip(labels, range(len(labels)))).__getitem__
    source = np.fromiter(map(code, sources), np.int64, len(timestamp))
    target = np.fromiter(map(code, targets), np.int64, len(timestamp))
    for column in (source, target, timestamp, weight, weighted):
        column.setflags(write=False)
    return TemporalEventStream(labels, source, target, timestamp, weight, weighted)


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


_INT64 = np.iinfo(np.int64)


def _decode(reader: IO) -> str:
    data = reader.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as err:
            # The bad byte sits on the line after the last break before it;
            # the appended character gives that line its entry in splitlines.
            line_no = len((data[: err.start].decode("utf-8") + "x").splitlines())
            raise ParseError(f"invalid UTF-8 byte 0x{data[err.start]:02x}", line_no) from None
    return data


def _timestamp(token: str) -> int:
    """The int64 value of a timestamp token; a ValueError says what is wrong."""
    try:
        value = int(token)
    except ValueError:
        try:
            real = float(token)
        except ValueError:
            raise ValueError(f"bad timestamp {token!r}") from None
        if not np.isfinite(real) or real != int(real):
            raise ValueError(f"non-integer timestamp {token!r}") from None
        value = int(real)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"timestamp {token!r} is outside the int64 range")
    return value


def parse_edge_stream(reader: IO, format: str = "tsv") -> TemporalEventStream:
    """Read a TSV or CSV edge list into an event stream.

    Lines hold ``source target [weight] timestamp``; fields are whitespace
    separated for ``tsv`` and comma separated for ``csv``. Lines starting
    with ``%`` or ``#`` are comments; blank lines are ignored. A timestamp is
    an integer in the int64 range, possibly written as a float (``50.0``).

    The whole file is parsed column by column; only a file that fails is
    read again line by line, to name its first bad line.

    Raises:
        ParseError: a non-comment line does not fit the 3/4-field layout or
            its timestamp is not an int64, or a byte input is not valid
            UTF-8. It names the first such line.
        EmptyInputError: no events survive.
    """
    if format not in ("tsv", "csv"):
        raise ValueError(f"unknown format {format!r}")
    text = _decode(reader)
    try:
        return _parse_columns(text, format)
    except (ValueError, OverflowError, csv.Error):
        _raise_first_bad_line(text, format)
        raise


def _parse_columns(text: str, format: str) -> TemporalEventStream:
    """Parse a whole decoded file at once, column by column.

    A malformed line raises ValueError, OverflowError or csv.Error without
    saying which line it is.
    """
    lines = text.splitlines()
    # Every line break is whitespace, so text.split() lists the lines' fields in order.
    n_fields = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    data = n_fields > 0
    if "%" in text or "#" in text:
        comment = map(str.startswith, map(str.lstrip, lines), repeat(("%", "#")))
        data &= ~np.fromiter(comment, bool, len(lines))
    if format == "csv":
        # Parsed one line per reader, so a quote never reaches the next line.
        records = list(map(next, map(csv.reader, zip(compress(lines, data)))))
        n_fields = np.fromiter(map(len, records), np.intp, len(records))
        data = np.ones(len(records), dtype=bool)
        fields = list(map(str.strip, chain.from_iterable(records)))
        del lines, records
    else:
        del lines
        fields = text.split()
    start = (np.cumsum(n_fields) - n_fields)[data]
    n_fields = n_fields[data]
    if not n_fields.size:
        raise EmptyInputError("edge stream contains no events")
    if not np.isin(n_fields, (3, 4)).all():
        raise ValueError("a line does not have 3 or 4 fields")
    fields = np.fromiter(fields, object, len(fields))

    weighted = n_fields == 4
    weight = np.full(len(start), np.nan)
    weight[weighted] = np.fromiter(
        map(float, fields[start[weighted] + 2]), np.float64, np.count_nonzero(weighted)
    )
    stamps = fields[start + n_fields - 1]
    try:
        timestamp = np.fromiter(map(int, stamps), np.int64, len(stamps))
    except ValueError:  # stamps such as 50.0 or 1e3
        timestamp = np.fromiter(map(_timestamp, stamps), np.int64, len(stamps))
    stream = _coded(fields[start], fields[start + 1], timestamp, weight, weighted)
    if "" in stream.labels:
        raise ValueError("empty node label")
    return stream


def _raise_first_bad_line(text: str, format: str) -> None:
    """Raise the error of the first malformed line, reading line by line."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "%#":
            continue
        if format == "csv":
            try:  # e.g. a field longer than csv.field_size_limit()
                fields = [f.strip() for f in next(csv.reader((line,)))]
            except csv.Error as err:
                raise ParseError(str(err), line_no) from None
        else:
            fields = stripped.split()
        if len(fields) == 4:
            try:
                float(fields[2])
            except ValueError:
                raise ParseError(f"bad weight {fields[2]!r}", line_no) from None
        elif len(fields) != 3:
            raise ParseError(f"expected 3 or 4 fields, got {len(fields)}", line_no)
        if not fields[0] or not fields[1]:
            raise ParseError("empty node label", line_no)
        try:
            _timestamp(fields[-1])
        except ValueError as err:
            raise ParseError(str(err), line_no) from None


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
    source, target, stamp = stream.source, stream.target, stream.timestamp
    live = np.flatnonzero(source != target)
    if not live.size:
        raise EmptyGraphError("no edges remain after dropping self-loops")
    low, high = np.minimum(source, target)[live], np.maximum(source, target)[live]
    pair = low * len(stream.labels) + high
    # Sorted by (pair, t, file index): the sort is stable and `live` ascends,
    # so each pair's run starts at its first contact.
    by_pair = np.lexsort((stamp[live], pair))
    pair = pair[by_pair]
    first = live[by_pair[np.r_[True, pair[1:] != pair[:-1]]]]
    first = first[np.lexsort((first, stamp[first]))]  # by (t, file order)
    stamp = stamp[first]
    source, target = source[first], target[first]
    group_starts = np.flatnonzero(np.r_[True, stamp[1:] != stamp[:-1], True]).tolist()

    # An unassigned endpoint would take the next free id, which exceeds every
    # assigned id; among the edges still waiting, reading it as `unseen`
    # orders them exactly as those prospective ids would.
    unseen = sys.maxsize
    ids = [unseen] * len(stream.labels)
    by_id: list[int] = []  # label codes in id order
    emitted: list[int] = []  # indices into `first`, in emit order

    def assign(code: int) -> None:
        if ids[code] == unseen:
            ids[code] = len(by_id)
            by_id.append(code)

    def key(a: int, b: int) -> tuple[int, int]:
        u, v = ids[a], ids[b]
        return (u, v) if u < v else (v, u)

    a_codes, b_codes = source.tolist(), target.tolist()
    for lo, hi in zip(group_starts[:-1], group_starts[1:]):
        if hi - lo == 1:
            assign(a_codes[lo])
            assign(b_codes[lo])
            emitted.append(lo)
            continue
        group = list(zip(a_codes[lo:hi], b_codes[lo:hi]))
        keys: list[Optional[tuple[int, int]]] = [key(a, b) for a, b in group]
        heap = [(k, g) for g, k in enumerate(keys)]  # g: file order breaks ties
        heapq.heapify(heap)
        waiting: dict[int, list[int]] = {}
        for g, ends in enumerate(group):
            for code in ends:
                if ids[code] == unseen:
                    waiting.setdefault(code, []).append(g)
        while heap:
            k, g = heapq.heappop(heap)
            if k != keys[g]:
                continue  # emitted, or re-keyed lower since this entry was pushed
            keys[g] = None
            for code in group[g]:
                assign(code)
            emitted.append(lo + g)
            # A key falls only when one of its labels gets an id.
            for code in group[g]:
                for w in waiting.pop(code, ()):
                    if keys[w] is not None:
                        keys[w] = key(*group[w])
                        heapq.heappush(heap, (keys[w], w))

    ids = np.array(ids, dtype=np.int64)
    u, v = ids[source[emitted]], ids[target[emitted]]
    rows = np.column_stack((np.minimum(u, v), np.maximum(u, v), stamp[emitted]))
    rows.setflags(write=False)
    labels = tuple(map(stream.labels.__getitem__, by_id))
    return TemporalGraph(labels=labels, edges=rows, node_id=dict(zip(labels, range(len(labels)))))


def adjacency(
    graph: TemporalGraph, edge_subset: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Binary adjacency over the full node set, restricted to ``edge_subset``.

    ``edge_subset`` holds indices into ``graph.edges``; ``None`` means all
    edges. The result is a read-only, symmetric, dense float64 n x n array so
    it can feed linear algebra directly.
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
    return matrix


def degree(adj: np.ndarray, node: int) -> int:
    """Number of neighbors of ``node`` in the adjacency matrix ``adj``."""
    if not 0 <= node < len(adj):
        raise IndexError(f"node {node} out of range for n={len(adj)}")
    return int(adj[node].sum())


def degrees(adj: np.ndarray) -> np.ndarray:
    """Row sums of the adjacency matrix as an int64 vector."""
    return adj.sum(axis=1).astype(np.int64)
