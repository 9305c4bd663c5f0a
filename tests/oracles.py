"""Brute-force reference implementations, kept independent of the library's
linear-algebra code paths on purpose."""

import csv
import heapq
import io
import sys
from collections import defaultdict
from typing import IO, Iterable, Optional

import numpy as np

from pbspm.errors import EmptyGraphError, EmptyInputError, ParseError
from pbspm.graph import RawEvent, TemporalEventStream, TemporalGraph


def neighbor_sets(view):
    return [set(np.nonzero(view[i])[0]) for i in range(len(view))]


def katz_walk_oracle(view, x, y, damping, max_len=30):
    """Damped walk counts via adjacency-list dynamic programming (exact ints)."""
    nbrs = neighbor_sets(view)
    counts = {x: 1}
    total = 0.0
    for length in range(1, max_len + 1):
        nxt = defaultdict(int)
        for node, c in counts.items():
            for nb in nbrs[node]:
                nxt[nb] += c
        counts = nxt
        total += damping**length * counts.get(y, 0)
    return total


def srw_walk_oracle(view, t):
    """Step-by-step walk probabilities in pure Python lists."""
    n = len(view)
    a = view.tolist()
    k = [sum(row) for row in a]
    two_e = sum(k)
    q = [kx / two_e for kx in k]
    p = [[(a[x][y] / k[x] if k[x] else 0.0) for y in range(n)] for x in range(n)]
    pi = [row[:] for row in p]
    s = [[0.0] * n for _ in range(n)]
    for _ in range(t):
        for x in range(n):
            for y in range(n):
                s[x][y] += q[x] * pi[x][y] + q[y] * pi[y][x]
        pi = [
            [sum(pi[x][z] * p[z][y] for z in range(n)) for y in range(n)]
            for x in range(n)
        ]
    return np.array(s)


def greedy_simplify_oracle(stream: TemporalEventStream) -> TemporalGraph:
    """The original quadratic ``simplify``: before every emit it rescans the
    whole equal-timestamp group for the smallest prospective key.

    Reduce an event stream to a simple graph with per-edge timestamps.

    Self-loops are dropped. For every unordered pair only the first contact
    survives (smallest timestamp, file order breaking ties) and the edge
    carries that timestamp. Node ids are dense, assigned by first appearance
    along the final (t, u, v) edge order; anchoring the assignment to that
    order (rather than raw file order) makes simplify a one-step fixed point
    under re-serialization.

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

    def prospective_key(ev: RawEvent) -> tuple[int, int]:
        # Unassigned endpoints would take the next free ids, source first.
        next_free = len(labels)
        u = node_id.get(ev.source)
        v = node_id.get(ev.target)
        if u is None:
            u = next_free
            next_free += 1
        if v is None:
            v = next_free
        return (u, v) if u < v else (v, u)

    rows = np.empty((len(best), 3), dtype=np.int64)
    row = 0
    for ts in sorted(by_time):
        # Greedily emit the edge that sorts first under the ids it would
        # receive; ties (e.g. several all-new edges) fall back to file order.
        group = sorted(by_time[ts])
        while group:
            pick = min(range(len(group)), key=lambda g: (prospective_key(stream.events[group[g]]), g))
            ev = stream.events[group.pop(pick)]
            u, v = assign(ev.source), assign(ev.target)
            if u > v:
                u, v = v, u
            rows[row] = (u, v, ts)
            row += 1

    rows.setflags(write=False)
    return TemporalGraph(labels=tuple(labels), edges=rows, node_id=node_id)


def per_line_ingest_oracle(
    reader: IO, format: str = "tsv"
) -> tuple[tuple[RawEvent, ...], TemporalGraph]:
    """The per-line ingest that the columnar ``parse_edge_stream`` and
    ``simplify`` replaced: one ``RawEvent`` per line, then a dict of first
    contacts keyed by label pair. Returns the events and their simple graph,
    or raises what that ingest raised.

    It predates the int64 range check, so keep its inputs' stamps in range.
    """
    events = _oracle_parse_edge_stream(reader, format)
    return events, _oracle_simplify(events)


def _oracle_decode_lines(reader: IO) -> Iterable[str]:
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


def _oracle_parse_timestamp(token: str, line_no: int) -> int:
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


def _oracle_parse_edge_stream(reader: IO, format: str = "tsv") -> tuple[RawEvent, ...]:
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
    lines = _oracle_decode_lines(reader)
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
        events.append(RawEvent(src, dst, _oracle_parse_timestamp(ts_token, line_no), weight))
    if not events:
        raise EmptyInputError("edge stream contains no events")
    return tuple(events)


def _oracle_simplify(events: tuple[RawEvent, ...]) -> TemporalGraph:
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
    for idx, ev in enumerate(events):
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
        group = [events[idx] for idx in sorted(by_time[ts])]
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
