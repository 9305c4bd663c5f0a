"""Timestamped edge streams and their reduction to a simple undirected graph.

A contact dataset is a sequence of ``(source, target, [weight,] timestamp)``
events. Scoring operates on the simple graph obtained by dropping self-loops
and collapsing repeated contacts of a pair onto the pair's earliest event,
which is the time the edge entered the network.

A plain TSV file is read by numpy's C text reader: ASCII, 3 or 4 fields on
every line, labels of at most 7 bytes, int64 stamps, ``%`` or ``#`` only in a
leading header and no NUL. Every other input, CSV included, is parsed line by
line, by the one line grammar that also names a TSV file's bad line.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from contextlib import suppress
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import EmptyGraphError, EmptyInputError, ParseError

__all__ = [
    "TemporalEventStream",
    "TemporalGraph",
    "parse_edge_stream",
    "simplify",
    "adjacency",
    "degrees",
]


@dataclass(frozen=True, eq=False)
class TemporalEventStream:
    """Events in file order, before any simplification, held as columns.

    ``labels`` holds the distinct node labels in order of first appearance,
    source before target. ``source`` and ``target`` are int64 codes into
    ``labels`` and ``timestamp`` is int64, one entry per event. A line's
    weight is checked to parse as a float, then dropped: no method reads it.
    Build a stream with :func:`parse_edge_stream`.
    """

    labels: tuple[str, ...]
    source: np.ndarray
    target: np.ndarray
    timestamp: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)


def _frozen(labels: tuple[str, ...], *columns: np.ndarray) -> TemporalEventStream:
    """The stream of these labels and columns, the columns made read-only."""
    for column in columns:
        column.setflags(write=False)
    return TemporalEventStream(labels, *columns)


@dataclass(frozen=True, eq=False)
class TemporalGraph:
    """Simple undirected graph with one timestamp per edge.

    ``labels[i]`` is the external label of node ``i``; ids are dense and
    assigned by first appearance among surviving edges. ``edges`` is an
    ``(m, 3)`` int64 array of ``(u, v, t)`` rows with ``u < v``, sorted
    ascending by ``(t, u, v)``.
    """

    labels: tuple[str, ...]
    edges: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m_edges(self) -> int:
        return self.edges.shape[0]


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # The bad byte sits on the line after the last break before it;
        # the appended character gives that line its entry in splitlines.
        line_no = len((data[: err.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"invalid UTF-8 byte 0x{data[err.start]:02x}", line_no) from None


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
    if not -(2**63) <= value <= 2**63 - 1:
        raise ValueError(f"timestamp {token!r} is outside the int64 range")
    return value


def parse_edge_stream(reader: IO, format: str = "tsv") -> TemporalEventStream:
    """Read a TSV or CSV edge list into an event stream.

    Lines hold ``source target [weight] timestamp``; fields are whitespace
    separated for ``tsv`` and comma separated for ``csv``. Lines starting
    with ``%`` or ``#`` are comments; blank lines are ignored. A weight must
    parse as a float and is then dropped. A timestamp is an integer in the
    int64 range, possibly written as a float (``50.0``). One leading UTF-8
    byte-order mark is ignored.

    A plain TSV input is read by numpy's C text reader, ``np.loadtxt``; a
    text reader's text is encoded for it first. Plain means ASCII whose only
    whitespace is space, tab, LF and CR before LF, with the same 3 or 4
    fields on every line, labels of at most 7 bytes, stamps that numpy reads
    as int64, ``%`` or ``#`` only in the leading lines, and no NUL. Every
    other input is decoded and parsed line by line, by the grammar that names
    a file's first bad line.

    Raises:
        ParseError: a non-comment line does not fit the 3/4-field layout,
            its weight is not a float or its timestamp is not an int64, a
            CSV line holds a NUL, or a byte input is not valid UTF-8. It
            names the first such line.
        EmptyInputError: no events survive.
    """
    if format not in ("tsv", "csv"):
        raise ValueError(f"unknown format {format!r}")
    data = reader.read()
    data = data.removeprefix(b"\xef\xbb\xbf" if isinstance(data, bytes) else "\ufeff")
    if isinstance(data, str) and data.isascii():
        data = data.encode()
    if isinstance(data, bytes):
        if format == "tsv" and _ascii_separated(data):
            with suppress(ValueError):  # the grammar names the bad line, or reads the file
                return _parse_tsv_bytes(data)
        data = _decode(data)
    return _parse_lines(data, format)


def _parse_lines(text: str, format: str) -> TemporalEventStream:
    """Parse a decoded edge list line by line, by the one grammar of a line.

    Blank lines and lines whose first non-space character is ``%`` or ``#``
    are skipped. A ``csv`` line is split by its own ``csv.reader``, so a
    quote never reaches the next line, and each field is stripped; a ``tsv``
    line by ``str.split``. The checks of a line run in this order: the weight
    of a 4-field line, the field count, the two labels, the timestamp.

    Raises:
        ParseError: at the first line that fails a check, naming it.
        EmptyInputError: no line is an event.
    """
    labels, stamps = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "%#":
            continue
        if format == "tsv":
            fields = stripped.split()
        elif "\x00" in line:  # as csv.reader before Python 3.11 says
            raise ParseError("line contains NUL", line_no)
        else:
            try:  # e.g. a field longer than csv.field_size_limit()
                fields = [f.strip() for f in next(csv.reader((line,)))]
            except csv.Error as err:
                raise ParseError(str(err), line_no) from None
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
            stamps.append(_timestamp(fields[-1]))
        except ValueError as err:
            raise ParseError(str(err), line_no) from None
        labels.append(fields[0])
        labels.append(fields[1])
    if not stamps:
        raise EmptyInputError("edge stream contains no events")
    code = dict(zip(dict.fromkeys(labels), range(len(labels))))  # by first appearance
    codes = np.fromiter(map(code.__getitem__, labels), np.int64, len(labels))
    return _frozen(tuple(code), codes[0::2], codes[1::2], np.array(stamps, np.int64))


# The whitespace of str.split() and the line ends of str.splitlines() among
# ASCII bytes, beyond space, tab, LF and CR.
_OTHER_ASCII_SPACES = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _ascii_separated(data: bytes) -> bool:
    """Whether ``data`` is ASCII whose only whitespace is space, tab, LF and
    CR directly before LF, so that its bytes split into the tokens and lines
    that ``str.split`` and ``str.splitlines`` find in its text.
    """
    if not data.isascii() or any(space in data for space in _OTHER_ASCII_SPACES):
        return False
    # A lone CR ends a line.
    return b"\r" not in data or data.count(b"\r") == data.count(b"\r\n")


# The leading blank and comment lines of a file that passes ``_ascii_separated``.
_HEADER = re.compile(rb"(?:[ \t\r]*(?:[%#][^\n]*)?\n)*")


def _parse_tsv_bytes(data: bytes) -> TemporalEventStream:
    """Parse a TSV file from its bytes, ASCII that passes ``_ascii_separated``,
    by numpy's C text reader.

    Raises ValueError, without saying which line, for a file that numpy could
    read otherwise than the line grammar: one with a NUL, which ``S8`` drops
    from a label's end, or a ``%`` or ``#`` after its leading header of blank
    and comment lines; one whose lines do not all have the same 3 or 4
    fields; one with a label over 7 bytes, which ``S8`` cuts to 8; or one with
    a stamp or weight that numpy does not read.
    """
    body = data[_HEADER.match(data).end() :]
    if b"\0" in body or b"%" in body or b"#" in body:
        raise ValueError("a NUL, or a comment mark after the header")
    n_fields = len(body.split(b"\n", 1)[0].split())
    if n_fields not in (3, 4):
        raise ValueError("the first event line does not have 3 or 4 fields")
    dtype = [("s", "S8"), ("t", "S8")] + [("w", "f8")] * (n_fields - 3) + [("ts", "i8")]
    with warnings.catch_warnings():
        # numpy 1.24 reads the int64 stamp 5.5 as 5 with this warning; 2.4 raises.
        warnings.simplefilter("error", DeprecationWarning)
        table = np.loadtxt(io.BytesIO(body), dtype=dtype, comments=None, ndmin=1,
                           encoding="ascii")
    names = np.column_stack((table["s"], table["t"])).ravel()  # source, target, ...
    timestamp = table["ts"].copy()
    del table
    # With no NUL, a label of at most 7 bytes is keyed exactly by its bytes.
    key = names.view("<u8")
    if key.max() >= 1 << 56:
        raise ValueError("a label has more than 7 bytes")
    order = np.argsort(key)
    key = key[order]
    new = np.r_[True, key[1:] != key[:-1]]
    del key
    group = np.empty(new.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(new))  # each key's first label
    del order, new
    by_appearance = np.argsort(first)
    code = np.empty(first.size, dtype=np.int64)
    code[by_appearance] = np.arange(first.size)
    labels = tuple(names[first[by_appearance]].astype(str).tolist())
    codes = code[group]
    return _frozen(labels, codes[0::2], codes[1::2], timestamp)


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
    several all-new edges, go to file order. That rule is a breadth-first
    search. It starts from the group's endpoints that already have ids, in id
    order; each visited node gives its neighbours without an id the next ids,
    in the file order of their edges. When the search runs dry, the first edge
    it has not reached gives its source, then its target, the next ids, and
    the search goes on. That costs O(g) per group of g edges, plus four sorts.

    Raises:
        EmptyGraphError: every event was a self-loop.
    """
    source, target, stamp = stream.source, stream.target, stream.timestamp
    live = np.flatnonzero(source != target)
    if not live.size:
        raise EmptyGraphError("no edges remain after dropping self-loops")
    live = live[np.argsort(stamp[live], kind="stable")]  # by (t, file order)
    pair = np.minimum(source, target)[live] * len(stream.labels) + np.maximum(source, target)[live]
    first = live[np.sort(np.unique(pair, return_index=True)[1])]
    stamp = stamp[first]
    source, target = source[first], target[first]
    group_starts = np.flatnonzero(np.r_[True, stamp[1:] != stamp[:-1], True]).tolist()

    ids = [-1] * len(stream.labels)
    by_id: list[int] = []  # label codes in id order

    def assign(code: int) -> None:
        if ids[code] < 0:
            ids[code] = len(by_id)
            by_id.append(code)

    a_codes, b_codes = source.tolist(), target.tolist()
    for lo, hi in zip(group_starts[:-1], group_starts[1:]):
        if hi - lo == 1:
            assign(a_codes[lo])
            assign(b_codes[lo])
            continue
        around: dict[int, list[int]] = {}  # each label's neighbours, in file order
        for a, b in zip(a_codes[lo:hi], b_codes[lo:hi]):
            around.setdefault(a, []).append(b)
            around.setdefault(b, []).append(a)
        # New ids exceed every old one, so the queue stays in id order.
        queue = sorted((code for code in around if ids[code] >= 0), key=ids.__getitem__)
        head, unreached = 0, lo
        while True:
            if head == len(queue):
                # Dry: every edge touching a node with an id has been reached.
                while unreached < hi and ids[a_codes[unreached]] >= 0:
                    unreached += 1
                if unreached == hi:
                    break
                queue += (a_codes[unreached], b_codes[unreached])
                assign(a_codes[unreached])
                assign(b_codes[unreached])
            for code in around[queue[head]]:
                if ids[code] < 0:
                    assign(code)
                    queue.append(code)
            head += 1

    ids = np.array(ids, dtype=np.int64)
    u, v = ids[source], ids[target]
    u, v = np.minimum(u, v), np.maximum(u, v)
    rows = np.column_stack((u, v, stamp))[np.lexsort((v, u, stamp))]
    rows.setflags(write=False)
    labels = tuple(map(stream.labels.__getitem__, by_id))
    return TemporalGraph(labels=labels, edges=rows)


def _endpoints(edges: np.ndarray, n: int) -> np.ndarray:
    """The endpoint columns of the edge rows ``edges``; ValueError for one outside
    ``[0, n)``, which numpy would wrap round to the end of its axis if negative."""
    ends = np.asarray(edges)[:, :2]
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise ValueError(f"edge endpoint outside [0, {n})")
    return ends


def adjacency(edges: np.ndarray, n: int) -> np.ndarray:
    """Binary adjacency of the edge rows ``edges`` over ``n`` nodes.

    ``edges`` is an ``(m, >=2)`` int array whose first two columns are the
    endpoints, such as ``split.train``. The result is a read-only,
    symmetric, dense float64 n x n array with a 1 at both orientations of
    each row, so it can feed linear algebra directly.

    Raises:
        ValueError: an endpoint outside ``[0, n)``.
    """
    ends = _endpoints(edges, n)
    matrix = np.zeros((n, n), dtype=np.float64)
    if ends.size:
        matrix[ends[:, 0], ends[:, 1]] = 1.0
        matrix[ends[:, 1], ends[:, 0]] = 1.0
    matrix.setflags(write=False)
    return matrix


def degrees(adj: np.ndarray) -> np.ndarray:
    """Row sums of the adjacency matrix as an int64 vector."""
    return adj.sum(axis=1).astype(np.int64)
