"""Parsing, simplification, and adjacency against brute-force pair oracles."""

import csv
import io
import time

import numpy as np
import pytest

from pbspm.errors import DataError, EmptyGraphError, EmptyInputError, ParseError
from pbspm.graph import (
    RawEvent,
    TemporalEventStream,
    adjacency,
    degree,
    degrees,
    parse_edge_stream,
    simplify,
)

from conftest import random_event_stream
from oracles import greedy_simplify_oracle, per_line_ingest_oracle


def pair_oracle(stream):
    """Earliest (timestamp, file order) event per unordered non-loop pair."""
    best = {}
    for idx, ev in enumerate(stream.events):
        if ev.source == ev.target:
            continue
        key = frozenset((ev.source, ev.target))
        if key not in best or (ev.timestamp, idx) < best[key]:
            best[key] = (ev.timestamp, idx)
    return best


class TestParseEdgeStream:
    def test_four_field_line(self):
        stream = parse_edge_stream(io.BytesIO(b"1 2 1 1246360000\n"))
        assert len(stream) == 1
        ev = stream.events[0]
        assert (ev.source, ev.target, ev.timestamp, ev.weight) == ("1", "2", 1246360000, 1.0)

    def test_three_field_line_tab_separated(self):
        stream = parse_edge_stream(io.BytesIO(b"a\tb\t5\n"))
        ev = stream.events[0]
        assert (ev.source, ev.target, ev.timestamp, ev.weight) == ("a", "b", 5, None)

    def test_comment_skipped_and_self_loop_retained(self):
        stream = parse_edge_stream(io.BytesIO(b"% comment\n1 1 1 7\n"))
        assert len(stream) == 1
        assert stream.events[0].source == stream.events[0].target == "1"

    def test_hash_comment_and_blank_lines(self):
        stream = parse_edge_stream(io.BytesIO(b"# header\n\n1 2 3\n"))
        assert len(stream) == 1

    def test_csv_format(self):
        stream = parse_edge_stream(io.BytesIO(b"a,b,2,10\nb,c,20\n"), format="csv")
        assert [(e.source, e.target, e.timestamp) for e in stream.events] == [
            ("a", "b", 10),
            ("b", "c", 20),
        ]

    def test_csv_field_over_size_limit_names_its_line(self):
        label = "x" * (csv.field_size_limit() + 1)
        data = f"a,b,1\n{label},b,2\n".encode()
        with pytest.raises(ParseError) as exc:
            parse_edge_stream(io.BytesIO(data), format="csv")
        assert exc.value.line_no == 2
        assert "field larger than field limit" in str(exc.value)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_stream(io.BytesIO(b"1 2 3\n1 2\n"))
        assert exc.value.line_no == 2

    def test_bad_timestamp_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_stream(io.BytesIO(b"1 2 soon\n"))

    def test_integral_float_timestamp_accepted(self):
        stream = parse_edge_stream(io.BytesIO(b"1 2 50.0\n"))
        assert stream.events[0].timestamp == 50

    def test_empty_stream_rejected(self):
        with pytest.raises(EmptyInputError):
            parse_edge_stream(io.BytesIO(b"% only comments\n"))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            parse_edge_stream(io.BytesIO(b"1 2 3\n"), format="xml")

    def test_text_reader_accepted(self):
        stream = parse_edge_stream(io.StringIO("1 2 3\n"))
        assert len(stream) == 1

    def test_utf8_labels(self):
        stream = parse_edge_stream(io.BytesIO("κόμβος δεσμός 9\n".encode("utf-8")))
        assert stream.events[0].source == "κόμβος"
        assert stream.events[0].target == "δεσμός"

    @pytest.mark.parametrize("data, line_no", [
        (b"1 2 3\n4 5 6\n7 \xff 8\n", 3),
        (b"\xfe 2 3\n", 1),
        (b"1 2 3\r\n% caf\xe9\r\n", 2),
        (b"1 2 3\n4 5 6\n\xc3", 3),
    ])
    def test_invalid_utf8_reports_line_number(self, data, line_no):
        with pytest.raises(ParseError) as exc:
            parse_edge_stream(io.BytesIO(data))
        assert exc.value.line_no == line_no
        assert "UTF-8" in str(exc.value)

    @pytest.mark.parametrize("data, line_no", [
        (b"1\t2\t99999999999999999999\n", 1),  # a new pair
        (b"1\t2\t5\n2\t1\t99999999999999999999\n", 2),  # a pair seen earlier
        (b"1\t2\t5\n3\t4\t1e20\n", 2),
        (b"1\t2\t-9223372036854775809\n", 1),
        (b"1\t2\t9223372036854775808\n", 1),
    ])
    def test_timestamp_outside_int64_names_its_line(self, data, line_no):
        with pytest.raises(ParseError) as exc:
            parse_edge_stream(io.BytesIO(data))
        assert exc.value.line_no == line_no
        assert "outside the int64 range" in str(exc.value)

    def test_int64_bounds_accepted(self):
        stream = parse_edge_stream(
            io.BytesIO(b"1 2 9223372036854775807\n2 3 -9223372036854775808\n")
        )
        assert stream.timestamp.tolist() == [2**63 - 1, -(2**63)]

    def test_first_bad_line_is_reported(self):
        # Line 2 has a bad weight and line 3 a wrong field count: line 2 wins.
        with pytest.raises(ParseError) as exc:
            parse_edge_stream(io.BytesIO(b"1 2 3\n1 2 w 4\n1 2\n"))
        assert exc.value.line_no == 2
        assert "bad weight" in str(exc.value)

    def test_columns(self):
        stream = parse_edge_stream(io.BytesIO(b"b a 7\n% x\na c 0.5 3\n"))
        assert stream.labels == ("b", "a", "c")
        assert stream.source.tolist() == [0, 1]
        assert stream.target.tolist() == [1, 2]
        assert stream.timestamp.tolist() == [7, 3]
        assert stream.weighted.tolist() == [False, True]
        assert np.isnan(stream.weight[0]) and stream.weight[1] == 0.5
        assert [ev.weight for ev in stream.events] == [None, 0.5]

    def test_valid_tsv_builds_no_raw_event(self, monkeypatch):
        # The per-line objects stay off the ingest path of a valid file.
        def refuse(self, *args, **kwargs):
            raise AssertionError("RawEvent constructed while ingesting")

        monkeypatch.setattr(RawEvent, "__init__", refuse)
        rng = np.random.default_rng(41)
        rows = rng.integers(0, 30, size=(500, 3))
        data = "".join(f"{u}\t{v}\t{t}\n" for u, v, t in rows.tolist()).encode()
        graph = simplify(parse_edge_stream(io.BytesIO(data)))
        assert graph.m_edges > 0


def random_contact_file(rng, fmt):
    """A random TSV or CSV contact file as bytes, with at most one bad line.

    Few labels and stamps make repeated pairs and large equal-stamp groups;
    lines mix 3 and 4 fields, separators, comments, blank lines, CRLF and
    stamps written as floats. Returns the bytes and the kind of bad line.
    """
    pool = ["1", "2", "17", "a", "Node", "κόμβος", "节点", "ü", "x.y"]
    labels = list(rng.choice(pool, size=int(rng.integers(2, len(pool) + 1)), replace=False))
    t_max = int(rng.integers(1, 6))
    sep = "," if fmt == "csv" else "\t"

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def event_fields():
        stamp = int(rng.integers(-1, t_max))
        fields = [pick(labels), pick(labels), pick([str(stamp), f"{stamp}.0", f"{stamp}e0"])]
        if rng.random() < 0.3:
            fields.insert(2, pick(["1", "0.5", "2e-3", "nan", "-inf", "7"]))
        return fields

    def join(fields):
        if fmt == "csv":
            if rng.random() < 0.2:  # a comma inside quotes, which must open the line
                return ",".join([f'"{fields[0]},{fields[0]}"', *fields[1:]])
            return pick(["", " "]) + pick([",", ", ", " ,"]).join(fields)
        seps = [pick([" ", "\t", "  ", " \t"]) for _ in fields[1:]]
        return pick(["", " "]) + "".join(f + s for f, s in zip(fields, seps)) + fields[-1]

    lines = []
    for _ in range(int(rng.integers(1, 40))):
        r = rng.random()
        if r < 0.08:
            lines.append(pick(["", "  ", "\t"]))
        elif r < 0.16:
            lines.append(pick(["", "  ", "\t"]) + pick(["%", "#"]) + pick(["", " note 1 2 3"]))
        else:
            lines.append(join(event_fields()) + pick(["", " ", "\t"]))
    kinds = ["fields", "weight", "stamp", "non-integer stamp", "utf-8"]
    if fmt == "csv":
        kinds.append("empty label")
    kind = pick(kinds) if rng.random() < 0.5 else None
    at = int(rng.integers(len(lines) + 1))
    a, b = pick(labels), pick(labels)
    bad = {
        None: None,
        "fields": [a, b] if rng.random() < 0.5 else [a, b, "1", "2", "3"],
        "weight": [a, b, "w", "1"],
        "stamp": [a, b, "soon"],
        "non-integer stamp": [a, b, pick(["1.5", "inf", "nan"])],
        "empty label": ["", b, "1"],
        "utf-8": [a, b, "1"],
    }[kind]
    if bad is not None:
        lines.insert(at, join(bad))
    encoded = [line.encode("utf-8") for line in lines]
    if kind == "utf-8":
        encoded[at] = encoded[at][:1] + pick([b"\xff", b"\xc3"]) + encoded[at][1:]
    data = b""
    for line in encoded:
        data += line + pick([b"\n", b"\r\n"])
    return (data if rng.random() < 0.8 else data.rstrip(b"\r\n")), kind


def ingest_outcome(ingest):
    """What an ingest returns, or the class, message and line of what it raises."""
    try:
        events, graph = ingest()
    except (DataError, csv.Error) as err:
        return type(err), str(err), getattr(err, "line_no", None)
    # repr tells a NaN weight from None and an int stamp from a numpy one.
    return [repr(ev) for ev in events], graph.labels, graph.edges.tolist(), graph.node_id


class TestColumnarIngestMatchesPerLine:
    """The columnar parse and simplify against the per-line ingest they replaced."""

    @pytest.mark.parametrize("fmt", ["tsv", "csv"])
    def test_random_files(self, fmt):
        rng = np.random.default_rng(43 if fmt == "tsv" else 47)
        outcomes = []
        for _ in range(300):
            data, kind = random_contact_file(rng, fmt)

            def columnar():
                stream = parse_edge_stream(io.BytesIO(data), fmt)
                return stream.events, simplify(stream)

            want = ingest_outcome(lambda: per_line_ingest_oracle(io.BytesIO(data), fmt))
            got = ingest_outcome(columnar)
            assert got == want, data
            if kind is None and not isinstance(want[0], type):
                stream = parse_edge_stream(io.BytesIO(data), fmt)
                assert_same_graph(simplify(stream), greedy_simplify_oracle(stream))
            outcomes.append(want[0] if isinstance(want[0], type) else "graph")
        assert outcomes.count(ParseError) >= 100
        assert outcomes.count("graph") >= 100


class TestSimplify:
    def test_dedupe_keeps_earliest_and_drops_loop(self):
        stream = TemporalEventStream.from_events(
            (RawEvent("1", "2", 5), RawEvent("2", "1", 9), RawEvent("1", "1", 3))
        )
        graph = simplify(stream)
        assert graph.n == 2
        assert graph.m_edges == 1
        assert tuple(graph.edges[0]) == (0, 1, 5)

    def test_two_edges_three_nodes(self):
        stream = TemporalEventStream.from_events((RawEvent("a", "b", 1), RawEvent("b", "c", 2)))
        graph = simplify(stream)
        assert graph.n == 3
        assert graph.m_edges == 2

    def test_all_loops_is_empty_graph(self):
        stream = TemporalEventStream.from_events((RawEvent("x", "x", 1), RawEvent("y", "y", 2)))
        with pytest.raises(EmptyGraphError):
            simplify(stream)

    def test_repeated_pairs_collapse_to_pair_count(self):
        # k distinct pairs each repeated r times must yield exactly k edges.
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            pairs = set()
            while len(pairs) < k:
                a, b = sorted(rng.integers(10, size=2))
                if a != b:
                    pairs.add((str(a), str(b)))
            events = []
            for a, b in pairs:
                for _ in range(int(rng.integers(1, 5))):
                    flip = rng.random() < 0.5
                    events.append(
                        RawEvent(b if flip else a, a if flip else b, int(rng.integers(100)))
                    )
            rng.shuffle(events)
            graph = simplify(TemporalEventStream.from_events(events))
            assert graph.m_edges == k

    def test_matches_pair_oracle_on_random_streams(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            stream = random_event_stream(rng)
            oracle = pair_oracle(stream)
            if not oracle:
                continue
            graph = simplify(stream)
            assert graph.m_edges == len(oracle)
            got = {
                frozenset((graph.labels[u], graph.labels[v])): t
                for u, v, t in graph.edges
            }
            assert got == {key: ts for key, (ts, _) in oracle.items()}

    def test_edges_sorted_by_time_then_endpoints(self, shift_graph):
        edges = shift_graph.edges
        keys = [tuple(row) for row in edges[:, [2, 0, 1]]]
        assert keys == sorted(keys)

    def test_every_node_appears_in_an_edge(self, shift_graph):
        seen = set(shift_graph.edges[:, 0]) | set(shift_graph.edges[:, 1])
        assert seen == set(range(shift_graph.n))

    def test_round_trip_is_idempotent(self):
        rng = np.random.default_rng(5)

        def serialize(graph):
            return TemporalEventStream.from_events(
                tuple(
                    RawEvent(graph.labels[u], graph.labels[v], int(t))
                    for u, v, t in graph.edges
                )
            )

        for _ in range(10):
            graph1 = simplify(random_event_stream(rng, n_events=60, loop_rate=0.1))
            graph2 = simplify(serialize(graph1))
            assert graph2.labels == graph1.labels
            assert np.array_equal(graph2.edges, graph1.edges)


def assert_same_graph(got, want):
    assert got.labels == want.labels
    assert np.array_equal(got.edges, want.edges)
    assert got.node_id == want.node_id


class TestSimplifyMatchesGreedy:
    """The heap-ordered emit against the quadratic greedy it replaced."""

    def test_random_coarse_streams(self):
        rng = np.random.default_rng(29)
        compared = 0
        for _ in range(600):
            # Few labels and 1-5 stamps make large equal-timestamp groups;
            # pairs repeat in both orientations, and some events are loops.
            stream = random_event_stream(
                rng,
                n_labels=int(rng.integers(2, 26)),
                n_events=int(rng.integers(1, 151)),
                t_max=int(rng.integers(2, 7)),
            )
            try:
                want = greedy_simplify_oracle(stream)
            except EmptyGraphError:
                with pytest.raises(EmptyGraphError):
                    simplify(stream)
                continue
            assert_same_graph(simplify(stream), want)
            compared += 1
        assert compared >= 500

    @pytest.mark.parametrize("events, labels, edges", [
        # All-new edges in one stamp: file order decides.
        (
            [("c", "d", 1), ("a", "b", 1), ("f", "e", 1)],
            ("c", "d", "a", "b", "f", "e"),
            [(0, 1, 1), (2, 3, 1), (4, 5, 1)],
        ),
        # Half-new edges sharing a known endpoint: the smaller known id goes
        # first, file order only among equal known ids.
        (
            [("a", "b", 1), ("a", "x", 2), ("y", "b", 2), ("a", "z", 2)],
            ("a", "b", "x", "z", "y"),
            [(0, 1, 1), (0, 2, 2), (0, 3, 2), (1, 4, 2)],
        ),
        # Emitting (a, x) gives (x, b) both ids; it then jumps ahead of the
        # earlier half-new (b, y).
        (
            [("a", "b", 1), ("b", "y", 2), ("a", "x", 2), ("x", "b", 2)],
            ("a", "b", "x", "y"),
            [(0, 1, 1), (0, 2, 2), (1, 2, 2), (1, 3, 2)],
        ),
        # (x, y) is re-keyed twice: all-new, then half-new, then fixed.
        (
            [("a", "b", 1), ("x", "y", 2), ("a", "x", 2), ("b", "y", 2), ("a", "z", 2)],
            ("a", "b", "x", "z", "y"),
            [(0, 1, 1), (0, 2, 2), (0, 3, 2), (1, 4, 2), (2, 4, 2)],
        ),
    ])
    def test_tie_classes(self, events, labels, edges):
        stream = TemporalEventStream.from_events(RawEvent(*ev) for ev in events)
        graph = simplify(stream)
        assert graph.labels == labels
        assert graph.edges.tolist() == [list(row) for row in edges]
        assert_same_graph(graph, greedy_simplify_oracle(stream))

    def test_one_large_stamp_is_not_quadratic(self):
        # The greedy rescans the group before every emit: about 14 s here.
        rng = np.random.default_rng(31)
        pairs = set()
        while len(pairs) < 8000:
            a, b = rng.integers(2000, size=2)
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        pairs = sorted(pairs)
        rng.shuffle(pairs)
        events = tuple(RawEvent(str(a), str(b), 7) for a, b in pairs)
        start = time.perf_counter()
        graph = simplify(TemporalEventStream.from_events(events))
        elapsed = time.perf_counter() - start
        assert graph.m_edges == 8000
        assert elapsed < 2.0


class TestAdjacency:
    def _graph(self, *pairs):
        events = tuple(RawEvent(a, b, i + 1) for i, (a, b) in enumerate(pairs))
        return simplify(TemporalEventStream.from_events(events))

    def test_path_graph(self):
        graph = self._graph(("0", "1"), ("1", "2"))
        view = adjacency(graph)
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(view, expected)

    def test_empty_subset_is_zero_matrix(self):
        graph = self._graph(("0", "1"), ("1", "2"))
        view = adjacency(graph, edge_subset=[])
        assert not view.any()
        assert len(view) == 3

    def test_subset_out_of_range(self):
        graph = self._graph(("0", "1"), ("1", "2"))
        with pytest.raises(IndexError):
            adjacency(graph, edge_subset=[5])

    def test_matches_pair_set_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            stream = random_event_stream(rng, n_labels=6, n_events=25)
            try:
                graph = simplify(stream)
            except EmptyGraphError:
                continue
            view = adjacency(graph)
            pairs = {(min(u, v), max(u, v)) for u, v, _ in graph.edges}
            for i in range(graph.n):
                for j in range(graph.n):
                    expected = 1.0 if (min(i, j), max(i, j)) in pairs and i != j else 0.0
                    assert view[i, j] == expected

    def test_symmetric_with_2m_nonzeros(self, shift_graph):
        view = adjacency(shift_graph)
        assert np.array_equal(view, view.T)
        assert np.count_nonzero(view) == 2 * shift_graph.m_edges
        assert not view.diagonal().any()


class TestDegree:
    def test_star_center(self):
        events = tuple(RawEvent("hub", leaf, i + 1) for i, leaf in enumerate("xyz"))
        graph = simplify(TemporalEventStream.from_events(events))
        view = adjacency(graph)
        assert degree(view, graph.node_id["hub"]) == 3

    def test_isolated_in_subset(self):
        events = (RawEvent("a", "b", 1), RawEvent("c", "d", 2))
        graph = simplify(TemporalEventStream.from_events(events))
        view = adjacency(graph, edge_subset=[0])
        assert degree(view, graph.node_id["c"]) == 0

    def test_out_of_range(self, shift_graph):
        view = adjacency(shift_graph)
        with pytest.raises(IndexError):
            degree(view, shift_graph.n)
        with pytest.raises(IndexError):
            degree(view, -1)

    def test_degree_sum_is_twice_edge_count(self, shift_graph):
        view = adjacency(shift_graph)
        assert degrees(view).sum() == 2 * shift_graph.m_edges

    def test_matches_neighbor_count_oracle(self):
        rng = np.random.default_rng(23)
        stream = random_event_stream(rng, n_labels=7, n_events=30)
        graph = simplify(stream)
        view = adjacency(graph)
        neighbors = {i: set() for i in range(graph.n)}
        for u, v, _ in graph.edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        for node in range(graph.n):
            assert degree(view, node) == len(neighbors[node])
