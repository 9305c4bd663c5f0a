"""Parsing, simplification, and adjacency against brute-force pair oracles."""

import csv
import io
import re
import time
import warnings
from contextlib import suppress

import numpy as np
import pytest

from pbspm.errors import DataError, EmptyGraphError, EmptyInputError, ParseError
from pbspm.graph import adjacency, degrees, parse_edge_stream, simplify

from conftest import random_event_stream, tsv_stream
from oracles import greedy_simplify_oracle, per_line_ingest_oracle, rows


def pair_oracle(stream):
    """Earliest (timestamp, file order) event per unordered non-loop pair."""
    best = {}
    for idx, ev in enumerate(rows(stream)):
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
        assert rows(stream) == (("1", "2", 1246360000),)

    def test_three_field_line_tab_separated(self):
        stream = parse_edge_stream(io.BytesIO(b"a\tb\t5\n"))
        assert rows(stream) == (("a", "b", 5),)

    def test_comment_skipped_and_self_loop_retained(self):
        stream = parse_edge_stream(io.BytesIO(b"% comment\n1 1 1 7\n"))
        assert len(stream) == 1
        assert stream.labels == ("1",)
        assert stream.source.tolist() == stream.target.tolist() == [0]

    def test_hash_comment_and_blank_lines(self):
        stream = parse_edge_stream(io.BytesIO(b"# header\n\n1 2 3\n"))
        assert len(stream) == 1

    def test_csv_format(self):
        stream = parse_edge_stream(io.BytesIO(b"a,b,2,10\nb,c,20\n"), format="csv")
        assert [(e.source, e.target, e.timestamp) for e in rows(stream)] == [
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
        assert stream.timestamp.tolist() == [50]

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
        assert stream.labels == ("κόμβος", "δεσμός")

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

    @pytest.mark.parametrize("fmt, line, message", [
        ("tsv", "a b w 1 2", "expected 3 or 4 fields, got 5"),  # and a bad weight
        ("tsv", "a b w soon", "bad weight 'w'"),  # and a bad timestamp
        ("csv", "a,b,w,1,2", "expected 3 or 4 fields, got 5"),  # and a bad weight
        ("csv", " ,b,w,1", "bad weight 'w'"),  # and an empty label
        ("csv", "a,,soon", "empty node label"),  # and a bad timestamp
    ])
    def test_first_check_in_grammar_order_wins_within_a_line(self, fmt, line, message):
        # A line with two defects reports the one whose check comes first: the
        # weight of 4 fields, the field count, the labels, the timestamp.
        sep = "," if fmt == "csv" else " "
        text = f"a{sep}b{sep}1\n{line}\nc{sep}d\n"
        for reader in (io.BytesIO(text.encode()), io.StringIO(text)):
            with pytest.raises(ParseError) as exc:
                parse_edge_stream(reader, fmt)
            assert (str(exc.value), exc.value.line_no) == (f"line 2: {message}", 2)

    @pytest.mark.parametrize("line_no", [1, 3])
    @pytest.mark.parametrize("line", ["a\0,b,1", '"a\0",b,1', "a,b,w,1\0", "\0"])
    def test_csv_line_holding_a_nul_is_rejected(self, line, line_no):
        # csv.reader rejects a NUL before Python 3.11 and reads it into the
        # field since; the parse rejects it on every version, before any other
        # check of the line. A comment is never split, so its NUL passes.
        lines = ["a,b,1", "# \0", "c,d,2"]
        lines.insert(line_no - 1, line)
        text = "\n".join(lines) + "\n"
        for reader in (io.BytesIO(text.encode()), io.StringIO(text)):
            with pytest.raises(ParseError) as exc:
                parse_edge_stream(reader, "csv")
            want = (f"line {line_no}: line contains NUL", line_no)
            assert (str(exc.value), exc.value.line_no) == want

    def test_tsv_keeps_a_nul_in_a_label(self):
        text = "a\0 b 1\n# \0\nb \0 2\n"
        for reader in (io.BytesIO(text.encode()), io.StringIO(text)):
            assert parse_edge_stream(reader).labels == ("a\0", "b", "\0")

    def test_csv_at_scale_matches_its_tsv_form(self, sweep_grid_dataset):
        tsv = sweep_grid_dataset.read_bytes()
        want = parse_edge_stream(io.BytesIO(tsv))
        lines = tsv.decode().splitlines()
        assert len(lines) > 10_000
        text = "".join(
            (", " if i % 3 == 0 else ",").join(line.split("\t")) + "\n"
            for i, line in enumerate(lines)
        )
        for reader in (io.BytesIO(text.encode()), io.StringIO(text)):
            got = parse_edge_stream(reader, "csv")
            assert got.labels == want.labels
            for name in ("source", "target", "timestamp"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name

    @pytest.mark.parametrize("binary", [True, False], ids=["bytes", "text"])
    @pytest.mark.parametrize("fmt", ["tsv", "csv"])
    def test_leading_byte_order_mark_is_ignored(self, fmt, binary):
        # A byte reader gives the mark as b"\xef\xbb\xbf", a text reader as "\ufeff".
        def parse(text):
            return parse_edge_stream(io.BytesIO(text.encode()) if binary else io.StringIO(text), fmt)

        sep = "," if fmt == "csv" else " "
        text = f"a{sep}b{sep}1\nb{sep}a{sep}2\na{sep}c{sep}3\n"
        want, got = parse(text), parse("\ufeff" + text)
        assert got.labels == want.labels == ("a", "b", "c")
        for name in ("source", "target", "timestamp"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist(), name

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

    @pytest.mark.parametrize(
        "space",
        [chr(c) for c in range(0x110000) if chr(c).isspace()],
        ids=lambda c: f"U+{ord(c):04X}",
    )
    def test_every_unicode_space_splits_as_text(self, space):
        # Fields and lines as str.split and str.splitlines find them, on either parse.
        data = f"a{space}b 1{space}\nc d{space}2\n".encode()

        def columnar():
            stream = parse_edge_stream(io.BytesIO(data))
            return rows(stream), simplify(stream)

        want = ingest_outcome(lambda: per_line_ingest_oracle(io.BytesIO(data)))
        assert ingest_outcome(columnar) == want

    def test_labels_with_colliding_hashes_stay_apart(self, monkeypatch):
        # The Thue-Morse word over two 8-byte blocks and its complement have the
        # same polynomial hash modulo 2**64 for any odd multiplier, so a hashed
        # label key would merge them.
        import pbspm.graph as graph

        grammar = []
        real = graph._parse_lines
        monkeypatch.setattr(graph, "_parse_lines", lambda *a: grammar.append(1) or real(*a))
        bits = [bin(i).count("1") % 2 for i in range(2048)]
        one = b"".join(b"aaaaaaaa" if bit else b"bbbbbbbb" for bit in bits)
        other = b"".join(b"bbbbbbbb" if bit else b"aaaaaaaa" for bit in bits)
        stream = parse_edge_stream(io.BytesIO(one + b" " + other + b" 1\n" + other + b" c 2\n"))
        assert grammar == [1]  # labels over 7 bytes are read by the line grammar
        assert stream.labels == (one.decode(), other.decode(), "c")
        assert stream.source.tolist() == [0, 1]
        assert stream.target.tolist() == [1, 2]

    @pytest.mark.parametrize("longest", range(1, 9))
    def test_label_keys_tell_length_and_trailing_nuls_apart(self, longest, monkeypatch):
        # A NUL, which numpy's S8 drops from a label's end, sends the file to
        # the line grammar, and so does an 8-byte label.
        import pbspm.graph as graph

        grammar = []
        real = graph._parse_lines
        monkeypatch.setattr(graph, "_parse_lines", lambda *a: grammar.append(1) or real(*a))
        pool = ["a" + "\0" * (k - 1) for k in range(1, longest + 1)]
        pool += ["\0" * k for k in range(1, longest + 1)]
        pool += ["abcdefgh"[:k] for k in range(max(1, longest - 1), longest + 1)]
        rng = np.random.default_rng(longest)
        pairs = list(zip(pool, reversed(pool)))  # every label at least once
        # Indices, not a numpy string array, which would drop the trailing NULs.
        pairs += [(pool[u], pool[v]) for u, v in rng.integers(len(pool), size=(3 * len(pool), 2))]
        data = "".join(f"{u} {v} {t}\n" for t, (u, v) in enumerate(pairs)).encode()

        stream = parse_edge_stream(io.BytesIO(data))
        assert grammar == [1]
        assert stream.labels == tuple(dict.fromkeys(label for pair in pairs for label in pair))
        assert len(set(stream.labels)) == len(set(pool))
        want = ingest_outcome(lambda: per_line_ingest_oracle(io.BytesIO(data)))
        assert ingest_outcome(lambda: (rows(stream), simplify(stream))) == want

    @pytest.mark.parametrize("binary, text, route", [
        (True, "a b 1\nb c 2\n", ["_parse_tsv_bytes"]),
        (False, "a b 1\nb c 2\n", ["_parse_tsv_bytes"]),
        (True, "abcdefg b 1\nb c 2\n", ["_parse_tsv_bytes"]),
        (True, "a b 1\nb abcdefgh 2\n", ["_parse_tsv_bytes", "_parse_lines"]),
        (True, "a \xfc 1\n\xfc c 2\n", ["_parse_lines"]),
        (True, "a b 1\x0bb c 2\n", ["_parse_lines"]),
        (True, "a\xa0b 1\nb c 2\n", ["_parse_lines"]),
        (True, "a b 1\rb c 2\n", ["_parse_lines"]),
        (True, "a b 50.0\nb c 2\n", ["_parse_tsv_bytes", "_parse_lines"]),
        (True, "a b -3\nb c 2\n", ["_parse_tsv_bytes"]),
        (True, "a b +7\nb c 2\n", ["_parse_tsv_bytes"]),
        (True, "a b 1000000000000000000\nb c 2\n", ["_parse_tsv_bytes"]),
        (True, "% sym unweighted\n% 2 3 3\na b 1\nb c 2\n", ["_parse_tsv_bytes"]),
        (True, "a b 1\n# note\nb c 2\n", ["_parse_tsv_bytes", "_parse_lines"]),
        (True, "a b 1 #x\nb c 2\n", ["_parse_tsv_bytes", "_parse_lines"]),
        (True, "a b 1\nb c 0.5 2\n", ["_parse_tsv_bytes", "_parse_lines"]),
        (True, "a\0b c 1\nb c 2\n", ["_parse_tsv_bytes", "_parse_lines"]),
        (True, "% only\n\n# comments\n", ["_parse_tsv_bytes", "_parse_lines"]),
        (True, "", ["_parse_tsv_bytes", "_parse_lines"]),
    ], ids=["plain-bytes", "ascii-text", "7-byte-label", "8-byte-label", "non-ascii-label",
            "VT", "NBSP", "lone-CR", "float-stamp", "negative-stamp", "plus-stamp",
            "19-digit-stamp", "konect-header", "hash-after-event", "trailing-hash-token",
            "mixed-field-counts", "nul-in-label", "comments-only", "empty"])
    def test_only_plain_ascii_with_digit_stamps_is_tokenized(self, binary, text, route,
                                                             monkeypatch):
        # Only plain ASCII TSV is read by numpy; any other input is read by the
        # line grammar, also after numpy's reader has raised on it, and gives
        # the stream or the error that the grammar gives. Neither route warns.
        import pbspm.graph as graph

        calls = []
        for name in ("_parse_tsv_bytes", "_parse_lines"):
            real = getattr(graph, name)
            monkeypatch.setattr(graph, name,
                                lambda *args, name=name, real=real: calls.append(name) or real(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns of a file with no rows
            got = stream_outcome(lambda: parse_edge_stream(
                io.BytesIO(text.encode()) if binary else io.StringIO(text)))
        assert calls == route
        assert got == stream_outcome(lambda: graph._parse_lines(text, "tsv"))

    def test_stamp_numpy_reads_via_float_goes_to_the_grammar(self, monkeypatch):
        # numpy 1.24 reads the int64 stamp 5.5 as 5 with a DeprecationWarning,
        # as this stand-in for its converter does; numpy 2.4 raises.
        real = np.loadtxt

        def loadtxt_1x(*args, dtype, **kwargs):
            def via_float(token):
                with suppress(ValueError):
                    return int(token)
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
                return int(float(token))

            return real(*args, dtype=dtype, converters={len(dtype) - 1: via_float}, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt_1x)
        assert parse_edge_stream(io.BytesIO(b"a b 5\n")).timestamp.tolist() == [5]
        with pytest.raises(ParseError) as exc:
            parse_edge_stream(io.BytesIO(b"a b 1\nb c 5.5\n"))
        assert (str(exc.value), exc.value.line_no) == ("line 2: non-integer timestamp '5.5'", 2)

    def test_text_reader_with_lone_surrogates(self):
        # A str reader may hold surrogates that no UTF-8 encoder accepts.
        text = "a\udcff b 1\nb c 2\n\ud83d\ude00 \ude00\ud83d 3\u3000\n"
        stream = parse_edge_stream(io.StringIO(text))
        assert stream.labels == ("a\udcff", "b", "c", "\ud83d\ude00", "\ude00\ud83d")
        assert stream.source.tolist() == [0, 1, 3]
        assert stream.target.tolist() == [1, 2, 4]
        want = ingest_outcome(lambda: per_line_ingest_oracle(io.StringIO(text)))
        assert ingest_outcome(lambda: (rows(stream), simplify(stream))) == want
        with pytest.raises(ParseError) as exc:
            parse_edge_stream(io.StringIO("a\udcff b 1\nb c\udcff \udcff\n"))
        assert (str(exc.value), exc.value.line_no) == ("line 2: bad timestamp '\\udcff'", 2)


# Whitespace that str.split and str.splitlines see but numpy's reader is not
# given: two ASCII separators (\x0b also ends a line), two non-ASCII
# spaces, and a CR that ends a line on its own. A file holding one is read by
# the line grammar.
GRAMMAR_SPACES = ["\x0b", "\x1f", "\xa0", "\u3000", "\r"]


def random_contact_file(rng, fmt):
    """A random TSV or CSV contact file as bytes, with at most one bad line.

    Few labels and stamps make repeated pairs and large equal-stamp groups;
    lines mix 3 and 4 fields, separators, comments, blank lines, CRLF and
    stamps written as floats, with signs or with leading zeros. Labels
    include long ones that share a prefix with shorter ones. Half the files
    are plain, as numpy's reader takes them: ASCII labels of at most 7 bytes,
    every stamp written as digits only, the same fields on every line and
    comments only in a leading header; only the other half draws the long
    labels. Half the TSV files also hold one kind of whitespace from
    ``GRAMMAR_SPACES``. Returns the bytes and the kind of bad line.
    """
    pool = ["1", "2", "17", "0017", "node-000000000017", "node-000000000018", "a", "Node",
            "κόμβος", "节点", "ü", "x.y"]
    plain = rng.random() < 0.5
    if plain:
        pool = [label for label in pool if label.isascii() and len(label) <= 7]
    labels = list(rng.choice(pool, size=int(rng.integers(2, len(pool) + 1)), replace=False))
    t_max = int(rng.integers(1, 6))
    sep = "," if fmt == "csv" else "\t"
    separators, line_ends = [" ", "\t", "  ", " \t"], ["\n", "\r\n"]
    odd_space = None
    if fmt == "tsv" and rng.random() < 0.5:
        odd_space = GRAMMAR_SPACES[int(rng.integers(len(GRAMMAR_SPACES)))]
        # \x0b splits a line, so it only ends lines, as a lone CR does.
        (line_ends if odd_space in "\x0b\r" else separators).append(odd_space)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    weighted = rng.random() < 0.3  # every line of a plain file, or each line's own draw

    def event_fields():
        stamp = int(rng.integers(0 if plain else -1, t_max))
        if plain:
            stamp_token = pick([str(stamp), f"{stamp:03d}"])
        elif rng.random() < 0.03:  # 19 digits, at the edges of the int64 range
            stamp_token = pick([str(2**63 - 1), str(-(2**63))])
        else:
            stamp_token = pick([str(stamp), f"{stamp}.0", f"{stamp}e0", f"{stamp:+d}",
                                f"{stamp:03d}", "-0" if stamp == 0 else str(stamp)])
        fields = [pick(labels), pick(labels), stamp_token]
        if weighted if plain else rng.random() < 0.3:
            fields.insert(2, pick(["1", "0.5", "2e-3", "nan", "-inf", "7"]))
        return fields

    def join(fields):
        if fmt == "csv":
            if rng.random() < 0.2:  # a comma inside quotes, which must open the line
                return ",".join([f'"{fields[0]},{fields[0]}"', *fields[1:]])
            return pick(["", " "]) + pick([",", ", ", " ,"]).join(fields)
        seps = [pick(separators) for _ in fields[1:]]
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
    if plain:  # the comments move to the front, in their order
        lines.sort(key=lambda line: line.strip()[:1] not in ("%", "#"))
    kinds = ["fields", "weight", "stamp", "non-integer stamp", "int64 stamp", "utf-8"]
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
        "int64 stamp": [a, b, pick([str(2**63), str(-(2**63) - 1)])],
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
        data += line + pick(line_ends).encode()
    if rng.random() < 0.2:
        data = data.rstrip(b"\r\n")
    if odd_space is not None:  # at least once, whatever was picked above
        data += odd_space.encode()
    return data, kind


def ingest_outcome(ingest):
    """What an ingest returns, or the class, message and line of what it raises."""
    try:
        events, graph = ingest()
    except (DataError, csv.Error) as err:
        return type(err), str(err), getattr(err, "line_no", None)
    # repr tells a NaN weight from None and an int stamp from a numpy one.
    return [repr(ev) for ev in events], graph.labels, graph.edges.tolist()


def stream_outcome(parse):
    """The labels and column bytes of the stream a parse returns, or the class,
    message and line of the error it raises."""
    try:
        stream = parse()
    except DataError as err:
        return type(err), str(err), getattr(err, "line_no", None)
    columns = (stream.source, stream.target, stream.timestamp)
    return stream.labels, [(a.dtype, a.tobytes()) for a in columns]


def plain_fields(text):
    """Whether the text's lines fit numpy's reader: no NUL, ``%`` or ``#``
    only in the leading blank and comment lines, the same 3 or 4 fields on
    every event line, labels of at most 7 characters, and stamps of digits
    with an optional sign. Weights are not checked: ``random_contact_file``
    writes only ones that numpy reads."""
    lines = text.splitlines()
    while lines and (not lines[0].split() or lines[0].split()[0][0] in "%#"):
        del lines[0]
    fields = [line.split() for line in lines if line.split()]
    return (not any(mark in line for line in lines for mark in "%#\0")
            and len({len(f) for f in fields}) == 1 and len(fields[0]) in (3, 4)
            and all(max(map(len, f[:2])) <= 7 and re.fullmatch("[+-]?[0-9]+", f[-1])
                    for f in fields))


class TestColumnarIngestMatchesPerLine:
    """The parse (plain TSV by numpy's reader, the rest by the line grammar)
    and the columnar simplify against the per-line ingest they replaced."""

    @pytest.mark.parametrize("fmt", ["tsv", "csv"])
    def test_random_files(self, fmt, monkeypatch):
        import pbspm.graph as graph

        byte_parses = []  # each stream numpy's reader returned
        parse_bytes = graph._parse_tsv_bytes
        monkeypatch.setattr(graph, "_parse_tsv_bytes",
                            lambda data: byte_parses.append(parse_bytes(data)) or byte_parses[-1])
        rng = np.random.default_rng(43 if fmt == "tsv" else 47)
        outcomes, byte_returns = [], 0
        for _ in range(400):
            data, kind = random_contact_file(rng, fmt)

            def ingest(reader):
                stream = parse_edge_stream(reader, fmt)
                return rows(stream), simplify(stream)

            want = ingest_outcome(lambda: per_line_ingest_oracle(io.BytesIO(data), fmt))
            byte_parses.clear()
            got = ingest_outcome(lambda: ingest(io.BytesIO(data)))
            assert got == want, data
            # numpy's reader returns a stream exactly for a TSV file that
            # parses, is ASCII whose only whitespace it splits on, and has
            # the plain lines of plain_fields. A text reader's text is ASCII
            # exactly when the bytes are, and only ASCII text is encoded for
            # numpy's reader.
            plain = (fmt == "tsv" and want[0] not in (ParseError, EmptyInputError)
                     and graph._ascii_separated(data) and plain_fields(data.decode()))
            assert len(byte_parses) == plain, data
            byte_returns += plain
            if kind != "utf-8":
                byte_parses.clear()
                assert ingest_outcome(lambda: ingest(io.StringIO(data.decode()))) == want, data
                assert len(byte_parses) == plain, data
            if kind is None and not isinstance(want[0], type):
                stream = parse_edge_stream(io.BytesIO(data), fmt)
                assert_same_graph(simplify(stream), greedy_simplify_oracle(stream))
            outcomes.append(want[0] if isinstance(want[0], type) else "graph")
        assert outcomes.count(ParseError) >= 100
        assert outcomes.count("graph") >= 100
        assert byte_returns >= (30 if fmt == "tsv" else 0), byte_returns


# Tokens at the edges of numpy's text reader, by field: those of the first
# list are common, those of the second each file draws at its own rate.
EDGE_LABELS = (["a", "b", "ab", "17", "0017", "abcdefg", "x.y", "-1", "+"],
               ["abcdefgh", "abcdefghij", "a\0", "\0", "%a", "a%", "#", "a#b"])
EDGE_STAMPS = (["0", "17", "007", "-3", "+7", "-0", str(2**63 - 1), str(-(2**63 - 1)),
                str(-(2**63)), "1000000000000000000"],
               [str(2**63), str(-(2**63) - 1), "5.0", "5.5", "1e3", "1_000", "nan", "inf",
                "+-1", "0x10", "soon"])
EDGE_WEIGHTS = (["1", "0.5", "2e-3", "7", "inf", "-inf", "nan", "+.5", "1e400"],
                ["1_0", "0x10", ".", "w", "1e", "infinity", "NaN", "-.5e-3"])


def numpy_edge_file(rng):
    """A random ASCII TSV file, as bytes, whose only whitespace is space, tab,
    LF and CRLF: the files numpy's reader is tried on. Each file draws odd
    tokens from the ``EDGE_*`` lists, ``%`` and ``#`` lines after its first
    event, trailing ``#x`` tokens and lines of 2 or 5 fields at one rate, and
    its lines have 3 fields, 4, or either."""
    odd = [0.0, 0.02, 0.1, 0.3][int(rng.integers(4))]
    n_fields = [3, 4, None][int(rng.integers(3))]

    def pick(tokens):
        options = tokens[1] if rng.random() < odd else tokens[0]
        return options[int(rng.integers(len(options)))]

    def comment():
        return ["%", "#", "% sym unweighted", "# 1 2 3", "  % x", "\t#"][int(rng.integers(6))]

    lines = [comment() for _ in range(int(rng.integers(3)))]
    for _ in range(int(rng.integers(1, 13))):
        r = rng.random()
        if r < 0.1:
            lines.append(["", "  ", "\t"][int(rng.integers(3))])
        elif r < 0.1 + odd / 2:
            lines.append(comment())
        else:
            fields = [pick(EDGE_LABELS), pick(EDGE_LABELS), pick(EDGE_STAMPS)]
            if n_fields == 4 or (n_fields is None and rng.random() < 0.5):
                fields.insert(2, pick(EDGE_WEIGHTS))
            if rng.random() < odd / 2:
                fields = fields[:2] if rng.random() < 0.5 else fields + ["1", "2"][: 5 - len(fields)]
            if rng.random() < odd / 2:
                fields.append("#x")
            seps = [[" ", "\t", "  ", " \t"][int(rng.integers(4))] for _ in fields]
            lead = " " if rng.random() < 0.1 else ""
            lines.append(lead + "".join(f + sep for f, sep in zip(fields, seps)).rstrip(" ")
                         if rng.random() < 0.5 else lead + " ".join(fields))
    ends = ["\n" if rng.random() < 0.7 else "\r\n" for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return (text.rstrip("\r\n") if rng.random() < 0.2 else text).encode()


class TestNumpyReaderMatchesGrammar:
    def test_random_edge_files(self, monkeypatch):
        # numpy's reader returns the grammar's stream or hands the file on,
        # and then the grammar names its bad line; it never warns.
        import pbspm.graph as graph

        numpy_streams = []
        real = graph._parse_tsv_bytes
        monkeypatch.setattr(graph, "_parse_tsv_bytes",
                            lambda data: numpy_streams.append(real(data)) or numpy_streams[-1])
        rng = np.random.default_rng(53)
        outcomes = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2500):
                data = numpy_edge_file(rng)
                assert graph._ascii_separated(data), data
                want = stream_outcome(lambda: graph._parse_lines(data.decode(), "tsv"))
                assert stream_outcome(lambda: parse_edge_stream(io.BytesIO(data))) == want, data
                outcomes.append(want[0] if isinstance(want[0], type) else "stream")
        # 793 streams by numpy and 615 by the grammar, 1,049 ParseErrors and
        # 43 EmptyInputErrors at this seed.
        assert len(numpy_streams) >= 700, len(numpy_streams)
        assert outcomes.count("stream") - len(numpy_streams) >= 500
        assert outcomes.count(ParseError) >= 900
        assert outcomes.count(EmptyInputError) >= 30


class TestSimplify:
    def test_dedupe_keeps_earliest_and_drops_loop(self):
        stream = tsv_stream((("1", "2", 5), ("2", "1", 9), ("1", "1", 3)))
        graph = simplify(stream)
        assert graph.n == 2
        assert graph.m_edges == 1
        assert tuple(graph.edges[0]) == (0, 1, 5)

    def test_two_edges_three_nodes(self):
        stream = tsv_stream((("a", "b", 1), ("b", "c", 2)))
        graph = simplify(stream)
        assert graph.n == 3
        assert graph.m_edges == 2

    def test_all_loops_is_empty_graph(self):
        stream = tsv_stream((("x", "x", 1), ("y", "y", 2)))
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
                    events.append((b if flip else a, a if flip else b, int(rng.integers(100))))
            rng.shuffle(events)
            graph = simplify(tsv_stream(events))
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
            return tsv_stream((graph.labels[u], graph.labels[v], t) for u, v, t in graph.edges)

        for _ in range(10):
            graph1 = simplify(random_event_stream(rng, n_events=60, loop_rate=0.1))
            graph2 = simplify(serialize(graph1))
            assert graph2.labels == graph1.labels
            assert np.array_equal(graph2.edges, graph1.edges)


def assert_same_graph(got, want):
    assert got.labels == want.labels
    assert np.array_equal(got.edges, want.edges)


class TestSimplifyMatchesGreedy:
    """The breadth-first id assignment against the quadratic greedy it replaced."""

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
        # The all-new (x, y) comes first in the file, yet both its ends get
        # their ids from the search: x through a, then y through b.
        (
            [("a", "b", 1), ("x", "y", 2), ("a", "x", 2), ("b", "y", 2), ("a", "z", 2)],
            ("a", "b", "x", "z", "y"),
            [(0, 1, 1), (0, 2, 2), (0, 3, 2), (1, 4, 2), (2, 4, 2)],
        ),
        # A two-hop search (a, then q, then p) beats the earlier all-new (x, y).
        (
            [("a", "b", 1), ("x", "y", 2), ("p", "q", 2), ("q", "a", 2)],
            ("a", "b", "q", "p", "x", "y"),
            [(0, 1, 1), (0, 2, 2), (2, 3, 2), (4, 5, 2)],
        ),
        # The search runs dry after b, d and c; (x, y) restarts it, and it
        # grows from its new root to z.
        (
            [("a", "b", 1), ("x", "y", 2), ("c", "d", 2), ("y", "z", 2), ("d", "b", 2)],
            ("a", "b", "d", "c", "x", "y", "z"),
            [(0, 1, 1), (1, 2, 2), (2, 3, 2), (4, 5, 2), (5, 6, 2)],
        ),
    ])
    def test_tie_classes(self, events, labels, edges):
        stream = tsv_stream(events)
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
        stream = tsv_stream((a, b, 7) for a, b in pairs)
        start = time.perf_counter()
        graph = simplify(stream)
        elapsed = time.perf_counter() - start
        assert graph.m_edges == 8000
        assert elapsed < 2.0


class TestAdjacency:
    def _graph(self, *pairs):
        return simplify(tsv_stream((a, b, i + 1) for i, (a, b) in enumerate(pairs)))

    def test_path_graph(self):
        graph = self._graph(("0", "1"), ("1", "2"))
        view = adjacency(graph.edges, graph.n)
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(view, expected)

    def test_empty_subset_is_zero_matrix(self):
        graph = self._graph(("0", "1"), ("1", "2"))
        for rows in (graph.edges[:0], graph.edges[:0, :2]):  # (0, 3) and (0, 2)
            view = adjacency(rows, graph.n)
            assert not view.any()
            assert view.shape == (3, 3)

    def test_endpoint_outside_n_rejected(self):
        # An endpoint of n, and one of -1, which numpy indexing would wrap round.
        edges = np.array([[0, 1], [1, 2], [2, 5]])
        for n in (5, 3):
            with pytest.raises(ValueError, match="outside"):
                adjacency(edges, n)
        with pytest.raises(ValueError, match="outside"):
            adjacency(edges - 1, 6)

    def test_subset_out_of_range(self):
        # A subset of a graph's rows is checked against the n it is given.
        graph = self._graph(("0", "1"), ("1", "2"))
        with pytest.raises(ValueError, match="outside"):
            adjacency(graph.edges, graph.n - 1)
        with pytest.raises(ValueError, match="outside"):
            adjacency(graph.edges[1:], 2)
        assert adjacency(graph.edges[:1], 2).sum() == 2

    def test_matches_pair_set_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            stream = random_event_stream(rng, n_labels=6, n_events=25)
            try:
                graph = simplify(stream)
            except EmptyGraphError:
                continue
            view = adjacency(graph.edges, graph.n)
            pairs = {(min(u, v), max(u, v)) for u, v, _ in graph.edges}
            for i in range(graph.n):
                for j in range(graph.n):
                    expected = 1.0 if (min(i, j), max(i, j)) in pairs and i != j else 0.0
                    assert view[i, j] == expected

    def test_symmetric_with_2m_nonzeros(self, shift_graph):
        view = adjacency(shift_graph.edges, shift_graph.n)
        assert np.array_equal(view, view.T)
        assert np.count_nonzero(view) == 2 * shift_graph.m_edges
        assert not view.diagonal().any()


class TestDegree:
    def test_star_center(self):
        graph = simplify(tsv_stream(("hub", leaf, i + 1) for i, leaf in enumerate("xyz")))
        view = adjacency(graph.edges, graph.n)
        assert degrees(view)[graph.labels.index("hub")] == 3

    def test_isolated_in_subset(self):
        graph = simplify(tsv_stream((("a", "b", 1), ("c", "d", 2))))
        view = adjacency(graph.edges[[0]], graph.n)
        assert degrees(view)[graph.labels.index("c")] == 0

    def test_degree_sum_is_twice_edge_count(self, shift_graph):
        view = adjacency(shift_graph.edges, shift_graph.n)
        assert degrees(view).sum() == 2 * shift_graph.m_edges

    def test_matches_neighbor_count_oracle(self):
        rng = np.random.default_rng(23)
        stream = random_event_stream(rng, n_labels=7, n_events=30)
        graph = simplify(stream)
        view = adjacency(graph.edges, graph.n)
        neighbors = {i: set() for i in range(graph.n)}
        for u, v, _ in graph.edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        for node in range(graph.n):
            assert degrees(view)[node] == len(neighbors[node])
