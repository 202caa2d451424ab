import contextlib
import csv
import datetime as dt
import io
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megt import crowdsense
from megt.crowdsense import (INCIDENT_TYPES, MECHANISMS, REPORT_COLUMNS,
                             CorpusStats, IncentiveConfig, Profiles,
                             Rejection, ReportRecord, SynthSpec,
                             build_profiles,
                             compute_corpus_stats, decision_rows,
                             incentives, logistic, qoc,
                             read_reports_csv, score_corpus, synth_corpus,
                             truthfulness, write_decisions_csv,
                             write_ledger_csv, write_reports_csv)

from oracles import parse_reports, table_of

DAY = dt.date(2019, 10, 7)


def profiles_of(records, mechanism, stats=None, gamma_override=None):
    """build_profiles over the records' table as one row per user:
    ``{user: Profiles(gamma_emp, rs_raw, rs_norm)}`` of floats."""
    table = table_of(records)
    columns = build_profiles(table, IncentiveConfig(), mechanism, stats,
                             gamma_override)
    return {user: Profiles(*row) for user, row in zip(
        table.users, zip(*(column.tolist() for column in columns)))}


def window_id(day, segment):
    """A window's id: its date's ordinal * 8 + its 3-hour segment."""
    return day.toordinal() * 8 + segment


def windows_of(table, above=None):
    """``table.user_windows(above)`` as (user, window id) pairs."""
    pair_user, pair_window = table.user_windows(above)
    return [(table.users[u], table.window_ids[w])
            for u, w in zip(pair_user.tolist(), pair_window.tolist())]


def report(user="u1", rating=4.0, hour=9, minute=0, day=DAY,
           street="Alder Way", kind="jam", object_id=None):
    return ReportRecord(object_id=object_id or f"r-{user}-{hour}-{minute}",
                        generation_date=day,
                        day_time=dt.time(hour, minute),
                        street=street, incident_type=kind, uuid=user,
                        report_rating=rating)


def raw_row(user="u1", rating="4.0", date="2019-10-07", time="09:00",
            street="Alder Way", kind="jam", object_id="r1"):
    return [object_id, date, time, street, kind, user, rating]


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def window_segments(*times):
    records = [report(user=f"u{k}", hour=hour, minute=minute)
               for k, (hour, minute) in enumerate(times)]
    return (table_of(records).window_ids % 8).tolist()


def test_window_segments_partition_the_day():
    assert window_segments((0, 0), (4, 30), (23, 59)) == [0, 1, 7]
    assert window_segments(*((h, 0) for h in range(24))) == list(range(8))


def test_windows_group_and_sort():
    records = [report(user="a", hour=22), report(user="b", hour=1),
               report(user="c", hour=2)]
    table = table_of(records)
    keys = table.window_ids.tolist()
    assert keys == [window_id(DAY, 0), window_id(DAY, 7)]
    assert len(compute_corpus_stats(table).coop_density) == 2
    # a's one window is the late one; b and c share the early one
    assert windows_of(table) == [("a", keys[1]), ("b", keys[0]),
                                 ("c", keys[0])]


# ---------------------------------------------------------------------------
# ingestion filters
# ---------------------------------------------------------------------------

def reference_row(fields, dates: dict, times: dict) -> tuple:
    """One raw row as a tuple in ReportRecord field order, checked field
    by field; ``dates`` and ``times`` memoise the parses of one ingest."""
    if len(fields) != len(REPORT_COLUMNS):
        raise ValueError(
            f"expected {len(REPORT_COLUMNS)} fields, got {len(fields)}")
    object_id, date_txt, time_txt, street, kind, uuid, rating_txt = [
        f.strip() for f in fields]
    if not object_id or not street or not uuid:
        raise ValueError("empty identifier field")
    if kind not in INCIDENT_TYPES:
        raise ValueError(f"unknown incident_type {kind!r}")
    date = dates.get(date_txt)
    if date is None:
        date = dates[date_txt] = dt.date.fromisoformat(date_txt)
    time = times.get(time_txt)
    if time is None:
        time = times[time_txt] = dt.time.fromisoformat(time_txt)
    rating = float(rating_txt)
    if not 0.0 <= rating <= 5.0:
        raise ValueError(f"report_rating {rating} outside [0, 5]")
    return object_id, date, time, street, kind, uuid, rating


def reference_parse(rows, first_row_number=1):
    """The row-at-a-time ingest: the oracle of the columnar one."""
    kept = []
    rejections = []
    seen = set()
    dates = {}
    times = {}
    for offset, fields in enumerate(rows):
        row_number = first_row_number + offset
        try:
            row = reference_row(fields, dates, times)
        except (ValueError, TypeError) as exc:
            rejections.append(Rejection(row_number, "malformed", str(exc)))
            continue
        object_id, date, time, _, kind, uuid, rating = row
        if rating == 0.0:
            rejections.append(Rejection(row_number, "zero_rating", object_id))
            continue
        # (user, window, incident_type), the window as its date and segment
        key = (uuid, date, time.hour // 3, kind)
        if key in seen:
            rejections.append(Rejection(row_number, "duplicate", object_id))
            continue
        seen.add(key)
        kept.append(row)
    return table_of(kept), rejections


def table_columns(table):
    """Every public column of a table, arrays with their dtypes."""
    return {name: ((value.dtype.str, value.tolist())
                   if isinstance(value, np.ndarray) else value)
            for name, value in vars(table).items()
            if not name.startswith("_")}


def assert_parses_like_reference(rows, first_row_number=1):
    table, rejections = parse_reports(rows, first_row_number)
    ref_table, ref_rejections = reference_parse(rows, first_row_number)
    assert rejections == ref_rejections
    assert list(table) == list(ref_table)
    assert table_columns(table) == table_columns(ref_table)
    return rejections


# per column, values that pass and odd ones: padding, empty ids, unknown
# kinds, loose ISO stamps, out-of-range and non-finite ratings
CLEAN_FIELDS = (["r1", "r2", " r3 ", "r4"],
                ["2019-10-07", " 2019-10-07 ", "20191007", "2019-10-08"],
                ["09:00", "09:00:00", " 10:30", "13:00"],
                ["Alder Way", " Alder Way", "Birch Street"],
                ["jam", " jam ", "accident"],
                ["a", " a", "b"],
                ["4.0", "4", " 4 ", "5", "1.5", "0", "-0.0"])
ODD_FIELDS = (["", "  "],
              ["2019-10-7", "2019-13-40", "", "7/10/2019"],
              ["9:00", "25:00", "", "noon"],
              ["", " "],
              ["JAM", "earthquake", ""],
              ["", "\t"],
              ["nan", "inf", "-1", "5.0000001", "abc", ""])


@st.composite
def raw_rows(draw):
    """A row of seven clean fields, some swapped for odd ones, or a row
    with the wrong field count."""
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return draw(st.lists(st.sampled_from(["r9", "2019-10-07", "4.0"]),
                             max_size=9).filter(lambda row: len(row) != 7))
    odd = draw(st.sets(st.integers(0, 6), min_size=1, max_size=2)
               if shape > 6 else st.just(set()))
    return [draw(st.sampled_from((ODD_FIELDS if k in odd
                                  else CLEAN_FIELDS)[k]))
            for k in range(7)]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(raw_rows(), max_size=40),
       first_row_number=st.sampled_from([1, 2]))
def test_ingest_matches_the_row_parser(rows, first_row_number):
    assert_parses_like_reference(rows, first_row_number)


def test_ingest_matches_the_row_parser_across_chunks(monkeypatch):
    # duplicates and malformed rows on both sides of block boundaries:
    # padding gives every row one length, so every block holds 500 rows
    rows = synth_corpus(SynthSpec(user_count=400, day_count=7, rng_seed=3))
    for row in rows:
        row[3], row[4] = row[3].ljust(15), row[4].ljust(14)
    assert len(rows) > 1503
    expected = {}
    for boundary in (500, 1000, 1500):
        first = rows[boundary - 1]
        first[5], first[6] = f"s{boundary:04d}", "5.0"
        rows[boundary] = [f"d{boundary:06d}", *first[1:]]
        rows[boundary + 2] = [f"p{boundary:06d}", *first[1:5],
                              f" s{boundary:04d} ", "3"]
        rows[boundary - 2][6] = "5,0"
        rows[boundary + 1][6] = "5.5"
        rows[boundary + 3][1] = "2019-13-07"
        expected.update({boundary - 1: "malformed", boundary + 1: "duplicate",
                         boundary + 2: "malformed", boundary + 3: "duplicate",
                         boundary + 4: "malformed"})
    length, = {len(",".join(row)) for row in rows}
    monkeypatch.setattr(crowdsense, "_BLOCK_BYTES", 500 * (length + 2))
    rejections = assert_parses_like_reference(rows)
    reasons = {r.row_number: r.reason for r in rejections}
    assert {row: reasons.get(row) for row in expected} == expected


def test_zero_rating_rows_are_spam():
    kept, rejections = parse_reports([raw_row(rating="0.0")])
    assert list(kept) == []
    assert rejections[0].reason == "zero_rating"
    assert rejections[0].row_number == 1


def test_duplicate_keeps_only_the_first():
    rows = [raw_row(object_id="r1", time="09:00"),
            raw_row(object_id="r2", time="10:00"),  # same window (seg 3)
            raw_row(object_id="r3", time="13:00")]  # different window
    kept, rejections = parse_reports(rows)
    assert [r.object_id for r in kept] == ["r1", "r3"]
    assert [r.reason for r in rejections] == ["duplicate"]
    assert rejections[0].row_number == 2


def test_same_window_different_type_is_not_a_duplicate():
    rows = [raw_row(object_id="r1", kind="jam"),
            raw_row(object_id="r2", kind="accident")]
    kept, rejections = parse_reports(rows)
    assert len(kept) == 2 and not rejections


def test_malformed_rows_are_logged_not_fatal():
    rows = [raw_row(object_id="r1"),
            ["r2", "2019-13-40", "09:00", "s", "jam", "u1", "4"],
            ["r3", "2019-10-07", "09:00", "s", "earthquake", "u1", "4"],
            ["r4", "2019-10-07", "09:00", "s", "jam", "u1", "9.5"],
            ["too", "short"],
            raw_row(object_id="r6", kind="accident")]
    kept, rejections = parse_reports(rows)
    assert [r.object_id for r in kept] == ["r1", "r6"]
    assert [r.reason for r in rejections] == ["malformed"] * 4
    assert [r.row_number for r in rejections] == [2, 3, 4, 5]


def test_repeated_stamps_parse_alike():
    # an ingest parses each distinct date and time text once; a bad one
    # is rejected every time it appears
    rows = [raw_row(object_id="r1", user="a"),
            raw_row(object_id="r2", user="b", time="09:00:00"),
            ["r3", "2019-10-7", "09:00", "s", "jam", "c", "4"],
            ["r4", "2019-10-7", "09:00", "s", "jam", "d", "4"],
            raw_row(object_id="r5", user="a", time="12:30")]
    kept, rejections = parse_reports(rows)
    assert [(r.generation_date, r.day_time) for r in kept] == [
        (DAY, dt.time(9)), (DAY, dt.time(9)), (DAY, dt.time(12, 30))]
    assert [(r.row_number, r.reason) for r in rejections] == [
        (3, "malformed"), (4, "malformed")]
    assert rejections[0].detail == rejections[1].detail
    # same user, kind and window as r1, at another time: a duplicate
    assert parse_reports(rows + [raw_row(object_id="r6", user="a",
                                         time="10:30")])[1][-1].reason \
        == "duplicate"


def test_empty_input():
    kept, rejections = parse_reports([])
    assert list(kept) == [] and rejections == []


def test_csv_round_trip(tmp_path):
    path = tmp_path / "reports.csv"
    write_reports_csv([raw_row(object_id="r1"),
                       raw_row(object_id="r2", rating="0.0", time="14:00")],
                      path)
    kept, rejections = parse_and_check(path)
    assert [r.object_id for r in kept] == ["r1"]
    assert rejections[0].reason == "zero_rating"
    # rejection row numbers are 1-based file rows (header is row 1)
    assert rejections[0].row_number == 3


def parse_and_check(path):
    kept, rejections = read_reports_csv(path)
    return kept, rejections


def test_csv_header_is_mandatory(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="row 1"):
        read_reports_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_reports_csv(path)


# ---------------------------------------------------------------------------
# report files: the byte split, held to the csv module
# ---------------------------------------------------------------------------

HEADER = ",".join(REPORT_COLUMNS)


def reference_read(path):
    """The csv reader with the row-at-a-time parser: the oracle of
    ``read_reports_csv`` on files that quote as RFC 4180 has it.

    A file that is not UTF-8 is read up to its first bad byte and fails
    there, at the line its newlines count, unless the csv reader or the
    header check fails first; the header is checked first unless the bad
    byte is on its line.
    """
    data = Path(path).read_bytes()
    try:
        text, bad = data.decode(), None
    except UnicodeDecodeError as exc:
        text = data[:exc.start].decode()
        line = data.count(b"\n", 0, exc.start) + 1
        bad = (line, f"{path}: line {line}: not UTF-8 ({exc.reason})")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if bad and bad[0] == 1:
            raise ValueError(bad[1])
        if header is None:
            raise ValueError(f"{path}: row 1: empty file")
        if tuple(h.strip() for h in header) != REPORT_COLUMNS:
            raise ValueError(f"{path}: row 1: expected header "
                             f"{','.join(REPORT_COLUMNS)!r}")
        rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if bad:
        raise ValueError(bad[1])
    return reference_parse(rows, first_row_number=2)


def first_misquote(data: bytes) -> int | None:
    """The physical line (ended by a LF, a CRLF or a lone CR) of a file's
    first quote that RFC 4180 refuses and the csv module reads leniently:
    a quote inside an unquoted field, text after a closing quote, or a
    quote open at the end of the file, which names the line it opened
    on.  None if the file holds no such quote."""
    line, state = 1, "start"
    for at, char in enumerate(data.decode("latin-1")):
        if state == "quoted":
            state = "closed" if char == '"' else "quoted"
        elif char == '"':
            if state == "field":
                return line
            opened = line if state == "start" else opened
            state = "quoted"
        elif char in ",\r\n":
            state = "start"
        elif state == "closed":
            return line
        else:
            state = "field"
        if char == "\n" or char == "\r" and data[at + 1:at + 2] != b"\n":
            line += 1
    return opened if state == "quoted" else None


def outcome(read, path):
    """What ``read`` makes of a file: its rejections, rows and columns,
    or its ValueError's text."""
    try:
        table, rejections = read(path)
    except ValueError as exc:
        return str(exc)
    return rejections, list(table), table_columns(table)


def read_alone(path):
    """``outcome(read_reports_csv, path)``, checked to call no csv
    reader."""
    with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
        result = outcome(read_reports_csv, path)
    assert not reader.called
    return result


def read_both(path):
    """Check that ``read_reports_csv`` reads the file as the oracle does,
    and without the csv reader."""
    assert read_alone(path) == outcome(reference_read, path)


@contextlib.contextmanager
def field_size_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


# texts that only a file can hold, or that the byte split must strip or
# decode as str does, and fields at the size limit, which these tests set
# to 32 characters
LIMIT = 32
FILE_FIELDS = (
    ["\t", "\x1c", "\x1f", "\x85", "　", " r5　", "été",
     "x" * LIMIT],
    ["2019-10-07　"],
    [" 09:00"],
    ["Straße", "Rue Émile", "\x85", "Southwest 112th Avenue Exit",
     "Southwest 113th Avenue Exit", "s" * LIMIT],
    ["jam\x85"],
    ["dévice", "　", "\x1e"],
    ["4.0\x1c"])
# texts that must be quoted: a comma, line ends, a quote; and a quoted
# blank
QUOTED = ("Main St, North", "Main\nSt", "Main\r\nSt", "Main\rSt", 'r"7',
          '"jam"', "  ")
# quotes the reader refuses: inside an unquoted field (after a space, or
# mid-field) and text after a closing quote
MISQUOTED = (' "a"', 'ab"cd', '"ab"cd')
# a blank line, a CRLF, a lone CR, a NUL, invalid UTF-8, text that takes
# a field over the limit, and a lone quote, which can leave a quote open
# at the end of the file
BREAKS = ("\n", "\r\n", "\r\n", "\r", "\x00", b"\xff", "y" * (LIMIT + 1),
          '"')


def quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


@st.composite
def report_files(draw):
    """A report file's bytes: rows of clean, odd and file-only fields,
    with LF or CRLF line ends, some fields quoted and, rarely, a quote
    the reader refuses or a byte that breaks a line, a field or the
    encoding."""
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        shape = draw(st.integers(0, 15))
        if shape == 0:
            line = ""
        elif shape == 1:
            line = ",".join(draw(st.lists(
                st.sampled_from(["r9", "2019-10-07", "4.0", ""]),
                max_size=9)))
        else:
            odd = draw(st.sets(st.integers(0, 6), max_size=2)
                       if shape > 8 else st.just(set()))
            fields = [draw(st.sampled_from(
                (ODD_FIELDS if k in odd else CLEAN_FIELDS)[k]
                + FILE_FIELDS[k] * (shape > 12))) for k in range(7)]
            if shape > 12:
                # object id, street and uuid may hold any text
                k = draw(st.sampled_from([0, 3, 5]))
                fields[k] = draw(st.sampled_from(QUOTED + (fields[k],)))
                fields = [quoted(field) if draw(st.booleans()) or
                          field in QUOTED else field for field in fields]
                if shape == 15 and draw(st.integers(0, 3)) == 0:
                    fields[k] = draw(st.sampled_from(MISQUOTED))
            line = ",".join(fields)
        lines.append(line + draw(st.sampled_from(["\n", "\n", "\r\n"])))
    data = (HEADER + "\n" + "".join(lines)).encode()
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    if draw(st.integers(0, 2)) == 0:
        # anywhere, or past the header
        at = draw(st.integers(0, len(data))
                  | st.integers(len(HEADER), len(data)))
        spot = draw(st.sampled_from(BREAKS))
        spot = spot if isinstance(spot, bytes) else spot.encode()
        data = data[:at] + spot + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(data=report_files(), block_bytes=st.sampled_from([8, 64, 1 << 20]))
def test_file_ingest_matches_the_csv_reader(data, block_bytes):
    with tempfile.TemporaryDirectory() as scratch, \
            field_size_limit(LIMIT), \
            mock.patch.object(crowdsense, "_BLOCK_BYTES", block_bytes):
        path = Path(scratch) / "reports.csv"
        path.write_bytes(data)
        result = read_alone(path)
        if result != outcome(reference_read, path):
            # only a refused quote parts the two, as a fault on its line
            # or before it
            misquote = first_misquote(data)
            match = re.fullmatch(rf"{re.escape(str(path))}: line (\d+): .*",
                                 str(result), re.DOTALL)
            assert misquote and match and int(match[1]) <= misquote


def test_file_ingest_matches_the_csv_reader_across_blocks(tmp_path,
                                                          monkeypatch):
    # the chunk test's corpus, with CRLF lines, blank lines, non-ASCII
    # streets and blank ids, read in blocks of about 1,000 bytes
    rows = synth_corpus(SynthSpec(user_count=400, day_count=7, rng_seed=3))
    for k in range(0, len(rows) - 10, 37):
        rows[k][3] = "Straße"
        rows[k + 5][0] = "　"
        rows[k + 9] = rows[k + 9][:5]
    lines = [",".join(row) + ("\r\n" if k % 3 else "\n")
             + "\n" * (k % 29 == 0) for k, row in enumerate(rows)]
    path = tmp_path / "reports.csv"
    path.write_text(HEADER + "\n" + "".join(lines), encoding="utf-8")
    monkeypatch.setattr(crowdsense, "_BLOCK_BYTES", 1000)
    read_both(path)
    monkeypatch.setattr(crowdsense, "_BLOCK_BYTES", 1 << 20)
    read_both(path)


def report_file(tmp_path, *lines, text=None) -> Path:
    path = tmp_path / "reports.csv"
    path.write_bytes(text if text is not None else
                     "\n".join([HEADER, *lines, ""]).encode())
    return path


ROW = "r1,2019-10-07,09:00,Alder Way,jam,u1,4.0"
ROW2 = "r2,2019-10-07,12:00,Alder Way,jam,u2,4.5"


@pytest.mark.parametrize("street, streets, details", [
    # a quoted comma is part of its field
    ('"Main St, North"', {"Alder Way", "Main St, North"}, []),
    # a lone CR ends a row
    ("Alder\rWay", {"Alder Way"}, ["expected 7 fields, got 4"] * 2),
    ("Al\x00der Way", {"Alder Way", "Al\x00der Way"}, []),
], ids=["quote", "lone-cr", "nul"])
def test_quotes_lone_crs_and_nuls_read_as_the_csv_reader_reads_them(
        tmp_path, street, streets, details):
    path = report_file(tmp_path, ROW,
                       f"r3,2019-10-07,12:00,{street},jam,u3,4.5", ROW2)
    read_both(path)
    table, rejections = read_reports_csv(path)
    assert {row.street for row in table} == streets
    assert [r.detail for r in rejections] == details


def test_a_quoted_field_in_the_last_block_is_read_without_the_csv_reader(
        tmp_path, monkeypatch):
    path = report_file(tmp_path, *[ROW] * 50,
                       'r3,2019-10-07,12:00,"Main St, North",jam,u3,4.5')
    monkeypatch.setattr(crowdsense, "_BLOCK_BYTES", 100)
    with path.open("rb") as fh:
        assert len(list(crowdsense._file_blocks(fh))) > 10
    read_both(path)
    table, rejections = read_reports_csv(path)
    assert [row.street for row in table] == ["Alder Way", "Main St, North"]
    assert len(rejections) == 49


@pytest.mark.parametrize("block_bytes", [8, 64])
def test_a_block_cut_at_a_quoted_newline_takes_the_whole_field(
        tmp_path, monkeypatch, block_bytes):
    # the first block of data rows ends at the newline inside the quotes:
    # within 8 bytes of the second row, or past 64 bytes of the first
    path = report_file(tmp_path, ROW,
                       'r3,2019-10-07,12:00,"Main\nSt, ""North""",jam,u3,4.5',
                       ROW2)
    monkeypatch.setattr(crowdsense, "_BLOCK_BYTES", block_bytes)
    with path.open("rb") as fh:
        blocks = list(crowdsense._file_blocks(fh))
    # the block that holds the field was read up to the newline inside
    # it, and then on to the closing quote's line
    data = path.read_bytes()
    k = next(k for k, block in enumerate(blocks) if b'"Main' in block)
    start = sum(map(len, blocks[:k]))
    assert (data.index(b"\n", start + block_bytes - 1) + 1
            == data.index(b'"Main\n') + 6)
    assert b'"Main\nSt, ""North"""' in blocks[k]
    read_both(path)
    table, _ = read_reports_csv(path)
    assert [row.street for row in table] == [
        "Alder Way", 'Main\nSt, "North"', "Alder Way"]


@pytest.mark.parametrize("field, message", [
    ('Main "St"', "quote inside an unquoted field"),
    (' "Main St"', "quote inside an unquoted field"),
    ('"Main"St', "text after a closing quote"),
    ('"Main St', "quote open at the end of the file"),
], ids=["mid-field", "after-space", "after-close", "open"])
def test_refused_quotes_name_their_line(tmp_path, field, message):
    path = report_file(tmp_path, ROW,
                       f"r3,2019-10-07,12:00,{field},jam,u3,4.5", ROW2)
    assert read_alone(path) == f"{path}: line 3: {message}"


def test_a_file_that_is_not_utf8_fails_as_the_text_reader_does(tmp_path):
    # its lines are counted at newlines: a lone CR does not start one
    for row in (ROW, ROW.replace("Alder Way", '"Alder\rWay"')):
        path = report_file(tmp_path, text=(HEADER + "\n" + row + "\n").encode()
                           + b"r2,2019-10-07,12:00,Stra\xdfe,jam,u2,4.5\n")
        read_both(path)
        with pytest.raises(ValueError, match=r"reports.csv: line 3: not "
                           r"UTF-8 \(invalid continuation byte\)"):
            read_reports_csv(path)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_fields_at_and_over_the_size_limit(tmp_path, end):
    limit = csv.field_size_limit()
    at = report_file(tmp_path, text=end.join([
        HEADER, ROW, f"r2,2019-10-07,12:00,{'s' * limit},jam,u2,4.5",
        f"r3,2019-10-07,15:00,Birch Street,jam,u3,{' ' * (limit - 3)}4.0",
        ""]).encode())
    read_both(at)
    assert len(read_reports_csv(at)[0]) == 3
    over = report_file(tmp_path, ROW, ROW2,
                       f"r3,2019-10-07,15:00,{'s' * (limit + 1)},jam,u3,4.0")
    read_both(over)
    with pytest.raises(ValueError, match=r"reports.csv: line 4: field "
                       r"larger than field limit \(131072\)"):
        read_reports_csv(over)


def test_a_quoted_field_over_the_limit_names_the_line_it_passes_it(
        tmp_path):
    # the field opens on line 3; its 33rd character is on line 4
    path = report_file(tmp_path, ROW, f'r2,2019-10-07,12:00,"{"a" * 20}\r\n'
                       f'{"b" * 20}",jam,u2,4.5', ROW2)
    with field_size_limit(LIMIT):
        read_both(path)
        with pytest.raises(ValueError, match=r"reports.csv: line 4: field "
                           r"larger than field limit \(32\)"):
            read_reports_csv(path)


def test_long_fields_that_differ_inside_are_told_apart(tmp_path):
    # same length, first and last words: only the middle word differs
    path = report_file(tmp_path, *(
        f"r{k},2019-10-07,09:00,Southwest 11{k}th Avenue Exit,jam,u{k},4.0"
        for k in range(4)))
    read_both(path)
    assert len(read_reports_csv(path)[0].streets) == 4


def test_a_block_decodes_each_distinct_text_once():
    # equal texts followed by different bytes share one key
    block = b"jam,a\njam,bb\nweather_hazard,c\nweather_hazard,dd\n"
    starts, ends = np.array([0, 6, 13, 30]), np.array([3, 9, 27, 44])
    words = np.ndarray(len(block), "<u8", block + bytes(7), 0, (1,))
    first, inverse = crowdsense._factorise(words, starts, ends)
    assert sorted(block[starts[k]:ends[k]] for k in first) == [
        b"jam", b"weather_hazard"]
    assert inverse[0] == inverse[1] != inverse[2] == inverse[3]


def test_gather_joins_ranges_with_a_byte_mask():
    data = np.frombuffer(b"abcdefghij", np.uint8)
    starts, ends = np.array([0, 2, 4, 4, 9]), np.array([1, 4, 4, 7, 10])
    assert crowdsense._gather(data, starts, ends) == b"acdefgj"
    assert crowdsense._gather(data, starts[:0], ends[:0]) == b""
    # an index of the gathered bytes alone would take eight bytes each
    data = np.zeros(1 << 20, np.uint8)
    starts = np.arange(0, len(data) - 8, 10)
    tracemalloc.start()
    try:
        gathered = len(crowdsense._gather(data, starts, starts + 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * gathered


def test_a_shared_key_codes_each_field_alone(tmp_path, monkeypatch):
    # with no mixing, every field of up to 8 bytes has key 0
    path = report_file(tmp_path, ROW, ROW2, ROW.replace("u1", '"u""3"'),
                       "r4,2019-10-07,15:00,Birch,accident,u4,3.0")
    monkeypatch.setattr(crowdsense, "_KEY_MIX", np.uint64(0))
    words = np.arange(16, dtype="<u8")
    first, inverse = crowdsense._factorise(words, np.array([0, 8]),
                                           np.array([4, 12]))
    assert first.tolist() == inverse.tolist() == [0, 1]
    read_both(path)
    assert [row.uuid for row in read_reports_csv(path)[0]] == [
        "u1", "u2", 'u"3', "u4"]


def test_header_only_and_blank_files(tmp_path):
    for text in (HEADER.encode(), (HEADER + "\r\n").encode(), b"\n",
                 b"\r\n" + HEADER.encode(), b" " + HEADER.encode(),
                 ",".join(map(quoted, REPORT_COLUMNS)).encode()):
        path = report_file(tmp_path, text=text)
        read_both(path)
    path = report_file(tmp_path, text=b"")
    read_both(path)
    with pytest.raises(ValueError, match="row 1: empty file"):
        read_reports_csv(path)


# ---------------------------------------------------------------------------
# report quality
# ---------------------------------------------------------------------------

def test_truthfulness_is_a_clamped_rescale():
    assert truthfulness(2.5) == 0.5
    assert truthfulness(5.0) == 0.99
    assert truthfulness(0.01) == 0.01
    assert truthfulness(5.0, epsilon=0.001) == 0.999


def test_qoc_known_values():
    assert qoc(0.5) == 0.0
    assert qoc(0.99) == pytest.approx(math.log(99.0))
    assert qoc(0.99) == pytest.approx(4.59512, abs=1e-5)
    # logistic(-1) inverts back to -1
    assert qoc(0.2689414213699951) == pytest.approx(-1.0, abs=1e-12)


def test_qoc_antisymmetry():
    rng = np.random.default_rng(1)
    for tau in rng.uniform(0.01, 0.99, size=50):
        assert qoc(tau) == pytest.approx(-qoc(1.0 - tau), abs=1e-10)


def test_qoc_domain():
    with pytest.raises(ValueError):
        qoc(0.0)
    with pytest.raises(ValueError):
        qoc(1.0)


def test_extended_qoc_scales_linearly():
    # a one-report user's rs_raw is gamma * Q, gamma set by the override
    records = [report(user="a", rating=4.0)]
    quality = qoc(truthfulness(4.0))
    for gamma in (1.0, 0.0, 0.5, 2.0, -1.5):
        profile = profiles_of(records, "A",
                              gamma_override={"a": gamma})["a"]
        assert profile.rs_raw == gamma * quality


def test_coop_flag_is_strict():
    # mean rating 3.0: the report rated exactly 3.0 does not cooperate
    records = [report(user="hi", rating=4.0, hour=0),
               report(user="lo", rating=2.0, hour=3),
               report(user="eq", rating=3.0, hour=6)]
    stats = compute_corpus_stats(table_of(records))
    assert stats.mean_rating == 3.0
    assert stats.coop_density.tolist() == [1.0, 0.0, 0.0]
    # only "hi" has a cooperative window; "eq" has none
    assert windows_of(table_of(records), stats.mean_rating) == [
        ("hi", window_id(DAY, 0))]
    records = [report(user=f"u{k}", rating=4.0, hour=k) for k in range(5)]
    stats = compute_corpus_stats(table_of(records))
    assert set(stats.coop_density.tolist()) == {0.0}


def test_logistic_behaviour():
    assert logistic(0.0) == 0.5
    # saturates without overflowing in either direction
    assert logistic(1e6) == 1.0
    assert 0.0 < logistic(-1e6) < 1e-300
    assert logistic(2.0) + logistic(-2.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# cooperativeness mechanisms
# ---------------------------------------------------------------------------

def stub_stats(total_windows, weights=()):
    """Stats with mean rating 3 and the given window weights, in
    window-code order."""
    return CorpusStats(mean_rating=3.0, total_window_count=total_windows,
                       coop_density=np.empty(0),
                       window_weight=np.array(weights, dtype=float))


def test_mechanism_a_is_neutral():
    records = [report(user="a", rating=5.0), report(user="b", rating=1.0)]
    for stats in (None, stub_stats(0)):
        profiles = profiles_of(records, "A", stats)
        assert [p.gamma_emp for p in profiles.values()] == [1.0, 1.0]


def test_mechanism_b_counts_window_persistence():
    # cooperative (above 3.0) in three windows; the second kind in
    # window 0 does not count it twice
    records = [report(rating=5.0, hour=3 * k) for k in range(3)]
    records.append(report(rating=5.0, hour=1, kind="accident"))
    profiles = profiles_of(records, "B", stub_stats(10))
    assert profiles["u1"].gamma_emp == pytest.approx(0.3)


def test_mechanism_c_uses_window_weights():
    records = [report(rating=5.0, hour=0), report(rating=5.0, hour=3)]
    profiles = profiles_of(records, "C", stub_stats(8, [0.5, 1.5]))
    assert profiles["u1"].gamma_emp == pytest.approx(2.0 / 8)


def test_unknown_mechanism_rejected():
    records = [report(user="a"), report(user="b", hour=13)]
    with pytest.raises(ValueError, match="mechanism must be one of"):
        build_profiles(table_of(records), IncentiveConfig(), "D")
    with pytest.raises(ValueError, match="empty corpus"):
        build_profiles(table_of(records), IncentiveConfig(), "B",
                       stub_stats(0))
    # only a user who falls back on the empirical value raises
    profiles = profiles_of(records, "D", gamma_override={"a": 1.0, "b": 0.5})
    assert profiles["b"].gamma_emp == 0.5


def test_uniform_density_makes_b_and_c_agree():
    # every window holds one above-mean and one below-mean report
    records = []
    for segment in (0, 1):
        records.append(report(user="good", rating=5.0, hour=3 * segment))
        records.append(report(user="poor", rating=1.0, hour=3 * segment))
    b = profiles_of(records, "B")
    c = profiles_of(records, "C")
    for user in ("good", "poor"):
        assert c[user].gamma_emp == pytest.approx(b[user].gamma_emp)
    assert b["good"].gamma_emp == pytest.approx(2.0 / 8)
    assert b["poor"].gamma_emp == 0.0


def test_scarce_cooperation_is_upweighted_by_c():
    # window 0: cooperation is common; window 1: one cooperator among
    # four low ratings
    records = [report(user=u, rating=5.0, hour=0) for u in "abcd"]
    records.append(report(user="x", rating=5.0, hour=3))
    records += [report(user=f"n{k}", rating=1.0, hour=3) for k in range(4)]
    b = profiles_of(records, "B")
    c = profiles_of(records, "C")
    # densities 1.0 vs 0.2 -> weights 1/3 vs 5/3 after mean rescale
    assert c["x"].gamma_emp == pytest.approx(b["x"].gamma_emp * 5 / 3)
    assert c["a"].gamma_emp == pytest.approx(b["a"].gamma_emp / 3)
    assert c["x"].gamma_emp > b["x"].gamma_emp
    assert c["a"].gamma_emp < b["a"].gamma_emp


def test_stats_window_count_spans_silent_days():
    records = [report(day=DAY), report(day=DAY + dt.timedelta(days=6),
                                       hour=20)]
    stats = compute_corpus_stats(table_of(records))
    assert stats.total_window_count == 7 * 8
    assert len(stats.coop_density) == 2


def test_window_weights_average_to_one():
    rng = np.random.default_rng(3)
    records = [report(user=f"u{k}", rating=float(rng.integers(1, 6)),
                      hour=int(rng.integers(24)),
                      day=DAY + dt.timedelta(days=int(rng.integers(3))))
               for k in range(60)]
    stats = compute_corpus_stats(table_of(records))
    assert np.mean(stats.window_weight) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# composite reputation
# ---------------------------------------------------------------------------

def reputation(ratings, gamma=None):
    """``(rs_raw, rs_norm)`` of one user filing ``ratings`` in
    successive windows, scored under mechanism A (gamma 1) unless
    ``gamma`` overrides it."""
    records = [report(user="a", rating=r, hour=k)
               for k, r in enumerate(ratings)]
    override = None if gamma is None else {"a": gamma}
    profile = profiles_of(records, "A", gamma_override=override)["a"]
    return profile.rs_raw, profile.rs_norm


def test_opposite_contributions_cancel():
    raw, norm = reputation([5 * logistic(1.0), 5 * logistic(-1.0)])
    assert raw == pytest.approx(0.0, abs=1e-12)
    assert norm == pytest.approx(0.5, abs=1e-12)


def test_rs_norm_tracks_rs_raw_sign():
    good, good_norm = reputation([5.0])
    bad, bad_norm = reputation([1.0])
    assert good > 0 and good_norm > 0.5
    assert bad < 0 and bad_norm < 0.5
    assert reputation([1.0], gamma=0.0) == (0.0, 0.5)


def test_rs_norm_is_monotone_in_raw():
    profiles = profiles_of([report(user=f"u{r}", rating=float(r), hour=r)
                            for r in range(1, 6)], "A")
    raws = [p.rs_raw for p in profiles.values()]
    norms = [p.rs_norm for p in profiles.values()]
    assert raws == sorted(raws)
    assert norms == sorted(norms)
    assert all(0.0 < v < 1.0 for v in norms)


def test_profiles_report_windows_and_counts():
    records = [report(user="a", rating=5.0, hour=0),
               report(user="a", rating=5.0, hour=4),
               report(user="a", rating=1.0, hour=9),
               report(user="b", rating=1.0, hour=0)]
    table = table_of(records)
    assert np.bincount(table.user).tolist() == [3, 1]
    assert [user for user, _ in windows_of(table)] == ["a"] * 3 + ["b"]
    # mean rating 3.0: a cooperates in two windows, b in none
    stats = compute_corpus_stats(table)
    assert [user for user, _ in windows_of(table, stats.mean_rating)] == [
        "a", "a"]
    profiles = profiles_of(records, "B")
    assert profiles["a"].gamma_emp == 2 / 8
    assert profiles["b"].gamma_emp == 0.0


def test_gamma_override_hook():
    records = [report(user="a", rating=5.0), report(user="b", rating=5.0,
                                                    hour=13)]
    profiles = profiles_of(records, "A", gamma_override={"a": 0.0})
    assert profiles["a"].gamma_emp == 0.0
    assert profiles["a"].rs_raw == 0.0
    assert profiles["b"].gamma_emp == 1.0
    assert profiles["b"].rs_raw > 0.0


# ---------------------------------------------------------------------------
# confidence and publishing
# ---------------------------------------------------------------------------

def decide(records, rs_norm, **config):
    """decision_rows with the given reputations, keyed by user, as rows
    ``(date, segment, street, kind, confidence, decision)``."""
    table = table_of(records)
    decisions = decision_rows(
        table, np.array([rs_norm[u] for u in table.users]),
        IncentiveConfig(**config))
    return [(dt.date.fromordinal(window // 8).isoformat(), window % 8,
             street, kind, value, "publish" if publish else "drop")
            for window, street, kind, value, publish
            in zip(*decision_fields(decisions))]


def test_unanimous_single_type_confidence_is_one():
    reports = [report(user=f"u{k}", kind="jam") for k in range(10)]
    rows = decide(reports, {r.uuid: 0.9 for r in reports},
                  preference_factor=0.5)
    assert [row[3:5] for row in rows] == [("jam", pytest.approx(1.0))]


def test_pure_quantity_share():
    # five of the window's ten positive users file an accident on one
    # street; the other five a jam on another
    group = [report(user=f"u{k}", kind="accident") for k in range(5)]
    window = group + [report(user=f"u{k}", kind="jam",
                             street="Birch Street") for k in range(5, 10)]
    rows = decide(window, {r.uuid: 0.9 for r in window},
                  preference_factor=1.0)
    assert rows[0][2:5] == ("Alder Way", "accident", pytest.approx(0.5))


def test_pure_quality_share_splits_equal_types():
    window = [report(user="a", kind="jam"),
              report(user="b", kind="accident")]
    rows = decide(window, {"a": 0.8, "b": 0.8}, preference_factor=0.0)
    assert rows[0][3:5] == ("accident", pytest.approx(0.5))


def test_no_positive_users_blocks_publishing():
    reports = [report(user="a"), report(user="b", hour=10)]
    rows = decide(reports, {"a": 0.2, "b": 0.2}, publish_threshold=0.0)
    assert [row[3:] for row in rows] == [("jam", 0.0, "publish")]
    rows = decide(reports, {"a": 0.2, "b": 0.2})
    assert [row[3:] for row in rows] == [("jam", 0.0, "drop")]


def test_threshold_user_counts_as_positive():
    reports = [report(user="a", kind="jam")]
    rows = decide(reports, {"a": 0.5})
    assert rows[0][4] == pytest.approx(1.0)


def test_decide_publish_picks_argmax_over_threshold():
    # seven jam reporters against three accident reporters: pure quantity
    # gives jam 0.7
    reports = ([report(user=f"j{k}", kind="jam") for k in range(7)]
               + [report(user=f"a{k}", kind="accident") for k in range(3)])
    rs_norm = {r.uuid: 0.9 for r in reports}
    rows = decide(reports, rs_norm, preference_factor=1.0)
    assert rows[0][3:] == ("jam", pytest.approx(0.7), "publish")
    rows = decide(reports, rs_norm, preference_factor=1.0,
                  publish_threshold=0.8)
    assert rows[0][5] == "drop"
    # a confidence equal to the threshold publishes
    rows = decide(reports[:1], {"j0": 0.9}, publish_threshold=1.0)
    assert rows[0][4:] == (1.0, "publish")


def test_ties_break_lexicographically():
    reports = [report(user="a", kind="jam"),
               report(user="b", kind="accident")]
    rows = decide(reports, {"a": 0.7, "b": 0.7})
    assert rows[0][3:] == ("accident", pytest.approx(0.5), "publish")


def test_argmax_invariant_under_positive_rescaling():
    # the chosen kind depends on relative reputations only
    rng = np.random.default_rng(9)
    for _ in range(20):
        reports = [report(user=f"u{k}", kind=INCIDENT_TYPES[k % 4],
                          street=("Alder Way", "Birch Street")[k % 2],
                          hour=int(rng.integers(6)))
                   for k in range(int(rng.integers(4, 16)))]
        rs_norm = {r.uuid: float(rng.uniform(0.1, 1.0)) for r in reports}
        scale = float(rng.uniform(0.1, 10.0))
        rescaled = {user: value * scale for user, value in rs_norm.items()}
        kinds = [row[3] for row in decide(reports, rs_norm,
                                          positive_rs_threshold=0.0)]
        assert kinds == [row[3] for row in decide(
            reports, rescaled, positive_rs_threshold=0.0)]


def test_decision_rows_are_per_window_and_street():
    records = [report(user="a", street="Alder Way", hour=9, rating=5.0),
               report(user="b", street="Alder Way", hour=10, rating=5.0),
               report(user="c", street="Birch Street", hour=9, rating=5.0),
               report(user="d", street="Alder Way", hour=14, rating=5.0)]
    window, street = decision_fields(decision_rows(
        table_of(records), np.full(4, 0.9), IncentiveConfig()))[:2]
    assert list(zip(window, street)) == [
        (window_id(DAY, 3), "Alder Way"), (window_id(DAY, 3), "Birch Street"),
        (window_id(DAY, 4), "Alder Way")]


# ---------------------------------------------------------------------------
# incentives
# ---------------------------------------------------------------------------

def test_single_positive_user_payout():
    payout = incentives(np.array([0.9]), budget=100.0, total_users=10)
    assert payout.tolist() == [pytest.approx(10.0)]


def test_two_positive_users_split_by_reputation():
    payout = incentives(np.array([0.6, 0.9]), budget=100.0, total_users=2)
    assert payout.tolist() == [pytest.approx(40.0), pytest.approx(60.0)]


def test_no_positive_users_no_payout():
    payout = incentives(np.array([0.4, 0.1]), budget=100.0, total_users=2)
    assert payout.tolist() == [0.0, 0.0]


def test_budget_conservation_on_random_ledgers():
    rng = np.random.default_rng(17)
    for _ in range(20):
        users = int(rng.integers(2, 40))
        rs_norm = np.array([float(rng.random()) for _ in range(users)])
        total = users + int(rng.integers(0, 10))
        budget = float(rng.uniform(10.0, 500.0))
        payout = incentives(rs_norm, budget, total).tolist()
        positive = int(np.count_nonzero(rs_norm >= 0.5))
        expected = budget * positive / total
        assert sum(payout) == pytest.approx(expected, abs=1e-9)
        assert sum(payout) <= budget + 1e-9
        assert all(v >= 0.0 for v in payout)


def test_incentives_validation():
    with pytest.raises(ValueError):
        incentives(np.empty(0), budget=10.0, total_users=0)
    with pytest.raises(ValueError):
        incentives(np.empty(0), budget=-1.0, total_users=5)


def test_incentives_refuse_fewer_total_users_than_scored():
    # three positive users among one device would be paid 300 of 100
    with pytest.raises(ValueError, match="total_users 1 is less than the "
                                         "3 users scored"):
        incentives(np.full(3, 0.9), budget=100.0, total_users=1)
    with pytest.raises(ValueError, match="total_users 4 .* 5 users scored"):
        score_corpus(small_corpus(), IncentiveConfig(), total_users=4)
    payout = incentives(np.full(3, 0.9), budget=100.0, total_users=3)
    assert sum(payout.tolist()) == pytest.approx(100.0)


def test_incentive_config_validation():
    with pytest.raises(ValueError):
        IncentiveConfig(budget=-5.0)
    with pytest.raises(ValueError):
        IncentiveConfig(preference_factor=1.5)
    with pytest.raises(ValueError):
        IncentiveConfig(mechanism="Z")
    with pytest.raises(ValueError):
        IncentiveConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="positive_rs_threshold"):
        IncentiveConfig(positive_rs_threshold=1.5)
    with pytest.raises(ValueError, match="positive_rs_threshold"):
        IncentiveConfig(positive_rs_threshold=-0.1)
    assert IncentiveConfig(positive_rs_threshold=1.0).positive_rs_threshold \
        == 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["budget", "preference_factor",
                                  "publish_threshold",
                                  "positive_rs_threshold", "epsilon"])
def test_incentive_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        IncentiveConfig(**{name: value})


# ---------------------------------------------------------------------------
# end-to-end scoring
# ---------------------------------------------------------------------------

def small_corpus():
    records = []
    for k in range(4):
        records.append(report(user=f"good{k}", rating=5.0, hour=3 * k,
                              street="Alder Way"))
        records.append(report(user=f"good{k}", rating=5.0, hour=3 * k + 1,
                              street="Alder Way", kind="accident"))
    records.append(report(user="bad", rating=1.0, hour=2))
    return table_of(records)


def test_score_corpus_covers_all_mechanisms():
    result = score_corpus(small_corpus(), IncentiveConfig())
    assert set(result.profiles) == set(MECHANISMS)
    assert set(result.payouts) == set(MECHANISMS)
    assert result.total_users == 5
    assert result.users == sorted(result.users)
    for mech in MECHANISMS:
        total = sum(result.payouts[mech].tolist())
        positive = int(np.count_nonzero(result.profiles[mech].rs_norm >= 0.5))
        assert total == pytest.approx(100.0 * positive / 5, abs=1e-9)


def test_score_corpus_single_mechanism():
    result = score_corpus(small_corpus(), IncentiveConfig(),
                          mechanisms=("B",))
    assert set(result.profiles) == {"B"}
    assert result.mechanism == "B"


def test_score_corpus_refuses_no_mechanism():
    table, _ = parse_reports(synth_corpus(SynthSpec(user_count=20,
                                                    day_count=2, rng_seed=5)))
    with pytest.raises(ValueError, match="no mechanism was given"):
        score_corpus(table, IncentiveConfig(), mechanisms=())


def test_selected_mechanism_is_the_configured_one_if_scored():
    table = small_corpus()
    for config_mech, mechanisms, selected in (("B", ("A", "B"), "B"),
                                              ("C", ("A", "B"), "A"),
                                              ("C", ("B", "A"), "B")):
        config = IncentiveConfig(mechanism=config_mech)
        result = score_corpus(table, config, mechanisms=mechanisms)
        assert result.mechanism == selected
        assert_same_decisions(result.decisions, decision_rows(
            table, result.profiles[selected].rs_norm, config))


def test_ledger_csv_layout(tmp_path):
    result = score_corpus(small_corpus(), IncentiveConfig())
    path = tmp_path / "ledger.csv"
    write_ledger_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("user_id,rs_raw,rs_norm,gamma_emp,"
                        "incentive_A,incentive_B,incentive_C")
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    assert first[0] == result.users[0] == "bad"
    assert float(first[2]) == result.profiles["C"].rs_norm[0]


def test_ledger_csv_leaves_unscored_mechanisms_empty(tmp_path):
    result = score_corpus(small_corpus(), IncentiveConfig(),
                          mechanisms=("B",))
    path = tmp_path / "ledger.csv"
    write_ledger_csv(result, path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[4] == "" and row[6] == ""
    assert row[5] != ""


def test_ledger_scores_come_from_the_selected_mechanism(tmp_path):
    result = score_corpus(small_corpus(), IncentiveConfig(mechanism="C"),
                          mechanisms=("A", "B"))
    path = tmp_path / "ledger.csv"
    write_ledger_csv(result, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [float(row[2]) for row in rows] == (
        result.profiles["A"].rs_norm.tolist())
    assert [row[6] for row in rows] == [""] * len(rows)


def test_decisions_csv_layout(tmp_path):
    result = score_corpus(small_corpus(), IncentiveConfig())
    path = tmp_path / "decisions.csv"
    write_decisions_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "date,segment,street,event_type,confidence,decision"
    assert len(lines) > 1
    cells = lines[1].split(",")
    assert cells[0] == "2019-10-07"
    assert cells[3] in INCIDENT_TYPES
    # one line per decision, read back from the columns
    decisions = result.decisions
    assert [line.split(",") for line in lines[1:]] == [
        [str(dt.date.fromordinal(w // 8)), str(w % 8),
         decisions.streets[s], decisions.kinds[k], repr(c),
         "publish" if p else "drop"]
        for w, s, k, c, p in zip(*(column.tolist()
                                   for column in decisions[:5]))]


def test_decision_rows_refuses_rs_norm_of_another_length():
    table = small_corpus()
    rs_norm = build_profiles(table, IncentiveConfig(), "A").rs_norm
    assert len(rs_norm) == 5
    for wrong in (np.append(rs_norm, 0.9), rs_norm[:-1]):
        with pytest.raises(ValueError,
                           match=f"^rs_norm: {len(wrong)} values, 5 users$"):
            decision_rows(table, wrong, IncentiveConfig())


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_gamma_override_refuses_non_finite_values(gamma):
    table = small_corpus()
    for user in ("good1", "nobody"):
        with pytest.raises(ValueError, match=re.escape(
                f"non-finite gamma_override[{user!r}]: {gamma}")):
            build_profiles(table, IncentiveConfig(), "B",
                           gamma_override={"bad": 0.5, user: gamma})


# ---------------------------------------------------------------------------
# exact reference scorer
# ---------------------------------------------------------------------------

def ref_window(record):
    return window_id(record.generation_date, record.day_time.hour // 3)


class ReferenceStats(NamedTuple):
    """Corpus statistics with per-window values keyed by window id, in
    chronological order."""

    mean_rating: float
    total_window_count: int
    coop_density: dict
    window_weight: dict


def reference_stats(kept, epsilon):
    """ReferenceStats from per-record loops and left-to-right sums."""
    if not kept:
        return ReferenceStats(mean_rating=0.0, total_window_count=0,
                              coop_density={}, window_weight={})
    acc = 0.0
    for record in kept:
        acc += record.report_rating
    mean_rating = acc / len(kept)
    grouped = {}
    for record in kept:
        grouped.setdefault(ref_window(record), []).append(record)
    dates = [record.generation_date for record in kept]
    span_days = (max(dates) - min(dates)).days + 1
    coop_density = {}
    for window, rows in sorted(grouped.items()):
        coop = 0
        for record in rows:
            coop += record.report_rating > mean_rating
        coop_density[window] = coop / len(rows)
    raw_weight = {w: 1.0 / max(d, epsilon) for w, d in coop_density.items()}
    acc = 0.0
    for value in raw_weight.values():
        acc += value
    weight_mean = acc / len(raw_weight)
    return ReferenceStats(
        mean_rating=mean_rating, total_window_count=span_days * 8,
        coop_density=coop_density,
        window_weight={w: v / weight_mean for w, v in raw_weight.items()})


class ReferenceProfile(NamedTuple):
    """One user's scores under one mechanism, with the report count and
    windows they come from."""

    report_count: int
    active_windows: tuple
    coop_windows: tuple
    gamma_emp: float
    rs_raw: float
    rs_norm: float


def reference_profiles(kept, config, mechanism, stats, gamma_override):
    by_user = {}
    for record in kept:
        by_user.setdefault(record.uuid, []).append(record)
    profiles = {}
    for user in sorted(by_user):
        reports = by_user[user]
        active = sorted({ref_window(r) for r in reports})
        coop = sorted({ref_window(r) for r in reports
                       if r.report_rating > stats.mean_rating})
        if gamma_override is not None and user in gamma_override:
            gamma = gamma_override[user]
        elif mechanism == "A":
            gamma = 1.0
        elif mechanism == "B":
            gamma = len(coop) / stats.total_window_count
        else:
            acc = 0.0
            for window in coop:
                acc += stats.window_weight[window]
            gamma = acc / stats.total_window_count
        raw = 0.0
        for record in reports:
            raw += gamma * qoc(truthfulness(record.report_rating,
                                            config.epsilon))
        profiles[user] = ReferenceProfile(
            report_count=len(reports), active_windows=tuple(active),
            coop_windows=tuple(coop), gamma_emp=gamma, rs_raw=raw,
            rs_norm=logistic(raw))
    return profiles


def reference_payouts(profiles, budget, total_users, threshold):
    positive = [u for u in sorted(profiles)
                if profiles[u].rs_norm >= threshold]
    out = {u: 0.0 for u in sorted(profiles)}
    if positive:
        pot = budget * len(positive) / total_users
        acc = 0.0
        for user in positive:
            acc += profiles[user].rs_norm
        for user in positive:
            out[user] = profiles[user].rs_norm / acc * pot
    return out


def reference_decisions(kept, profiles, config):
    grouped = {}
    for record in kept:
        grouped.setdefault(ref_window(record), []).append(record)
    rows = []
    for window, window_records in sorted(grouped.items()):
        positive = {r.uuid for r in window_records
                    if profiles[r.uuid].rs_norm
                    >= config.positive_rs_threshold}
        for street in sorted({r.street for r in window_records}):
            group = [r for r in window_records if r.street == street]
            kinds = sorted({r.incident_type for r in group})
            conf = {}
            if not positive:
                conf = {kind: 0.0 for kind in kinds}
            else:
                users = {kind: sorted({r.uuid for r in group
                                       if r.incident_type == kind})
                         for kind in kinds}
                rs_agg = {}
                for kind in kinds:
                    acc = 0.0
                    for user in users[kind]:
                        acc += profiles[user].rs_norm
                    rs_agg[kind] = acc
                total = 0.0
                for kind in kinds:
                    total += rs_agg[kind]
                nu = config.preference_factor
                for kind in kinds:
                    quantity = len(users[kind]) / len(positive)
                    quality = rs_agg[kind] / total if total > 0 else 0.0
                    conf[kind] = nu * quantity + (1.0 - nu) * quality
            kind = min(conf, key=lambda k: (-conf[k], k))
            value = conf[kind]
            rows.append((window, street, kind, value,
                         value >= config.publish_threshold))
    return rows


def decision_fields(decisions):
    """The decision columns as lists in ``Decisions`` field order, with
    streets and kinds as their texts."""
    window, street, kind, confidence, publish, streets, kinds = decisions
    assert window.dtype == street.dtype == kind.dtype == np.int64
    assert confidence.dtype == np.float64 and publish.dtype == bool
    return [window.tolist(), [streets[code] for code in street.tolist()],
            [kinds[code] for code in kind.tolist()], confidence.tolist(),
            publish.tolist()]


def assert_same_decisions(decisions, expected):
    """``decisions`` holds ``expected``'s columns bit for bit, whether
    ``expected`` is a Decisions or the reference scorer's rows."""
    if isinstance(expected, crowdsense.Decisions):
        expected = decision_fields(expected)
    else:
        expected = [list(column) for column in zip(*expected)] or [[]] * 5
    assert decision_fields(decisions) == expected


def stats_fields(stats):
    """A CorpusStats as plain values and lists."""
    return (stats.mean_rating, stats.total_window_count,
            stats.coop_density.tolist(), stats.window_weight.tolist())


def assert_matches_reference(kept, config, total_users=None,
                             gamma_override=None):
    result = score_corpus(kept, config, total_users=total_users,
                          gamma_override=gamma_override)
    stats = reference_stats(kept, config.epsilon)
    assert stats_fields(result.stats) == (
        stats.mean_rating, stats.total_window_count,
        list(stats.coop_density.values()), list(stats.window_weight.values()))
    assert kept.window_ids.tolist() == list(stats.coop_density)
    users = sorted({r.uuid for r in kept})
    assert result.users == users
    total = len(users) if total_users is None else total_users
    for mech in MECHANISMS:
        profiles = reference_profiles(kept, config, mech, stats,
                                      gamma_override)
        # the reference read in user-code order, column by column
        rows = [profiles[user] for user in users]
        for name in Profiles._fields:
            assert getattr(result.profiles[mech], name).tolist() == [
                getattr(row, name) for row in rows], (mech, name)
        payouts = reference_payouts(profiles, config.budget, total,
                                    config.positive_rs_threshold)
        assert result.payouts[mech].tolist() == [
            payouts[user] for user in users], mech
        if mech == config.mechanism:
            assert result.mechanism == mech
            assert_same_decisions(result.decisions,
                                  reference_decisions(kept, profiles, config))
    # the report counts and windows the profiles come from
    assert np.bincount(kept.user, minlength=len(users)).tolist() == [
        profiles[user].report_count for user in users]
    assert windows_of(kept) == [(user, window) for user in users
                                for window in profiles[user].active_windows]
    assert windows_of(kept, stats.mean_rating) == [
        (user, window) for user in users
        for window in profiles[user].coop_windows]
    return result


def assert_same_scores(result, expected):
    """Two ScoreResults hold the same values, their columns bit for bit
    (``==`` on a ScoreResult would compare arrays)."""
    assert result.users == expected.users
    assert result.total_users == expected.total_users
    assert stats_fields(result.stats) == stats_fields(expected.stats)
    assert result.mechanism == expected.mechanism
    assert_same_decisions(result.decisions, expected.decisions)
    assert set(result.profiles) == set(expected.profiles)
    assert set(result.payouts) == set(expected.payouts)
    for mech in expected.profiles:
        for name in Profiles._fields:
            assert (getattr(result.profiles[mech], name).tolist()
                    == getattr(expected.profiles[mech], name).tolist())
        assert (result.payouts[mech].tolist()
                == expected.payouts[mech].tolist())


def test_empty_corpus_matches_reference():
    result = assert_matches_reference(table_of(), IncentiveConfig(),
                                      total_users=1)
    assert len(result.profiles["C"].rs_norm) == 0
    for decisions in (result.decisions,
                      decision_rows(table_of(), np.empty(0),
                                    IncentiveConfig())):
        assert decision_fields(decisions) == [[]] * 5


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_synthetic_corpora_match_reference(seed, mechanism):
    rows = synth_corpus(SynthSpec(user_count=80, day_count=4,
                                  rng_seed=seed))
    kept, _ = parse_reports(rows)
    assert_matches_reference(kept, IncentiveConfig(mechanism=mechanism))


def test_table_rebuilt_from_its_rows_scores_alike():
    table, _ = parse_reports(synth_corpus(SynthSpec(user_count=40,
                                                    day_count=3, rng_seed=8)))
    rebuilt = table_of(list(table))
    config = IncentiveConfig()
    assert_same_scores(score_corpus(rebuilt, config),
                       score_corpus(table, config))


def test_table_iterates_in_input_order():
    records = [report(user=u, rating=r, hour=h, object_id=f"r{k}")
               for k, (u, r, h) in enumerate([("b", 4.0, 22), ("a", 1.0, 1),
                                              ("b", 5.0, 2), ("c", 3.0, 9)])]
    table = table_of(records)
    assert len(table) == 4
    assert list(table) == records
    assert all(type(row) is ReportRecord for row in table)


def test_empty_table_has_no_rows():
    table = table_of()
    assert len(table) == 0 and not table
    assert list(table) == [] and table.users == []
    assert list(table_of([])) == []


def test_single_window_matches_reference():
    kept = [report(user=f"u{k}", rating=float(1 + k % 5), hour=9 + k % 3,
                   street=("Alder Way", "Birch Street")[k % 2],
                   kind=INCIDENT_TYPES[k % 4], object_id=f"r{k}")
            for k in range(12)]
    result = assert_matches_reference(table_of(kept), IncentiveConfig())
    assert len(result.stats.coop_density) == 1


def test_corpus_without_cooperation_matches_reference():
    # every rating equals the mean, so no report is cooperative
    kept = [report(user=f"u{k % 3}", rating=4.0, hour=k, object_id=f"r{k}")
            for k in range(10)]
    result = assert_matches_reference(table_of(kept),
                                      IncentiveConfig(mechanism="B"))
    assert set(result.stats.coop_density.tolist()) == {0.0}
    assert result.profiles["C"].gamma_emp.tolist() == [0.0] * 3


def test_partial_gamma_override_matches_reference():
    kept, _ = parse_reports(synth_corpus(SynthSpec(user_count=20,
                                                   day_count=2, rng_seed=5)))
    override = {"u0000": 0.25, "u0003": 2, "nobody": 7.0}
    result = assert_matches_reference(kept, IncentiveConfig(),
                                      gamma_override=override)
    assert result.profiles["B"].gamma_emp[result.users.index("u0003")] == 2


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_extreme_publish_thresholds_match_reference(threshold):
    kept, _ = parse_reports(synth_corpus(SynthSpec(user_count=20,
                                                   day_count=2, rng_seed=6)))
    result = assert_matches_reference(
        kept, IncentiveConfig(publish_threshold=threshold))
    decisions = result.decisions
    assert (decisions.publish == (decisions.confidence >= threshold)).all()
    if threshold == 0.0:
        assert decisions.publish.all()


def test_equal_confidence_kinds_break_to_the_first_kind():
    # two users file different kinds with equal reputations on one street
    kept = [report(user="a", rating=5.0, kind="weather_hazard"),
            report(user="b", rating=5.0, kind="jam")]
    result = assert_matches_reference(table_of(kept), IncentiveConfig())
    assert decision_fields(result.decisions)[2] == ["jam"]


small_records = st.builds(
    report,
    user=st.sampled_from(["a", "b", "c", "d", "e"]),
    rating=st.one_of(st.sampled_from([0.5, 1.0, 2.5, 3.0, 4.0, 5.0]),
                     st.floats(0.01, 5.0)),
    hour=st.integers(0, 23),
    day=st.sampled_from([DAY, DAY + dt.timedelta(days=1),
                         DAY + dt.timedelta(days=3)]),
    street=st.sampled_from(["Alder Way", "Birch Street", "Cedar Avenue"]),
    kind=st.sampled_from(INCIDENT_TYPES))


@settings(max_examples=60, deadline=None)
@given(kept=st.lists(small_records, min_size=1, max_size=25),
       mechanism=st.sampled_from(MECHANISMS),
       preference=st.sampled_from([0.0, 0.5, 1.0, 0.3]),
       publish=st.sampled_from([0.0, 0.5, 1.0, 0.7]),
       positive=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
def test_random_corpora_match_reference(kept, mechanism, preference,
                                        publish, positive):
    config = IncentiveConfig(mechanism=mechanism,
                             preference_factor=preference,
                             publish_threshold=publish,
                             positive_rs_threshold=positive)
    assert_matches_reference(table_of(kept), config)


def test_score_corpus_runs_each_stage_through_module_globals(monkeypatch):
    calls = {}

    def counted(name):
        original = getattr(crowdsense, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(crowdsense, name, wrapper)

    expected = score_corpus(small_corpus(), IncentiveConfig())
    for name in ("compute_corpus_stats", "build_profiles", "decision_rows",
                 "incentives"):
        counted(name)
    result = score_corpus(small_corpus(), IncentiveConfig())
    assert calls == {"compute_corpus_stats": 1, "build_profiles": 3,
                     "decision_rows": 1, "incentives": 3}
    assert_same_scores(result, expected)


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

def test_synthesis_is_deterministic():
    spec = SynthSpec(user_count=40, day_count=3, rng_seed=5)
    assert synth_corpus(spec) == synth_corpus(spec)
    other = synth_corpus(SynthSpec(user_count=40, day_count=3, rng_seed=6))
    assert other != synth_corpus(spec)


def test_synthetic_rows_parse_cleanly():
    rows = synth_corpus(SynthSpec(user_count=60, day_count=4, rng_seed=2))
    kept, rejections = parse_reports(rows)
    assert all(r.reason == "zero_rating" for r in rejections)
    assert len(kept) + len(rejections) == len(rows)
    dates = {r.generation_date for r in kept}
    assert max(dates) - min(dates) <= dt.timedelta(days=3)


def test_no_malicious_users_no_spam():
    spec = SynthSpec(user_count=30, day_count=3, honest_fraction=0.5,
                     selfish_fraction=0.5, rng_seed=1)
    rows = synth_corpus(spec)
    assert all(row[6] != "0.0" for row in rows)
    kept, rejections = parse_reports(rows)
    assert not rejections


def test_archetype_census():
    spec = SynthSpec(user_count=100, day_count=7, rng_seed=3)
    rows = synth_corpus(spec)
    by_user = {}
    for row in rows:
        by_user.setdefault(row[5], []).append(float(row[6]))
    assert len(by_user) == 100
    honest = [u for u, ratings in by_user.items()
              if set(ratings) == {5.0}]
    selfish = [u for u, ratings in by_user.items()
               if set(ratings) == {4.0}]
    assert len(honest) == 50
    assert len(selfish) == 30
    for user in selfish:
        assert 1 <= len(by_user[user]) <= 3
    for user in honest:
        assert 10 <= len(by_user[user]) <= 14


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(user_count=0)
    with pytest.raises(ValueError):
        SynthSpec(honest_fraction=0.8, selfish_fraction=0.4)


def test_decisions_csv_quotes_only_what_it_must(tmp_path):
    records = [report(user=f"u{k}", street=street, hour=k)
               for k, street in enumerate(["Main St, North", 'Say "hi"',
                                           "Alder Way"])]
    result = score_corpus(table_of(records), IncentiveConfig())
    path = tmp_path / "decisions.csv"
    write_decisions_csv(result, path)
    text = path.read_text(encoding="utf-8")
    assert '"Main St, North"' in text and '"Say ""hi"""' in text
    assert ",Alder Way," in text
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {6}
    assert sorted(row[2] for row in rows[1:]) == sorted(
        r.street for r in records)
    # a CR is quoted too, though the csv module quotes it only when it
    # is part of the line end
    records.append(report(user="u9", street="Line\rBreak", hour=20))
    write_decisions_csv(score_corpus(table_of(records), IncentiveConfig()),
                        path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert sorted(row[2] for row in rows[1:]) == sorted(
        r.street for r in records)
