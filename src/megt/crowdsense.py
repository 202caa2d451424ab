"""Crowdsensed-report scoring, publish decisions, and incentive payout.

The pipeline ingests Waze-schema report tables
(``object_id,generation_date,day_time,street,incident_type,uuid,
report_rating``), filters spam and duplicates, scores each device's
contributions into a composite reputation in (0, 1), decides per
spatio-temporal window which event type (if any) to publish, and splits
an incentive budget among positive-reputation contributors.

Space-time is discretised into windows of one calendar date times one of
eight 3-hour day segments.  A report's truthfulness is its rating mapped
to (0, 1); its contribution quality is the logit of that; a user's
reputation is the logistic of their cooperativeness-weighted quality
sum.  Cooperativeness comes in three flavours: mechanism A ignores it
(weight 1), mechanism B counts the fraction of windows with an
above-average-rated report, and mechanism C additionally up-weights
windows where cooperative reports are scarce.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import math
import operator
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .manifest import write_lines

__all__ = [
    "INCIDENT_TYPES",
    "REPORT_COLUMNS",
    "MECHANISMS",
    "ReportRecord",
    "ReportTable",
    "Rejection",
    "Profiles",
    "Decisions",
    "IncentiveConfig",
    "read_reports_csv",
    "write_reports_csv",
    "truthfulness",
    "qoc",
    "logistic",
    "CorpusStats",
    "compute_corpus_stats",
    "build_profiles",
    "decision_rows",
    "incentives",
    "ScoreResult",
    "score_corpus",
    "write_ledger_csv",
    "write_decisions_csv",
    "SynthSpec",
    "synth_corpus",
]

INCIDENT_TYPES = ("accident", "jam", "road_closure", "weather_hazard")
REPORT_COLUMNS = ("object_id", "generation_date", "day_time", "street",
                  "incident_type", "uuid", "report_rating")
MECHANISMS = ("A", "B", "C")
SEGMENTS_PER_DAY = 8


class ReportRecord(NamedTuple):
    """One validated report row: a row of a ReportTable."""

    object_id: str
    generation_date: dt.date
    day_time: dt.time
    street: str
    incident_type: str
    uuid: str
    report_rating: float


@dataclass(frozen=True)
class Rejection:
    """Why an input row was dropped; reasons are ``malformed``,
    ``zero_rating`` or ``duplicate``."""

    row_number: int
    reason: str
    detail: str


class Profiles(NamedTuple):
    """Every user's scores under one mechanism: one float64 column per
    field, in user-code order (``ReportTable.users``)."""

    gamma_emp: np.ndarray
    rs_raw: np.ndarray
    rs_norm: np.ndarray


class Decisions(NamedTuple):
    """The DSS log, a column per ``decisions.csv`` field: window ids, codes
    into the table's sorted ``streets`` and ``kinds`` (carried along, so a
    writer needs no table), confidences and publish flags."""

    window: np.ndarray
    street: np.ndarray
    kind: np.ndarray
    confidence: np.ndarray
    publish: np.ndarray
    streets: list[str]
    kinds: list[str]


@dataclass(frozen=True)
class IncentiveConfig:
    """Scoring/DSS/incentive knobs.

    ``preference_factor`` weighs contributor quantity against quality in
    the publish confidence; ``positive_rs_threshold`` marks positive
    reputation (0.5 = the logistic's neutral point); ``epsilon`` clamps
    truthfulness away from {0, 1} and floors window densities.
    """

    budget: float = 100.0
    preference_factor: float = 0.5
    publish_threshold: float = 0.5
    positive_rs_threshold: float = 0.5
    mechanism: str = "C"
    epsilon: float = 0.01

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 <= self.budget < math.inf:
            raise ValueError(
                f"budget must be finite and >= 0, got {self.budget}")
        for name in ("preference_factor", "publish_threshold",
                     "positive_rs_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.mechanism not in MECHANISMS:
            raise ValueError(
                f"mechanism must be one of {MECHANISMS}, "
                f"got {self.mechanism!r}")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(
                f"epsilon must lie in (0, 0.5), got {self.epsilon}")


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

# a report file is read this many bytes at a time, each block cut after
# a newline outside quotes, so memory holds one block's split arrays,
# not the whole file's.  On a 100k-row corpus, 256 KiB blocks took
# longer than 1 MiB ones and, on a second ingest in one process, made a
# third more page faults.
_BLOCK_BYTES = 1 << 20

_QUOTE, _LF, _CR, _COMMA = b'"\n\r,'

# the bytes that can begin or end a field that str.strip changes: its
# whitespace below 128 and every byte of a non-ASCII character
_STRIPPABLE = np.zeros(256, dtype=bool)
_STRIPPABLE[list(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")] = True
_STRIPPABLE[0x80:] = True

# _HEAD_MASK[k] keeps the first k bytes of a little-endian word;
# _KEY_MIX is the odd multiplier that folds a field's length and words
# into its sort key
_HEAD_MASK = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_KEY_MIX = np.uint64(0x9E3779B97F4A7C15)


def _new_index() -> defaultdict:
    """A value -> code map that numbers each unseen value on lookup, in
    order of first appearance."""
    return defaultdict(itertools.count().__next__)


def _codes(index: defaultdict, column) -> np.ndarray:
    return np.fromiter(map(index.__getitem__, column), np.intp, len(column))


def _joined(parts: list[np.ndarray], dtype=np.intp) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype), *parts])


def _first_codes(column) -> tuple[list, np.ndarray]:
    """``(values, codes)``: the distinct values in order of first
    appearance and each entry's index into them."""
    index = _new_index()
    codes = _codes(index, column)
    return list(index), codes


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """The ``len + 1`` offsets that cut a joined sequence into parts of
    the given lengths."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _gather(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> bytes:
    """The byte ranges ``data[start:end]``, joined; the ranges must be
    in order and must not overlap.

    They are picked by a mask of one byte per byte of ``data``, not by
    an index of eight bytes per byte gathered: for a whole corpus's ids
    such an index passes the 4 MiB from which numpy backs arrays with
    huge pages, and the time a huge-page fault takes depends on the
    host's memory, not on the work.
    """
    cuts = np.empty(2 * len(starts) + 2, np.intp)
    cuts[0], cuts[-1] = 0, len(data)
    cuts[1:-1:2], cuts[2:-1:2] = starts, ends
    inside = np.zeros(len(cuts) - 1, dtype=bool)
    inside[1::2] = True
    return data[np.repeat(inside, np.diff(cuts))].tobytes()


def _ids_at(ids: tuple[bytes, np.ndarray], at: np.ndarray
            ) -> tuple[bytes, np.ndarray]:
    """The joined object ids at positions ``at``, joined anew."""
    joined, offsets = ids
    lengths = offsets[at + 1] - offsets[at]
    return (_gather(np.frombuffer(joined, np.uint8), offsets[at],
                    offsets[at + 1]), _offsets(lengths))


def _id_texts(ids: tuple[bytes, np.ndarray], at=slice(None)) -> list[str]:
    """The joined object ids at ``at`` (all by default), decoded and
    stripped."""
    joined, offsets = ids
    return [joined[a:b].decode("utf-8", "surrogatepass").strip()
            for a, b in zip(offsets[:-1][at].tolist(),
                            offsets[1:][at].tolist())]


def _texts(block: bytes, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The fields ``block[start:end]``, decoded."""
    return [block[a:b].decode()
            for a, b in zip(starts.tolist(), ends.tolist())]


def _file_blocks(fh):
    """A binary file's bytes in blocks of whole records: its first line,
    then blocks of about ``_BLOCK_BYTES``, each cut at the first newline
    past that size that an even number of quotes precedes; a last line
    without a newline gets one."""
    block = fh.readline()
    while block:
        if not block.endswith(b"\n"):
            block += fh.readline()
        lines = [block]
        quotes = block.count(b'"') if b'"' in block else 0
        while quotes % 2 and (line := fh.readline()):
            lines.append(line)
            quotes += line.count(b'"')
        block = b"".join(lines)
        if not block.endswith(b"\n"):
            block += b"\n"
        yield block
        block = fh.read(_BLOCK_BYTES)


def _split_block(block: bytes, limit: int, line: tuple[int, int]):
    """A block of whole records split at the commas and record ends
    (LF, CRLF or lone CR) outside quotes, as ``read_reports_csv`` reads
    them.  A byte lies inside quotes when an odd number of quotes
    precedes it.  A block with no quote and no lone CR is split without
    looking for either.

    ``line`` counts the lines before the block: physical ones (ended by
    a LF or a lone CR, as the csv module counts them) and LF-ended ones.
    Returns ``(block, field_counts, starts, ends, line)``: the block with
    the enclosing quotes of its fields and the first of each doubled
    quote cut out; each record's field count (0 for a blank record, as
    the csv module counts); the offsets into that block of the fields of
    the records with one field per REPORT_COLUMNS entry, one row per
    column; and ``line`` counted past the block.  The block's first
    fault is a ValueError naming its line (LF-ended for bytes that are
    not UTF-8, physical otherwise).
    """
    width = len(REPORT_COLUMNS)
    data = np.frombuffer(block, np.uint8)
    newline = np.flatnonzero(data == _LF)
    breaks = newline  # the physical line ends
    if b"\r" in block and block.count(b"\r") != block.count(b"\r\n"):
        cr = np.flatnonzero(data == _CR)
        breaks = np.union1d(newline, cr[data[cr + 1] != _LF])
    commas = np.flatnonzero(data == _COMMA)
    faults = []  # (offset, line, message), in order of precedence

    def fault(offset, message, ends=breaks, before=line[0]) -> None:
        faults.append((offset, before + np.searchsorted(ends, offset) + 1,
                       message))

    try:
        block.isascii() or block.decode()
    except UnicodeDecodeError as exc:
        fault(exc.start, f"not UTF-8 ({exc.reason})", newline, line[1])
    record_end, cut, unquoted = breaks, np.empty(0, np.intp), block
    if b'"' in block:
        quotes = np.flatnonzero(data == _QUOTE)
        record_end = breaks[np.searchsorted(quotes, breaks) % 2 == 0]
        commas = commas[np.searchsorted(quotes, commas) % 2 == 0]
        opening, closing = quotes[::2], quotes[1::2]
        # a quote opens a field after a separator, or goes on a doubled
        # quote after its first; a quote that closes is followed alike
        bounds = [_COMMA, _LF, _CR, _QUOTE]
        for offsets, message in (
                (opening[~np.isin(data[opening - 1], bounds)],
                 "quote inside an unquoted field"),
                (closing[~np.isin(data[closing + 1], bounds)],
                 "text after a closing quote")):
            if len(offsets):
                fault(offsets[0], message)
        if len(quotes) % 2:
            fault(opening[data[opening - 1] != _QUOTE][-1],
                  "quote open at the end of the file")
        doubled = data[closing + 1] == _QUOTE
        cut = np.delete(quotes, 2 * np.flatnonzero(doubled) + 1)
        unquoted = np.delete(data, cut).tobytes()
    line_start = np.concatenate([[0], record_end + 1])[:-1]
    line_end = record_end - (data[record_end - 1] == _CR)
    if np.max(record_end - line_start, initial=0) > limit:
        # a field over the limit names the line of its first character
        # past it, where the csv module stops
        separator = np.sort(np.concatenate([commas, record_end]))
        ends = separator - ((data[separator] == _LF)
                            & (data[separator - 1] == _CR))
        starts = np.concatenate([[0], separator + 1])[:-1]
        long = ends - starts > limit
        starts, ends = (bound[long] - np.searchsorted(cut, bound[long])
                        for bound in (starts, ends))
        for start, end in zip(starts.tolist(), ends.tolist()):
            field = unquoted[start:end].decode("utf-8", "surrogateescape")
            if len(field) > limit:
                at = start + len(field[:limit].encode("utf-8",
                                                      "surrogateescape"))
                # back from the unquoted block to the block
                at += np.searchsorted(cut - np.arange(len(cut)), at, "right")
                fault(at, f"field larger than field limit ({limit})")
                break
    if faults:
        _, number, message = min(faults, key=operator.itemgetter(0))
        raise ValueError(f"line {number}: {message}")
    first = np.searchsorted(commas, line_start)
    counts = np.where(line_end > line_start,
                      np.searchsorted(commas, line_end) - first + 1, 0)
    rows = np.flatnonzero(counts == width)
    inner = commas[first[rows] + np.arange(width - 1)[:, None]]
    starts = np.concatenate([line_start[rows][None], inner + 1])
    ends = np.concatenate([inner, line_end[rows][None]])
    if len(cut):
        starts -= np.searchsorted(cut, starts)
        ends -= np.searchsorted(cut, ends)
    return (unquoted, counts, starts, ends,
            (line[0] + len(breaks), line[1] + len(newline)))


def _factorise(words: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """``(first, inverse)`` of the fields ``[start, end)`` of a block:
    one field of each distinct text, and each field's index into them.

    ``words[i]`` is the little-endian word of the block's bytes from
    ``i``.  A field is read as its length, its first word masked to the
    field, its last word, and for a field over 16 bytes the words in
    between; these are folded into a sort key.  Each field is then
    checked against the first field of its key, word by word.  If two
    different texts share a key, every field is its own text: the
    column is then decoded field by field.
    """
    length = ends - starts
    head = words[starts] & _HEAD_MASK[np.minimum(length, 8)]
    tail = np.where(length > 8, words[np.maximum(ends - 8, 0)], 0)
    key = (length.astype(np.uint64) * _KEY_MIX ^ head) * _KEY_MIX ^ tail
    for at, offset in _inner_words(length):
        key[at] = key[at] * _KEY_MIX ^ words[starts[at] + offset]
    order = np.argsort(key)
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    inverse = np.empty(len(key), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    first = order[new]
    match = first[inverse]
    same = ((length == length[match]) & (head == head[match])
            & (tail == tail[match]))
    for at, offset in _inner_words(length):
        same[at] &= (words[starts[at] + offset]
                     == words[starts[match[at]] + offset])
    if same.all():
        return first, inverse
    every = np.arange(len(key))
    return every, every


def _inner_words(length: np.ndarray):
    """``(at, offset)`` pairs: the fields ``at`` that hold a whole word
    at ``offset`` before their last word, for offsets 8, 16, ...; with
    the first and last words these cover a field."""
    at = np.flatnonzero(length > 16)
    offset = 8
    while at.size:
        yield at, offset
        offset += 8
        at = at[length[at] > offset + 8]


def _blank_fields(block: bytes, starts: np.ndarray,
                  ends: np.ndarray) -> np.ndarray:
    """Whether each field ``block[start:end]`` strips to nothing; only
    fields that begin or end with a byte in ``_STRIPPABLE`` are
    decoded."""
    data = np.frombuffer(block, np.uint8)
    maybe = np.flatnonzero((ends == starts) | _STRIPPABLE[data[starts]]
                           | _STRIPPABLE[data[ends - 1]])
    blank = np.zeros(len(starts), dtype=bool)
    blank[maybe] = [not text.strip()
                    for text in _texts(block, starts[maybe], ends[maybe])]
    return blank


def _code_blocks(blocks, limit: int) -> tuple:
    """Code a header record and the records after it from blocks split
    by ``_split_block``: no Python string is made per field, and only
    the distinct texts of each block's columns are decoded.

    Returns ``(field_counts, ids, blank_ids, columns)`` of the records
    after the header: each record's field count; the object_ids of the
    records with one field per REPORT_COLUMNS entry, as one joined
    ``bytes`` and its offsets, and whether each strips to nothing; and
    for each later column a ``(texts, codes)`` pair, its distinct raw
    texts stripped and those records' codes into them.
    """
    width = len(REPORT_COLUMNS)
    field_counts: list[np.ndarray] = []
    id_bytes: list[bytes] = []
    id_lengths: list[np.ndarray] = []
    blank: list[np.ndarray] = []
    indexes = [_new_index() for _ in range(width - 1)]
    codes: list[list[np.ndarray]] = [[] for _ in indexes]
    line = (0, 0)
    for block in blocks:
        block, counts, starts, ends, line = _split_block(block, limit, line)
        if not field_counts:  # the first block holds the header
            header = (_texts(block, starts[:, 0], ends[:, 0])
                      if counts[0] == width else [])
            if tuple(map(str.strip, header)) != REPORT_COLUMNS:
                raise ValueError(f"row 1: expected header "
                                 f"{','.join(REPORT_COLUMNS)!r}")
            counts, starts, ends = counts[1:], starts[:, 1:], ends[:, 1:]
        field_counts.append(counts)
        lengths = ends[0] - starts[0]
        id_bytes.append(_gather(np.frombuffer(block, np.uint8), starts[0],
                                ends[0]))
        id_lengths.append(lengths)
        blank.append(_blank_fields(block, starts[0], ends[0]))
        padded = block + bytes(7)
        words = np.ndarray(len(block), "<u8", padded, 0, (1,))
        for column, index, parts in zip(range(1, width), indexes, codes):
            first, inverse = _factorise(words, starts[column], ends[column])
            texts = _texts(block, starts[column][first], ends[column][first])
            parts.append(_codes(index, texts)[inverse])
    if not field_counts:
        raise ValueError("row 1: empty file")
    return (_joined(field_counts),
            (b"".join(id_bytes), _offsets(_joined(id_lengths))),
            _joined(blank, bool),
            [(list(map(str.strip, index)), _joined(parts))
             for index, parts in zip(indexes, codes)])


def _parse_each(texts, parse, fallback, messages: list):
    """``(values, errors)``: ``parse`` applied to each distinct text once.

    A text that raises gets ``fallback`` as its value and, as its error,
    the index of the exception's message, which is appended to
    ``messages``; a text that parses has error -1.
    """
    values = []
    errors = np.full(len(texts), -1, np.intp)
    for code, text in enumerate(texts):
        try:
            values.append(parse(text))
        except (ValueError, TypeError) as exc:
            values.append(fallback)
            errors[code] = len(messages)
            messages.append(str(exc))
    return values, errors


def _kind_code(kind: str) -> int:
    if kind not in INCIDENT_TYPES:
        raise ValueError(f"unknown incident_type {kind!r}")
    return INCIDENT_TYPES.index(kind)


def _rating(text: str) -> float:
    rating = float(text)
    if not 0.0 <= rating <= 5.0:
        raise ValueError(f"report_rating {rating} outside [0, 5]")
    return rating


def _parse_coded(field_counts: np.ndarray, ids: tuple[bytes, np.ndarray],
                 blank_ids: np.ndarray, columns: list,
                 first_row_number: int) -> tuple[ReportTable, list[Rejection]]:
    """Validate and filter coded rows (see ``_code_blocks``) into a
    table of the kept reports plus a rejection log, in row order; the
    first row is row ``first_row_number``.

    Three filters apply in order: rows that do not parse are rejected as
    ``malformed`` (logged, never fatal); rows with rating exactly 0 are
    ``zero_rating`` spam; within a (user, window, incident_type) group
    only the first report survives, later ones are ``duplicate``.

    A row parses if it has one field per REPORT_COLUMNS entry and, with
    every field stripped, its object_id, street and uuid are non-empty,
    its incident_type is known, its date and time are ISO format and its
    rating is a float in [0, 5].  The first check it fails, in that
    order, gives the rejection's detail.  Each distinct text is stripped
    and checked once, and its failures reach the rows through the codes.
    No Python code runs once per row, and the table is built straight
    from the codes.
    """
    ((date_texts, date), (time_texts, time), (streets, street),
     (kinds, kind), (uuids, uuid), (rating_texts, rating)) = columns

    # each row's first failing check, as an index into messages (or -1)
    messages = ["empty identifier field"]
    empty_street, empty_uuid = (
        np.fromiter(map(operator.not_, texts), bool, len(texts))
        for texts in (streets, uuids))
    error = np.where(blank_ids | empty_street[street] | empty_uuid[uuid],
                     0, -1)
    kind_codes, kind_errors = _parse_each(kinds, _kind_code, 0, messages)
    dates, date_errors = _parse_each(date_texts, dt.date.fromisoformat,
                                     dt.date.min, messages)
    times, time_errors = _parse_each(time_texts, dt.time.fromisoformat,
                                     dt.time.min, messages)
    ratings, rating_errors = _parse_each(rating_texts, _rating, math.nan,
                                         messages)
    for errors, codes in ((kind_errors, kind), (date_errors, date),
                          (time_errors, time), (rating_errors, rating)):
        error = np.where(error < 0, errors[codes], error)
    malformed = np.flatnonzero(error >= 0)
    rating_value = np.array(ratings, dtype=float)[rating]
    zero = np.flatnonzero((error < 0) & (rating_value == 0.0))

    # the rest keep the first row of each (user, window, incident_type)
    # key, found by a stable sort
    rest = np.flatnonzero((error < 0) & (rating_value != 0.0))
    user_key = _first_codes(uuids)[1][uuid[rest]]
    window_ids, window = np.unique(
        _window_ids((dates, date[rest]), (times, time[rest])),
        return_inverse=True)
    key = ((user_key * len(window_ids) + window) * len(INCIDENT_TYPES)
           + np.array(kind_codes, dtype=np.intp)[kind[rest]])
    order = np.argsort(key, kind="stable")
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    survives = np.zeros(len(key), dtype=bool)
    survives[order[first]] = True
    kept, duplicate = rest[survives], rest[~survives]

    # offsets index the rows with the right field count
    width = len(REPORT_COLUMNS)
    offsets = np.flatnonzero(field_counts == width)
    miscounted = np.flatnonzero(field_counts != width)
    groups = [
        (miscounted, "malformed",
         [f"expected {width} fields, got {n}"
          for n in field_counts[miscounted].tolist()]),
        (offsets[malformed], "malformed",
         list(map(messages.__getitem__, error[malformed].tolist()))),
        (offsets[zero], "zero_rating", _id_texts(ids, zero)),
        (offsets[duplicate], "duplicate", _id_texts(ids, duplicate)),
    ]
    at = np.concatenate([group[0] for group in groups])
    reasons, details = [], []
    for group_rows, reason, group_details in groups:
        reasons += [reason] * len(group_rows)
        details += group_details
    order = np.argsort(at).tolist()
    rejections = list(map(Rejection, (at + first_row_number)[order].tolist(),
                          map(reasons.__getitem__, order),
                          map(details.__getitem__, order)))

    # a duplicate shares its window with its kept first row, so the kept
    # rows reach every window id of the rest
    table = ReportTable(_ids_at(ids, kept), (dates, date[kept]),
                        (times, time[kept]), (streets, street[kept]),
                        (kinds, kind[kept]), (uuids, uuid[kept]),
                        rating_value[kept], (window_ids, window[survives]))
    return table, rejections


def read_reports_csv(path) -> tuple[ReportTable, list[Rejection]]:
    """Read a Waze-schema CSV (header required, exact column order).

    The file is read as bytes, in blocks of whole records, each split
    and coded column by column in numpy (``_code_blocks``).  A record
    ends at a LF, a CRLF or a lone CR outside quotes.  Fields may be
    quoted as RFC 4180 has it: a quote opens a field only at its start,
    a doubled quote inside is one quote, and a comma or a record end
    follows the closing quote.  The csv module reads such a file alike.

    A ValueError names the file and the 1-based line of its first fault:
    bytes that are not UTF-8, a field longer than
    ``csv.field_size_limit()`` characters, a quote inside an unquoted
    field, text after a closing quote or a quote open at the file's end.
    A missing or wrong header names row 1.  The rows are then filtered
    by ``_parse_coded``, the header being row 1.
    """
    with open(path, "rb") as fh:
        try:
            coded = _code_blocks(_file_blocks(fh), csv.field_size_limit())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return _parse_coded(*coded, first_row_number=2)


def write_reports_csv(rows, path) -> None:
    """Write raw report rows (sequences in schema order) with header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# report quality
# ---------------------------------------------------------------------------

def truthfulness(rating: float, epsilon: float = 0.01) -> float:
    """Rating mapped to (0, 1): ``clamp(rating / 5, eps, 1 - eps)``.

    The clamp keeps the subsequent logit finite at the rating extremes.
    """
    return min(max(rating / 5.0, epsilon), 1.0 - epsilon)


def qoc(tau: float) -> float:
    """Contribution quality: the logit ``ln(tau / (1 - tau))``."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"truthfulness must lie in (0, 1), got {tau}")
    return math.log(tau / (1.0 - tau))


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-min(x, 700.0)))
    z = math.exp(max(x, -700.0))
    return z / (1.0 + z)


# ---------------------------------------------------------------------------
# corpus statistics and cooperativeness mechanisms
# ---------------------------------------------------------------------------

def _running_sum(values) -> float:
    """Left-to-right float sum.  Builtin ``sum`` compensates on Python
    3.12+, ``np.sum`` is pairwise; scores keep one summation order on
    every Python and numpy."""
    total = 0.0
    for value in values:
        total += value
    return total


def _distinct(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct integer codes (by sorting: numpy 2's hashed
    ``np.unique`` is an order of magnitude slower on these arrays)."""
    codes = np.sort(codes)
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return codes[first]


def _window_ids(dates, times) -> np.ndarray:
    """Each report's window as date ordinal * 8 + segment, from
    ``(values, codes)`` pairs of its date and time."""
    (date_values, date), (time_values, time) = dates, times
    ordinal = np.fromiter((d.toordinal() for d in date_values), np.intp,
                          len(date_values))
    hour = np.fromiter((t.hour for t in time_values), np.intp,
                       len(time_values))
    return ordinal[date] * SEGMENTS_PER_DAY + hour[time] // 3


def _sorted_codes(values: list, codes: np.ndarray
                  ) -> tuple[list, np.ndarray]:
    """``(distinct, codes)`` recoded: the sorted distinct values that
    ``codes`` reach, and each entry's index into them.  ``values`` may
    hold unused or repeated entries (raw texts that strip alike)."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(values)))
    distinct = sorted({values[code] for code in used.tolist()})
    index = {value: code for code, value in enumerate(distinct)}
    recode = np.fromiter((index.get(value, -1) for value in values),
                         np.intp, len(values))
    return distinct, recode[codes]


class ReportTable:
    """A corpus of kept reports as columns, factorised once: the input of
    every scoring stage.

    Users, streets and kinds are coded in sorted order, and windows by
    their id, date ordinal * 8 + segment (``window_ids`` holds the
    distinct ids, ascending, so chronologically): code order is output
    order, and ``np.bincount`` over codes adds floats in the order of a
    loop over sorted keys.  The object ids are held as one joined
    ``bytes``, decoded only when iterating rebuilds the ReportRecords in
    input order: no per-row object is stored.  The user-window pairs
    that the mechanisms and decisions share are memoised.
    """

    def __init__(self, object_ids: tuple[bytes, np.ndarray], dates, times,
                 streets, kinds, uuids, ratings: np.ndarray,
                 windows: tuple[np.ndarray, np.ndarray]) -> None:
        """Set every column from factorised ones, in ReportRecord field
        order: ``object_ids`` is the reports' UTF-8 ids joined and the
        ``len + 1`` offsets that cut them, each id stripped when read;
        ``dates`` to ``uuids`` are ``(values, codes)`` pairs, with
        ``codes`` indexing ``values`` once per report; ``ratings`` the
        per-report floats; and ``windows`` the reports' distinct
        ``_window_ids``, ascending, and each report's index into them."""
        self._object_ids = object_ids
        self._dates, self._times = dates, times
        self.users, self.user = _sorted_codes(*uuids)
        self.streets, self.street = _sorted_codes(*streets)
        self.kinds, self.kind = _sorted_codes(*kinds)
        self.ratings = ratings
        values, self.rating = np.unique(ratings, return_inverse=True)
        self.rating_values = values.tolist()
        self.window_ids, self.window = windows
        days = self.window_ids // SEGMENTS_PER_DAY
        self.day_span = int(days[-1] - days[0]) + 1 if len(days) else 0
        self._pairs: dict = {}  # user_windows by ``above``

    def __len__(self) -> int:
        return len(self.ratings)

    def __iter__(self):
        (dates, date), (times, time) = self._dates, self._times
        return map(ReportRecord, _id_texts(self._object_ids),
                   map(dates.__getitem__, date.tolist()),
                   map(times.__getitem__, time.tolist()),
                   map(self.streets.__getitem__, self.street.tolist()),
                   map(self.kinds.__getitem__, self.kind.tolist()),
                   map(self.users.__getitem__, self.user.tolist()),
                   self.ratings.tolist())

    def quality(self, epsilon: float) -> np.ndarray:
        """Per-report ``qoc(truthfulness(rating))``, evaluated once per
        distinct rating."""
        per_value = [qoc(truthfulness(v, epsilon)) for v in self.rating_values]
        return np.array(per_value, dtype=float)[self.rating]

    def user_windows(self, above: float | None = None):
        """``(pair_user, pair_window)``: the user and window codes of the
        distinct (user, window) pairs of all reports, or of those rated
        strictly above ``above``, sorted by user then window."""
        if above not in self._pairs:
            window_count = len(self.window_ids)
            codes = self.user * window_count + self.window
            if above is not None:
                codes = codes[self.ratings > above]
            self._pairs[above] = np.divmod(_distinct(codes), window_count)
        return self._pairs[above]


class CorpusStats(NamedTuple):
    """Window-level aggregates of a filtered corpus.

    ``total_window_count`` covers the full observed date span (days with
    no reports still count: it normalises per-user persistence over the
    whole campaign horizon).  ``coop_density`` and ``window_weight`` are
    float64 columns in window-code order (``ReportTable.window_ids``):
    they cover the windows holding at least one kept report, and the
    weights are inverse densities rescaled to mean 1 over those windows.
    """

    mean_rating: float
    total_window_count: int
    coop_density: np.ndarray
    window_weight: np.ndarray


def compute_corpus_stats(table: ReportTable,
                         epsilon: float = 0.01) -> CorpusStats:
    if not table:
        return CorpusStats(0.0, 0, np.empty(0), np.empty(0))
    mean_rating = _running_sum(table.ratings.tolist()) / len(table)
    window_count = len(table.window_ids)
    reports = np.bincount(table.window, minlength=window_count)
    coop = np.bincount(table.window[table.ratings > mean_rating],
                       minlength=window_count)
    density = coop / reports
    raw_weight = 1.0 / np.maximum(density, epsilon)
    weight_mean = _running_sum(raw_weight.tolist()) / window_count
    return CorpusStats(
        mean_rating=mean_rating,
        total_window_count=table.day_span * SEGMENTS_PER_DAY,
        coop_density=density, window_weight=raw_weight / weight_mean)


def _empirical_gammas(table: ReportTable, mechanism: str,
                      stats: CorpusStats) -> np.ndarray:
    """Report-derived cooperativeness of every user, in user-code order.

    * A: neutral, always 1.
    * B: persistence — fraction of all campaign windows in which the
      user filed a cooperative (above-mean-rated) report.
    * C: as B, but each cooperative window counts with its inverse-
      cooperative-density weight, rewarding scarce cooperation.
    """
    if mechanism == "A":
        return np.ones(len(table.users))
    if stats.total_window_count < 1:
        raise ValueError("empty corpus: no windows to normalise against")
    if mechanism not in ("B", "C"):
        raise ValueError(f"mechanism must be one of {MECHANISMS}, "
                         f"got {mechanism!r}")
    pair_user, pair_window = table.user_windows(stats.mean_rating)
    if mechanism == "B":
        counts = np.bincount(pair_user, minlength=len(table.users))
        return counts / stats.total_window_count
    # pairs are sorted by window within a user: the canonical order
    sums = np.bincount(pair_user, weights=stats.window_weight[pair_window],
                       minlength=len(table.users))
    return sums / stats.total_window_count


def build_profiles(table: ReportTable, config: IncentiveConfig, mechanism: str,
                   stats: CorpusStats | None = None,
                   gamma_override: dict[str, float] | None = None
                   ) -> Profiles:
    """Score every contributing user under one mechanism, as columns in
    user-code order.

    A user's ``rs_raw`` is the sum of ``gamma * qoc(truthfulness)`` over
    their kept reports, in input order, and ``rs_norm`` its logistic
    squash into (0, 1).

    ``gamma_override`` substitutes externally derived cooperativeness
    values (e.g. simulation-based honesty) for the report-derived ones,
    keyed by user id; users absent from the map fall back to the
    mechanism's empirical value.  A value that is NaN or infinite is a
    ValueError naming its user.
    """
    override = gamma_override or {}
    for user, gamma in override.items():
        if not math.isfinite(gamma):
            raise ValueError(f"non-finite gamma_override[{user!r}]: {gamma}")
    if stats is None:
        stats = compute_corpus_stats(table, config.epsilon)
    users = table.users
    known = np.fromiter(map(override.__contains__, users), bool, len(users))
    # _empirical_gammas raises (unknown mechanism, no windows) only for a
    # user who falls back on it
    gamma_emp = (np.empty(len(users)) if known.all()
                 else _empirical_gammas(table, mechanism, stats))
    if known.any():
        gamma_emp[known] = list(map(
            override.__getitem__, itertools.compress(users, known.tolist())))
    weighted = gamma_emp[table.user] * table.quality(config.epsilon)
    # reports are in input order within each user
    rs_raw = np.bincount(table.user, weights=weighted, minlength=len(users))
    # the scalar logistic: numpy's exp may round otherwise than math.exp
    rs_norm = np.fromiter(map(logistic, rs_raw.tolist()), float, len(users))
    return Profiles(gamma_emp, rs_raw, rs_norm)


# ---------------------------------------------------------------------------
# decision support
# ---------------------------------------------------------------------------

def decision_rows(table: ReportTable, rs_norm: np.ndarray,
                  config: IncentiveConfig) -> Decisions:
    """DSS log: one decision per (window, street) report group, given
    each user's ``rs_norm`` in user-code order.

    Trust (the positive-reputation user set) is assessed over the whole
    window; support and competition among event types are within the
    street group.  An event type's confidence blends, by the preference
    factor, its quantity share (distinct contributors over the window's
    positive-reputation user count) and its quality share (their summed
    reputations over the total across the group's event types); with no
    positive-reputation user in the window it is 0.  Each row holds the
    most confident type, ties to the lexicographically first, published
    iff its confidence reaches ``publish_threshold``.  Rows come out
    sorted by date, segment, street.  An ``rs_norm`` whose length is not
    the table's user count is a ValueError.
    """
    user_count = len(table.users)
    if len(rs_norm) != user_count:
        raise ValueError(f"rs_norm: {len(rs_norm)} values, {user_count} users")
    # distinct positive users per window
    pair_user, pair_window = table.user_windows()
    positive = np.bincount(
        pair_window[rs_norm[pair_user] >= config.positive_rs_threshold],
        minlength=len(table.window_ids))
    # (window, street) groups, their (group, kind) cells, and each
    # cell's distinct contributors in sorted-uuid order
    groups, group = np.unique(
        table.window * len(table.streets) + table.street,
        return_inverse=True)
    cells, cell = np.unique(group * len(table.kinds) + table.kind,
                            return_inverse=True)
    cell_group, cell_kind = np.divmod(cells, len(table.kinds))
    contributors = _distinct(cell * user_count + table.user)
    contributor_cell, contributor = np.divmod(contributors, user_count)
    supporters = np.bincount(contributor_cell, minlength=len(cells))
    rs_agg = np.bincount(contributor_cell, weights=rs_norm[contributor],
                         minlength=len(cells))
    # kinds are sorted within a group: the canonical order
    rs_total = np.bincount(cell_group, weights=rs_agg,
                           minlength=len(groups))[cell_group]
    group_window, group_street = np.divmod(groups, len(table.streets))
    trusted = positive[group_window][cell_group]
    quantity = np.divide(supporters, trusted, out=np.zeros(len(cells)),
                         where=trusted > 0)
    quality = np.divide(rs_agg, rs_total, out=np.zeros(len(cells)),
                        where=rs_total > 0)
    nu = config.preference_factor
    conf = np.where(trusted > 0, nu * quantity + (1.0 - nu) * quality, 0.0)
    # each group's most confident kind, ties to the first (a stable sort)
    starts = np.searchsorted(cell_group, np.arange(len(groups)))
    best = np.lexsort((-conf, cell_group))[starts]
    confidence = conf[best]
    return Decisions(table.window_ids[group_window], group_street,
                     cell_kind[best], confidence,
                     confidence >= config.publish_threshold,
                     table.streets, table.kinds)


# ---------------------------------------------------------------------------
# incentives
# ---------------------------------------------------------------------------

def incentives(rs_norm: np.ndarray, budget: float, total_users: int,
               positive_rs_threshold: float = 0.5) -> np.ndarray:
    """Split the budget pot among positive-reputation users; returns the
    payouts aligned with ``rs_norm``.

    The pot is the budget discounted by the positive-user share,
    ``budget * |U+| / total_users``; within the pot each positive user
    receives their reputation share.  Everyone else gets 0; with no
    positive user the budget is untouched.  ``total_users`` counts every
    device, so it is at least the number of users scored: were it less,
    the pot would exceed the budget.
    """
    if total_users < 1:
        raise ValueError(f"total_users must be >= 1, got {total_users}")
    if total_users < len(rs_norm):
        raise ValueError(f"total_users {total_users} is less than the "
                         f"{len(rs_norm)} users scored")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    out = np.zeros(len(rs_norm))
    positive = rs_norm >= positive_rs_threshold
    rs = rs_norm[positive]
    if len(rs):
        pot = budget * len(rs) / total_users
        out[positive] = rs / _running_sum(rs.tolist()) * pot
    return out


# ---------------------------------------------------------------------------
# end-to-end scoring
# ---------------------------------------------------------------------------

@dataclass
class ScoreResult:
    """Everything cmd-level consumers need from one scoring pass.

    ``profiles`` and ``payouts`` hold, per mechanism scored, columns
    aligned with ``users``; the profiles of the selected ``mechanism``
    give the decisions and the ledger's scores.  ``phase_s`` holds the
    wall seconds of the ``stats``, ``profiles``, ``incentives`` and
    ``decisions`` stages (observability only: it never reaches an
    output file).
    """

    users: list[str]
    total_users: int
    stats: CorpusStats
    profiles: dict[str, Profiles]
    payouts: dict[str, np.ndarray]
    mechanism: str
    decisions: Decisions
    phase_s: dict[str, float]


def score_corpus(table: ReportTable, config: IncentiveConfig,
                 mechanisms=MECHANISMS,
                 total_users: int | None = None,
                 gamma_override: dict[str, float] | None = None
                 ) -> ScoreResult:
    """Run scoring, decisions and payouts for the given mechanisms.

    ``total_users`` defaults to the number of distinct contributing
    devices.  The selected mechanism is ``config.mechanism`` if it is
    scored, else the first scored one; the decisions use its profiles,
    so the published log matches the ledger.  An empty ``mechanisms`` is
    a ValueError.
    """
    import time  # the phase clock, off the import path

    if not mechanisms:
        raise ValueError("no mechanism was given to score the corpus with")
    if total_users is None:
        total_users = len(table.users)
    marks = [time.perf_counter()]
    stats = compute_corpus_stats(table, config.epsilon)
    marks.append(time.perf_counter())
    profiles = {mech: build_profiles(table, config, mech, stats,
                                     gamma_override)
                for mech in mechanisms}
    marks.append(time.perf_counter())
    payouts = {mech: incentives(profiles[mech].rs_norm, config.budget,
                                total_users, config.positive_rs_threshold)
               for mech in mechanisms}
    marks.append(time.perf_counter())
    selected = (config.mechanism if config.mechanism in profiles
                else next(iter(mechanisms)))
    decisions = decision_rows(table, profiles[selected].rs_norm, config)
    marks.append(time.perf_counter())
    phase_s = dict(zip(("stats", "profiles", "incentives", "decisions"),
                       np.diff(marks).tolist()))
    return ScoreResult(users=table.users, total_users=total_users,
                       stats=stats, profiles=profiles, payouts=payouts,
                       mechanism=selected, decisions=decisions,
                       phase_s=phase_s)


# what makes a written CSV field need quotes
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_text(text: str) -> str:
    """``text`` as a CSV field: as it is, or, if it holds a comma, a quote
    or a line break, quoted with its quotes doubled.  The csv module
    quotes alike, but under a LF line end it leaves a CR unquoted."""
    if _CSV_SPECIAL.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def write_ledger_csv(result: ScoreResult, path) -> None:
    """``user_id,rs_raw,rs_norm,gamma_emp,incentive_A,incentive_B,
    incentive_C`` rows, users sorted, in UTF-8.

    The rs/gamma columns report the selected mechanism
    (``result.mechanism``); each incentive column comes from its own
    mechanism's ledger (mechanisms not scored in this pass stay empty).
    """
    selected = result.profiles[result.mechanism]
    users = np.array(list(map(_csv_text, result.users)), dtype=object)
    scored = [mech for mech in MECHANISMS if mech in result.payouts]
    line = "%s,%r,%r,%r," + ",".join("%r" if mech in scored else ""
                                     for mech in MECHANISMS)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,rs_raw,rs_norm,gamma_emp,"
                 "incentive_A,incentive_B,incentive_C\n")
        write_lines(fh, line + "\n", (
            users, selected.rs_raw, selected.rs_norm, selected.gamma_emp,
            *(result.payouts[mech] for mech in scored)))


def write_decisions_csv(result: ScoreResult, path) -> None:
    """``date,segment,street,event_type,confidence,decision`` rows, in
    UTF-8; each distinct date, street and kind is rendered once."""
    decisions = result.decisions
    day, segment = np.divmod(decisions.window, SEGMENTS_PER_DAY)
    days, day = np.unique(day, return_inverse=True)
    # object arrays: a numpy str array would drop a trailing NUL
    texts = ([dt.date.fromordinal(d).isoformat() for d in days.tolist()],
             list(map(_csv_text, decisions.streets)), decisions.kinds)
    dates, streets, kinds = (
        np.array(values, dtype=object)[codes] for values, codes
        in zip(texts, (day, decisions.street, decisions.kind)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,segment,street,event_type,confidence,decision\n")
        write_lines(fh, "%s,%d,%s,%s,%r,%s\n", (
            dates, segment, streets, kinds, decisions.confidence,
            np.where(decisions.publish, "publish", "drop")))


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

_STREETS = (
    "Alder Way", "Birch Street", "Cedar Avenue", "Dogwood Lane",
    "Elm Road", "Fir Court", "Hazel Boulevard", "Juniper Drive",
    "Linden Square", "Maple Crossing", "Poplar Row", "Willow Parkway",
)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic report corpus.

    Three behaviour archetypes: honest devices file top-rated reports in
    many windows; selfish devices contribute rarely with decent ratings;
    malicious devices flood low-quality reports, a share of which carry
    the server's zero rating (and will be filtered out downstream).
    """

    user_count: int = 300
    day_count: int = 7
    honest_fraction: float = 0.5
    selfish_fraction: float = 0.3
    start_date: dt.date = dt.date(2019, 10, 7)
    rng_seed: int = 0

    def __post_init__(self):
        if self.user_count < 1:
            raise ValueError(f"user_count must be >= 1, got {self.user_count}")
        if self.day_count < 1:
            raise ValueError(f"day_count must be >= 1, got {self.day_count}")
        if (self.honest_fraction < 0 or self.selfish_fraction < 0
                or self.honest_fraction + self.selfish_fraction > 1):
            raise ValueError("behaviour fractions must be nonnegative "
                             "and sum to at most 1")


def synth_corpus(spec: SynthSpec) -> list[list[str]]:
    """Deterministic Waze-schema rows (pre-filtering, header excluded).

    Honest devices report rating 5.0 in 10-14 distinct windows; selfish
    devices rating 4.0 in 1-3 windows; malicious devices 10-14 windows
    with ratings drawn from {0, 1, 2} (zero-rated rows are the spam the
    ingest filter exists for).  Rows come out sorted by time then id.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.rng_seed))
    honest_count = round(spec.user_count * spec.honest_fraction)
    selfish_count = round(spec.user_count * spec.selfish_fraction)
    window_total = spec.day_count * SEGMENTS_PER_DAY
    rows = []
    serial = 0
    for index in range(spec.user_count):
        user = f"u{index:04d}"
        if index < honest_count:
            window_count = int(rng.integers(10, 15))
            ratings = [5.0] * window_count
        elif index < honest_count + selfish_count:
            window_count = int(rng.integers(1, 4))
            ratings = [4.0] * window_count
        else:
            window_count = int(rng.integers(10, 15))
            ratings = rng.choice([0.0, 1.0, 2.0], size=window_count,
                                 p=[0.4, 0.3, 0.3]).tolist()
        window_count = min(window_count, window_total)
        chosen = rng.choice(window_total, size=window_count, replace=False)
        for window_flat, rating in zip(chosen.tolist(), ratings):
            day, segment = divmod(window_flat, SEGMENTS_PER_DAY)
            date = spec.start_date + dt.timedelta(days=day)
            minute_in_segment = int(rng.integers(180))
            hour, minute = divmod(segment * 180 + minute_in_segment, 60)
            street = _STREETS[int(rng.integers(len(_STREETS)))]
            kind = INCIDENT_TYPES[int(rng.integers(len(INCIDENT_TYPES)))]
            rows.append([f"r{serial:06d}", date.isoformat(),
                         f"{hour:02d}:{minute:02d}", street, kind, user,
                         f"{rating:.1f}"])
            serial += 1
    rows.sort(key=lambda row: (row[1], row[2], row[0]))
    return rows
