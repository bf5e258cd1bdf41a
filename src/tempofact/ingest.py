"""Transaction-log parsing and binning into the activity tensor.

Input ledgers are comma-separated with a mandatory header row::

    timestamp,lender_id,borrower_id,amount_mEUR,proposer,maturity,lender_domestic,borrower_domestic

* ``timestamp``        ISO-8601 date-time (minute precision or finer), market-local clock
* ``lender_id`` /
  ``borrower_id``      opaque bank identifiers, must differ
* ``amount_mEUR``      positive, finite traded volume in million EUR
* ``proposer``         "lender" or "borrower": which side posted the quote
* ``maturity``         maturity label; overnight trades are "ON" or "ONL"
* ``*_domestic``       true/false (also accepts 1/0, yes/no)

The file must be UTF-8 text; a file that is not, or that holds a field
longer than the ``csv`` module's field size limit, fails as a whole.
Rows are read as ``csv.reader`` reads them, but while the text holds no
quote character each line is split at its commas, a chunk of lines at a
time; ``csv.reader`` reads from the first chunk with a quote on.  The
writer quotes fields as ``csv.writer`` does.

Trades travel as a :class:`Ledger`, one array per column: parsing,
filtering, binning and export all take and return ledgers and work on
whole columns.  Binning covers the 08:00-18:00 trading window split into
equal intervals of ``delta`` minutes, half-open on the right except that a
trade stamped at exactly 18:00 lands in the last interval.  Every trade
adds its amount to both the lender row and the borrower row of the same
(interval, day) fiber, so total tensor mass is exactly twice the summed
trade volume.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field, fields
from datetime import date, datetime
from functools import cached_property
from itertools import chain, islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tempofact.tensor import DenseTensor3

LEDGER_COLUMNS = (
    "timestamp",
    "lender_id",
    "borrower_id",
    "amount_mEUR",
    "proposer",
    "maturity",
    "lender_domestic",
    "borrower_domestic",
)

OVERNIGHT_MATURITIES = frozenset({"ON", "ONL"})

#: Length of the 08:00-18:00 trading window that binning covers.
WINDOW_MINUTES = 600
_WINDOW_OPEN_S = 8 * 3600
_WINDOW_CLOSE_S = _WINDOW_OPEN_S + WINDOW_MINUTES * 60

_TRUE_WORDS = frozenset({"true", "1", "t", "yes", "y"})
_FALSE_WORDS = frozenset({"false", "0", "f", "no", "n"})

# Lines read and rows parsed or written per batch, chosen for memory: a
# batch's lines, their split cells and its parsed columns are all alive at
# once, and the allocator keeps the space they took after they are freed.
# On a 212,327-trade ledger (11.5 MB, 2-core host, median of five runs) the
# ingest command peaked at 150 MB RSS with 65,536 lines, 104 MB with 8,192,
# 97 MB with 2,048 and 103 MB with 512, where the per-batch arrays add up;
# the load (0.46-0.83 s) and save (0.24-0.29 s) medians moved only within
# the host's noise across all of those sizes.
_CHUNK_ROWS = 2048


class LedgerFormatError(ValueError):
    """The ledger file as a whole does not match the documented schema."""


_DTYPES = {"amount": np.float64, "lender_domestic": np.bool_, "borrower_domestic": np.bool_}


@dataclass(frozen=True, eq=False)
class Ledger:
    """Trades as equal-length, read-only columns, in ledger order.

    One column per ledger field: ``timestamp`` holds naive datetimes, the
    bank ids, ``proposer`` and ``maturity`` hold strings (object arrays),
    ``amount`` is float64 in million EUR and the two domestic flags are
    bool.  ``len()`` counts trades.  The columns are not validated against
    the row rules: :func:`load_transactions` builds ledgers of valid trades.
    """

    timestamp: np.ndarray
    lender_id: np.ndarray
    borrower_id: np.ndarray
    amount: np.ndarray
    proposer: np.ndarray
    maturity: np.ndarray
    lender_domestic: np.ndarray
    borrower_domestic: np.ndarray

    def __post_init__(self) -> None:
        lengths = set()
        for name in _FIELDS:
            column = np.asarray(getattr(self, name), dtype=_DTYPES.get(name, object)).view()
            if column.ndim != 1:
                raise ValueError(f"ledger column {name} must be one-dimensional")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
            lengths.add(column.size)
        if len(lengths) > 1:
            raise ValueError(f"ledger columns differ in length: {sorted(lengths)}")

    def __len__(self) -> int:
        return self.amount.size

    def take(self, rows) -> "Ledger":
        """The trades at the given positions, or where a boolean mask is true."""
        return Ledger(*(getattr(self, name)[rows] for name in _FIELDS))

    @cached_property
    def bank_codes(self):
        """``(labels, lender, borrower)``: the sorted distinct bank ids and,
        per trade, the positions of its lender and its borrower in them."""
        labels = tuple(sorted(set(self.lender_id.tolist()).union(self.borrower_id.tolist())))
        pos = {bank: i for i, bank in enumerate(labels)}.__getitem__
        n = len(self)
        return (labels,
                np.fromiter(map(pos, self.lender_id.tolist()), np.intp, n),
                np.fromiter(map(pos, self.borrower_id.tolist()), np.intp, n))


_FIELDS = tuple(f.name for f in fields(Ledger))


def _concat(parts: list) -> Ledger:
    """One ledger of ``parts``, which it empties; each field's parts are freed
    once joined, so the parts and the whole are never both held."""
    if not parts:
        return Ledger(*([] for _ in _FIELDS))
    columns = [[getattr(p, name) for p in parts] for name in _FIELDS]
    parts.clear()
    return Ledger(*(np.concatenate(columns.pop(0)) for _ in _FIELDS))


def _distinct(objects: np.ndarray):
    """``(distinct, of)``: the distinct objects of an object array, as a
    list in order of first appearance, and per entry the position of its
    object in that list.

    Distinct means distinct identity, not equality, so a function of each
    distinct object is exact for every entry (equal aware datetimes may
    carry different UTC offsets).  The parser and the synthetic export
    share one datetime object among all trades with the same stamp, which
    is what makes work per distinct object cheap.
    """
    objects = objects.tolist()
    first = dict(zip(map(id, objects), objects))
    code = {key: k for k, key in enumerate(first)}.__getitem__
    return list(first.values()), np.fromiter(map(code, map(id, objects)), np.intp, len(objects))


def _per_object(fn, objects: np.ndarray) -> list:
    """``[fn(o) for o in objects]``, calling ``fn`` once per distinct object."""
    distinct, of = _distinct(objects)
    values = [fn(o) for o in distinct]
    return [values[k] for k in of.tolist()]


@dataclass(frozen=True)
class RowIssue:
    """A rejected ledger row with its 1-based line number."""

    line: int
    message: str


@dataclass
class LoadResult:
    """A parsed ledger: its valid trades, its rejected rows and, when it was
    read from a path, the SHA-256 of the bytes parsed."""

    records: Ledger
    issues: list = field(default_factory=list)
    sha256: str | None = None


class _HashingReader(io.RawIOBase):
    """Reads a binary file and hashes every byte read through it."""

    def __init__(self, raw):
        self._raw, self.sha256 = raw, hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n


def _parse_timestamp(text: str) -> datetime:
    text = text.strip()
    stamp = datetime.fromisoformat(text)
    if stamp.tzinfo is not None:
        raise ValueError(f"timestamp must not carry a UTC offset, got {text!r}")
    return stamp


def _parse_amount(text: str) -> float:
    return float(text.strip())


def _parse_proposer(text: str) -> str:
    return text.strip().lower()


def _parse_bool(text: str) -> bool:
    text = text.strip()
    word = text.lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def load_transactions(source) -> LoadResult:
    """Parse a ledger CSV; malformed rows become issues, never silent drops.

    ``source`` is a path or an open text stream.  A path's bytes are hashed
    as they are decoded, so the result's ``sha256`` describes the bytes
    parsed.  A missing or wrong header, text that is not UTF-8 and a field
    over the ``csv`` field size limit raise :class:`LedgerFormatError`;
    unreadable paths raise OSError.
    """
    if hasattr(source, "read"):
        return _parse_stream(source)
    with open(source, "rb") as raw:
        hashing = _HashingReader(raw)
        result = _parse_stream(io.TextIOWrapper(hashing, encoding="utf-8", newline=""))
    result.sha256 = hashing.sha256.hexdigest()
    return result


def _parse_stream(handle) -> LoadResult:
    """Read the header with ``csv.reader``, then the rows in chunks of lines.

    Chunks of unquoted lines are split at their commas; from the first chunk
    that :func:`_unquoted_records` refuses on, ``csv.reader`` reads that chunk
    and the rest of the stream.  Either way a row is numbered by the rows
    before it, and a ``csv.Error`` by the physical line it stopped at.
    """
    reader, before = csv.reader(handle), 0  # before: the lines read ahead of ``reader``
    try:
        header = next(reader, None)
        if header is None:
            raise LedgerFormatError("empty file: missing header row")
        if [h.strip() for h in header] != list(LEDGER_COLUMNS):
            raise LedgerFormatError(
                f"bad header {header!r}; expected {','.join(LEDGER_COLUMNS)}"
            )
        parts, issues = [], []
        line, read = 2, reader.line_num
        while chunk := list(islice(handle, _CHUNK_ROWS)):
            records = _unquoted_records(chunk)
            if records is None:
                reader, before = csv.reader(chain(chunk, handle)), read
                break
            read += len(chunk)
            del chunk  # hold one copy of the chunk's text at a time
            split = _split_lines(records, line)
            line += len(records)
            del records
            parts.append(_parse_cells(*split, issues))
        # Unless a chunk was refused, this is the header's reader at the end.
        while rows := list(islice(reader, _CHUNK_ROWS)):
            parts.append(_parse_cells(*_split_rows(rows, line), issues))
            line += len(rows)
    except UnicodeDecodeError as err:  # a ValueError, which would read as a usage error
        raise LedgerFormatError(f"not UTF-8 text: {err.reason}") from None
    except csv.Error as err:
        raise LedgerFormatError(f"line {before + reader.line_num}: {err}") from None
    return LoadResult(_concat(parts), issues)


def _unquoted_records(chunk: list):
    """The lines of ``chunk`` without their line breaks, or None when only
    ``csv.reader`` reads them right.

    That is when the chunk holds a quote character, a line break inside a
    line (from a stream not opened with ``newline=""``) or a line longer
    than the ``csv`` field size limit, which may hold a field over it.
    Any other line is one row, its fields split at its commas.
    """
    records = [line.rstrip("\r\n") for line in chunk]
    text = "".join(records)
    if ('"' in text or "\r" in text or "\n" in text
            or max(map(len, records)) > csv.field_size_limit()):
        return None
    return records


def _split_lines(records: list, first_line: int):
    """``(cells, lines, rejected)`` for unquoted lines, split at their commas."""
    # An empty line counts one field here and none in csv: blank either way.
    widths = [record.count(",") + 1 for record in records]
    records, lines, rejected = _full_width(
        records, widths, lambda record: _blank(record.split(",")), first_line)
    cells = ",".join(records).split(",") if records else []
    width = len(LEDGER_COLUMNS)
    return [cells[k::width] for k in range(width)], lines, rejected


def _split_rows(rows: list, first_line: int):
    """``(cells, lines, rejected)`` for the rows of ``csv.reader``."""
    rows, lines, rejected = _full_width(rows, list(map(len, rows)), _blank, first_line)
    return [[row[k] for row in rows] for k in range(len(LEDGER_COLUMNS))], lines, rejected


def _full_width(rows: list, widths: list, blank, first_line: int):
    """``(rows, lines, rejected)``: the rows of the ledger's width with their
    line numbers, and ``{line: message}`` for the other rows, but for the
    ``blank`` ones."""
    width = len(LEDGER_COLUMNS)
    lines = range(first_line, first_line + len(rows))
    rejected = {}
    if set(widths) != {width}:
        kept = [k for k, w in enumerate(widths) if w == width]
        for line, row, w in zip(lines, rows, widths):
            if w != width and not blank(row):
                rejected[line] = f"expected {width} fields, got {w}"
        rows, lines = [rows[k] for k in kept], [lines[k] for k in kept]
    return rows, lines, rejected


def _blank(row) -> bool:
    return all(not cell.strip() for cell in row)


def _convert(parse, cells, problems: dict, fill) -> list:
    """``parse`` applied to every cell, once per distinct cell text.

    A cell that ``parse`` rejects becomes ``fill``, and its position enters
    ``problems`` with the error message unless an earlier column already
    put one there: a row reports its first failing check.
    """
    done, errors = {}, {}
    for cell in dict.fromkeys(cells):
        try:
            done[cell] = parse(cell)
        except ValueError as err:
            done[cell], errors[cell] = fill, str(err)
    values = list(map(done.__getitem__, cells))
    if errors:
        for k in np.flatnonzero(np.fromiter(map(errors.__contains__, cells), bool, len(cells))):
            problems.setdefault(int(k), errors[cells[k]])
    return values


def _parse_cells(cells: list, lines: list, rejected: dict, issues: list) -> Ledger:
    """Parse one batch of full-width rows, given as cell columns with the
    rows' line numbers; the rows it rejects join the ``rejected`` lines of
    the batch, and all of them are appended to ``issues`` in line order."""
    problems = {}  # row position -> message, in the order the checks run
    columns = {
        "timestamp": _convert(_parse_timestamp, cells[0], problems, None),
        "lender_id": _convert(str.strip, cells[1], problems, None),
        "borrower_id": _convert(str.strip, cells[2], problems, None),
        "amount": _convert(_parse_amount, cells[3], problems, float("nan")),
        "proposer": _convert(_parse_proposer, cells[4], problems, None),
        "maturity": _convert(str.strip, cells[5], problems, None),
        "lender_domestic": _convert(_parse_bool, cells[6], problems, False),
        "borrower_domestic": _convert(_parse_bool, cells[7], problems, False),
    }
    batch = Ledger(**columns)

    # The record rules, in the order a row reports them: each is a mask over
    # whole columns and the message of a row that breaks it.
    amount, lender, proposer = batch.amount, batch.lender_id, batch.proposer
    rules = (
        (~(amount > 0), lambda k: f"amount must be positive, got {float(amount[k])!r}"),
        (~(amount < np.inf), lambda k: f"amount must be finite, got {float(amount[k])!r}"),
        (lender == batch.borrower_id, lambda k: f"lender and borrower coincide: {lender[k]!r}"),
        ((proposer != "lender") & (proposer != "borrower"),
         lambda k: f"proposer must be 'lender' or 'borrower', got {proposer[k]!r}"),
    )
    for broken, message in rules:
        for k in np.flatnonzero(broken).tolist():
            problems.setdefault(k, message(k))

    keep = np.ones(len(lines), dtype=bool)
    for k, message in problems.items():
        keep[k] = False
        # A blank row fails the timestamp check; it is skipped silently.
        if not _blank(column[k] for column in cells):
            rejected[lines[k]] = message
    issues.extend(RowIssue(line, rejected[line]) for line in sorted(rejected))
    return batch.take(keep)


def _csv_column(texts: np.ndarray) -> list:
    """The texts as ``csv.writer`` writes them, each distinct text formatted
    once: in quotes, with its quotes doubled, when it holds a comma, a quote
    or a line break."""
    texts = texts.tolist()
    done = {}
    for text in dict.fromkeys(texts):
        quote = "," in text or '"' in text or "\r" in text or "\n" in text
        done[text] = '"' + text.replace('"', '""') + '"' if quote else text
    return list(map(done.__getitem__, texts))


def save_transactions(path, ledger: Ledger) -> None:
    """Write a ledger out in the documented ledger schema.

    The bytes are those of ``csv.writer``: CRLF line ends, and the fields
    that need it quoted.  The rows are formatted a column at a time, and
    ``_CHUNK_ROWS`` trades at a time.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(LEDGER_COLUMNS) + "\r\n")
        for start in range(0, len(ledger), _CHUNK_ROWS):
            part = ledger.take(slice(start, start + _CHUNK_ROWS))
            columns = (
                _per_object(lambda ts: ts.isoformat(sep="T"), part.timestamp),
                _csv_column(part.lender_id),
                _csv_column(part.borrower_id),
                list(map(repr, part.amount.tolist())),
                _csv_column(part.proposer),
                _csv_column(part.maturity),
                np.where(part.lender_domestic, "true", "false").tolist(),
                np.where(part.borrower_domestic, "true", "false").tolist(),
            )
            handle.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def filter_overnight(ledger: Ledger) -> Ledger:
    """Keep exactly the trades with overnight maturity labels (ON, ONL).

    A ledger of overnight trades only is returned as it is, not copied.
    """
    maturity = ledger.maturity.tolist()
    keep = np.fromiter(map(OVERNIGHT_MATURITIES.__contains__, maturity), bool, len(maturity))
    return ledger if keep.all() else ledger.take(keep)


def check_delta(delta: int) -> None:
    """Raise ValueError unless ``delta`` minutes divide the trading window."""
    if delta < 1 or WINDOW_MINUTES % delta != 0:
        raise ValueError(f"delta must be a divisor of {WINDOW_MINUTES}, got {delta}")


@dataclass(frozen=True)
class TensorIndex:
    """Maps tensor axes back to bank identifiers, dates and clock intervals."""

    bank_ids: tuple
    day_dates: tuple
    delta: int

    def __post_init__(self) -> None:
        check_delta(self.delta)
        if len(set(self.bank_ids)) != len(self.bank_ids):
            raise ValueError("bank_ids contains duplicates")
        if any(b <= a for a, b in zip(self.day_dates, self.day_dates[1:])):
            raise ValueError("day_dates must be strictly increasing")
        object.__setattr__(self, "bank_ids", tuple(self.bank_ids))
        object.__setattr__(self, "day_dates", tuple(self.day_dates))

    @property
    def intervals(self) -> int:
        return WINDOW_MINUTES // self.delta

    def interval_label(self, j: int) -> str:
        minutes = _WINDOW_OPEN_S // 60 + j * self.delta
        return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _second_of_day(ts: datetime) -> int:
    return ts.hour * 3600 + ts.minute * 60 + ts.second


def build_tensor(ledger: Ledger, delta: int):
    """Bin the trades of ``ledger`` into a banks x intervals x days volume tensor.

    Returns ``(tensor, index, excluded)`` where ``excluded`` lists
    ``(timestamp, reason)`` pairs, in ledger order, for the trades stamped
    outside the trading window.  Banks and days enter the index only if they
    occur in the trades inside the window, sorted lexicographically /
    chronologically.  The bank codes come from ``ledger.bank_codes``, so a
    caller that needs them too derives them once.  Each distinct timestamp
    object is binned once, and each trade takes its stamp's interval, day
    and window test by index, so the work in Python grows with the distinct
    stamps, not with the trades.
    """
    check_delta(delta)
    stamps, stamp_of = _distinct(ledger.timestamp)
    seconds = np.fromiter(map(_second_of_day, stamps), np.intp, len(stamps))
    stamp_inside = (seconds >= _WINDOW_OPEN_S) & (seconds <= _WINDOW_CLOSE_S)
    inside = stamp_inside[stamp_of]
    excluded = [(ts, f"timestamp {ts.time()} outside 08:00-18:00 window")
                for ts in ledger.timestamp[~inside].tolist()]

    # The days of the in-window stamps, and each stamp's (interval, day) cell.
    ordinal = np.fromiter(map(datetime.toordinal, stamps), np.intp, len(stamps))
    day_ordinals = np.unique(ordinal[stamp_inside])
    days = tuple(map(date.fromordinal, day_ordinals.tolist()))
    t_count = WINDOW_MINUTES // delta
    cols = np.minimum((seconds - _WINDOW_OPEN_S) // (delta * 60), t_count - 1)
    stamp_cell = cols * len(days) + np.searchsorted(day_ordinals, ordinal)

    # The banks trading inside the window, in label order, and per in-window
    # trade its lender's and its borrower's flat cell, in two rows.
    labels, lender, borrower = ledger.bank_codes
    sides = np.stack([lender, borrower])[:, inside]
    trading = np.zeros(len(labels), dtype=bool)
    trading[sides] = True
    banks = tuple(labels[k] for k in np.flatnonzero(trading).tolist())
    flat = (np.cumsum(trading) - 1)[sides]
    del sides  # hold one 2 x trades array at a time
    flat *= t_count * len(days)
    flat += stamp_cell[stamp_of[inside]]
    # One bincount over the lender entries, then the borrower entries, adds
    # every cell's amounts in the same order as a per-record loop would.
    amount = ledger.amount[inside]
    values = np.bincount(flat.ravel(), weights=np.concatenate([amount, amount]),
                         minlength=len(banks) * t_count * len(days))
    values = values.reshape(len(banks), t_count, len(days))

    index = TensorIndex(banks, days, delta)
    return DenseTensor3(values, "amount_meur"), index, excluded


def moving_average(series, window: int = 20) -> np.ndarray:
    """Trailing mean over the most recent ``min(window, available)`` points."""
    if window < 1:
        raise ValueError("window must be >= 1")
    s = np.asarray(series, dtype=np.float64)
    out = np.empty_like(s)
    head = min(window - 1, len(s))  # points whose window the series start cuts short
    for i in range(head):
        out[i] = s[: i + 1].mean()
    if len(s) >= window:
        out[head:] = sliding_window_view(s, window).mean(axis=1)
    return out
