import csv
import dataclasses
import io
import tracemalloc
from datetime import date, datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempofact import ingest, io as tfio
from tempofact.ingest import (
    LEDGER_COLUMNS,
    Ledger,
    LedgerFormatError,
    TensorIndex,
    build_tensor,
    filter_overnight,
    load_transactions,
    moving_average,
    save_transactions,
)
from util import TRADE, ledger_of, ledger_rows, moving_average_loop, record_problem

HEADER = ",".join(LEDGER_COLUMNS)


def test_empty_file_with_header():
    result = load_transactions(io.StringIO(HEADER + "\n"))
    assert len(result.records) == 0
    assert result.issues == []


def test_missing_header_rejected():
    with pytest.raises(LedgerFormatError):
        load_transactions(io.StringIO("a,b,c\n"))
    with pytest.raises(LedgerFormatError):
        load_transactions(io.StringIO(""))


def test_single_row_round_trips(tmp_path):
    row = "2008-09-15T09:10,AAA,BBB,7.25,borrower,ON,true,false"
    result = load_transactions(io.StringIO(HEADER + "\n" + row + "\n"))
    assert not result.issues
    assert ledger_rows(result.records) == [
        (datetime(2008, 9, 15, 9, 10), "AAA", "BBB", 7.25, "borrower", "ON", True, False)]

    path = tmp_path / "ledger.csv"
    save_transactions(path, result.records)
    again = load_transactions(path)
    assert ledger_rows(again.records) == ledger_rows(result.records)


def test_bad_rows_reported_with_line_numbers():
    rows = [
        HEADER,
        "2008-09-15T09:10,AAA,BBB,7.0,lender,ON,true,false",
        "2008-09-15T09:11,AAA,BBB,-1.0,lender,ON,true,false",   # bad amount
        "2008-09-15T09:12,AAA,AAA,5.0,lender,ON,true,false",    # same bank twice
        "not-a-time,AAA,BBB,5.0,lender,ON,true,false",          # bad timestamp
        "2008-09-15T09:14,AAA,BBB,5.0,lender,ON,maybe,false",   # bad flag
        "2008-09-15T09:15,AAA,BBB,5.0,middle,ON,true,false",    # bad proposer
        "2008-09-15T09:16,AAA,BBB,5.0,lender,ON,true",          # short row
        "2008-09-15T09:17,AAA,BBB,2.0,lender,ON,true,false",
    ]
    result = load_transactions(io.StringIO("\n".join(rows) + "\n"))
    assert len(result.records) == 2
    assert [i.line for i in result.issues] == [3, 4, 5, 6, 7, 8]


def test_timestamp_with_utc_offset_is_a_row_issue():
    # Stamps are local wall-clock times; an offset is refused, not binned
    # by its own clock.  A bad amount later in the row is not reported:
    # the first failing check wins.
    rows = [
        HEADER,
        "2008-09-15T09:10,AAA,BBB,7.0,lender,ON,true,false",
        " 2008-09-16T12:00+01:00 ,AAA,BBB,5.0,lender,ON,true,false",
        "2008-09-16T12:00Z,AAA,BBB,-1.0,lender,ON,true,false",
    ]
    result = load_transactions(io.StringIO("\n".join(rows) + "\n"))
    assert len(result.records) == 1
    assert [(i.line, i.message) for i in result.issues] == [
        (3, "timestamp must not carry a UTC offset, got '2008-09-16T12:00+01:00'"),
        (4, "timestamp must not carry a UTC offset, got '2008-09-16T12:00Z'"),
    ]


def _with_maturity(maturity):
    return (*TRADE[:5], maturity)


def test_filter_overnight():
    records = ledger_of(_with_maturity(m) for m in ("ON", "ONL", "1W", "3M", "ON"))
    kept = filter_overnight(records)
    assert kept.maturity.tolist() == ["ON", "ONL", "ON"]
    assert len(filter_overnight(ledger_of([]))) == 0


def test_filter_matches_constructed_share():
    records = ledger_of([_with_maturity("ON")] * 43 + [_with_maturity("1W")] * 7)
    assert len(filter_overnight(records)) == 43


def test_single_trade_double_counts():
    tensor, index, excluded = build_tensor(ledger_of([("2008-09-15T09:10", "AAA", "BBB", 7.0)]),
                                           15)
    assert not excluded
    assert index.bank_ids == ("AAA", "BBB")
    assert index.day_dates == (date(2008, 9, 15),)
    j = (9 * 60 + 10 - 8 * 60) // 15  # interval [09:00, 09:15)
    assert tensor.values[0, j, 0] == 7.0
    assert tensor.values[1, j, 0] == 7.0
    assert tensor.values.sum() == 14.0


def test_boundary_timestamps():
    tensor, index, _ = build_tensor(
        ledger_of([
            ("2008-09-15T09:15", "AAA", "BBB", 1.0),        # lands in [09:15, 09:30)
            ("2008-09-15T18:00", "AAA", "BBB", 2.0),        # closing auction, last bin
            ("2008-09-15T08:00", "AAA", "BBB", 4.0),        # first bin
        ]),
        15,
    )
    assert tensor.values[0, 5, 0] == 1.0
    assert tensor.values[0, 39, 0] == 2.0
    assert tensor.values[0, 0, 0] == 4.0


def test_out_of_window_reported_and_excluded():
    records = ledger_of([
        ("2008-09-15T07:59", "AAA", "BBB", 1.0),
        ("2008-09-15T18:01", "AAA", "BBB", 1.0),
        ("2008-09-15T12:00", "AAA", "BBB", 3.0),
    ])
    tensor, index, excluded = build_tensor(records, 30)
    assert excluded == [
        (datetime(2008, 9, 15, 7, 59), "timestamp 07:59:00 outside 08:00-18:00 window"),
        (datetime(2008, 9, 15, 18, 1), "timestamp 18:01:00 outside 08:00-18:00 window"),
    ]
    assert tensor.values.sum() == 6.0


def test_bank_trading_only_outside_the_window_is_left_out():
    # ZZZ trades before the window on day 1 and after it on day 2, and MMM
    # after it between two in-window banks: neither ZZZ nor day 3 enters
    # the index, and the other banks keep their rows.
    records = ledger_of([
        ("2008-09-15T07:30", "ZZZ", "AAA", 8.0),
        ("2008-09-15T09:00", "MMM", "AAA", 1.0),
        ("2008-09-16T10:00", "AAA", "CCC", 2.0),
        ("2008-09-16T19:00", "CCC", "ZZZ", 16.0),
        ("2008-09-17T18:30", "MMM", "CCC", 32.0),
    ])
    tensor, index, excluded = build_tensor(records, 60)
    assert index.bank_ids == ("AAA", "CCC", "MMM")
    assert index.day_dates == (date(2008, 9, 15), date(2008, 9, 16))
    assert [ts for ts, _ in excluded] == records.timestamp[[0, 3, 4]].tolist()
    assert tensor.dims == (3, 10, 2)
    assert tensor.values.sum(axis=(1, 2)).tolist() == [3.0, 2.0, 1.0]


def test_mass_conservation_random_ledger():
    rng = np.random.default_rng(61)
    banks = [f"B{i:02d}" for i in range(12)]
    records = []
    for _ in range(300):
        i, j = rng.choice(12, size=2, replace=False)
        minute = int(rng.integers(0, 601))
        stamp = datetime(2009, 1, 1 + int(rng.integers(0, 5)), 8, 0) \
            .replace(hour=8 + minute // 60, minute=minute % 60)
        # quarter-unit amounts keep every partial sum exact in binary
        amount = float(rng.integers(1, 2000)) / 4.0
        records.append((stamp, banks[i], banks[j], amount))
    tensor, index, excluded = build_tensor(ledger_of(records), 15)
    assert not excluded
    total = sum(amount for _, _, _, amount in records)
    assert tensor.values.sum() == 2.0 * total
    per_bank = {b: 0.0 for b in banks}
    for _, lender, borrower, amount in records:
        per_bank[lender] += amount
        per_bank[borrower] += amount
    for pos, bank in enumerate(index.bank_ids):
        assert tensor.values[pos].sum() == per_bank[bank]


def test_index_is_sorted_and_deterministic():
    records = [
        ("2008-09-16T10:00", "ZZZ", "MMM"),
        ("2008-09-15T10:00", "AAA", "ZZZ"),
    ]
    _, index, _ = build_tensor(ledger_of(records), 30)
    assert index.bank_ids == ("AAA", "MMM", "ZZZ")
    assert index.day_dates == (date(2008, 9, 15), date(2008, 9, 16))
    _, again, _ = build_tensor(ledger_of(reversed(records)), 30)
    assert again == index


def test_non_divisor_delta_rejected():
    with pytest.raises(ValueError):
        build_tensor(ledger_of([TRADE]), 7)
    with pytest.raises(ValueError):
        build_tensor(ledger_of([TRADE]), 0)


def test_empty_records_give_empty_tensor():
    tensor, index, excluded = build_tensor(ledger_of([]), 15)
    assert tensor.dims == (0, 40, 0)
    assert index.bank_ids == ()
    assert not excluded


def test_moving_average_basics():
    assert moving_average(np.full(10, 3.0), 20).tolist() == [3.0] * 10
    ramp = np.arange(1.0, 8.0)
    assert moving_average(ramp, 1).tolist() == ramp.tolist()


def test_moving_average_trailing_window():
    ramp = np.arange(1.0, 101.0)
    out = moving_average(ramp, 20)
    assert out[-1] == pytest.approx(np.mean(np.arange(81.0, 101.0)), abs=1e-12)
    assert out[-1] == pytest.approx(90.5, abs=1e-12)
    assert out[0] == 1.0
    assert out[4] == pytest.approx(3.0)  # mean of 1..5
    assert len(out) == len(ramp)
    with pytest.raises(ValueError):
        moving_average(ramp, 0)


def test_moving_average_matches_loop_oracle():
    # The smoothed CSVs are byte-compared, so the windowed mean must give
    # the loop's bytes, not just its values.
    rng = np.random.default_rng(31)
    cases = [(np.empty(0), 1), (np.empty(0), 5), (rng.random(9), 1), (rng.random(9), 9),
             (rng.random(9), 10), (rng.random(9), 400)]
    for _ in range(300):
        n, window = int(rng.integers(0, 400)), int(rng.integers(1, 160))
        cases.append((rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 9), window))
    for series, window in cases:
        assert moving_average(series, window).tobytes() == \
            moving_average_loop(series, window).tobytes(), (len(series), window)


def test_index_validation_and_round_trip(tmp_path):
    idx = TensorIndex(("A", "B"), (date(2008, 1, 2), date(2008, 1, 3)), 15)
    assert idx.intervals == 40
    assert idx.interval_label(0) == "08:00"
    assert idx.interval_label(39) == "17:45"
    tfio.dump_json(tmp_path / "index.json", tfio.index_to_dict(idx))
    assert tfio.read_index(tmp_path / "index.json") == idx
    with pytest.raises(ValueError):
        TensorIndex(("A", "A"), (date(2008, 1, 2),), 15)
    with pytest.raises(ValueError):
        TensorIndex(("A",), (date(2008, 1, 3), date(2008, 1, 2)), 15)
    with pytest.raises(ValueError):
        TensorIndex(("A",), (date(2008, 1, 2),), 7)


def test_ledger_views_and_subsets():
    ledger = ledger_of([("2008-09-15T09:10", "AAA", "BBB", 1.5),
                        ("2008-09-15T09:10", "CCC", "AAA", 7.0, "lender", "ON", False, True),
                        ("2008-09-16T11:00", "BBB", "DDD", 7.0, "borrower")])
    records = ledger_rows(ledger)
    assert len(ledger) == 3
    assert ledger_rows(ledger.take([2, 0])) == [records[2], records[0]]
    assert ledger_rows(ledger.take(ledger.among(["AAA", "BBB", "CCC"]))) == records[:2]
    labels, lender, borrower = ledger.bank_codes
    assert labels == ("AAA", "BBB", "CCC", "DDD")
    assert lender.tolist() == [0, 2, 1] and borrower.tolist() == [1, 0, 3]
    with pytest.raises(ValueError):
        ledger.amount[0] = 2.0  # columns are read-only
    columns = [getattr(ledger, f.name) for f in dataclasses.fields(Ledger)]
    with pytest.raises(ValueError):
        Ledger(*columns[:3], columns[3][:2], *columns[4:])


# -- the columnar reader against the row-at-a-time reader it replaced ------

def _reference_bool(text):
    word = text.strip().lower()
    if word in {"true", "1", "t", "yes", "y"}:
        return True
    if word in {"false", "0", "f", "no", "n"}:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _reference_timestamp(text):
    stamp = datetime.fromisoformat(text)
    if stamp.tzinfo is not None:
        raise ValueError(f"timestamp must not carry a UTC offset, got {text!r}")
    return stamp


def _reference_parse(text, newline=""):
    """Parse a ledger one row at a time: row tuples and (line, message)
    issues, or the message of the ``csv.Error`` that stops the reader."""
    reader = csv.reader(io.StringIO(text, newline=newline))
    try:
        next(reader)
        rows = list(enumerate(reader, start=2))
    except csv.Error as err:
        return f"line {reader.line_num}: {err}"
    records, issues = [], []
    for line_no, row in rows:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(LEDGER_COLUMNS):
            issues.append((line_no, f"expected {len(LEDGER_COLUMNS)} fields, got {len(row)}"))
            continue
        raw = dict(zip(LEDGER_COLUMNS, (cell.strip() for cell in row)))
        try:
            record = (
                _reference_timestamp(raw["timestamp"]),
                raw["lender_id"],
                raw["borrower_id"],
                float(raw["amount_mEUR"]),
                raw["proposer"].lower(),
                raw["maturity"],
                _reference_bool(raw["lender_domestic"]),
                _reference_bool(raw["borrower_domestic"]),
            )
        except ValueError as err:
            issues.append((line_no, str(err)))
            continue
        _, lender, borrower, amount, proposer, *_ = record
        problem = record_problem(amount, lender, borrower, proposer)
        if problem is not None:
            issues.append((line_no, problem))
            continue
        records.append(record)
    return records, issues


_FLAGS = st.sampled_from(["true", "false", "1", "0", " YES ", "n", "T", "maybe", ""])
_BANKS = st.sampled_from(["AAA", "BBB", " AAA ", "CCC", ""])
_ROW = st.tuples(
    st.sampled_from(["2008-09-15T09:10", " 2008-09-16T17:59:30 ", "2008-09-15 08:00",
                     "2008-09-15T12:00+01:00", "2008-09-15T12:00:00.250", "not-a-time", ""]),
    _BANKS,
    _BANKS,
    st.sampled_from(["7.25", "0.1", " 1e-3 ", "-1", "0", "nan", "inf", "abc", ""]),
    st.sampled_from(["lender", "borrower", " Borrower ", "LENDER", "middle", ""]),
    st.sampled_from(["ON", "ONL", "1W", " ON "]),
    _FLAGS,
    _FLAGS,
).map(list)
_ODD_ROW = st.one_of(
    st.just([]),
    st.just([""] * len(LEDGER_COLUMNS)),
    st.just(["  "] * 3),
    st.lists(st.sampled_from(["x", "2008-09-15T09:10", "", "a,b"]), min_size=1, max_size=10),
)


def _breaking(amount="7.25", borrower="BBB", proposer="lender"):
    return ["2008-09-15T09:10", "AAA", borrower, amount, proposer, "ON", "true", "false"]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.one_of(_ROW, _ROW, _ROW, _ODD_ROW), max_size=40),
       chunk=st.integers(1, 9))
# Rows that break several rules at once report the first one they break.
@example(rows=[_breaking(amount="-1", borrower="AAA"), _breaking(borrower="AAA", proposer="middle"),
               _breaking(amount="inf", proposer="middle")], chunk=9)
@example(rows=[_breaking(amount="-1", borrower="AAA", proposer="middle"),
               _breaking(borrower="AAA", proposer="middle"), _breaking(amount="0", proposer="middle")],
         chunk=2)
@example(rows=[_breaking(amount="nan", borrower="AAA", proposer="middle"),
               _breaking(amount=" -inf ", borrower=" AAA ", proposer="MIDDLE"), _breaking()],
         chunk=9)
def test_columnar_reader_matches_row_reference(rows, chunk):
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(LEDGER_COLUMNS)
    writer.writerows(rows)
    text = buffer.getvalue()
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
        result = load_transactions(io.StringIO(text, newline=""))
    records, issues = _reference_parse(text)
    assert ledger_rows(result.records) == records
    assert [(i.line, i.message) for i in result.issues] == issues


def test_build_tensor_adds_like_a_per_record_loop():
    # Non-dyadic amounts round differently under another summation order:
    # the reference adds every lender entry in ledger order, then every
    # borrower entry, as the binning has always done.
    rng = np.random.default_rng(17)
    banks = ["A", "B", "C", "D"]
    records = []
    for _ in range(500):
        i, j = rng.choice(len(banks), size=2, replace=False)
        minute = int(rng.integers(0, 601))
        stamp = datetime(2010, 3, 1 + int(rng.integers(0, 3)), 8 + minute // 60, minute % 60)
        amount = float(rng.choice([0.1, 0.7, 1e-3]))
        records.append((stamp, banks[i], banks[j], amount))
    tensor, index, excluded = build_tensor(ledger_of(records), 30)
    assert not excluded
    bank_pos = {b: k for k, b in enumerate(index.bank_ids)}
    day_pos = {d: k for k, d in enumerate(index.day_dates)}
    expected = np.zeros(tensor.dims)
    for side in (1, 2):  # the lender, then the borrower
        for r in records:
            stamp, amount = r[0], r[3]
            minute = stamp.hour * 60 + stamp.minute - 8 * 60
            expected[bank_pos[r[side]], min(minute // 30, 19), day_pos[stamp.date()]] += amount
    assert np.array_equal(tensor.values, expected)


# -- the line splitter and the column writer against the csv module --------

_ENDS = st.sampled_from(["\r\n", "\n", "\r"])
_PLAIN_LINE = st.one_of(
    _ROW.map(",".join),
    st.just(""),
    st.text(alphabet=", \t", max_size=12),  # only commas and spaces: blank
    st.lists(st.sampled_from(["x", "2008-09-15T09:10", "", " ", "AAA"]),
             min_size=1, max_size=10).map(",".join),  # ragged
    _ROW.map(lambda row: ",".join([row[0], "A\x00A", *row[2:]])),
)
_QUOTED_LINE = st.lists(
    st.sampled_from(["2008-09-15T09:10", "AAA", "7.25", "lender", "true", "",
                     '"BBB"', '"A,B"', '"x""y"', '"two\r\nlines"', '"cr\ronly"', 'stray"quote']),
    min_size=1, max_size=9).map(",".join)


def _load_or_error(text, newline):
    try:
        result = load_transactions(io.StringIO(text, newline=newline))
    except LedgerFormatError as err:
        return str(err)
    return ledger_rows(result.records), [(i.line, i.message) for i in result.issues]


def _recording_reader(seen):
    """``csv.reader``, recording every line it reads in ``seen``."""
    real = csv.reader

    def reader(lines):
        def recorded():
            for line in lines:
                seen.append(line)
                yield line
        return real(recorded())
    return reader


@settings(max_examples=300, deadline=None)
@given(head=st.lists(st.tuples(_PLAIN_LINE, _ENDS), max_size=30),
       tail=st.lists(st.tuples(st.one_of(_PLAIN_LINE, _QUOTED_LINE), _ENDS), max_size=8),
       header_end=_ENDS, final_break=st.booleans(), chunk=st.integers(1, 9))
@example(head=[(",".join(_breaking()), "\n")] * 5, tail=[('"AAA",BBB', "\r\n")],
         header_end="\r\n", final_break=False, chunk=2)
def test_reader_matches_csv_reader_on_raw_text(head, tail, header_end, final_break, chunk):
    # Texts built line by line, not by csv.writer: mixed line endings, a
    # last line with or without its break, blank and ragged lines, NUL, and
    # quotes only in the tail, which may start past the first chunk.
    lines = [(HEADER, header_end), *head, *tail]
    text = "".join(content + end for content, end in lines)
    if not final_break:
        text = text[:-len(lines[-1][1])]
    seen = []
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
        with mock.patch.object(csv, "reader", _recording_reader(seen)):
            result = _load_or_error(text, "")
        # Streams that do not split lines as csv does reach csv.reader.
        for newline in (None, "\n"):
            assert _load_or_error(text, newline) == _reference_parse(text, newline), newline
    assert result == _reference_parse(text)

    # csv.reader reads the header, and the rows only from the chunk of the first quote on.
    physical = io.StringIO(text, newline="").readlines()
    quoted = [k for k, line in enumerate(physical[1:]) if '"' in line]
    first = 1 + quoted[0] // chunk * chunk if quoted else len(physical)
    assert seen == physical[:1] + physical[first:]


_FIELD_TEXT = st.text(alphabet=list('ab ,"\r\n\x00'), max_size=6)


@settings(max_examples=200, deadline=None)
@given(trades=st.lists(st.tuples(
    st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2030, 1, 1)),
    _FIELD_TEXT, _FIELD_TEXT, st.floats(),
    st.one_of(st.sampled_from(["lender", "borrower"]), _FIELD_TEXT), _FIELD_TEXT,
    st.booleans(), st.booleans()), max_size=30), chunk=st.integers(1, 5))
@example(trades=[], chunk=1)
def test_ledger_writer_matches_csv_writer(tmp_path_factory, trades, chunk):
    ledger = Ledger(*(zip(*trades) if trades else [[]] * len(LEDGER_COLUMNS)))
    path = tmp_path_factory.mktemp("ledger") / "ledger.csv"
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
        save_transactions(path, ledger)
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(LEDGER_COLUMNS)
    writer.writerows((ts.isoformat(sep="T"), lender, borrower, repr(amount), proposer, maturity,
                      str(lender_domestic).lower(), str(borrower_domestic).lower())
                     for ts, lender, borrower, amount, proposer, maturity, lender_domestic,
                     borrower_domestic in trades)
    assert path.read_bytes() == buffer.getvalue().encode()

    # The parser gives back every trade that passes its rules, as it reads them.
    expected = []
    for ts, lender, borrower, amount, proposer, maturity, *flags in trades:
        lender, borrower, proposer = lender.strip(), borrower.strip(), proposer.strip().lower()
        if record_problem(amount, lender, borrower, proposer) is None:
            expected.append((ts, lender, borrower, amount, proposer, maturity.strip(), *flags))
    result = load_transactions(path)
    assert ledger_rows(result.records) == expected
    assert len(result.issues) == len(trades) - len(expected)


def test_reader_holds_one_chunk_of_lines_at_a_time(tmp_path, monkeypatch):
    # The parse keeps the file's cells, one chunk at a time, and the ledger
    # it builds; a reader that took in the whole file would hold its text
    # and its list of lines as well.
    n = 50_000
    stamps = [datetime(2008, 9, 15, 8) + timedelta(days=k // 600, minutes=k % 600)
              for k in range(0, n, 50)]
    banks = [f"B{k:03d}" for k in range(100)]
    ledger = Ledger(
        timestamp=[stamps[k // 50] for k in range(n)],
        lender_id=[banks[k % 100] for k in range(n)],
        borrower_id=[banks[(k + 1) % 100] for k in range(n)],
        amount=np.arange(1, n + 1) / 8.0,
        proposer=["lender", "borrower"] * (n // 2),
        maturity=["ON"] * n,
        lender_domestic=np.arange(n) % 3 == 0,
        borrower_domestic=np.arange(n) % 5 == 0,
    )
    path = tmp_path / "ledger.csv"
    save_transactions(path, ledger)
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 1000)
    tracemalloc.start()
    try:
        result = load_transactions(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.records) == n and not result.issues
    size = path.stat().st_size
    assert peak < 3 * size, (peak, size)
