"""The array-parse loaders against the per-cell loaders they replaced.

load_csv and load_pairs parse a whole file with np.loadtxt and scan it row
by row only to locate a fault.  The per-cell loaders below are the earlier
implementations, kept here as oracles: on well-formed files both must
return the same arrays, on faulty ones the same DataFormatError text.

_read_pgm matches a PGM header with one regular expression; the oracle is
the byte-walking reader it replaced.  Both must return the same pixels or
both raise DataFormatError (its text may differ), apart from the intended
changes tested at the end.
"""

from __future__ import annotations

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wssda import DataFormatError, LabeledDataset, load_csv
from wssda.dataset import (
    _PGM_HEADER,
    _dense_subclasses,
    _non_finite_cell,
    _read_pgm,
    load_pairs,
)


def oracle_load_csv(path, with_subclasses=False):
    lead = 2 if with_subclasses else 1
    raw_class, raw_sub, rows, linenos = [], [], [], []
    width = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            if width is None:
                width = len(row)
                if width < lead + 1:
                    raise DataFormatError(f"{path}: row {lineno} has too few columns")
            elif len(row) != width:
                raise DataFormatError(
                    f"{path}: ragged row {lineno} ({len(row)} columns, expected {width})"
                )
            try:
                raw_class.append(oracle_int_label(row[0]))
                if with_subclasses:
                    raw_sub.append(oracle_int_label(row[1]))
            except ValueError as exc:
                raise DataFormatError(f"{path}: non-integer label at row {lineno}") from exc
            vals = []
            for col, cell in enumerate(row[lead:], start=lead):
                try:
                    vals.append(float(cell))
                except ValueError as exc:
                    raise DataFormatError(
                        f"{path}: non-numeric value at row {lineno}, column {col}"
                    ) from exc
            rows.append(vals)
            linenos.append(lineno)
    if not rows:
        raise DataFormatError(f"{path}: empty dataset file")
    samples = np.asarray(rows, dtype=np.float64)
    bad = _non_finite_cell(samples)
    if bad is not None:
        raise DataFormatError(
            f"{path}: non-finite value at row {linenos[bad[0]]}, column {bad[1] + lead}"
        )
    _, dense = np.unique(np.asarray(raw_class, dtype=np.int64), return_inverse=True)
    sub = None
    if with_subclasses:
        sub = _dense_subclasses(dense, np.asarray(raw_sub, dtype=np.int64))
    return LabeledDataset(samples, dense, sub)


def oracle_int_label(cell):
    value = float(cell)
    if not value.is_integer():
        raise ValueError(f"label {cell!r} is not an integer")
    return int(value)


def oracle_load_pairs(path, n):
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            cols = text.split(",")
            if len(cols) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected index_a,index_b,same|diff")
            try:
                a, b = int(cols[0]), int(cols[1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-integer sample index") from exc
            label = cols[2].strip()
            if label not in ("same", "diff"):
                raise DataFormatError(f"{path}:{lineno}: label must be same or diff")
            if not (0 <= a < n and 0 <= b < n):
                raise DataFormatError(f"{path}:{lineno}: sample index out of range 0..{n - 1}")
            pairs.append((a, b, label == "same"))
    if not pairs:
        raise DataFormatError(f"{path}: no pairs found")
    return pairs


def oracle_read_pgm(path: str) -> np.ndarray:
    """Parse a P2/P5 PGM image into a float64 array scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise DataFormatError(f"{path}: not a PGM image (bad magic)")
    binary = data[:2] == b"P5"

    # Header is ASCII tokens separated by whitespace; '#' starts a comment.
    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataFormatError(f"{path}: truncated PGM header")
        tok = data[start:pos]
        if not tok.isdigit():
            raise DataFormatError(f"{path}: malformed PGM header token {tok!r}")
        tokens.append(int(tok))
    width, height, maxval = tokens
    if width < 1 or height < 1 or not (0 < maxval < 65536):
        raise DataFormatError(f"{path}: invalid PGM dimensions or max value")

    count = width * height
    if binary:
        pos += 1  # single whitespace byte after maxval
        itemsize = 1 if maxval < 256 else 2
        if len(data) - pos < count * itemsize:
            raise DataFormatError(f"{path}: PGM raster shorter than header promises")
        dtype = np.uint8 if itemsize == 1 else np.dtype(">u2")
        pixels = np.frombuffer(data, dtype=dtype, count=count, offset=pos).astype(np.float64)
    else:
        body = data[pos:].split()
        if len(body) < count:
            raise DataFormatError(f"{path}: PGM raster shorter than header promises")
        try:
            pixels = np.asarray([int(tok) for tok in body[:count]], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}: non-numeric PGM pixel data") from exc
    if pixels.max(initial=0) > maxval:
        raise DataFormatError(f"{path}: pixel value exceeds declared max gray value")
    return (pixels / maxval).reshape(height * width)


def outcome(load, *args):
    """("ok", result) or ("error", message) of a loader call."""
    try:
        return "ok", load(*args)
    except DataFormatError as exc:
        return "error", str(exc)


# ------------------------------------------------------------------ dataset CSV

LABEL_FORMS = ["{}", "{}.0", "{}e0", '"{}"', " {} "]
VALUE_FORMS = ["{!r}", "%.17g", " {!r} ", '"{!r}"', '"{!r}" ']
CSV_FAULTS = [
    None, None, "abc", "nan", "inf", "-inf", "1.5 label", "ragged", "blank-space", "empty",
]


@st.composite
def csv_files(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    with_sub = draw(st.booleans())
    rows, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    lead = 2 if with_sub else 1
    labels = rng.integers(-3, 4, size=(rows, lead))
    values = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-5, 6, size=(rows, dim))
    table = []
    for r in range(rows):
        cells = [rng.choice(LABEL_FORMS).format(int(v)) for v in labels[r]]
        for v in values[r]:
            form = rng.choice(VALUE_FORMS)
            cells.append(form % v if "%" in form else form.format(float(v)))
        table.append(cells)
    fault = draw(st.sampled_from(CSV_FAULTS))
    r = int(rng.integers(rows))
    if fault == "ragged":
        table[r] = table[r][:-1] if len(table[r]) > 1 else table[r] + ["1"]
    elif fault == "1.5 label":
        table[r][int(rng.integers(lead))] = "1.5"
    elif fault in ("abc", "nan", "inf", "-inf"):
        table[r][int(rng.integers(len(table[r])))] = fault
    lines = [",".join(cells) for cells in table]
    if fault == "empty":
        lines = []
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(int(rng.integers(len(lines) + 1)), "")
    if fault == "blank-space":
        lines.insert(int(rng.integers(len(lines) + 1)), "   ")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return with_sub, "".join(line + newline for line in lines)


@given(csv_files())
@settings(max_examples=200, deadline=None)
def test_load_csv_matches_the_per_cell_loader(tmp_path_factory, case):
    with_sub, text = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode())
    got = outcome(load_csv, path, with_sub)
    expect = outcome(oracle_load_csv, path, with_sub)
    assert got[0] == expect[0], (got, expect)
    if got[0] == "error":
        assert got[1] == expect[1]
    else:
        ds, ref = got[1], expect[1]
        assert np.array_equal(ds.samples, ref.samples)
        assert np.array_equal(ds.class_labels, ref.class_labels)
        if with_sub:
            assert np.array_equal(ds.subclass_labels, ref.subclass_labels)
        else:
            assert ds.subclass_labels is None


# ------------------------------------------------------------------ pairs file

PAIR_N = 5
INDEX_FORMS = ["{}", " {} ", "+{}", "0{}"]
# padding of any length, tabs and Unicode spaces are stripped like spaces
LABEL_WORDS = [
    "same", "diff", " same ", "diff  ", "\tsame", "diff\t", "same" + " " * 12, "\u3000diff",
]
PAIR_FAULTS = [
    None, None, "sim", "1", "3.0", "x", "same-index", "two", "four", "range", "empty", "nul",
]


@st.composite
def pairs_files(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    count = draw(st.integers(1, 8))
    lines = []
    for _ in range(count):
        a, b = (rng.choice(INDEX_FORMS).format(int(i)) for i in rng.integers(0, PAIR_N, 2))
        lines.append([a, b, str(rng.choice(LABEL_WORDS))])
    fault = draw(st.sampled_from(PAIR_FAULTS))
    r = int(rng.integers(count))
    if fault in ("sim", "1"):
        lines[r][2] = fault
    elif fault == "nul":  # a NUL is no whitespace, though a fixed-width string drops it
        lines[r][2] += "\0"
    elif fault in ("3.0", "x", "same-index"):
        lines[r][int(rng.integers(2))] = "same" if fault == "same-index" else fault
    elif fault == "range":
        lines[r][int(rng.integers(2))] = str(int(rng.choice([-1, PAIR_N, 10**20])))
    elif fault == "two":
        lines[r] = lines[r][:2]
    elif fault == "four":
        lines[r].append("same")
    text_lines = [",".join(cells) for cells in lines]
    if fault == "empty":
        text_lines = []
    for _ in range(draw(st.integers(0, 2))):
        blank = str(rng.choice(["", "  ", "\t"]))
        text_lines.insert(int(rng.integers(len(text_lines) + 1)), blank)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + newline for line in text_lines)


@given(pairs_files())
@settings(max_examples=200, deadline=None)
def test_load_pairs_matches_the_per_line_loader(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("pairs") / "pairs.csv")
    with open(path, "wb") as fh:
        fh.write(text.encode())
    got = outcome(load_pairs, path, PAIR_N)
    expect = outcome(oracle_load_pairs, path, PAIR_N)
    assert got[0] == expect[0], (got, expect)
    if got[0] == "error":
        assert got[1] == expect[1]
    else:
        index, same = got[1]
        assert index.dtype == np.int64 and same.dtype == bool
        assert index.tolist() == [[a, b] for a, b, _ in expect[1]]
        assert same.tolist() == [flag for _, _, flag in expect[1]]


# ------------------------------------------------------------------ PGM image

HEADER_SEPS = [b" ", b"\t", b"\n", b"\r\n", b" \t ", b"\n# a comment\n", b"\r\n#c\r\n# 2 #\n"]
RASTER_SEPS = [b" ", b"\t", b"\n", b"\r\n", b"  \n"]
PGM_DAMAGE = [None] * 7 + ["cut", "byte", "header byte"]
DAMAGE_BYTES = st.sampled_from(b"#-+_ \t\r\n09xP") | st.integers(0, 255)


@st.composite
def pgm_files(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    binary = draw(st.booleans())
    maxval = draw(st.sampled_from([1, 15, 255, 256, 4095, 65535]))  # 8- and 16-bit rasters
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pixels = rng.integers(0, maxval + 1, size=width * height)
    head = b"P5" if binary else b"P2"
    for value in (width, height, maxval):
        head += draw(st.sampled_from(HEADER_SEPS)) + b"%d" % value
    head += draw(st.sampled_from([b" ", b"\t", b"\n", b"\r"]))
    if binary:
        raster = pixels.astype(np.uint8 if maxval < 256 else ">u2").tobytes()
    else:
        raster = draw(st.sampled_from(RASTER_SEPS)).join(b"%d" % v for v in pixels) + b"\n"
    data = bytearray(head + raster)
    damage = draw(st.sampled_from(PGM_DAMAGE))
    if damage == "cut":
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif damage:
        end = len(head) if damage == "header byte" else len(data)
        data[draw(st.integers(0, end - 1))] = draw(DAMAGE_BYTES)
    return bytes(data)


@given(pgm_files())
@settings(max_examples=300, deadline=None)
def test_read_pgm_matches_the_byte_walking_reader(tmp_path_factory, data):
    path = str(tmp_path_factory.mktemp("pgm") / "a.pgm")
    with open(path, "wb") as fh:
        fh.write(data)
    got = outcome(_read_pgm, path)
    expect = outcome(oracle_read_pgm, path)
    if got[0] == expect[0] == "ok":
        assert got[1].tobytes() == expect[1].tobytes()
    elif got[0] == "ok":
        # intended: a '#' comment that touches a header token is a comment
        assert re.search(r"malformed PGM header token b'.*#", expect[1]), expect
    elif expect[0] == "ok":
        # intended: a gray value with a sign or a '_' is not plain decimal digits
        assert "non-numeric PGM pixel data" in got[1] and re.search(rb"[-+_]", data), got


# ------------------------------------------------------------------ the intended changes


def test_underscore_digits_are_a_located_error(tmp_path):
    # float() and int() read "1_0" as 10; the table parse does not, and the
    # row scan names the cell instead of returning the file's data
    data = tmp_path / "data.csv"
    data.write_text("0,1.5,2\n1,1_0,3\n")
    with pytest.raises(DataFormatError, match="non-numeric value at row 1, column 1"):
        load_csv(data)
    data.write_text("0,1.5,2\n1_0,1,3\n")
    with pytest.raises(DataFormatError, match="non-integer label at row 1"):
        load_csv(data)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1,same\n1_0,1,diff\n")
    with pytest.raises(DataFormatError, match=r"pairs.csv:2: non-integer sample index"):
        load_pairs(str(pairs), 20)


@pytest.mark.parametrize("value", [b"-5", b"+5", b"1_0", b"-0"])
def test_pgm_gray_values_are_plain_decimal_digits(tmp_path, value):
    # int() reads each of these (-5 scaled to -0.0196, 1_0 to 10); no PGM holds them
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2 1\n255\n7 " + value + b"\n")
    assert oracle_read_pgm(str(path)) is not None
    with pytest.raises(DataFormatError, match="non-numeric PGM pixel data"):
        _read_pgm(str(path))


def test_pgm_header_comment_may_touch_a_token(tmp_path):
    # netpbm reads '#' anywhere in the header as a comment to the end of the line
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2#width\n1# height\n255\n0 255\n")
    with pytest.raises(DataFormatError, match="malformed PGM header token"):
        oracle_read_pgm(str(path))
    assert _read_pgm(str(path)).tolist() == [0.0, 1.0]


def test_pgm_header_pattern_compiles_before_python_3_11():
    # possessive repeats and atomic groups are Python 3.11 syntax; on 3.10 the
    # pattern would fail to compile and `import wssda` with it
    assert not re.search(rb"[*+?}]\+|\(\?>", _PGM_HEADER.pattern)
