"""Image and trace file format tests.

PGM fixtures are built byte-by-byte in the tests so the reader is checked
against the format, not against the writer.
"""

import os
import re
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mpgdenoise import fileio, grid
from mpgdenoise.cli import main
from mpgdenoise.fileio import (
    TRACE_HEADER,
    FormatError,
    read_image,
    read_trace,
    write_image,
    write_trace,
)
from mpgdenoise.solvers import TraceRecord


# ---------------------------------------------------------------------------
# PGM reading


def test_read_binary_pgm_8bit(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([255, 0, 128, 64]))
    u = read_image(p)
    assert u.shape == (2, 2)
    assert u[0, 0] == 1.0 and u[0, 1] == 0.0
    assert np.allclose(u[1], [128 / 255, 64 / 255], rtol=1e-15)


def test_read_binary_pgm_16bit_is_big_endian(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 1\n65535\n" + bytes([0x00, 0x01, 0xFF, 0xFF]))
    u = read_image(p)
    assert u.shape == (1, 2)
    assert u[0, 0] == 1.0 / 65535.0
    assert u[0, 1] == 1.0


def test_read_ascii_pgm_with_comments(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_text("P2 # ascii graymap\n# size\n3 2\n10\n0 5 10\n10 5 0\n")
    u = read_image(p)
    assert u.shape == (2, 3)
    assert np.allclose(u, [[0.0, 0.5, 1.0], [1.0, 0.5, 0.0]], rtol=1e-15)


def test_pgm_rejects_malformed_files(tmp_path):
    cases = [
        b"P3\n2 2\n255\n" + bytes(4),              # unsupported magic
        b"P5\n2 2\n255\n" + bytes(3),              # truncated payload
        b"P5\n2 2\n",                              # header cut short
        b"P5\n0 2\n255\n",                         # zero width
        b"P5\n2 2\n0\n",                           # zero maxval
        b"P5\n2 2\n99999\n" + bytes(8),            # maxval out of range
        b"P2\n2 1\n10\n3 eleven\n",                # non-integer sample
        b"P2\n2 1\n10\n3 11\n",                    # sample above maxval
        b"P2\n2 2\n10\n1 2 3\n",                   # sample count mismatch
    ]
    for i, data in enumerate(cases):
        p = tmp_path / f"bad{i}.pgm"
        p.write_bytes(data)
        with pytest.raises(FormatError):
            read_image(p)


@pytest.mark.parametrize("data, want", [
    (b"P2\n2 1\n10\n3 7 # no final newline", [[0.3, 0.7]]),
    (b"P2\n2 2\n10\n1 2 # after the last sample on a line\n3 4\n", [[0.1, 0.2], [0.3, 0.4]]),
    (b"P2\n2 1\n10 # comment after maxval\n#\n5\t10\r\n", [[0.5, 1.0]]),
    (b"P5\n2 1\n1000\n" + bytes([0x03, 0xE8, 0x01, 0xF4]), [[1.0, 0.5]]),  # 16-bit, maxval 1000
])
def test_pgm_edge_cases(tmp_path, data, want):
    p = tmp_path / "e.pgm"
    p.write_bytes(data)
    assert np.array_equal(read_image(p), want)


@pytest.mark.parametrize("data, message", [
    (b"P2\n2 1\n100\n12#3 5\n", "non-integer sample"),      # '#' inside a token
    (b"P2\n2 1\n10\n3 # 7\n", "expected 2 samples, found 1"),  # sample inside a comment
    (b"P2\n32 10\n", "malformed PGM header"),                # no maxval
    (b"P2\n2 1\n# 10\n", "malformed PGM header"),             # maxval inside a comment
    (b"P5 2 1 255", "truncated PGM payload"),
    (b"P5x\n2 1\n255\n\0\0", "unsupported magic"),
    # only ASCII digits: no sign, no underscore, in the samples or the header
    (b"P2 3 1 10\n-1 5 10\n", "non-integer sample"),
    (b"P2 3 1 10\n1 +5 10\n", "non-integer sample"),
    (b"P2 3 1 10\n1 5 1_0\n", "non-integer sample"),
    (b"P2 +3 1 10\n1 5 10\n", "malformed PGM header"),
    (b"P5 3 1 2_55\n\0\0\0", "malformed PGM header"),
    (b"P2 3 1 -10\n1 5 10\n", "malformed PGM header"),
])
def test_pgm_error_messages(tmp_path, data, message):
    p = tmp_path / "bad.pgm"
    p.write_bytes(data)
    with pytest.raises(FormatError, match=message):
        read_image(p)


def test_pgm_write_read_quantization(tmp_path):
    rng = np.random.default_rng(31)
    u = rng.random((7, 9))
    p = tmp_path / "q.pgm"
    write_image(p, u)
    assert p.read_bytes()[:2] == b"P5"
    back = read_image(p)
    # 16-bit quantization: at most half a level of error
    assert np.max(np.abs(back - u)) <= 0.5 / 65535.0 + 1e-12


def test_pgm_write_clamps_out_of_range(tmp_path):
    p = tmp_path / "c.pgm"
    write_image(p, np.array([[-0.5, 0.5], [1.5, 1.0]]))
    back = read_image(p)
    assert back[0, 0] == 0.0
    assert back[1, 0] == 1.0


# ---------------------------------------------------------------------------
# float text


def test_float_text_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    u = rng.standard_normal((5, 8))
    u[0, 0] = 1.0 / 3.0
    u[0, 1] = 1e-300
    u[0, 2] = 5e-324          # subnormal
    u[0, 3] = -1.2345678901234567e5
    u[1, 0] = 0.1
    p = tmp_path / "u.dat"
    write_image(p, u)
    assert np.array_equal(read_image(p), u)


# any finite float64, with the edge values drawn often
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308]),
)
_IMAGES = hnp.arrays(np.float64, st.tuples(st.integers(1, 16), st.integers(1, 16)), elements=_FLOATS)
_RUN_IN_TMP_PATH = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_RUN_IN_TMP_PATH
@given(u=_IMAGES)
def test_float_text_round_trip_property(tmp_path, u):
    p = tmp_path / "u.dat"
    write_image(p, u)
    assert read_image(p).tobytes() == u.tobytes()  # bit-exact, sign of zero included


@_RUN_IN_TMP_PATH
@given(u=_IMAGES)
def test_pgm_round_trip_property(tmp_path, u):
    p = tmp_path / "u.pgm"
    write_image(p, u)
    assert np.array_equal(read_image(p), np.rint(np.clip(u, 0.0, 1.0) * 65535.0) / 65535.0)


def _reference_p2(data):
    """ASCII PGM read with a byte-at-a-time tokenizer, as the reader once did:
    the image, or None where the reader must raise ``FormatError``."""
    tokens, i = [], 0
    while i < len(data):
        if data[i : i + 1] in b" \t\r\n":
            i += 1
        elif data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < len(data) and data[j : j + 1] not in b" \t\r\n":
                j += 1
            tokens.append(data[i:j])
            i = j
    if len(tokens) < 4 or not all(t.isdigit() for t in tokens[1:]):  # ASCII digits only
        return None
    magic, width, height, maxval, *samples = tokens
    width, height, maxval = int(width), int(height), int(maxval)
    samples = [int(t) for t in samples]
    if magic != b"P2" or not (width > 0 and height > 0 and 0 < maxval < 65536):
        return None
    if len(samples) != width * height or max(samples) > maxval:
        return None
    return np.array(samples, dtype=np.float64).reshape(height, width) / maxval


# sample tokens: integers, some negative or above maxval, two that are not
# integers, and two that Python's int() would take but a PGM cannot hold
_P2_SAMPLE = st.integers(-1, 18).map(
    lambda k: {15: b"12#3", 16: b"x", 17: b"+5", 18: b"1_0"}.get(k, b"%d" % k)
)
# whitespace, then maybe a comment; the last one may also end the file in a comment
_P2_SEP = st.tuples(
    st.sampled_from([b" ", b"\t", b"\n", b"\r\n"]),
    st.sampled_from([b"", b"", b"\t", b"# c 5\n", b"#9\n", b"\n#\n", b"# no newline"]),
).map(b"".join)


@st.composite
def _ascii_pgms(draw):
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = width * height + draw(st.sampled_from([0, 0, 0, -1, 1]))
    tokens = [b"P2", b"%d" % width, b"%d" % height, b"%d" % draw(st.integers(1, 12))]
    tokens += draw(st.lists(_P2_SAMPLE, min_size=count, max_size=count))
    seps = draw(st.lists(_P2_SEP, min_size=len(tokens), max_size=len(tokens)))
    return b"".join(t + s for t, s in zip(tokens, seps))


@settings(_RUN_IN_TMP_PATH, max_examples=300)
@given(data=_ascii_pgms())
def test_ascii_pgm_matches_reference_tokenizer(tmp_path, data):
    p = tmp_path / "r.pgm"
    p.write_bytes(data)
    want = _reference_p2(data)
    if want is None:
        with pytest.raises(FormatError):
            read_image(p)
    else:
        assert np.array_equal(read_image(p), want)


def test_float_text_rejects_malformed_files(tmp_path):
    cases = [
        "2 2\n1.0 2.0 3.0\n",       # count mismatch
        "2 2\n1.0 2.0 3.0 x\n",     # non-numeric
        "2\n1.0 2.0\n",             # header missing a field
        "0 2\n",                    # non-positive dims
        "2 2\n1.0 2.0 nan 4.0\n",   # parses, but not a finite image
    ]
    for i, text in enumerate(cases):
        p = tmp_path / f"bad{i}.dat"
        p.write_text(text)
        with pytest.raises(FormatError):
            read_image(p)


@pytest.mark.parametrize("text, message", [
    ("", "malformed float-image header"),
    ("2 2", "expected 4 samples, found 0"),
    ("2 x\n1 2 3 4\n", "malformed float-image header"),
    ("2 2 2\n1 2 3 4\n", "malformed float-image header"),
    ("-1 2\n", "non-positive float-image dimensions"),
    ("2 2\n1 2\n3 y\n", "non-numeric sample in float image"),
    ("2 2\n1 2\n3\n", "expected 4 samples, found 3"),
    ("2 2\n1 2 3 4x", "non-numeric sample in float image"),  # trailing bad token
    ("2 2\n", "expected 4 samples, found 0"),
    ("2 2\n \n\t\n", "expected 4 samples, found 0"),
    ("1 1\n\u00e9\n", "neither PGM nor float text"),
])
def test_float_text_error_messages(tmp_path, text, message):
    p = tmp_path / "bad.dat"
    p.write_text(text)
    with pytest.raises(FormatError, match=message):
        read_image(p)


def test_float_text_samples_may_span_lines(tmp_path):
    # only whitespace separates samples; row breaks and CRLF endings are free
    p = tmp_path / "u.dat"
    p.write_bytes(b"3 2\r\n0.5 0.25\r\n0.125\n\n1 2   3\n")
    assert np.array_equal(read_image(p), [[0.5, 0.25, 0.125], [1.0, 2.0, 3.0]])


def test_float_text_reader_memory(tmp_path, transient_peak):
    """The reader holds the file's bytes and the result, not an object per sample."""
    u = np.random.default_rng(3).standard_normal((512, 512))
    p = tmp_path / "u.dat"
    write_image(p, u)
    got, peak = transient_peak(read_image, p)
    assert got.tobytes() == u.tobytes()
    assert peak <= p.stat().st_size + 1.5 * u.nbytes


def _reference_float_text(data):
    """Float-text read as the reader once did it, through Python strings: the
    image, or the ``FormatError`` message it raised."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return "neither PGM nor float text"
    header, _, body = text.partition("\n")
    try:
        w_tok, h_tok = header.split()
        width, height = int(w_tok), int(h_tok)
    except ValueError:
        return "malformed float-image header"
    if width < 1 or height < 1:
        return "non-positive float-image dimensions"
    try:
        vals = np.array(body.split(), dtype=np.float64)
    except ValueError:
        return "non-numeric sample in float image"
    if vals.size != width * height:
        return f"expected {width * height} samples, found {vals.size}"
    if not np.all(np.isfinite(vals)):
        return "image contains non-finite entries"
    return vals.reshape(height, width)


# Inputs on which the byte parser deliberately differs from the reference,
# always by raising FormatError: digit underscores ("1_0", which Python's
# int/float take), the separators \x1c-\x1f (which str.split takes as
# whitespace), and "nan(...)" (NaN to numpy, so the message is the
# non-finite one, or a count, instead of "non-numeric sample").
_STRICTER = (b"_", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"nan(")

# mostly numbers, so that about a third of the files are images
_FT_NUMBER = st.one_of(
    _FLOATS.map(lambda x: repr(x).encode()),
    st.integers(-10**20, 10**20).map(lambda k: b"%d" % k),
)
_FT_TOKEN = st.one_of(
    _FT_NUMBER,
    _FT_NUMBER,
    _FT_NUMBER,
    _FT_NUMBER,
    _FT_NUMBER,
    st.floats().map(lambda x: repr(x).encode()),
    st.sampled_from([
        b"1_0", b"nan(1)", b"1.2.3", b"1e", b".", b"-", b"+.5", b"5.", b"-0", b"x", b"4x",
        b"1,2", b"0x10", b"inf", b"-Infinity", b"NaN", b"1e999", b"1e-400", b"1E+3", b"+-1",
        b"infinit", b"\xc3\xa9",
    ]),
)
_FT_SEP = st.sampled_from([b" "] * 8 + [b"\n", b"\t", b"\r\n", b"\x0b", b"\x0c", b"   ", b"\x1c"])


@st.composite
def _float_texts(draw):
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    header = draw(st.sampled_from([
        b"%d %d" % (width, height), b"%d %d" % (width, height), b"%d %d" % (width, height),
        b"+%d 0%d" % (width, height), b" %d\t%d \r" % (width, height),
        b"%d_0 %d" % (width, height), b"%d %d 1" % (width, height), b"%d" % width,
        b"-%d %d" % (width, height), b"%d x" % width, b"",
    ]))
    count = width * height + draw(st.sampled_from([0, 0, 0, -1, 1]))
    tokens = draw(st.lists(_FT_TOKEN, min_size=count, max_size=count))
    seps = draw(st.lists(_FT_SEP, min_size=count, max_size=count))
    body = b"".join(t + s for t, s in zip(tokens, seps))
    return header + draw(st.sampled_from([b"\n", b"\r\n", b"\n\n"])) + body if body else header


@settings(_RUN_IN_TMP_PATH, max_examples=400)
@given(data=_float_texts())
def test_float_text_reader_matches_reference(tmp_path, data):
    p = tmp_path / "u.dat"
    p.write_bytes(data)
    want = _reference_float_text(data)
    if any(s in data for s in _STRICTER):
        if isinstance(want, str):
            with pytest.raises(FormatError):
                read_image(p)
        else:
            with pytest.raises(FormatError, match="non-numeric sample in float image"):
                read_image(p)
    elif isinstance(want, str):
        with pytest.raises(FormatError, match=re.escape(want)):
            read_image(p)
    else:
        assert read_image(p).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# float text in two forked halves


@pytest.fixture
def halves(monkeypatch):
    """``halves(n)``: float text of more than ``n`` samples takes the two
    forked halves, on any number of cores; returns the list that each
    ``os.fork`` call appends to."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    def split_above(n):
        monkeypatch.setattr(grid, "BLOCK_PIXELS", n)
        monkeypatch.setattr(grid, "_usable_cores", lambda: 2)
        monkeypatch.setattr(os, "fork", counted_fork)
        return forks

    return split_above


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("shape", [
    (9, 8), (7, 11), (11, 7), (3, 33), (1, 100), (100, 1), (2, 40),
    (8, 8), (13, 5),  # 64 samples, one below the block size, and 65
])
def test_split_writer_and_reader_give_the_serial_bytes(tmp_path, halves, shape):
    u = np.random.default_rng(sum(shape)).standard_normal(shape)
    u[0, 0] = 5e-324
    serial, split = tmp_path / "serial.txt", tmp_path / "split.txt"
    write_image(serial, u)
    forks = halves(64)
    write_image(split, u)
    forked = u.size > 64 and shape[0] >= 2
    assert len(forks) == forked
    assert split.read_bytes() == serial.read_bytes()
    got = read_image(split)
    # parsed whole unless a newline after the middle has a sample after it
    # (never so for a 1xN file)
    data = split.read_bytes()
    cut = data.find(b"\n", len(data) // 2) + 1
    assert len(forks) == forked + 2 * (u.size > 64 and cut > 0 and bool(data[cut:].strip()))
    assert got.tobytes() == u.tobytes()
    assert sorted(os.listdir(tmp_path)) == ["serial.txt", "split.txt"]
    assert_no_child_left()


@pytest.mark.parametrize("text, message", [
    ("2 2\n1 2\n3 y\n", "non-numeric sample in float image"),
    ("2 2\n1 y\n3 4\n", "non-numeric sample in float image"),
    ("2 2\n1 2\n3\n", "expected 4 samples, found 3"),
    ("2 2\n1 2\n3 4 5\n", "expected 4 samples, found 5"),
    ("2 2\n1 2 3 4x\n6\n", "non-numeric sample in float image"),
    ("2 2\n1 2 3 4\n \n \n \n", "<image>"),  # only whitespace after the cut
    ("2 2\n1\n2\n3\n4 5\n\n", "expected 4 samples, found 5"),
    ("2 2\n1\n2\n3\n1e999\n", "image contains non-finite entries"),
])
def test_split_reader_errors(tmp_path, halves, text, message):
    p = tmp_path / "bad.dat"
    p.write_text(text)
    forks = halves(0)
    if message == "<image>":
        assert read_image(p).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    else:
        with pytest.raises(FormatError, match=message):
            read_image(p)
    assert len(forks) == (0 if message == "<image>" else 2)
    assert_no_child_left()


@pytest.mark.parametrize("text, message", [
    ("", "malformed float-image header"),
    ("2 2", "expected 4 samples, found 0"),
    ("2 x\n1 2 3 4\n", "malformed float-image header"),
    ("2 2 2\n1 2 3 4\n", "malformed float-image header"),
    ("-1 2\n", "non-positive float-image dimensions"),
    ("2 2\n1 2\n3 y\n", "non-numeric sample in float image"),
    ("2 2\n1 2\n3\n", "expected 4 samples, found 3"),
    ("2 2\n1 2 3 4x", "non-numeric sample in float image"),  # trailing bad token
    ("2 2\n", "expected 4 samples, found 0"),
    ("2 2\n \n\t\n", "expected 4 samples, found 0"),
    ("1 1\n\u00e9\n", "neither PGM nor float text"),
])
def test_float_text_error_messages_through_split_reader(tmp_path, halves, text, message):
    """The cases of ``test_float_text_error_messages``, with every file above
    the block size."""
    halves(0)
    test_float_text_error_messages(tmp_path, text, message)
    assert_no_child_left()


@settings(_RUN_IN_TMP_PATH, max_examples=200)
@given(data=_float_texts())
def test_split_reader_matches_reference(tmp_path, halves, data):
    halves(0)
    test_float_text_reader_matches_reference.hypothesis.inner_test(tmp_path, data)


def test_split_reader_takes_crlf_and_one_line_files(tmp_path, halves):
    u = np.random.default_rng(5).standard_normal((9, 8))
    p = tmp_path / "u.txt"
    write_image(p, u)
    crlf, one_line = tmp_path / "crlf.txt", tmp_path / "one_line.txt"
    header, body = p.read_bytes().split(b"\n", 1)
    crlf.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
    one_line.write_bytes(header + b"\n" + body.replace(b"\n", b" ") + b"\n")
    forks = halves(64)
    assert read_image(crlf).tobytes() == u.tobytes()
    assert len(forks) == 2
    assert read_image(one_line).tobytes() == u.tobytes()  # parsed whole
    assert len(forks) == 2


def _fails_in_a_child(real, parent=os.getpid()):
    def fails(*args):
        if os.getpid() != parent:
            raise RuntimeError("a child fails")
        return real(*args)

    return fails


def test_failing_writer_child_is_os_error(tmp_path, halves, monkeypatch, capsys):
    clean = tmp_path / "clean.txt"
    write_image(clean, np.full((16, 16), 0.5))
    halves(64)
    monkeypatch.setattr(fileio, "_write_rows", _fails_in_a_child(fileio._write_rows))
    with pytest.raises(OSError, match="worker process"):
        write_image(tmp_path / "out.txt", np.zeros((16, 16)))
    assert_no_child_left()
    argv = ["corrupt", "--input", str(clean), "--eta", "4", "--seed", "1", "-o", str(tmp_path / "noisy.txt")]
    assert main(argv) == 2
    assert "worker process" in capsys.readouterr().err
    assert_no_child_left()
    # no temporary file is left next to the outputs
    assert sorted(os.listdir(tmp_path)) == ["clean.txt", "noisy.txt", "out.txt"]


def test_failing_reader_child_is_os_error(tmp_path, halves, monkeypatch):
    p = tmp_path / "u.txt"
    write_image(p, np.full((16, 16), 0.5))
    halves(64)
    monkeypatch.setattr(fileio, "_parse", _fails_in_a_child(fileio._parse))
    with pytest.raises(OSError, match="worker process"):
        read_image(p)
    assert_no_child_left()


def test_two_threads_alive_stay_serial(tmp_path, halves, monkeypatch):
    u = np.random.default_rng(6).standard_normal((9, 8))
    serial, split = tmp_path / "serial.txt", tmp_path / "split.txt"
    write_image(serial, u)
    forks = halves(64)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        write_image(split, u)
        got = read_image(split)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    assert split.read_bytes() == serial.read_bytes()
    assert got.tobytes() == u.tobytes()


def test_float_text_writer_memory(tmp_path, transient_peak):
    """The writer holds a row's text at a time, in either half."""
    u = np.random.default_rng(4).standard_normal((512, 512))
    _, peak = transient_peak(write_image, tmp_path / "u.txt", u)
    assert peak <= 0.1 * u.nbytes


def test_read_image_missing_file_is_format_error(tmp_path):
    with pytest.raises(FormatError):
        read_image(tmp_path / "nope.dat")


def test_write_image_dispatches_on_suffix(tmp_path):
    u = np.full((3, 3), 0.25)
    write_image(tmp_path / "a.PGM", u)   # case-insensitive suffix
    write_image(tmp_path / "a.txt", u)
    assert (tmp_path / "a.PGM").read_bytes()[:2] == b"P5"
    assert (tmp_path / "a.txt").read_text().startswith("3 3\n")


# ---------------------------------------------------------------------------
# trace CSV


def _trace():
    return [
        TraceRecord(iter=1, se=0.5, objective=12.25, lagrangian=13.5,
                    min_w=0.9, identity_residual=1e-13,
                    constraint_residual=2e-3, snr=None, seconds=0.01),
        TraceRecord(iter=2, se=1.0 / 3.0, objective=11.0, lagrangian=11.5,
                    min_w=None, identity_residual=None,
                    constraint_residual=None, snr=14.25, seconds=0.02),
    ]


def test_trace_round_trip_with_header(tmp_path):
    p = tmp_path / "trace.csv"
    write_trace(p, _trace(), header={"solver": "bca", "alpha": "200.0"})
    records, header = read_trace(p)
    assert header == {"solver": "bca", "alpha": "200.0"}
    assert len(records) == 2
    assert records[0].iter == 1
    assert records[0].se == 0.5
    assert records[1].se == 1.0 / 3.0          # repr round-trips exactly
    assert records[0].snr is None
    assert records[1].min_w is None
    assert records[1].snr == 14.25
    assert records[0].identity_residual == 1e-13


def test_trace_header_row_is_stable(tmp_path):
    assert TRACE_HEADER == [
        "iter", "se", "objective", "lagrangian", "min_w",
        "identity_residual", "constraint_residual", "snr", "seconds",
    ]
    p = tmp_path / "trace.csv"
    write_trace(p, [])
    first_line = p.read_text().splitlines()[0]
    assert first_line == ",".join(TRACE_HEADER)


def test_trace_rejects_foreign_csv(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FormatError):
        read_trace(p)


def test_trace_rejects_short_row(tmp_path):
    p = tmp_path / "trace.csv"
    write_trace(p, _trace())
    lines = p.read_text().splitlines()
    lines[1] = "1,0.5,12.0"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        read_trace(p)


@pytest.mark.parametrize(
    "lineno, row",
    [(2, "1,abc,12.0,13.0,,,,,0.01"), (3, "x,0.5,12.0,13.0,,,,,0.01")],
)
def test_trace_non_numeric_cell_is_format_error(tmp_path, lineno, row):
    p = tmp_path / "trace.csv"
    write_trace(p, _trace())
    lines = p.read_text().splitlines()
    lines[lineno - 1] = row
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"trace\.csv: line {lineno}: "):
        read_trace(p)


_OPTIONAL = st.none() | st.floats(allow_nan=False)
_RECORDS = st.builds(
    TraceRecord,
    iter=st.integers(0, 10**6),
    se=st.floats(allow_nan=False),
    objective=st.floats(allow_nan=False),
    lagrangian=st.floats(allow_nan=False),
    min_w=_OPTIONAL,
    identity_residual=_OPTIONAL,
    constraint_residual=_OPTIONAL,
    snr=_OPTIONAL,
    seconds=st.floats(0.0, 1e6),
)


@_RUN_IN_TMP_PATH
@given(records=st.lists(_RECORDS, max_size=5))
def test_trace_round_trip_property(tmp_path, records):
    p = tmp_path / "trace.csv"
    write_trace(p, records)
    back, header = read_trace(p)
    assert header == {}
    assert repr(back) == repr(records)  # exact, None in the optional columns included
