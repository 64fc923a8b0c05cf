"""Trace file round trips, input validation, synthetic generation, key scrambling."""

import contextlib
import csv
import gzip
import io
import itertools
import math
import random
import statistics
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofmon import traceio
from ofmon.model import FlowKey, PacketRecord, Protocol, flow_key_of, format_ip
from ofmon.traceio import (
    CSV_HEADER,
    ExponentialGap,
    Fixed,
    FixedGap,
    Geometric,
    ParetoDiscrete,
    SyntheticSpec,
    TraceFormatError,
    UniformRandom,
    ZipfSkewed,
    _gap_drawer,
    _size_drawer,
    generate_trace,
    randomize_trace,
    read_csv_trace,
    write_csv_trace,
)

from helpers import random_trace
from generate_oracle import generate_trace as oracle_generate_trace
from trace_oracle import read_csv_trace as oracle_read_csv_trace

HEADER = ",".join(CSV_HEADER)
ROW = "0,1.2.3.4,5.6.7.8,10,20,TCP,64"


class Top(random.Random):
    """random()'s largest value, so each drawer draws its largest size or gap."""

    def random(self):
        return 1.0 - 2.0 ** -53


def write_lines(path, *rows):
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestCsvRoundTrip:
    def test_plain_file(self, tmp_path):
        trace = random_trace(40, seed=1, packets_per_flow=2)
        path = tmp_path / "t.csv"
        assert write_csv_trace(trace, str(path)) == len(trace)
        assert list(read_csv_trace(str(path))) == trace

    def test_gzip_file(self, tmp_path):
        trace = random_trace(40, seed=2)
        path = tmp_path / "t.csv.gz"
        write_csv_trace(trace, str(path))
        with gzip.open(path, "rt") as fh:
            assert fh.readline().strip() == HEADER
        assert list(read_csv_trace(str(path))) == trace

    def test_lowercase_protocol_token_accepted(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER,
                           "0,1.2.3.4,5.6.7.8,10,20,tcp,64",
                           "1,1.2.3.4,5.6.7.8,10,20,Udp,64")
        assert [p.key.protocol for p in read_csv_trace(path)] == [Protocol.TCP, Protocol.UDP]

    # the larger count puts each flow's packets on both sides of a block edge
    @pytest.mark.parametrize("count", [120, 2 * traceio._BLOCK_LINES + 30])
    def test_packets_of_a_flow_share_one_key_object(self, tmp_path, count):
        keys = sorted({p.key for p in random_trace(30, seed=3)})
        path = str(tmp_path / "t.csv")
        write_csv_trace([PacketRecord(i, keys[i % 30], 64) for i in range(count)], path)
        objects = {}
        for p in read_csv_trace(path):
            objects.setdefault(p.key, set()).add(id(p.key))
        assert len(objects) == 30
        assert all(len(ids) == 1 for ids in objects.values())

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER,
                           "0,1.2.3.4,5.6.7.8,10,20,TCP,64", "",
                           "5,1.2.3.4,5.6.7.8,10,20,UDP,64")
        assert len(list(read_csv_trace(path))) == 2


addresses = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))
# a packet as (gap to the previous packet, key, length)
packet_rows = st.tuples(
    st.integers(0, 10**12),
    st.builds(FlowKey, addresses, addresses, st.integers(0, 65535), st.integers(0, 65535),
              st.sampled_from(Protocol)),
    st.integers(1, 65535),
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(packet_rows, max_size=20), name=st.sampled_from(["t.csv", "t.csv.gz"]))
@example(rows=[(0, FlowKey(0, 2**32 - 1, 0, 65535, Protocol.UDP), 1)], name="t.csv")
@example(rows=[(0, FlowKey(2**32 - 1, 0, 65535, 0, Protocol.TCP), 1)], name="t.csv.gz")
def test_write_then_read_gives_back_the_packets(tmp_path_factory, rows, name):
    times = itertools.accumulate(gap for gap, _, _ in rows)
    trace = [PacketRecord(ts, key, length) for ts, (_, key, length) in zip(times, rows)]
    path = str(tmp_path_factory.getbasetemp() / name)
    assert write_csv_trace(trace, path) == len(trace)
    assert list(read_csv_trace(path)) == trace
    opener = gzip.open if name.endswith(".gz") else open
    with opener(path, "rb") as fh:
        assert fh.read() == csv_writer_bytes(trace)


def csv_writer_bytes(trace):
    """The trace file's text as csv.writer writes it: the writer's reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for ts, key, length in trace:
        writer.writerow([ts, format_ip(key.src_ip), format_ip(key.dst_ip), key.src_port,
                         key.dst_port, key.protocol.name, length])
    return buf.getvalue().encode()


class TestCsvValidation:
    def read_all(self, path):
        return list(read_csv_trace(path))

    def test_wrong_header(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", "timestamp,stuff", "1,2")
        with pytest.raises(TraceFormatError, match="line 1"):
            self.read_all(path)

    def test_field_count(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER, "0,1.2.3.4,5.6.7.8,10,20,TCP")
        with pytest.raises(TraceFormatError, match="line 2"):
            self.read_all(path)

    def test_bad_ip(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER,
                           "0,1.2.3.4,5.6.7.8,10,20,TCP,64",
                           "1,999.2.3.4,5.6.7.8,10,20,TCP,64")
        with pytest.raises(TraceFormatError, match="line 3"):
            self.read_all(path)

    @pytest.mark.parametrize("field", ["src_ip", "dst_ip"])
    @pytest.mark.parametrize("bad", [
        "010.0.0.1", "\uff11.2.3.4", "1.2.3.4/32", " 1.2.3.4", "1.2.3.256",
    ])
    def test_bad_address_names_its_field(self, tmp_path, field, bad):
        fields = ROW.split(",")
        fields[CSV_HEADER.index(field)] = bad
        path = tmp_path / "t.csv"
        path.write_bytes(f"{HEADER}\n{ROW}\n{','.join(fields)}\n".encode())
        with pytest.raises(TraceFormatError, match=f"^line 3: {field} "):
            self.read_all(str(path))

    def test_unsupported_protocol(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER, "0,1.2.3.4,5.6.7.8,0,0,ICMP,64")
        with pytest.raises(TraceFormatError, match="unsupported protocol"):
            self.read_all(path)

    @pytest.mark.parametrize("proto", [
        " tcp", "TCP ", "\tUDP", "\u00a0tcp\u3000", "\uff34\uff23\uff30",  # fullwidth TCP
    ])
    def test_padded_or_non_ascii_protocol(self, tmp_path, proto):
        path = tmp_path / "t.csv"
        path.write_bytes(f"{HEADER}\n{ROW}\n0,1.2.3.4,5.6.7.8,10,20,{proto},64\n".encode())
        with pytest.raises(TraceFormatError, match="^line 3: unsupported protocol"):
            self.read_all(str(path))

    def test_negative_timestamp(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER, "-5,1.2.3.4,5.6.7.8,10,20,TCP,64")
        with pytest.raises(TraceFormatError, match="negative timestamp"):
            self.read_all(path)

    def test_backwards_timestamps(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER,
                           "10,1.2.3.4,5.6.7.8,10,20,TCP,64",
                           "9,1.2.3.4,5.6.7.8,10,20,TCP,64")
        with pytest.raises(TraceFormatError, match="backwards"):
            self.read_all(path)

    def test_port_out_of_range(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER, "0,1.2.3.4,5.6.7.8,70000,20,TCP,64")
        with pytest.raises(TraceFormatError, match="port"):
            self.read_all(path)

    def test_non_positive_length(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER, "0,1.2.3.4,5.6.7.8,10,20,TCP,0")
        with pytest.raises(TraceFormatError, match="length"):
            self.read_all(path)

    @pytest.mark.parametrize("row", [
        "\u0661_0 ,1.2.3.4,5.6.7.8,\uff18\uff10,20,TCP,64",  # Arabic-Indic 1, fullwidth 80
        "1_0,1.2.3.4,5.6.7.8,10,20,TCP,64",
        " 10,1.2.3.4,5.6.7.8,10,20,TCP,64",
        "+10,1.2.3.4,5.6.7.8,10,20,TCP,64",
        "10,1.2.3.4,5.6.7.8,10,20,TCP,6\u0664",
        "10,1.2.3.4,5.6.7.8,1-0,20,TCP,64",
    ])
    def test_integer_fields_take_ascii_digits_only(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_bytes(f"{HEADER}\n{ROW}\n{row}\n".encode())
        with pytest.raises(TraceFormatError, match="line 3"):
            self.read_all(str(path))

    def test_non_numeric_field(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER, "zero,1.2.3.4,5.6.7.8,10,20,TCP,64")
        with pytest.raises(TraceFormatError, match="line 2"):
            self.read_all(path)

    @pytest.mark.parametrize("field", range(len(CSV_HEADER)))
    def test_byte_that_is_not_utf8_fails_its_own_line(self, tmp_path, field):
        fields = [f.encode() for f in ROW.split(",")]
        fields[field] += b"\xe9"
        path = tmp_path / "t.csv"
        path.write_bytes(f"{HEADER}\n{ROW}\n".encode() + b",".join(fields) + b"\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            self.read_all(str(path))

    def test_field_over_the_csv_limit(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER, ROW,
                           "1," + "9" * 131_073 + ",5.6.7.8,10,20,TCP,64")
        with pytest.raises(TraceFormatError, match="line 3"):
            self.read_all(path)

    def test_gz_file_that_is_not_gzip(self, tmp_path):
        path = write_lines(tmp_path / "t.csv.gz", HEADER, ROW)
        with pytest.raises(TraceFormatError, match="line 1"):
            self.read_all(path)

    def test_truncated_gzip(self, tmp_path):
        rows = [f"{ts},1.2.3.4,5.6.7.8,10,20,TCP,64" for ts in range(5_000)]
        data = gzip.compress("\n".join([HEADER, *rows, ""]).encode())
        path = tmp_path / "t.csv.gz"
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError, match=r"line \d+: "):
            self.read_all(str(path))

    def test_directory(self, tmp_path):
        with pytest.raises(TraceFormatError, match="line 1"):
            self.read_all(str(tmp_path))


# each field of a row: its valid value or arbitrary bytes
row_strategy = st.tuples(*(st.one_of(st.just(f.encode()), st.binary(max_size=6))
                           for f in ROW.split(",")))


@st.composite
def trace_file(draw):
    """A file name and its bytes: the valid header, then rows whose fields are
    valid or arbitrary bytes, some rows short or long, plain or gzip, and
    possibly cut short."""
    lines = [HEADER.encode()]
    for fields in draw(st.lists(row_strategy, max_size=5)):
        fields = [*fields[: draw(st.integers(0, len(fields)))], *draw(
            st.lists(st.binary(max_size=3), max_size=2))]
        lines.append(b",".join(fields))
    data = b"\n".join(lines) + b"\n"
    name = "t.csv"
    if draw(st.booleans()):
        name, data = "t.csv.gz", gzip.compress(data)
    return name, data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


@settings(max_examples=200, deadline=None)
@given(file=trace_file())
def test_any_trace_file_yields_packets_or_a_located_error(tmp_path_factory, file):
    name, data = file
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(data)
    try:
        packets = list(read_csv_trace(str(path)))
    except TraceFormatError as exc:
        assert str(exc).startswith("line ")
    else:
        assert all(type(p) is PacketRecord for p in packets)


# Rows for the differential test: most repeat a few key texts, so the reader's
# memo of accepted keys serves them, and each field takes valid and invalid
# spellings that pass or fail at every step of the row check.
KEY_TEXTS = [  # the first four are valid
    "1.2.3.4,5.6.7.8,10,20,TCP",
    "9.8.7.6,5.4.3.2,65535,0,UDP",
    "1.2.3.4,5.6.7.8,10,20,tcp",  # lowercase protocol
    "1.2.3.4,5.6.7.8,-0,010,UDP",  # spellings int() reads as 0 and 10
    "1.2.3.4,5.6.7.8,10,20, TCP",  # padded protocol
    "1.2.3.256,5.6.7.8,10,20,TCP",  # bad octet
    "1.2.3.4,5.6.7.8,70000,20,TCP",  # port out of range
    '"1.2.3.4,5.6.7.8",10,20,TCP,',  # a quoted comma: not the first key's text
]
LONG = "9" * 4_301  # past int()'s digit limit
NUMBERS = ["64", "1", "0", "0064", "-1", "+3", "1_0", "\u0661\u0660", LONG, ""]
JUNK_ROWS = ["", "junk", "1,2,3", "0,1.2.3.4,5.6.7.8,10,20,TCP,64,extra"]


@st.composite
def memo_trace_file(draw):
    """A file name and its bytes: the header, then rows that are mostly valid
    packets of the first four KEY_TEXTS at rising timestamps, with now and
    then a bad field, a junk row or a non-UTF-8 byte; plain or gzip, and
    possibly cut short."""
    lines = [HEADER.encode()]
    ts = 0
    for _ in range(draw(st.integers(0, 40))):
        odd = draw(st.integers(0, 19))  # 5 and up: a valid row
        if odd == 0:
            lines.append(draw(st.sampled_from(JUNK_ROWS)).encode())
            continue
        if odd == 1:
            lines.append(b"0,1.2.3.4,5.6.7.8,10,20,TCP,6\xe9")
            continue
        if odd == 2:
            ts_text = draw(st.sampled_from([*NUMBERS, str(ts - 1), "00" + str(ts)]))
        else:
            ts += draw(st.integers(0, 3))
            ts_text = str(ts)
        length = draw(st.sampled_from(NUMBERS)) if odd == 3 else str(draw(st.integers(1, 1500)))
        key = draw(st.sampled_from(KEY_TEXTS if odd == 4 else KEY_TEXTS[:4]))
        lines.append(f"{ts_text},{key},{length}".encode())
    data = b"\n".join(lines) + b"\n"
    name = "t.csv"
    if draw(st.booleans()):
        name, data = "t.csv.gz", gzip.compress(data)
    return name, data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


def packets_then_error(read, path):
    """Every packet `read` yields, then its error message or None."""
    packets = []
    try:
        for packet in read(path):
            packets.append(packet)
    except TraceFormatError as exc:
        return packets, str(exc)
    return packets, None


@settings(max_examples=300, deadline=None)
@given(file=memo_trace_file())
def test_the_reader_agrees_with_the_reference_reader(tmp_path_factory, file):
    name, data = file
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(data)
    assert packets_then_error(read_csv_trace, str(path)) == packets_then_error(
        oracle_read_csv_trace, str(path))


def test_every_spelling_after_known_keys_agrees_with_the_reference_reader(tmp_path):
    # each valid key is seen at ts 5 first, so the last row finds its key
    # text known whenever that text is valid
    known = [f"5,{key},64" for key in KEY_TEXTS[:4]]
    path = tmp_path / "t.csv"
    for ts, key, length in itertools.product([*NUMBERS, "4", "5", "6", "005"], KEY_TEXTS,
                                             [*NUMBERS, "1500"]):
        path.write_bytes("\n".join([HEADER, *known, f"{ts},{key},{length}", ""]).encode())
        assert packets_then_error(read_csv_trace, str(path)) == packets_then_error(
            oracle_read_csv_trace, str(path)), (ts, key, length)


SMALL_BLOCK = 3  # lines per block below, so that a short file spans many blocks


def agrees_in_small_blocks(path):
    """Whether the reader, reading SMALL_BLOCK lines at a time, yields the
    packets and then the message the reference reader yields."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "_BLOCK_LINES", SMALL_BLOCK)
        got = packets_then_error(read_csv_trace, path)
    return got == packets_then_error(oracle_read_csv_trace, path)


@settings(max_examples=300, deadline=None)
@given(file=st.one_of(trace_file(), memo_trace_file()))
def test_the_reader_agrees_with_the_reference_reader_across_block_edges(tmp_path_factory, file):
    name, data = file
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(data)
    assert agrees_in_small_blocks(str(path))


# a fault that turns a row's fields into the bytes of its line or lines: a
# bad field or line end, or a valid spelling the block check leaves to the row check
FAULTS = {
    "bad port": lambda f: b",".join([*f[:3], b"70000", *f[4:]]) + b"\n",
    "bad protocol": lambda f: b",".join([*f[:5], b"ICMP", f[6]]) + b"\n",
    "zero length": lambda f: b",".join([*f[:6], b"0"]) + b"\n",
    "signed length": lambda f: b",".join([*f[:6], b"+" + f[6]]) + b"\n",
    "empty timestamp": lambda f: b",".join([b"", *f[1:]]) + b"\n",
    "underscored timestamp": lambda f: b",".join([f[0] + b"_0", *f[1:]]) + b"\n",
    "non-ASCII digit": lambda f: b",".join([f[0] + "\u0661".encode(), *f[1:]]) + b"\n",
    "backwards timestamp": lambda f: b",".join([b"9", *f[1:]]) + b"\n",
    "quoted field": lambda f: b",".join([b'"' + f[0] + b'"', *f[1:]]) + b"\n",
    "quoted line end": lambda f: b",".join([*f[:6], b'"' + f[6] + b'\n"']) + b"\n",
    "CRLF": lambda f: b",".join(f) + b"\r\n",
    "lone CR": lambda f: b",".join(f) + b"\r",
    "blank line": lambda f: b"\n" + b",".join(f) + b"\n",
    "NUL": lambda f: b",".join([f[0] + b"\0", *f[1:]]) + b"\n",
    "non-UTF-8 byte": lambda f: b",".join([*f[:6], f[6] + b"\xe9"]) + b"\n",
    "field over the csv limit": lambda f: b",".join([f[0], b"9" * 131_073, *f[2:]]) + b"\n",
    "leading zeros": lambda f: b",".join([b"00" + f[0], *f[1:]]) + b"\n",
    "lowercase protocol": lambda f: b",".join([*f[:5], f[5].lower(), f[6]]) + b"\n",
    "signed port": lambda f: b",".join([*f[:3], b"+" + f[3], *f[4:]]) + b"\n",
    "port -0": lambda f: b",".join([*f[:3], b"-0", *f[4:]]) + b"\n",
}
FAULT_KEYS = ["10.0.0.1,10.0.0.2,1,2,UDP", "10.0.0.3,10.0.0.4,65535,0,TCP", KEY_TEXTS[0]]


@pytest.mark.parametrize("fault", FAULTS)
@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.sampled_from(FAULT_KEYS), min_size=1, max_size=4 * SMALL_BLOCK),
    at=st.integers(0, 4 * SMALL_BLOCK - 1),
    name=st.sampled_from(["t.csv", "t.csv.gz"]),
    cut=st.none() | st.integers(0, 200),
)
@example(keys=FAULT_KEYS[:2] * SMALL_BLOCK, at=SMALL_BLOCK, name="t.csv", cut=None)
@example(keys=FAULT_KEYS[:2] * SMALL_BLOCK, at=2 * SMALL_BLOCK - 1, name="t.csv.gz", cut=None)
def test_one_fault_at_any_row_agrees_with_the_reference_reader_across_block_edges(
        tmp_path_factory, fault, keys, at, name, cut):
    """Rows at timestamps 10, 11, ...; the row at `at` (mod the row count)
    carries the fault, and the file may be cut short `cut` bytes from its end."""
    lines = [HEADER.encode() + b"\n"]
    for i, key in enumerate(keys):
        fields = f"{10 + i},{key},{64 + i}".encode().split(b",")
        lines.append(FAULTS[fault](fields) if i == at % len(keys) else b",".join(fields) + b"\n")
    data = b"".join(lines)
    if name.endswith(".gz"):
        data = gzip.compress(data)
    if cut is not None:
        data = data[: max(len(data) - cut, 0)]
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(data)
    assert agrees_in_small_blocks(str(path))


def test_crlf_line_ends_read_as_lf_line_ends(tmp_path):
    trace = random_trace(40, seed=4, packets_per_flow=3)
    path = tmp_path / "t.csv"
    write_csv_trace(trace, str(path))
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert packets_then_error(read_csv_trace, str(path)) == (trace, None)
    assert packets_then_error(oracle_read_csv_trace, str(path)) == (trace, None)
    with open(path, newline="") as fh:
        lines = fh.readlines()[1:]
    assert traceio._block_columns(lines, 0, {}) is not None  # no row takes the row check


def error_then_end(lines):
    """The lines of an open text file whose next read fails with OSError;
    as a generator does, it ends after raising."""
    yield from lines
    raise OSError("read failed")


def test_a_read_error_in_a_block_that_fails_its_check_is_raised(monkeypatch):
    # the blank line fails the block; the file ends right after the error
    lines = [HEADER + "\n", ROW + "\n", "\n", "5,9.8.7.6,5.4.3.2,1,2,UDP,64\n"]
    monkeypatch.setattr(traceio, "_open_text",
                        lambda path, mode: contextlib.nullcontext(error_then_end(lines)))
    packets, error = packets_then_error(read_csv_trace, "t.csv")
    assert [p.timestamp_ns for p in packets] == [0, 5]
    assert error == "line 5: read failed"


def test_one_odd_line_sends_only_its_block_to_the_row_check(tmp_path, monkeypatch):
    # three blocks of distinct keys, the first with a blank line after the header
    rows = [f"{i},10.0.0.{i},10.0.1.{i},{i},{i},TCP,64" for i in range(3 * SMALL_BLOCK - 1)]
    path = write_lines(tmp_path / "t.csv", HEADER, "", *rows)
    checked = []
    check = traceio._checked_packet

    def counted(row, lineno, prev_ts):
        checked.append(lineno)
        return check(row, lineno, prev_ts)

    monkeypatch.setattr(traceio, "_BLOCK_LINES", SMALL_BLOCK)
    monkeypatch.setattr(traceio, "_checked_packet", counted)
    assert [p.timestamp_ns for p in read_csv_trace(path)] == list(range(len(rows)))
    assert checked == list(range(3, SMALL_BLOCK + 2))  # the first block's rows


class TestSyntheticGeneration:
    def test_same_spec_same_trace(self):
        spec = SyntheticSpec(flow_count=500, seed=7)
        assert generate_trace(spec) == generate_trace(spec)

    def test_distinct_flow_count_and_ordering(self):
        spec = SyntheticSpec(flow_count=800, size_distribution=Geometric(0.4), seed=3)
        trace = generate_trace(spec)
        assert len({flow_key_of(p) for p in trace}) == 800
        ts = [p.timestamp_ns for p in trace]
        assert ts == sorted(ts)
        starts = {}
        for p in trace:
            starts.setdefault(flow_key_of(p), p.timestamp_ns)
        assert all(0 <= s < spec.duration_ns for s in starts.values())

    def test_geometric_mean_size(self):
        spec = SyntheticSpec(flow_count=100_000, size_distribution=Geometric(0.5),
                             gap=FixedGap(1), seed=5)
        sizes = Counter()
        for p in generate_trace(spec):
            sizes[flow_key_of(p)] += 1
        mean = statistics.fmean(sizes.values())
        assert abs(mean - 2.0) < 0.05  # geometric mean is 1/p

    def test_fixed_sizes_and_gaps(self):
        spec = SyntheticSpec(flow_count=50, size_distribution=Fixed(5),
                             gap=FixedGap(7), seed=1)
        per_flow = {}
        for p in generate_trace(spec):
            per_flow.setdefault(flow_key_of(p), []).append(p.timestamp_ns)
        assert all(len(v) == 5 for v in per_flow.values())
        for stamps in per_flow.values():
            assert [b - a for a, b in zip(stamps, stamps[1:])] == [7, 7, 7, 7]

    def test_pareto_respects_min_size(self):
        spec = SyntheticSpec(flow_count=2_000,
                             size_distribution=ParetoDiscrete(1.5, min_size=3), seed=2)
        sizes = Counter()
        for p in generate_trace(spec):
            sizes[flow_key_of(p)] += 1
        assert min(sizes.values()) >= 3
        assert max(sizes.values()) > 10  # the tail is actually heavy

    def test_tcp_fraction(self):
        spec = SyntheticSpec(flow_count=5_000, tcp_fraction=0.25, seed=4)
        protos = Counter()
        for p in generate_trace(spec):
            protos[flow_key_of(p)] = p.key.protocol
        share = sum(1 for v in protos.values() if v is Protocol.TCP) / 5_000
        assert abs(share - 0.25) < 0.03

    def test_zipf_keys_concentrate(self):
        def top_share(mode, seed):
            spec = SyntheticSpec(flow_count=4_000, ip_mode=mode, seed=seed)
            srcs = Counter(p.key.src_ip for p in generate_trace(spec))
            return max(srcs.values()) / sum(srcs.values())

        assert top_share(ZipfSkewed(1.3), 6) > 5 * top_share(UniformRandom(), 6)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: SyntheticSpec(flow_count=0),
            lambda: SyntheticSpec(flow_count=10, tcp_fraction=1.5),
            lambda: SyntheticSpec(flow_count=10, duration_ns=0),
            lambda: Geometric(0.0),
            lambda: Geometric(1.2),
            lambda: ParetoDiscrete(0.0),
            lambda: ParetoDiscrete(1.0, min_size=0),
            lambda: Fixed(0),
            lambda: ZipfSkewed(0.0),
            lambda: ExponentialGap(0),
            lambda: FixedGap(-1),
            # the draw would divide by zero or overflow
            lambda: Geometric(1e-17),
            lambda: Geometric(2.0 ** -54),
            lambda: ParetoDiscrete(1e-300),
            lambda: ParetoDiscrete(0.05),
            lambda: ParetoDiscrete(1.5, min_size=10**400),
            lambda: ExponentialGap(10**400 - 1),  # beyond float()
            lambda: ExponentialGap(10**309),
            lambda: ExponentialGap(int(1e308)),  # a float, but its largest draw is not
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            bad()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        # random.Random keys on |seed|: -7 would generate seed 7's trace
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            SyntheticSpec(flow_count=5, seed=seed)

    @pytest.mark.parametrize(
        "dist", [Geometric(2.0 ** -53), ParetoDiscrete(0.0518), ParetoDiscrete(1.5, 10**290)]
    )
    def test_largest_draw_of_an_accepted_distribution_is_a_size(self, dist):
        assert _size_drawer(dist)(Top()) >= 1

    def test_largest_mean_gap_is_the_largest_that_draws(self):
        def draws(mean_ns):  # the drawer's largest gap is a float
            try:
                return math.isfinite(Top().expovariate(1.0 / float(mean_ns)))
            except OverflowError:
                return False

        low, high = 1, 10**309  # low draws, high does not
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if draws(mid) else (low, mid)
        assert _gap_drawer(ExponentialGap(low))(Top()) >= 1
        with pytest.raises(ValueError):
            ExponentialGap(high)


key_modes = st.one_of(
    st.just(UniformRandom()),
    st.builds(ZipfSkewed, st.floats(0.1, 3.0)),
    st.just(ZipfSkewed(60.0)),  # rank 1 only: keys collide until ports go uniform
)
specs = st.builds(
    SyntheticSpec,
    flow_count=st.integers(1, 30),
    size_distribution=st.one_of(
        st.builds(Fixed, st.integers(1, 4)),
        st.builds(Geometric, st.sampled_from([1.0, 0.5, 0.3]) | st.floats(0.2, 1.0)),
        st.builds(ParetoDiscrete, st.floats(1.5, 3.0), st.integers(1, 3)),
    ),
    ip_mode=key_modes,
    port_mode=key_modes,
    tcp_fraction=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    gap=st.one_of(st.builds(FixedGap, st.integers(0, 10**6)),
                  st.builds(ExponentialGap, st.integers(1, 10**12))),
    duration_ns=st.sampled_from([1, 2, 2**40 + 1]) | st.integers(1, 10**10),
    seed=st.integers(0, 2**64 - 1),
)


@settings(max_examples=150, deadline=None)
@given(spec=specs)
@example(spec=SyntheticSpec(flow_count=30, ip_mode=ZipfSkewed(60.0),
                            port_mode=ZipfSkewed(60.0), seed=3))
def test_the_generator_draws_what_the_reference_generator_draws(spec):
    assert generate_trace(spec) == oracle_generate_trace(spec)


class TestRandomizeTrace:
    def scrambled(self, seed=17):
        spec = SyntheticSpec(flow_count=600, size_distribution=Geometric(0.5),
                             ip_mode=ZipfSkewed(1.3), port_mode=ZipfSkewed(1.3), seed=8)
        trace = generate_trace(spec)
        return trace, randomize_trace(trace, seed=seed)

    def test_preserves_everything_but_the_keys(self):
        trace, out = self.scrambled()
        assert [p.timestamp_ns for p in out] == [p.timestamp_ns for p in trace]
        assert [p.length_bytes for p in out] == [p.length_bytes for p in trace]
        assert [p.key.protocol for p in out] == [p.key.protocol for p in trace]

    def test_key_mapping_is_a_bijection(self):
        trace, out = self.scrambled()
        mapping = {}
        for old, new in zip(trace, out):
            k = flow_key_of(old)
            mapping.setdefault(k, flow_key_of(new))
            assert mapping[k] == flow_key_of(new)  # consistent per flow
        assert len(set(mapping.values())) == len(mapping)

    def test_flow_size_distribution_is_unchanged(self):
        trace, out = self.scrambled()
        assert sorted(Counter(map(flow_key_of, trace)).values()) == sorted(
            Counter(map(flow_key_of, out)).values()
        )

    def test_keys_actually_change(self):
        trace, out = self.scrambled()
        same = sum(1 for a, b in zip(trace, out) if flow_key_of(a) == flow_key_of(b))
        assert same < len(trace) // 100

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        trace = generate_trace(SyntheticSpec(flow_count=5, seed=3))
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            randomize_trace(trace, seed)

    def test_seeded(self):
        trace, a = self.scrambled(seed=1)
        _, b = self.scrambled(seed=1)
        _, c = self.scrambled(seed=2)
        assert a == b
        assert a != c
