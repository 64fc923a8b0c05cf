"""Trace file round trips, input validation, synthetic generation, key scrambling."""

import gzip
import statistics
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofmon.model import PacketRecord, Protocol, flow_key_of
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
    _size_drawer,
    generate_trace,
    randomize_trace,
    read_csv_trace,
    write_csv_trace,
)

from helpers import random_trace

HEADER = ",".join(CSV_HEADER)
ROW = "0,1.2.3.4,5.6.7.8,10,20,TCP,64"


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
                           "0,1.2.3.4,5.6.7.8,10,20,tcp,64")
        (p,) = read_csv_trace(path)
        assert p.key.protocol is Protocol.TCP

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER,
                           "0,1.2.3.4,5.6.7.8,10,20,TCP,64", "",
                           "5,1.2.3.4,5.6.7.8,10,20,UDP,64")
        assert len(list(read_csv_trace(path))) == 2


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

    def test_unsupported_protocol(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", HEADER, "0,1.2.3.4,5.6.7.8,0,0,ICMP,64")
        with pytest.raises(TraceFormatError, match="unsupported protocol"):
            self.read_all(path)

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
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            bad()

    @pytest.mark.parametrize(
        "dist", [Geometric(2.0 ** -53), ParetoDiscrete(0.0518), ParetoDiscrete(1.5, 10**290)]
    )
    def test_largest_draw_of_an_accepted_distribution_is_a_size(self, dist):
        class Top:  # random()'s largest value gives each drawer's largest size
            def random(self):
                return 1.0 - 2.0 ** -53

        assert _size_drawer(dist)(Top()) >= 1


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

    def test_seeded(self):
        trace, a = self.scrambled(seed=1)
        _, b = self.scrambled(seed=1)
        _, c = self.scrambled(seed=2)
        assert a == b
        assert a != c
