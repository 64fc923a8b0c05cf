"""Controller behavior: install scheduling, redundancy accounting, records, export."""

import csv
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofmon.controller import (
    EXPORT_FIELDS,
    ControllerConfig,
    ControllerStateError,
    MonitoringController,
    export_records,
    record_to_dict,
)
from ofmon.model import FlowKey, FlowRecord, FlowRemovedReason, Protocol, flow_key_of, format_ip
from ofmon.sampling import SamplingConfig, SamplingMethod, generate_rules
from ofmon.simulate import Simulation, replay_flows
from ofmon.switch import (
    FLOW_RECORD_PRIORITY,
    FlowEntry,
    FlowRemoved,
    MatchFields,
    PacketIn,
)

from helpers import pkt, random_trace

RATE_ONE = SamplingConfig(SamplingMethod.IP_SUFFIX, src_size=0)
MS = 1_000_000


def cc(delay=0, idle=15_000 * MS, hard=0):
    return ControllerConfig(install_delay_ns=delay, idle_timeout_ns=idle,
                            hard_timeout_ns=hard)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ControllerConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(install_delay_ns=-1),
            dict(idle_timeout_ns=0),
            dict(idle_timeout_ns=-5),
            dict(hard_timeout_ns=-1),
            dict(idle_timeout_ns=10 * MS, hard_timeout_ns=5 * MS),
        ],
    )
    def test_bad_values_are_rejected(self, kw):
        with pytest.raises(ValueError):
            ControllerConfig(**kw)

    def test_hard_timeout_zero_means_disabled(self):
        ControllerConfig(idle_timeout_ns=10 * MS, hard_timeout_ns=0)


class TestPacketInHandling:
    def test_first_packet_schedules_an_install(self):
        ctl = MonitoringController(cc(delay=3 * MS, idle=10 * MS, hard=40 * MS))
        p = pkt(ts=7 * MS)
        e = ctl.on_packet_in(PacketIn(p))
        assert e.install_time_ns == 10 * MS
        assert e.match == MatchFields.exact(flow_key_of(p))
        assert e.priority == FLOW_RECORD_PRIORITY
        assert e.idle_timeout_ns == 10 * MS
        assert e.hard_timeout_ns == 40 * MS

    def test_repeat_packets_before_install_are_redundant(self):
        ctl = MonitoringController(cc(delay=10 * MS))
        first = pkt(ts=0, length=100)
        assert ctl.on_packet_in(PacketIn(first)) is not None
        for ts in (1, 2, 3):
            assert ctl.on_packet_in(PacketIn(pkt(ts=ts * MS, length=50))) is None
        assert ctl.redundant_packets_by_protocol[Protocol.TCP] == 3
        assert ctl.redundant_bytes_by_protocol[Protocol.TCP] == 150

    def test_packet_in_for_installed_flow_is_a_state_error(self):
        # at delay 0 the entry is active from the first packet's instant on,
        # so a later packet of the flow must have matched it
        ctl = MonitoringController(cc())
        ctl.on_packet_in(PacketIn(pkt()))
        with pytest.raises(ControllerStateError, match="active"):
            ctl.on_packet_in(PacketIn(pkt(ts=1)))

    def test_flow_removed_for_a_wildcard_entry_is_a_state_error(self):
        wildcard = FlowEntry(match=MatchFields(), priority=FLOW_RECORD_PRIORITY, actions=())
        with pytest.raises(ControllerStateError, match="not an exact 5-tuple"):
            MonitoringController(cc()).on_flow_removed(
                FlowRemoved(entry=wildcard, reason=FlowRemovedReason.IDLE, removal_time_ns=9))

    def test_flow_removed_for_unknown_key_is_a_state_error(self):
        ctl = MonitoringController(cc())
        stray = FlowEntry(match=MatchFields.exact(flow_key_of(pkt())),
                          priority=FLOW_RECORD_PRIORITY, actions=())
        with pytest.raises(ControllerStateError):
            ctl.on_flow_removed(FlowRemoved(entry=stray, reason=FlowRemovedReason.IDLE,
                                            removal_time_ns=9))


class TestRecordAccounting:
    """Hand-computed records, from the packet-level and the per-flow replay."""

    @pytest.fixture(params=[
        lambda trace, cfg, controller: Simulation(cfg, controller).run(trace),
        lambda trace, cfg, controller: replay_flows(trace, generate_rules(cfg), controller),
    ], ids=["packets", "flows"])
    def run(self, request):
        return request.param

    def test_ten_packet_flow_with_install_window(self, run):
        # 10 packets, 1 ms apart; install 2.5 ms after the first
        trace = [pkt(ts=i * MS, length=100) for i in range(10)]
        result = run(trace, RATE_ONE, cc(delay=2_500_000))
        (rec,) = result.records
        assert rec.packet_count == 10
        assert rec.byte_count == 1000
        assert rec.controller_packet_count == 3  # first + two in the window
        assert rec.first_seen_ns == 0
        assert rec.last_seen_ns == 9 * MS
        assert result.redundant_packets_by_protocol[Protocol.TCP] == 2

    def test_packet_at_exact_install_instant_is_not_redundant(self, run):
        trace = [pkt(ts=0), pkt(ts=1 * MS)]
        result = run(trace, RATE_ONE, cc(delay=1 * MS))
        (rec,) = result.records
        assert rec.packet_count == 2
        assert rec.controller_packet_count == 1
        assert result.redundant_packets_by_protocol[Protocol.TCP] == 0

    def test_single_packet_flow_expires_idle(self, run):
        p = pkt(proto=Protocol.UDP, length=77)
        closer = pkt(ts=40 * MS, sport=9)  # outlives the idle window
        result = run([p, closer], RATE_ONE, cc(delay=0, idle=10 * MS))
        rec = next(r for r in result.records if r.key == flow_key_of(p))
        assert rec.packet_count == 1
        assert rec.byte_count == 77
        assert rec.controller_packet_count == 1
        assert rec.first_seen_ns == rec.last_seen_ns == 0
        assert rec.expiry_reason is FlowRemovedReason.IDLE

    def test_hard_timeout_splits_a_long_flow(self, run):
        s = 1_000 * MS
        trace = [pkt(ts=i * 10 * s) for i in range(8)]  # 0..70 s, one packet per 10 s
        result = run(trace, RATE_ONE, cc(delay=0, idle=15 * s, hard=30 * s))
        recs = sorted(result.records, key=lambda r: r.first_seen_ns)
        assert len(recs) == 2
        assert recs[0].expiry_reason is FlowRemovedReason.HARD
        assert recs[0].first_seen_ns == 0
        assert recs[0].last_seen_ns == 30 * s
        assert recs[0].packet_count == 4
        assert recs[1].first_seen_ns == 40 * s
        assert recs[1].packet_count == 4
        assert recs[0].last_seen_ns < recs[1].first_seen_ns

    def test_never_installed_flow_still_gets_a_record(self, run):
        # trace ends before the install delay elapses: the entry is drained
        # unmatched, so the record is the controller's view alone
        trace = [pkt(ts=0, length=10), pkt(ts=1 * MS, length=20)]
        result = run(trace, RATE_ONE, cc(delay=500 * MS))
        (rec,) = result.records
        assert rec.expiry_reason is FlowRemovedReason.DELETE
        assert rec.packet_count == 2
        assert rec.byte_count == 30
        assert rec.controller_packet_count == 2
        assert rec.last_seen_ns == 1 * MS
        assert (result.entries_installed, result.peak_record_entries) == (0, 0)

    def test_zero_delay_means_zero_redundancy(self, run):
        trace = random_trace(150, seed=4, packets_per_flow=3)
        result = run(trace, RATE_ONE, cc(delay=0))
        assert not result.redundant_packets_by_protocol
        assert all(r.controller_packet_count == 1 for r in result.records)

    def test_per_flow_totals_match_the_trace(self, run):
        trace = random_trace(120, seed=8, packets_per_flow=5, gap_ns=2 * MS)
        result = run(trace, RATE_ONE, cc(delay=3 * MS))
        by_key = {}
        for r in result.records:
            by_key[r.key] = by_key.get(r.key, 0) + r.packet_count
        expect = {}
        for p in trace:
            expect[flow_key_of(p)] = expect.get(flow_key_of(p), 0) + 1
        assert by_key == expect

    def test_peak_occupancy_counts_live_entries_only(self, run):
        # A's entry expires at 3 ms, before B's is installed at 5 ms
        trace = [pkt(ts=0), pkt(ts=2 * MS), pkt(ts=3 * MS, sport=2), pkt(ts=10 * MS, sport=3)]
        result = run(trace, RATE_ONE, cc(delay=2 * MS, idle=1 * MS))
        assert result.entries_installed == 2
        assert result.peak_record_entries == 1
        # A's entry still matches at its expiry instant, when B's is installed;
        # C's is installed at the last instant, after both have gone
        trace = [pkt(ts=0), pkt(ts=1 * MS, sport=2), pkt(ts=5 * MS, sport=3)]
        result = run(trace, RATE_ONE, cc(delay=0, idle=1 * MS))
        assert result.entries_installed == 3
        assert result.peak_record_entries == 2

    def test_install_due_at_the_last_packet_applies_before_the_drain(self, run):
        # the first entry idles out at 10 ms; the packet at 20 ms asks for a
        # second one, due at 20 ms, which is installed and drained unmatched,
        # so its record is the controller's view alone
        trace = [pkt(ts=0, length=60), pkt(ts=20 * MS, length=40)]
        result = run(trace, RATE_ONE, cc(delay=0, idle=10 * MS))
        first, last = sorted(result.records, key=lambda r: r.first_seen_ns)
        assert first.expiry_reason is FlowRemovedReason.IDLE
        assert (first.packet_count, first.controller_packet_count) == (1, 1)
        assert last.expiry_reason is FlowRemovedReason.DELETE
        assert (last.first_seen_ns, last.byte_count, last.controller_packet_count) == (
            20 * MS, 40, 1)
        assert result.entries_installed == 2

    def test_flows_opening_together_at_the_last_instant_all_install(self, run):
        # B and C open at the last instant: both installs are due by it, the
        # one C's packet requests as much as the one B's packet does
        trace = [pkt(ts=0), pkt(ts=10, sport=2), pkt(ts=10, sport=3)]
        result = run(trace, RATE_ONE, cc(delay=0))
        assert result.entries_installed == 3
        assert result.peak_record_entries == 3
        assert sorted((r.key.src_port, r.packet_count, r.controller_packet_count, r.expiry_reason)
                      for r in result.records) == [
            (sport, 1, 1, FlowRemovedReason.DELETE) for sport in (2, 3, 1234)]

    def test_per_flow_replay_rejects_a_trace_out_of_time_order(self):
        with pytest.raises(ValueError, match="behind"):
            replay_flows([pkt(ts=5), pkt(ts=4, sport=2)], generate_rules(RATE_ONE), cc())


class TestExport:
    def records(self):
        trace = random_trace(25, seed=14, packets_per_flow=2)
        return Simulation(RATE_ONE, cc()).run(trace).records

    def test_jsonl_round_trip(self):
        records = self.records()
        sink = io.StringIO()
        n = export_records(records, sink, fmt="jsonl")
        lines = sink.getvalue().splitlines()
        assert n == len(records) == len(lines)
        rows = [json.loads(line) for line in lines]
        assert all(set(row) == set(EXPORT_FIELDS) for row in rows)
        keys = [(row["first_seen_ns"], row["src_ip"]) for row in rows]
        assert keys == sorted(keys)

    def test_csv_matches_jsonl_content(self):
        records = self.records()
        jsink, csink = io.StringIO(), io.StringIO()
        export_records(records, jsink, fmt="jsonl")
        export_records(records, csink, fmt="csv")
        csv_lines = csink.getvalue().splitlines()
        assert csv_lines[0] == ",".join(EXPORT_FIELDS)
        assert len(csv_lines) == len(records) + 1
        first_json = json.loads(jsink.getvalue().splitlines()[0])
        first_csv = csv_lines[1].split(",")
        assert first_csv[EXPORT_FIELDS.index("src_ip")] == first_json["src_ip"]
        assert first_csv[EXPORT_FIELDS.index("packets")] == str(first_json["packets"])

    def test_dict_form_uses_dotted_quads_and_wire_reasons(self):
        rec = self.records()[0]
        row = record_to_dict(rec)
        assert row["src_ip"] == format_ip(rec.key.src_ip)
        assert row["protocol"] == rec.key.protocol.name
        assert row["expiry"] in {"idle", "hard", "eot"}

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError):
            export_records([], io.StringIO(), fmt="parquet")


def edged(low, high):
    """Integers in [low, high], with both ends drawn often."""
    return st.one_of(st.sampled_from([low, high]), st.integers(low, high))


NS_MAX = 2**63 - 1
ADDRESS_MAX = 2**32 - 1
edge_records = st.builds(
    FlowRecord,
    st.builds(FlowKey, edged(0, ADDRESS_MAX), edged(0, ADDRESS_MAX), edged(0, 65535),
              edged(0, 65535), st.sampled_from(list(Protocol))),
    edged(0, NS_MAX), edged(0, NS_MAX), edged(0, NS_MAX), edged(0, NS_MAX), edged(0, NS_MAX),
    st.sampled_from(list(FlowRemovedReason)),
)
LOWEST = FlowRecord(FlowKey(0, 0, 0, 0, Protocol.TCP), 0, 0, 0, 0, 0, FlowRemovedReason.IDLE)
HIGHEST = FlowRecord(FlowKey(ADDRESS_MAX, ADDRESS_MAX, 65535, 65535, Protocol.UDP),
                     NS_MAX, NS_MAX, NS_MAX, NS_MAX, NS_MAX, FlowRemovedReason.DELETE)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(edge_records, max_size=8))
@example(records=[HIGHEST, LOWEST, LOWEST._replace(expiry_reason=FlowRemovedReason.HARD)])
def test_jsonl_line_is_the_json_dumps_line(records):
    sink = io.StringIO()
    assert export_records(records, sink, fmt="jsonl") == len(records)
    ordered = sorted(records, key=lambda r: (r.first_seen_ns, r.key))
    assert sink.getvalue() == "".join(
        json.dumps(record_to_dict(r), separators=(",", ":")) + "\n" for r in ordered
    )


@settings(max_examples=200, deadline=None)
@given(records=st.lists(edge_records, max_size=8))
@example(records=[])
@example(records=[HIGHEST, LOWEST, LOWEST._replace(expiry_reason=FlowRemovedReason.HARD)])
def test_csv_file_is_the_dict_writer_file(records):
    sink, expected = io.StringIO(), io.StringIO()
    assert export_records(records, sink, fmt="csv") == len(records)
    writer = csv.DictWriter(expected, fieldnames=EXPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for record in sorted(records, key=lambda r: (r.first_seen_ns, r.key)):
        writer.writerow(record_to_dict(record))
    assert sink.getvalue() == expected.getvalue()
