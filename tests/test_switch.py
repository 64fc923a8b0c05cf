"""Table-0 behavior: matching, priorities, counters, timeouts, groups, flush."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofmon.model import FlowKey, Protocol, flow_key_of
from ofmon.switch import (
    DEFAULT_PRIORITY,
    FLOW_RECORD_PRIORITY,
    FORWARD_TABLE,
    MONITORING_TABLE,
    SAMPLING_PRIORITY,
    Bucket,
    Drop,
    FlowEntry,
    FlowRemoved,
    FlowRemovedReason,
    GotoTable,
    Group,
    GroupEntry,
    GroupError,
    MatchFields,
    OutputToController,
    PacketIn,
    Switch,
    SwitchError,
    TableStateError,
)

from helpers import pkt

GOTO = (GotoTable(),)


def entry(match=None, priority=DEFAULT_PRIORITY, actions=GOTO, **kw):
    return FlowEntry(match=match or MatchFields(), priority=priority, actions=actions, **kw)


def random_entry(rng, keys):
    """A table-0 entry over a small field space, so entries overlap often."""
    kind = rng.random()
    if kind < 0.25:
        match = MatchFields.exact(rng.choice(keys))
    else:
        fields = {}
        if rng.random() < 0.5:
            fields["protocol"] = rng.choice([Protocol.TCP, Protocol.UDP])
        if kind < 0.5:
            fields["src_port_in"] = frozenset(rng.sample(range(1, 9), rng.randint(1, 4)))
            if rng.random() < 0.5:
                fields["dst_port_in"] = frozenset(rng.sample(range(1, 9), rng.randint(1, 4)))
        else:
            if rng.random() < 0.4:
                fields["src_port"] = rng.randint(1, 8)
            if rng.random() < 0.4:
                fields["dst_port"] = rng.randint(1, 8)
            if rng.random() < 0.3:
                fields["src_ip"] = rng.randint(0, 3)
                fields["src_ip_mask"] = 0x3
        match = MatchFields(**fields)
    return entry(match, priority=rng.randint(0, 5))


def switch_with_default():
    sw = Switch()
    sw.install_flow_entry(entry(), install_time_ns=0)
    return sw


class TestMatching:
    def test_empty_match_is_a_wildcard(self):
        m = MatchFields()
        assert m.matches(pkt().key)
        assert m.matches(pkt(src="255.255.255.255", sport=65535, proto=Protocol.UDP).key)

    def test_exact_match_covers_only_its_own_key(self):
        p = pkt(sport=4242, dport=53, proto=Protocol.UDP)
        m = MatchFields.exact(flow_key_of(p))
        assert m.matches(p.key)
        assert not m.matches(pkt(sport=4243, dport=53, proto=Protocol.UDP).key)
        assert not m.matches(pkt(sport=4242, dport=53, proto=Protocol.TCP).key)

    def test_suffix_mask_ignores_high_bits(self):
        # low byte must equal 0x2a, the rest is free
        m = MatchFields(src_ip=0x2A, src_ip_mask=0xFF)
        assert m.matches(pkt(src=0x1234562A).key)
        assert m.matches(pkt(src=0x0000002A).key)
        assert not m.matches(pkt(src=0x1234562B).key)

    def test_port_set_membership(self):
        m = MatchFields(src_port_in=frozenset({80, 443}), protocol=Protocol.TCP)
        assert m.matches(pkt(sport=80).key)
        assert m.matches(pkt(sport=443).key)
        assert not m.matches(pkt(sport=8080).key)
        assert not m.matches(pkt(sport=80, proto=Protocol.UDP).key)

    @given(
        ip=st.integers(0, 2**32 - 1),
        value=st.integers(0, 2**32 - 1),
        mask=st.integers(0, 2**32 - 1),
    )
    def test_mask_matching_equals_bitwise_formula(self, ip, value, mask):
        m = MatchFields(src_ip=value, src_ip_mask=mask)
        assert m.matches(pkt(src=ip).key) == ((ip & mask) == (value & mask))


class TestPriorityOrder:
    def test_higher_priority_wins(self):
        sw = switch_with_default()
        p = pkt()
        broad = entry(MatchFields(protocol=Protocol.TCP), priority=50)
        narrow = entry(MatchFields.exact(flow_key_of(p)), priority=100)
        broad_id = sw.install_flow_entry(broad, install_time_ns=0)
        narrow_id = sw.install_flow_entry(narrow, install_time_ns=0)
        sw.process_packet(p)
        assert sw.get_entry(narrow_id).packet_count == 1
        assert sw.get_entry(broad_id).packet_count == 0

    def test_equal_priority_earlier_install_wins(self):
        sw = switch_with_default()
        p = pkt(ts=10)
        a = sw.install_flow_entry(entry(MatchFields(protocol=Protocol.TCP), priority=10),
                                  install_time_ns=0)
        b = sw.install_flow_entry(entry(MatchFields(src_port=p.key.src_port), priority=10),
                                  install_time_ns=5)
        sw.process_packet(p)
        assert sw.get_entry(a).packet_count == 1
        assert sw.get_entry(b).packet_count == 0

    def test_entry_not_yet_installed_cannot_match(self):
        sw = switch_with_default()
        late = sw.install_flow_entry(
            entry(MatchFields(protocol=Protocol.TCP), priority=10), install_time_ns=100
        )
        sw.process_packet(pkt(ts=50))
        assert sw.get_entry(late).packet_count == 0
        sw.process_packet(pkt(ts=100))  # boundary: active at its install instant
        assert sw.get_entry(late).packet_count == 1

    def test_lookup_agrees_with_brute_force(self):
        # random overlapping entries vs a naive max() oracle: exact and
        # wildcard entries at tied priorities, port sets, installs between
        # packets and installs that are not active yet
        for seed in range(40):
            rng = random.Random(seed)
            keys = [
                FlowKey(rng.randint(0, 7), rng.randint(1, 2), rng.randint(1, 8),
                        rng.randint(1, 8), rng.choice([Protocol.TCP, Protocol.UDP]))
                for _ in range(12)
            ]
            sw = Switch()
            installed = []
            if rng.random() < 0.5:  # else some packets match nothing
                installed.append(sw.install_flow_entry(entry(), install_time_ns=0))
            for i in range(rng.randint(0, 40)):
                installed.append(sw.install_flow_entry(random_entry(rng, keys),
                                                       install_time_ns=i % 3))
            for ts in range(10, 410, 2):
                if rng.random() < 0.3:
                    installed.append(sw.install_flow_entry(
                        random_entry(rng, keys), install_time_ns=ts + rng.randint(-1, 2)))
                k = rng.choice(keys)
                p = pkt(ts=ts, src=k.src_ip, dst=k.dst_ip, sport=k.src_port,
                        dport=k.dst_port, proto=k.protocol)
                # duplicate (match, priority) draws replaced their predecessors
                live = [e for e in map(sw.get_entry, installed) if e is not None]
                before = {e.entry_id: e.packet_count for e in live}
                winner = max(
                    (e for e in live if e.install_time_ns <= ts and e.match.matches(p.key)),
                    key=lambda e: (e.priority, -e.install_time_ns, -e.entry_id),
                    default=None,
                )
                if winner is None:
                    with pytest.raises(TableStateError):
                        sw.process_packet(p)
                else:
                    sw.process_packet(p)
                for e in live:
                    hit = winner is not None and e.entry_id == winner.entry_id
                    assert e.packet_count == before[e.entry_id] + hit


class TestCounters:
    def test_counters_accumulate_packets_and_bytes(self):
        sw = switch_with_default()
        p = pkt()
        eid = sw.install_flow_entry(entry(MatchFields.exact(flow_key_of(p)), priority=100),
                                    install_time_ns=0)
        for ts, length in ((10, 100), (20, 200), (30, 300)):
            sw.process_packet(pkt(ts=ts, length=length))
        got = sw.get_entry(eid)
        assert got.packet_count == 3
        assert got.byte_count == 600
        assert got.last_match_time_ns == 30

    def test_reinstall_same_match_and_priority_replaces_and_resets(self):
        sw = switch_with_default()
        match = MatchFields(protocol=Protocol.TCP)
        first = sw.install_flow_entry(entry(match, priority=10), install_time_ns=0)
        sw.process_packet(pkt(ts=1))
        assert sw.get_entry(first).packet_count == 1
        second = sw.install_flow_entry(entry(match, priority=10), install_time_ns=2)
        assert sw.get_entry(first) is None
        assert sw.get_entry(second).packet_count == 0
        assert sw.active_entry_count(priority=10) == 1

    def test_install_returns_fresh_ids_and_copies_the_template(self):
        sw = Switch()
        template = entry(MatchFields(protocol=Protocol.TCP), priority=10,
                         packet_count=99, byte_count=999)
        eid = sw.install_flow_entry(template, install_time_ns=3)
        installed = sw.get_entry(eid)
        assert installed is not template
        assert installed.packet_count == 0
        assert installed.byte_count == 0
        assert installed.install_time_ns == 3
        assert template.packet_count == 99  # caller's object untouched


class TestTimeouts:
    def idle_entry(self, sw, p, idle_ns, install=0, **kw):
        e = entry(MatchFields.exact(flow_key_of(p)), priority=FLOW_RECORD_PRIORITY,
                  idle_timeout_ns=idle_ns, send_flow_removed=True, **kw)
        return sw.install_flow_entry(e, install_time_ns=install)

    def test_idle_expiry_fires_at_exact_instant(self):
        sw = switch_with_default()
        p = pkt(ts=0)
        self.idle_entry(sw, p, idle_ns=10_000)
        sw.process_packet(p)
        events = sw.advance_clock(10_500)
        assert len(events) == 1
        assert events[0].reason is FlowRemovedReason.IDLE
        assert events[0].removal_time_ns == 10_000  # last match 0 + idle

    def test_packet_at_expiry_instant_still_matches(self):
        sw = switch_with_default()
        p = pkt(ts=0)
        eid = self.idle_entry(sw, p, idle_ns=10_000)
        sw.process_packet(p)
        out = sw.process_packet(pkt(ts=10_000))
        assert out == []
        assert sw.get_entry(eid).packet_count == 2

    def test_packet_after_expiry_sees_eviction_first(self):
        sw = switch_with_default()
        p = pkt(ts=0)
        eid = self.idle_entry(sw, p, idle_ns=10_000)
        sw.process_packet(p)
        out = sw.process_packet(pkt(ts=10_001))
        assert [type(ev) for ev in out] == [FlowRemoved]
        assert out[0].removal_time_ns == 10_000
        assert sw.get_entry(eid) is None  # late packet fell through to the default

    def test_matching_refreshes_the_idle_clock(self):
        sw = switch_with_default()
        p = pkt(ts=0)
        self.idle_entry(sw, p, idle_ns=10_000)
        sw.process_packet(p)
        sw.process_packet(pkt(ts=9_000))
        assert sw.advance_clock(15_000) == []
        events = sw.advance_clock(19_500)
        assert events[0].removal_time_ns == 19_000

    def test_hard_timeout_ignores_activity(self):
        sw = switch_with_default()
        p = pkt(ts=0)
        e = entry(MatchFields.exact(flow_key_of(p)), priority=FLOW_RECORD_PRIORITY,
                  hard_timeout_ns=60_000, send_flow_removed=True)
        sw.install_flow_entry(e, install_time_ns=0)
        for ts in range(0, 60_000, 1_000):
            sw.process_packet(pkt(ts=ts))
        events = sw.advance_clock(61_000)
        assert events[0].reason is FlowRemovedReason.HARD
        assert events[0].removal_time_ns == 60_000
        assert events[0].entry.packet_count == 60

    def test_earliest_of_both_timeouts_wins(self):
        sw = switch_with_default()
        p = pkt(ts=0)
        self.idle_entry(sw, p, idle_ns=5_000, hard_timeout_ns=60_000)
        sw.process_packet(p)
        events = sw.advance_clock(20_000)
        assert events[0].reason is FlowRemovedReason.IDLE
        assert events[0].removal_time_ns == 5_000

    def test_simultaneous_expiry_reports_hard(self):
        sw = switch_with_default()
        p = pkt(ts=0)
        self.idle_entry(sw, p, idle_ns=7_000, hard_timeout_ns=7_000)
        sw.process_packet(p)
        events = sw.advance_clock(8_000)
        assert events[0].reason is FlowRemovedReason.HARD
        assert events[0].removal_time_ns == 7_000

    def test_no_event_without_the_flag(self):
        sw = switch_with_default()
        p = pkt(ts=0)
        e = entry(MatchFields.exact(flow_key_of(p)), priority=FLOW_RECORD_PRIORITY,
                  idle_timeout_ns=1_000)
        eid = sw.install_flow_entry(e, install_time_ns=0)
        assert sw.advance_clock(5_000) == []
        assert sw.get_entry(eid) is None

    def test_evictions_come_out_time_then_id_ordered(self):
        sw = switch_with_default()
        ids = []
        for i, idle in enumerate((3_000, 1_000, 1_000, 2_000)):
            p = pkt(sport=1000 + i)
            e = entry(MatchFields.exact(flow_key_of(p)), priority=FLOW_RECORD_PRIORITY,
                      idle_timeout_ns=idle, send_flow_removed=True)
            ids.append(sw.install_flow_entry(e, install_time_ns=0))
        events = sw.advance_clock(10_000)
        got = [(ev.removal_time_ns, ev.entry.entry_id) for ev in events]
        assert got == sorted(got)
        assert [ev.entry.entry_id for ev in events] == [ids[1], ids[2], ids[3], ids[0]]

    def test_clock_cannot_run_backwards(self):
        sw = switch_with_default()
        sw.advance_clock(100)
        with pytest.raises(SwitchError):
            sw.advance_clock(99)
        sw.advance_clock(100)  # same instant is fine


class TestGroups:
    def group(self, *weights):
        return GroupEntry(
            group_id=1,
            buckets=tuple(
                Bucket(weight=w, actions=(OutputToController(),) if i == 0 else (Drop(),))
                for i, w in enumerate(weights)
            ),
        )

    def test_duplicate_group_id_is_rejected(self):
        sw = Switch()
        sw.install_group(self.group(1))
        with pytest.raises(GroupError):
            sw.install_group(self.group(1, 3))

    def test_unknown_group_reference_fails_at_packet_time(self):
        sw = Switch()
        sw.install_flow_entry(entry(actions=(Group(77), GotoTable())), install_time_ns=0)
        with pytest.raises(GroupError):
            sw.process_packet(pkt())

    def test_single_bucket_group_needs_no_selector(self):
        sw = Switch()  # no bucket_selector injected
        sw.install_group(self.group(1))
        sw.install_flow_entry(entry(actions=(Group(1), GotoTable())), install_time_ns=0)
        out = sw.process_packet(pkt())
        assert [type(ev) for ev in out] == [PacketIn]

    def test_selector_choice_decides_the_bucket(self):
        chosen = {}

        def selector(group, key):
            return chosen[key]

        sw = Switch(bucket_selector=selector)
        sw.install_group(self.group(1, 1))
        sw.install_flow_entry(entry(actions=(Group(1), GotoTable())), install_time_ns=0)
        sampled, dropped = pkt(sport=1), pkt(sport=2)
        chosen[flow_key_of(sampled)] = 0
        chosen[flow_key_of(dropped)] = 1
        assert [type(ev) for ev in sw.process_packet(sampled)] == [PacketIn]
        assert sw.process_packet(dropped) == []


class TestPipelineInvariants:
    def test_every_packet_reaches_table_1_exactly_once(self):
        sw = switch_with_default()
        sw.install_flow_entry(
            entry(MatchFields(protocol=Protocol.UDP), priority=SAMPLING_PRIORITY,
                  actions=(OutputToController(), GotoTable())),
            install_time_ns=0,
        )
        rng = random.Random(3)
        total_bytes = 0
        for ts in range(500):
            length = rng.randint(64, 1500)
            total_bytes += length
            sw.process_packet(pkt(ts=ts, sport=rng.randint(1, 65535),
                                  proto=rng.choice([Protocol.TCP, Protocol.UDP]),
                                  length=length))
        assert sw.table1_packet_count == 500
        assert sw.table1_byte_count == total_bytes
        assert sw.packets_processed == 500

    def test_packet_matching_nothing_is_an_error(self):
        sw = Switch()
        with pytest.raises(TableStateError):
            sw.process_packet(pkt())

    def test_entry_that_never_forwards_is_an_error(self):
        sw = Switch()
        sw.install_flow_entry(entry(actions=(OutputToController(),)), install_time_ns=0)
        with pytest.raises(TableStateError):
            sw.process_packet(pkt())

    def test_drop_only_entry_is_an_error(self):
        sw = Switch()
        sw.install_flow_entry(entry(actions=(Drop(),)), install_time_ns=0)
        with pytest.raises(TableStateError):
            sw.process_packet(pkt())

    def test_packet_in_carries_packet_and_table(self):
        sw = switch_with_default()
        p = pkt(ts=5)
        sw.install_flow_entry(
            entry(MatchFields.exact(flow_key_of(p)), priority=SAMPLING_PRIORITY,
                  actions=(OutputToController(), GotoTable())),
            install_time_ns=0,
        )
        out = sw.process_packet(p)
        assert out == [PacketIn(packet=p, table_id=MONITORING_TABLE)]
        assert FORWARD_TABLE == MONITORING_TABLE + 1


class TestFlush:
    def test_flush_drains_only_the_record_block(self):
        sw = switch_with_default()
        sampler = sw.install_flow_entry(
            entry(MatchFields(protocol=Protocol.TCP), priority=SAMPLING_PRIORITY,
                  actions=(OutputToController(), GotoTable())),
            install_time_ns=0,
        )
        flow_ids = []
        for i in range(3):
            p = pkt(sport=2000 + i)
            e = entry(MatchFields.exact(flow_key_of(p)), priority=FLOW_RECORD_PRIORITY,
                      send_flow_removed=True)
            flow_ids.append(sw.install_flow_entry(e, install_time_ns=0))
        events = sw.flush_all(now_ns=99)
        assert [ev.entry.entry_id for ev in events] == flow_ids
        assert all(ev.reason is FlowRemovedReason.DELETE for ev in events)
        assert all(ev.removal_time_ns == 99 for ev in events)
        assert sw.get_entry(sampler) is not None
        assert sw.active_entry_count(priority=FLOW_RECORD_PRIORITY) == 0

    def test_flush_respects_the_removal_flag(self):
        sw = Switch()
        p = pkt()
        e = entry(MatchFields.exact(flow_key_of(p)), priority=FLOW_RECORD_PRIORITY)
        sw.install_flow_entry(e, install_time_ns=0)
        assert sw.flush_all(now_ns=1) == []
        assert sw.active_entry_count(priority=FLOW_RECORD_PRIORITY) == 0


@settings(max_examples=80, deadline=None)
@given(
    idle=st.integers(0, 50),
    hard=st.integers(0, 50),
    hits=st.lists(st.integers(0, 60), min_size=1, max_size=12),
    horizon=st.integers(61, 200),
)
def test_expiry_instant_matches_brute_force(idle, hard, hits, horizon):
    """Random timeouts and hit times; eviction must equal the naive rule."""

    def expiry(last_match):
        candidates = []
        if idle:
            candidates.append((last_match + idle, FlowRemovedReason.IDLE))
        if hard:
            candidates.append((hard, FlowRemovedReason.HARD))
        # earliest instant wins; on a tie the hard timeout is reported
        return min(candidates, key=lambda c: (c[0], c[1] is not FlowRemovedReason.HARD),
                   default=None)

    last = 0
    expected = None
    for ts in sorted(hits):
        due = expiry(last)
        if due is not None and ts > due[0]:
            expected = due
            break
        last = ts
    else:
        due = expiry(last)
        if due is not None and horizon > due[0]:
            expected = due

    p = pkt()
    sw = switch_with_default()
    e = entry(MatchFields.exact(flow_key_of(p)), priority=FLOW_RECORD_PRIORITY,
              idle_timeout_ns=idle, hard_timeout_ns=hard, send_flow_removed=True)
    sw.install_flow_entry(e, install_time_ns=0)
    observed = []
    for ts in sorted(hits):
        observed += [ev for ev in sw.process_packet(pkt(ts=ts)) if isinstance(ev, FlowRemoved)]
    observed += sw.advance_clock(horizon)

    if expected is None:
        assert observed == []
        assert sw.active_entry_count(priority=FLOW_RECORD_PRIORITY) == 1
    else:
        assert len(observed) == 1
        assert observed[0].removal_time_ns == expected[0]
        assert observed[0].reason is expected[1]
