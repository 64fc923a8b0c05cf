"""Simulated OpenFlow switch pipeline.

Table 0 holds the monitoring logic in three priority blocks: per-flow record
entries on top, sampling entries in the middle, a catch-all at the bottom.
Table 1 stands in for the forwarding pipeline and exists so tests can assert
that monitoring is transparent: every packet is handed over exactly once.

Time is virtual.  The clock only moves through process_packet/advance_clock,
and expired entries are evicted lazily but with their exact expiry instant,
so results do not depend on how often the clock happens to advance.
"""

import bisect
import enum
import heapq
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

from .model import FlowKey, PacketRecord, Protocol

FLOW_RECORD_PRIORITY = 3000  # block 1: per-flow record entries
SAMPLING_PRIORITY = 2000     # block 2: sampling decision entries
DEFAULT_PRIORITY = 0         # block 3: catch-all pass-through

MONITORING_TABLE = 0
FORWARD_TABLE = 1

_FULL_MASK = 0xFFFFFFFF


class SwitchError(Exception):
    """Misuse of the switch API or corrupted table state."""


class TableStateError(SwitchError):
    """Table 0 failed to handle a packet the expected way."""


class GroupError(SwitchError):
    """Bad group install or a dangling group reference."""


@dataclass(frozen=True, slots=True)
class MatchFields:
    """Table-0 match: absent fields are wildcards.

    IP fields compare under their mask: (packet & mask) == (value & mask).
    Ports and protocol are exact.  The *_port_in sets express membership in a
    port list as one composite predicate; a hardware table would expand them
    to one entry per port, which RuleSet accounts for separately.
    """

    src_ip: int | None = None
    src_ip_mask: int = _FULL_MASK
    dst_ip: int | None = None
    dst_ip_mask: int = _FULL_MASK
    src_port: int | None = None
    dst_port: int | None = None
    src_port_in: frozenset[int] | None = None
    dst_port_in: frozenset[int] | None = None
    protocol: Protocol | None = None

    @classmethod
    def exact(cls, key: FlowKey) -> "MatchFields":
        return cls(
            src_ip=key.src_ip,
            dst_ip=key.dst_ip,
            src_port=key.src_port,
            dst_port=key.dst_port,
            protocol=key.protocol,
        )

    def exact_key(self) -> FlowKey | None:
        """The 5-tuple this match covers alone, or None if it is a wildcard."""
        if (
            self.src_ip is None
            or self.dst_ip is None
            or self.src_ip_mask != _FULL_MASK
            or self.dst_ip_mask != _FULL_MASK
            or self.src_port is None
            or self.dst_port is None
            or self.protocol is None
            or self.src_port_in is not None
            or self.dst_port_in is not None
        ):
            return None
        return FlowKey(self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol)

    def matches(self, key: FlowKey) -> bool:
        """Whether the packets of a flow hit this match."""
        if self.src_ip is not None and (key.src_ip & self.src_ip_mask) != (
            self.src_ip & self.src_ip_mask
        ):
            return False
        if self.dst_ip is not None and (key.dst_ip & self.dst_ip_mask) != (
            self.dst_ip & self.dst_ip_mask
        ):
            return False
        if self.src_port is not None and key.src_port != self.src_port:
            return False
        if self.dst_port is not None and key.dst_port != self.dst_port:
            return False
        if self.src_port_in is not None and key.src_port not in self.src_port_in:
            return False
        if self.dst_port_in is not None and key.dst_port not in self.dst_port_in:
            return False
        if self.protocol is not None and key.protocol != self.protocol:
            return False
        return True


@dataclass(frozen=True, slots=True)
class GotoTable:
    table_id: int = FORWARD_TABLE


@dataclass(frozen=True, slots=True)
class OutputToController:
    pass


@dataclass(frozen=True, slots=True)
class Group:
    group_id: int


@dataclass(frozen=True, slots=True)
class Drop:
    pass


Action = GotoTable | OutputToController | Group | Drop


@dataclass(slots=True)
class FlowEntry:
    """One table-0 entry.  A timeout of 0 means that timeout is disabled."""

    match: MatchFields
    priority: int
    actions: tuple[Action, ...]
    idle_timeout_ns: int = 0
    hard_timeout_ns: int = 0
    send_flow_removed: bool = False
    install_time_ns: int = 0
    last_match_time_ns: int = 0
    packet_count: int = 0
    byte_count: int = 0
    entry_id: int = -1


@dataclass(frozen=True, slots=True)
class Bucket:
    weight: int
    actions: tuple[Action, ...]


@dataclass(frozen=True, slots=True)
class GroupEntry:
    group_id: int
    buckets: tuple[Bucket, ...]


@dataclass(frozen=True, slots=True)
class PacketIn:
    packet: PacketRecord
    table_id: int


class FlowRemovedReason(enum.Enum):
    IDLE = "idle"
    HARD = "hard"
    DELETE = "delete"  # explicit removal, e.g. the end-of-trace drain


@dataclass(frozen=True, slots=True)
class FlowRemoved:
    """Entry eviction notice; entry is the retired object with final counters."""

    entry: FlowEntry
    reason: FlowRemovedReason
    removal_time_ns: int


SwitchEvent = PacketIn | FlowRemoved

# (group, key) -> bucket index; the select algorithm is pluggable because it
# sits outside the wire protocol.  See sampling.select_bucket.
BucketSelector = Callable[[GroupEntry, FlowKey], int]


def _expiry_of(entry: FlowEntry) -> tuple[int, FlowRemovedReason] | None:
    """Exact instant the entry stops matching, and why.  None if untimed."""
    idle = entry.last_match_time_ns + entry.idle_timeout_ns if entry.idle_timeout_ns > 0 else None
    hard = entry.install_time_ns + entry.hard_timeout_ns if entry.hard_timeout_ns > 0 else None
    if idle is None and hard is None:
        return None
    if hard is not None and (idle is None or hard <= idle):  # tie goes to Hard
        return hard, FlowRemovedReason.HARD
    return idle, FlowRemovedReason.IDLE


def _rank(entry: FlowEntry) -> tuple[int, int, int]:
    """Lookup order, best first: priority, then earlier install, then older id."""
    return -entry.priority, entry.install_time_ns, entry.entry_id


_Ranked = tuple[tuple[int, int, int], FlowEntry]  # (_rank(entry), entry)


class Switch:
    """Two-table pipeline with select groups and timeout-driven eviction."""

    def __init__(self, bucket_selector: BucketSelector | None = None):
        self._selector = bucket_selector
        self._entries: dict[int, FlowEntry] = {}
        self._by_match: dict[tuple[MatchFields, int], int] = {}
        # Match indexes, both best-first by _rank; a packet takes the first
        # active entry of their merge, which is what a linear scan would pick.
        self._exact: dict[FlowKey, list[_Ranked]] = {}
        self._wildcard: list[_Ranked] = []
        self._groups: dict[int, GroupEntry] = {}
        self._expiry_heap: list[tuple[int, int]] = []
        self._clock_ns = 0
        self._next_entry_id = 1
        self._priority_counts: Counter[int] = Counter()
        self.packets_processed = 0
        self.table1_packet_count = 0
        self.table1_byte_count = 0

    # -- queries ------------------------------------------------------------

    def active_entry_count(self, priority: int) -> int:
        return self._priority_counts[priority]

    def get_entry(self, entry_id: int) -> FlowEntry | None:
        return self._entries.get(entry_id)

    # -- table management ---------------------------------------------------

    def install_flow_entry(self, entry: FlowEntry, install_time_ns: int) -> int:
        """Install a copy of `entry` active from install_time_ns on.

        Reinstalling an existing (match, priority) pair replaces the old entry
        and resets its counters; the replaced entry leaves silently.
        """
        old = self._by_match.get((entry.match, entry.priority))
        if old is not None:
            self._remove_entry(old)
        live = replace(
            entry,
            install_time_ns=install_time_ns,
            last_match_time_ns=install_time_ns,
            packet_count=0,
            byte_count=0,
            entry_id=self._next_entry_id,
        )
        self._next_entry_id += 1
        eid = live.entry_id
        self._entries[eid] = live
        self._by_match[(live.match, live.priority)] = eid
        self._priority_counts[live.priority] += 1
        key = live.match.exact_key()
        index = self._wildcard if key is None else self._exact.setdefault(key, [])
        bisect.insort(index, (_rank(live), live))
        expiry = _expiry_of(live)
        if expiry is not None:
            heapq.heappush(self._expiry_heap, (expiry[0], eid))
        return eid

    def install_group(self, group: GroupEntry) -> int:
        if group.group_id in self._groups:
            raise GroupError(f"group {group.group_id} already installed")
        if not group.buckets:
            raise GroupError(f"group {group.group_id} has no buckets")
        if any(b.weight <= 0 for b in group.buckets):
            raise GroupError(f"group {group.group_id} has a non-positive bucket weight")
        self._groups[group.group_id] = group
        return group.group_id

    # -- time ---------------------------------------------------------------

    def advance_clock(self, now_ns: int) -> list[FlowRemoved]:
        """Move virtual time forward, evicting entries that expired before now.

        Eviction uses the exact expiry instant (last match + idle, or install
        + hard, whichever comes first; ties report Hard), not `now_ns`.
        Entries without send_flow_removed leave silently.
        """
        if now_ns < self._clock_ns:
            raise SwitchError(
                f"clock moved backwards: {now_ns} < {self._clock_ns}"
            )
        events = self._evict_expired(now_ns)
        self._clock_ns = now_ns
        return events

    def flush_all(self, now_ns: int) -> list[FlowRemoved]:
        """Drain every per-flow record entry (block 1).

        Emits FlowRemoved(DELETE) for entries that asked for notification.
        Sampling and catch-all entries are untouched.
        """
        victims = sorted(
            eid for eid, e in self._entries.items() if e.priority == FLOW_RECORD_PRIORITY
        )
        events = []
        for eid in victims:
            entry = self._entries[eid]
            self._remove_entry(eid)
            if entry.send_flow_removed:
                events.append(
                    FlowRemoved(entry=entry, reason=FlowRemovedReason.DELETE, removal_time_ns=now_ns)
                )
        return events

    # -- packet path ----------------------------------------------------------

    def process_packet(self, pkt: PacketRecord) -> list[SwitchEvent]:
        """Run one packet through table 0.

        Returns eviction events due before the packet, then any PacketIn it
        produced.  The packet must match some entry (the deployment always
        installs a catch-all) and must be forwarded to table 1 exactly once;
        anything else means the table state is corrupt and raises.
        """
        ts = pkt.timestamp_ns
        if ts < self._clock_ns:
            raise SwitchError(f"packet timestamp {ts} behind switch clock {self._clock_ns}")
        events: list[SwitchEvent] = self._evict_expired(ts)
        self._clock_ns = ts

        entry = self._lookup(pkt.key, ts)
        if entry is None:
            raise TableStateError(
                f"packet at {ts}ns matched nothing in table 0: catch-all entry missing"
            )

        entry.packet_count += 1
        entry.byte_count += pkt.length_bytes
        entry.last_match_time_ns = ts
        self.packets_processed += 1

        forwarded = 0
        for act in entry.actions:
            cls = type(act)
            if cls is GotoTable:
                self.table1_packet_count += 1
                self.table1_byte_count += pkt.length_bytes
                forwarded += 1
                break  # goto ends table-0 processing
            if cls is OutputToController:
                events.append(PacketIn(packet=pkt, table_id=MONITORING_TABLE))
            elif cls is Group:
                forwarded += self._run_group(act.group_id, pkt, events)
            # Drop: nothing to do
        if forwarded != 1:
            raise TableStateError(
                f"packet at {ts}ns reached the forwarding table {forwarded} times, expected exactly 1"
            )
        return events

    # -- internals ------------------------------------------------------------

    def _run_group(self, group_id: int, pkt: PacketRecord, events: list) -> int:
        group = self._groups.get(group_id)
        if group is None:
            raise GroupError(f"entry references unknown group {group_id}")
        if len(group.buckets) == 1:
            bucket = group.buckets[0]
        else:
            if self._selector is None:
                raise GroupError("multi-bucket group used without a bucket selector")
            bucket = group.buckets[self._selector(group, pkt.key)]
        forwarded = 0
        for act in bucket.actions:
            cls = type(act)
            if cls is OutputToController:
                events.append(PacketIn(packet=pkt, table_id=MONITORING_TABLE))
            elif cls is GotoTable:
                self.table1_packet_count += 1
                self.table1_byte_count += pkt.length_bytes
                forwarded += 1
        return forwarded

    def _lookup(self, key: FlowKey, ts: int) -> FlowEntry | None:
        """First entry active at ts that matches the flow, in _rank order."""
        best = None
        best_rank = None
        for rank, e in self._exact.get(key, ()):  # match holds by key equality
            if e.install_time_ns <= ts:
                best, best_rank = e, rank
                break
        for rank, e in self._wildcard:
            if best_rank is not None and rank > best_rank:
                break
            if e.install_time_ns <= ts and e.match.matches(key):
                return e
        return best

    def _remove_entry(self, eid: int) -> None:
        e = self._entries.pop(eid)
        del self._by_match[(e.match, e.priority)]
        self._priority_counts[e.priority] -= 1
        key = e.match.exact_key()
        if key is None:
            self._wildcard.remove((_rank(e), e))
            return
        lst = self._exact[key]
        lst.remove((_rank(e), e))
        if not lst:
            del self._exact[key]

    def _evict_expired(self, now_ns: int) -> list[FlowRemoved]:
        heap = self._expiry_heap
        if not heap or heap[0][0] >= now_ns:  # expiry instant itself still matches
            return []
        dead: list[tuple[int, int, FlowEntry, FlowRemovedReason]] = []
        while heap and heap[0][0] < now_ns:
            _, eid = heapq.heappop(heap)
            entry = self._entries.get(eid)
            if entry is None:
                continue  # removed or replaced since scheduling
            expiry = _expiry_of(entry)
            if expiry is None:
                continue
            instant, reason = expiry
            if instant < now_ns:
                self._remove_entry(eid)
                dead.append((instant, eid, entry, reason))
            else:
                heapq.heappush(heap, (instant, eid))  # matched since; rescheduled
        dead.sort(key=lambda item: (item[0], item[1]))
        return [
            FlowRemoved(entry=entry, reason=reason, removal_time_ns=instant)
            for instant, _, entry, reason in dead
            if entry.send_flow_removed
        ]
