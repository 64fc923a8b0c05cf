"""Simulated OpenFlow switch pipeline.

Table 0, the monitoring table, holds three priority blocks: per-flow record
entries on top, sampling entries in the middle, a catch-all at the bottom.
Table 1, the forwarding table, stands in for the rest of the pipeline and
only counts what GotoTable hands it, so tests can assert that monitoring is
transparent: every packet is handed over exactly once.  Both are roles; no
action or event carries a table id.

Time is virtual.  The clock only moves through advance_clock, which
process_packet calls with each packet's timestamp.  Expired entries are
evicted lazily but with their exact expiry instant, so results do not depend
on how often the clock happens to advance.  `expiry_of` gives that instant,
here and in the per-flow replay.
"""

import bisect
import heapq
from dataclasses import dataclass, replace
from typing import Callable

from .model import FlowKey, FlowRemovedReason, PacketRecord, Protocol

FLOW_RECORD_PRIORITY = 3000  # block 1: per-flow record entries
SAMPLING_PRIORITY = 2000     # block 2: sampling decision entries
DEFAULT_PRIORITY = 0         # block 3: catch-all pass-through

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
    """Hand the packet to the forwarding table; ends table-0 processing."""


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

# bound once: expiry_of runs per packet, and an enum member lookup is slow
_IDLE, _HARD = FlowRemovedReason.IDLE, FlowRemovedReason.HARD


def expiry_of(
    install_ns: int, last_match_ns: int, idle_timeout_ns: int, hard_timeout_ns: int
) -> tuple[int, FlowRemovedReason] | None:
    """Last instant an entry matches, and why it goes: last match + idle, or
    install + hard when that is not later (a tie reports Hard).  A timeout of
    0 is off; None if both are."""
    hard = install_ns + hard_timeout_ns
    if hard_timeout_ns > 0 and (idle_timeout_ns <= 0 or hard <= last_match_ns + idle_timeout_ns):
        return hard, _HARD
    return (last_match_ns + idle_timeout_ns, _IDLE) if idle_timeout_ns > 0 else None


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
        self.table1_packet_count = 0
        self.table1_byte_count = 0

    # -- queries ------------------------------------------------------------

    def get_entry(self, entry_id: int) -> FlowEntry | None:
        return self._entries.get(entry_id)

    # -- table management ---------------------------------------------------

    def install_flow_entry(self, entry: FlowEntry) -> int:
        """Install a copy of `entry`, active from its install_time_ns on.

        Reinstalling an existing (match, priority) pair replaces the old entry
        and resets its counters; the replaced entry leaves silently.
        """
        old = self._by_match.get((entry.match, entry.priority))
        if old is not None:
            self._remove_entry(old)
        install_ns = entry.install_time_ns
        live = replace(
            entry,
            last_match_time_ns=install_ns,
            packet_count=0,
            byte_count=0,
            entry_id=self._next_entry_id,
        )
        self._next_entry_id += 1
        eid = live.entry_id
        self._entries[eid] = live
        self._by_match[(live.match, live.priority)] = eid
        key = live.match.exact_key()
        index = self._wildcard if key is None else self._exact.setdefault(key, [])
        bisect.insort(index, (_rank(live), live))
        expiry = expiry_of(install_ns, install_ns, live.idle_timeout_ns, live.hard_timeout_ns)
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
        if any(type(a) is GotoTable for b in group.buckets for a in b.actions):
            # the flow entry forwards; a bucket only decides the controller copy
            raise GroupError(f"group {group.group_id} has a bucket that forwards")
        self._groups[group.group_id] = group
        return group.group_id

    # -- time ---------------------------------------------------------------

    def advance_clock(self, now_ns: int) -> list[FlowRemoved]:
        """Move virtual time forward, evicting entries that expired before now.

        Every evicted entry is reported, in expiry order, dated its exact
        expiry instant from `expiry_of`, not `now_ns`.
        """
        if now_ns < self._clock_ns:
            raise SwitchError(f"clock moved backwards: {now_ns} < {self._clock_ns}")
        events = self._evict_expired(now_ns)
        self._clock_ns = now_ns
        return events

    def flush_all(self, now_ns: int) -> list[FlowRemoved]:
        """Drain every per-flow record entry (block 1), reporting each as
        FlowRemoved(DELETE) at now_ns, oldest entry first.  Sampling and
        catch-all entries are untouched.
        """
        victims = sorted(
            eid for eid, e in self._entries.items() if e.priority == FLOW_RECORD_PRIORITY
        )
        events = []
        for eid in victims:
            events.append(FlowRemoved(self._entries[eid], FlowRemovedReason.DELETE, now_ns))
            self._remove_entry(eid)
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
        events: list[SwitchEvent] = self.advance_clock(ts)

        entry = self._lookup(pkt.key, ts)
        if entry is None:
            raise TableStateError(
                f"packet at {ts}ns matched nothing in table 0: catch-all entry missing"
            )

        entry.packet_count += 1
        entry.byte_count += pkt.length_bytes
        entry.last_match_time_ns = ts

        for act in entry.actions:
            cls = type(act)
            if cls is GotoTable:
                self.table1_packet_count += 1
                self.table1_byte_count += pkt.length_bytes
                return events  # goto ends table-0 processing
            if cls is OutputToController:
                events.append(PacketIn(pkt))
            elif cls is Group:
                self._run_group(act.group_id, pkt, events)
            # Drop: nothing to do
        raise TableStateError(f"packet at {ts}ns never reached the forwarding table")

    # -- internals ------------------------------------------------------------

    def _run_group(self, group_id: int, pkt: PacketRecord, events: list) -> None:
        group = self._groups.get(group_id)
        if group is None:
            raise GroupError(f"entry references unknown group {group_id}")
        if len(group.buckets) == 1:
            bucket = group.buckets[0]
        else:
            if self._selector is None:
                raise GroupError("multi-bucket group used without a bucket selector")
            bucket = group.buckets[self._selector(group, pkt.key)]
        for act in bucket.actions:
            if type(act) is OutputToController:
                events.append(PacketIn(pkt))

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
        dead: list[FlowRemoved] = []
        while heap and heap[0][0] < now_ns:
            _, eid = heapq.heappop(heap)
            e = self._entries.get(eid)
            if e is None:
                continue  # removed or replaced since scheduling
            # only timed entries are scheduled
            instant, reason = expiry_of(
                e.install_time_ns, e.last_match_time_ns, e.idle_timeout_ns, e.hard_timeout_ns
            )
            if instant < now_ns:
                self._remove_entry(eid)
                dead.append(FlowRemoved(e, reason, instant))
            else:
                heapq.heappush(heap, (instant, eid))  # matched since; rescheduled
        dead.sort(key=lambda event: (event.removal_time_ns, event.entry.entry_id))
        return dead
