"""Reactive monitoring controller.

First packet of a sampled flow arrives as a PacketIn; the controller answers
with an exact-match record entry, dated the instant it becomes active: the
PacketIn's timestamp plus the configured install delay.  Every further
PacketIn before that instant is redundant load and gets counted as such; one
at or after it means the switch and controller disagree.  The controller
keeps one view per open flow, the packets it saw directly, from the first
PacketIn until the switch removes the entry: evicted on a timeout, or drained
at the end of the trace, installed or not.  That FlowRemoved is the one way a
record closes: the view and the entry counters merge into one flow record.
`merge_record` is that merge's one rule; the per-flow replay applies it too.
"""

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .model import FlowKey, FlowRecord, FlowRemovedReason, Protocol, format_ip
from .switch import FLOW_RECORD_PRIORITY, FlowEntry, FlowRemoved, GotoTable, MatchFields, PacketIn

DEFAULT_IDLE_TIMEOUT_NS = 15_000_000_000
EXPORT_FIELDS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
    "first_seen_ns",
    "last_seen_ns",
    "packets",
    "bytes",
    "controller_packets",
    "expiry",
)

_PROTOCOL_NAMES = {protocol: protocol.name for protocol in Protocol}
# a record's "expiry" field; an entry drained at the end of the trace is "eot"
_WIRE_REASONS = {
    FlowRemovedReason.IDLE: "idle",
    FlowRemovedReason.HARD: "hard",
    FlowRemovedReason.DELETE: "eot",
}
_EXPORT_ORDER = itemgetter(1, 0)  # (first_seen_ns, key)


class ControllerStateError(Exception):
    """The switch and controller views of the flow table diverged."""


@dataclass(frozen=True)
class ControllerConfig:
    """Record-entry parameters.  Timeout 0 disables that timeout."""

    install_delay_ns: int = 0
    idle_timeout_ns: int = DEFAULT_IDLE_TIMEOUT_NS
    hard_timeout_ns: int = 0

    def __post_init__(self) -> None:
        if self.install_delay_ns < 0:
            raise ValueError("install delay cannot be negative")
        if self.idle_timeout_ns <= 0:
            raise ValueError("idle timeout must be positive")
        if self.hard_timeout_ns < 0:
            raise ValueError("hard timeout cannot be negative")
        if self.hard_timeout_ns and self.hard_timeout_ns < self.idle_timeout_ns:
            raise ValueError("hard timeout cannot undercut the idle timeout")


@dataclass(slots=True)
class FlowView:
    """The packets of one flow that reached the controller, and when."""

    first_seen_ns: int
    last_seen_ns: int
    packets: int
    bytes: int


def merge_record(
    key: FlowKey, view: FlowView, entry_packets: int, entry_bytes: int, last_match_ns: int,
    reason: FlowRemovedReason,
) -> FlowRecord:
    """A flow's record: the controller's view plus its entry's counters.  The
    flow was last seen at the entry's last match, if the entry matched."""
    return FlowRecord(
        key,
        view.first_seen_ns,
        last_match_ns if entry_packets else view.last_seen_ns,
        entry_packets + view.packets,
        entry_bytes + view.bytes,
        view.packets,
        reason,
    )


class MonitoringController:
    """Builds per-flow records out of PacketIn and FlowRemoved streams."""

    def __init__(self, config: ControllerConfig):
        self.config = config
        self.records: list[FlowRecord] = []
        # open flows: the controller's view, and its record entry's install instant
        self._open: dict[FlowKey, tuple[FlowView, int]] = {}
        # aggregate redundant load per transport protocol, for overhead curves
        self.redundant_packets_by_protocol: Counter[Protocol] = Counter()
        self.redundant_bytes_by_protocol: Counter[Protocol] = Counter()

    def on_packet_in(self, event: PacketIn) -> FlowEntry | None:
        """Handle a controller copy of a packet.

        First sighting of a flow returns its record entry, dated the instant
        it becomes active: install_time_ns is the PacketIn's timestamp plus
        the install delay.  Repeats before then return None and only bump the
        redundancy counters.  A PacketIn at or after the flow's install
        instant means events were fed out of order.
        """
        pkt = event.packet
        key = pkt.key
        ts = pkt.timestamp_ns
        opened = self._open.get(key)
        if opened is not None:
            view, install_ns = opened
            if ts >= install_ns:
                raise ControllerStateError(
                    f"packet-in for flow {key} at {ts}ns, when its record entry is active"
                    f" since {install_ns}ns"
                )
            view.packets += 1
            view.bytes += pkt.length_bytes
            view.last_seen_ns = ts
            self.redundant_packets_by_protocol[key.protocol] += 1
            self.redundant_bytes_by_protocol[key.protocol] += pkt.length_bytes
            return None
        install_ns = ts + self.config.install_delay_ns
        self._open[key] = FlowView(ts, ts, 1, pkt.length_bytes), install_ns
        return FlowEntry(
            match=MatchFields.exact(key),
            priority=FLOW_RECORD_PRIORITY,
            actions=(GotoTable(),),
            idle_timeout_ns=self.config.idle_timeout_ns,
            hard_timeout_ns=self.config.hard_timeout_ns,
            install_time_ns=install_ns,
        )

    def on_flow_removed(self, event: FlowRemoved) -> FlowRecord:
        """Close the record for a removed entry, merging both counter views.

        An entry drained before its install instant never matched, so its
        record is the controller's view alone.
        """
        key = event.entry.match.exact_key()
        if key is None:
            raise ControllerStateError(
                f"record entry match is not an exact 5-tuple: {event.entry.match}"
            )
        opened = self._open.pop(key, None)
        if opened is None:
            raise ControllerStateError(f"flow-removed for flow {key} this controller does not own")
        entry = event.entry
        record = merge_record(
            key, opened[0], entry.packet_count, entry.byte_count, entry.last_match_time_ns,
            event.reason,
        )
        self.records.append(record)
        return record


def record_to_dict(record: FlowRecord) -> dict:
    return {
        "src_ip": format_ip(record.key.src_ip),
        "dst_ip": format_ip(record.key.dst_ip),
        "src_port": record.key.src_port,
        "dst_port": record.key.dst_port,
        "protocol": record.key.protocol.name,
        "first_seen_ns": record.first_seen_ns,
        "last_seen_ns": record.last_seen_ns,
        "packets": record.packet_count,
        "bytes": record.byte_count,
        "controller_packets": record.controller_packet_count,
        "expiry": _WIRE_REASONS[record.expiry_reason],
    }


def export_records(records: list[FlowRecord], sink, fmt: str = "jsonl") -> int:
    """Write records ordered by (first_seen, key); returns how many.

    A jsonl line is `json.dumps(record_to_dict(r), separators=(",", ":"))`,
    and the csv file is what `csv.DictWriter(sink, EXPORT_FIELDS,
    lineterminator="\n")` writes, header first; both are written out
    directly: every value is an int or an ASCII string that needs no escape
    or quoting.
    """
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown export format {fmt!r}")
    ordered = sorted(records, key=_EXPORT_ORDER)
    names, wire = _PROTOCOL_NAMES, _WIRE_REASONS
    if fmt == "jsonl":
        sink.writelines(
            f'{{"src_ip":"{format_ip(src)}","dst_ip":"{format_ip(dst)}",'
            f'"src_port":{sport},"dst_port":{dport},"protocol":"{names[proto]}",'
            f'"first_seen_ns":{first},"last_seen_ns":{last},"packets":{packets},'
            f'"bytes":{nbytes},"controller_packets":{seen},"expiry":"{wire[reason]}"}}\n'
            for (src, dst, sport, dport, proto), first, last, packets, nbytes, seen, reason
            in ordered
        )
    else:
        sink.write(",".join(EXPORT_FIELDS) + "\n")
        sink.writelines(
            f"{format_ip(src)},{format_ip(dst)},{sport},{dport},{names[proto]},"
            f"{first},{last},{packets},{nbytes},{seen},{wire[reason]}\n"
            for (src, dst, sport, dport, proto), first, last, packets, nbytes, seen, reason
            in ordered
        )
    return len(ordered)
