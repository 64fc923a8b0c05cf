"""The trace reader as it was before it memoized flow keys: the reference.

``read_csv_trace`` below checks and parses every field of every row.  The
differential test in test_traceio.py requires the package's reader to yield
the same packets, or raise the same message, on every file.  Keep it as it is.
"""

import csv
import zlib
from typing import Iterator

from ofmon.model import FlowKey, PacketRecord, Protocol, ascii_number, parse_ip
from ofmon.traceio import CSV_HEADER, TraceFormatError, _open_text

_PROTOCOLS = {"TCP": Protocol.TCP, "UDP": Protocol.UDP}


def read_csv_trace(path: str) -> Iterator[PacketRecord]:
    """Stream packets from a trace file, validating as it goes.

    Raises TraceFormatError on a bad header, malformed fields, protocols
    other than TCP/UDP, timestamps that go backwards, or a file that cannot
    be read to its end (missing, a directory, corrupt gzip, oversized field).
    """
    lineno = 0  # the last line read in full
    try:
        with _open_text(path, "r") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise TraceFormatError(
                    f"line 1: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
                )
            lineno = 1
            prev_ts = None
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(CSV_HEADER):
                    raise TraceFormatError(f"line {lineno}: expected 7 fields, got {len(row)}")
                if not ascii_number(row[0] + row[3] + row[4] + row[6]):
                    raise TraceFormatError(
                        f"line {lineno}: ts_ns, src_port, dst_port and len must be ASCII"
                        f" integers, got {row[0]!r}, {row[3]!r}, {row[4]!r}, {row[6]!r}"
                    )
                try:
                    ts = int(row[0])
                    src_port = int(row[3])
                    dst_port = int(row[4])
                    length = int(row[6])
                except ValueError as exc:
                    raise TraceFormatError(f"line {lineno}: {exc}") from exc
                try:
                    src_ip = parse_ip(row[1])
                except ValueError as exc:
                    raise TraceFormatError(f"line {lineno}: src_ip {exc}") from exc
                try:
                    dst_ip = parse_ip(row[2])
                except ValueError as exc:
                    raise TraceFormatError(f"line {lineno}: dst_ip {exc}") from exc
                protocol = _PROTOCOLS.get(row[5])
                if protocol is None and row[5].isascii():  # any case, but no padding
                    protocol = _PROTOCOLS.get(row[5].upper())
                if protocol is None:
                    raise TraceFormatError(f"line {lineno}: unsupported protocol {row[5]!r}")
                if ts < 0:
                    raise TraceFormatError(f"line {lineno}: negative timestamp {ts}")
                if prev_ts is not None and ts < prev_ts:
                    raise TraceFormatError(
                        f"line {lineno}: timestamp {ts} goes backwards (previous {prev_ts})"
                    )
                if not (0 <= src_port <= 65535 and 0 <= dst_port <= 65535):
                    raise TraceFormatError(f"line {lineno}: port out of range")
                if length < 1:
                    raise TraceFormatError(f"line {lineno}: packet length must be >= 1")
                prev_ts = ts
                key = FlowKey(src_ip, dst_ip, src_port, dst_port, protocol)
                yield PacketRecord(ts, key, length)
    except (OSError, EOFError, zlib.error, csv.Error) as exc:
        raise TraceFormatError(f"line {lineno + 1}: {exc}") from exc
