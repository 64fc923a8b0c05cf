import ipaddress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofmon.controller import record_to_dict
from ofmon.model import (
    FlowKey,
    FlowRecord,
    FlowRemovedReason,
    Protocol,
    flow_key_of,
    format_ip,
    parse_ip,
)

from helpers import pkt


def test_protocol_numbers():
    assert Protocol.TCP == 6
    assert Protocol.UDP == 17


def test_flow_key_of_projects_the_five_tuple():
    p = pkt(ts=42, src="1.2.3.4", dst="5.6.7.8", sport=1000, dport=2000,
            proto=Protocol.UDP, length=99)
    key = flow_key_of(p)
    assert key == FlowKey(parse_ip("1.2.3.4"), parse_ip("5.6.7.8"), 1000, 2000, Protocol.UDP)


def test_flow_key_distinguishes_every_field():
    base = flow_key_of(pkt())
    variants = [
        base._replace(src_ip=base.src_ip + 1),
        base._replace(dst_ip=base.dst_ip + 1),
        base._replace(src_port=base.src_port + 1),
        base._replace(dst_port=base.dst_port + 1),
        base._replace(protocol=Protocol.UDP),
    ]
    for other in variants:
        assert other != base
    assert len({base, *variants}) == 6


def test_reversed_direction_is_a_different_flow():
    fwd = flow_key_of(pkt(src="10.0.0.1", dst="10.0.0.2", sport=1111, dport=80))
    rev = flow_key_of(pkt(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=1111))
    assert fwd != rev


@pytest.mark.parametrize("quad", ["0.0.0.0", "255.255.255.255", "10.1.2.3", "192.168.100.200"])
def test_ip_round_trip(quad):
    assert format_ip(parse_ip(quad)) == quad


@pytest.mark.parametrize("bad", ["256.0.0.1", "1.2.3", "hello", "", "1.2.3.4.5"])
def test_parse_ip_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_ip(bad)


# ipaddress is the reference the table-driven parser must match: the same
# strings accepted with the same value, every other string a ValueError.
NON_ASCII_DIGITS = ["\uff11", "\u0661", "\u06f5", "\u09e7", "\u00b2", "\U0001d7ce"]
address_chars = st.sampled_from([*"0123456789./ +-_", *NON_ASCII_DIGITS])


@st.composite
def dotted_quads(draw):
    """Three to five dot-separated parts: plain octets, values past 255,
    leading zeros, empty parts or a non-ASCII digit."""
    part = st.one_of(
        st.integers(0, 255).map(str),
        st.integers(0, 999).map(str),
        st.tuples(st.integers(1, 3), st.integers(0, 255)).map(lambda z: "0" * z[0] + str(z[1])),
        st.just(""),
        st.sampled_from(NON_ASCII_DIGITS),
    )
    return ".".join(draw(st.lists(part, min_size=3, max_size=5)))


@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(st.text(address_chars, max_size=20), dotted_quads()))
@example("010.0.0.1")
@example("1.2.3.4/32")
@example(" 1.2.3.4")
@example("1.2.3.256")
@example("\uff11.2.3.4")
def test_parse_ip_agrees_with_ipaddress(text):
    try:
        expected = int(ipaddress.IPv4Address(text))
    except ValueError:
        with pytest.raises(ValueError):
            parse_ip(text)
    else:
        assert parse_ip(text) == expected


@settings(max_examples=1000, deadline=None)
@given(addr=st.integers(0, 2**32 - 1))
@example(0)
@example(2**32 - 1)
def test_format_ip_agrees_with_ipaddress(addr):
    assert format_ip(addr) == str(ipaddress.IPv4Address(addr))


@pytest.mark.parametrize("addr", [-1, 2**32])
def test_format_ip_rejects_values_outside_32_bits(addr):
    with pytest.raises(ValueError):
        format_ip(addr)


def test_flow_record_is_immutable():
    rec = FlowRecord(
        key=flow_key_of(pkt()),
        first_seen_ns=0,
        last_seen_ns=10,
        packet_count=2,
        byte_count=200,
        controller_packet_count=1,
        expiry_reason=FlowRemovedReason.IDLE,
    )
    with pytest.raises(AttributeError):
        rec.packet_count = 3
    assert rec.packet_count == 2


def test_expiry_reason_wire_values_are_stable():
    # a reason's value names a removal event, and its export string appears
    # in record files; neither may drift
    assert [reason.value for reason in FlowRemovedReason] == ["idle", "hard", "delete"]
    rec = FlowRecord(flow_key_of(pkt()), 0, 0, 1, 100, 1, FlowRemovedReason.IDLE)
    assert [record_to_dict(rec._replace(expiry_reason=reason))["expiry"]
            for reason in FlowRemovedReason] == ["idle", "hard", "eot"]
