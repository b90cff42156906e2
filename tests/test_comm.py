"""Wire formats, reassembly, framing, health scans, configuration."""

import hashlib
import os
import random
import string
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viewcase import comm
from viewcase.comm import (
    DEFAULT_CONFIG,
    DEFAULT_PRIORITIES,
    DEFAULT_PRIORITY,
    HEADER_LEN,
    LINK_A_SYNC,
    MAX_AUTH_KEY_LEN,
    MAX_MTU_PAYLOAD,
    Alert,
    AppMessage,
    CommConfig,
    FrameCorrupt,
    HealthStatus,
    HealthTable,
    LinkType,
    MessageTooLarge,
    OutcomeKind,
    Packet,
    ReassemblyBuffer,
    UnknownLink,
    auth_tag,
    classify_priority,
    convert_from_frame,
    convert_to_frame,
    crc16,
    data_type_for_priority,
    packetize,
    parse_comm_config,
    reassemble,
    render_comm_config,
    scan_timeouts,
    verify_packet,
)
from viewcase.fixture import build_world

KEY = b"key"


def _msg(payload=b"payload", data_type="track_data", msg_id=7):
    return AppMessage(msg_id, "src", "dst", data_type, payload)


# --- hash and checksum oracles -----------------------------------------------------


def test_auth_tag_known_values():
    # keyed BLAKE2s with a 4-byte digest (RFC 7693), big-endian
    assert auth_tag(b"", b"") == 0x36E9D246
    assert auth_tag(b"", b"abc") == 0xDF7101D3
    assert auth_tag(b"key", b"") == 0x79CF24CC
    assert auth_tag(b"key", b"payload") == 0x99474DF7
    assert auth_tag(bytes(range(32)), b"payload") == 0x57BEEADE  # the longest key
    # the key is not data: moving a byte across the split changes the tag
    assert auth_tag(b"ab", b"c") == 0x403D4C8C != auth_tag(b"", b"abc")
    assert auth_tag(b"k1", b"x") != auth_tag(b"k2", b"x")


@pytest.mark.parametrize("size,tag", [(500, 0x721130BA), (1000, 0x0A1B1E14)])
def test_fixture_key_tags_of_511_and_1011_byte_packets(size, tag):
    app = AppMessage(9, "", "", "track_data", (bytes(range(256)) * 4)[:size])
    (pkt,) = packetize(app, DEFAULT_CONFIG.mtu_payload, b"viewcase")
    assert len(pkt.header_sans_tag() + pkt.payload) == size + 11
    assert pkt.auth_tag == tag == auth_tag(b"viewcase", pkt.header_sans_tag() + pkt.payload)
    assert verify_packet(b"viewcase", pkt)


def test_crc16_known_values():
    # CRC-16/CCITT-FALSE reference vectors
    assert crc16(b"123456789") == 0x29B1
    assert crc16(b"") == 0xFFFF
    assert crc16(b"\x00") == 0xE1F0


def _crc16_bitwise(data: bytes) -> int:
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021 if crc & 0x8000 else crc << 1) & 0xFFFF
    return crc


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_crc16_matches_bitwise_reference(data):
    assert crc16(data) == _crc16_bitwise(data)


@settings(max_examples=200, deadline=None)
@given(
    st.binary(max_size=MAX_AUTH_KEY_LEN),
    st.binary(min_size=1, max_size=2048),
    st.integers(min_value=0),
    st.integers(1, 255),
)
@example(b"viewcase", bytes(511), 8 + 510, 0x01)  # 511-byte packet: its last byte
@example(b"viewcase", b"\xff" * 1011, 8 + 500, 0x80)  # 1,011-byte packet: a middle byte
@example(b"viewcase", b"\xff" * 1011, 0, 0x20)  # the first key byte
@example(b"", b"a", 0, 0x01)  # empty key
def test_changing_one_byte_of_key_or_data_changes_the_tag(key, data, at, mask):
    buf = bytearray(key + data)
    buf[at % len(buf)] ^= mask
    assert auth_tag(bytes(buf[: len(key)]), bytes(buf[len(key) :])) != auth_tag(key, data)


# --- tag checks ---------------------------------------------------------------------------


def test_forgeries_are_rejected_beside_the_genuine_packet():
    (pkt,) = packetize(_msg(), 1000, KEY)
    assert verify_packet(KEY, pkt)
    forged_payload = Packet(
        pkt.msg_id, pkt.seq_index, pkt.total_count, pkt.priority, b"payloaX", pkt.auth_tag
    )
    forged_tag = Packet(
        pkt.msg_id, pkt.seq_index, pkt.total_count, pkt.priority, pkt.payload, pkt.auth_tag ^ 1
    )
    assert not verify_packet(KEY, forged_payload)
    assert not verify_packet(KEY, forged_tag)
    assert not verify_packet(b"wrong", pkt)
    assert verify_packet(KEY, pkt)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=16), st.binary(max_size=64))
def test_auth_tag_accepts_bytearray_and_memoryview(key, data):
    expected = auth_tag(key, data)
    assert auth_tag(bytearray(key), bytearray(data)) == expected
    assert auth_tag(memoryview(key), memoryview(data)) == expected


def test_auth_tag_of_a_mutated_buffer_is_not_stale():
    buf = bytearray(b"payload")
    before = auth_tag(KEY, buf)
    buf[0] ^= 0xFF
    reference = hashlib.blake2s(bytes(buf), digest_size=4, key=KEY).digest()
    assert auth_tag(KEY, buf) == int.from_bytes(reference, "big") != before


# --- the verification memo ------------------------------------------------------------

_FORGEABLE = ("auth_tag", "payload", "msg_id", "seq_index", "total_count", "priority")


def _uncached_verdict(key, pkt) -> bool:
    return auth_tag(key, pkt.header_sans_tag() + pkt.payload) == pkt.auth_tag


def _forge(pkt: Packet, field: str) -> Packet:
    """`pkt` with one field changed: the first payload byte, or the low bit of a number."""
    if field == "payload":
        return replace(pkt, payload=bytes([pkt.payload[0] ^ 1]) + pkt.payload[1:])
    return replace(pkt, **{field: getattr(pkt, field) ^ 1})


@settings(max_examples=200, deadline=None)
@given(
    payload=st.binary(min_size=1, max_size=64),
    field=st.sampled_from((*_FORGEABLE, "key")),
    data=st.data(),
)
def test_a_forgery_after_a_cached_verdict_gets_the_uncached_verdict(payload, field, data):
    (pkt,) = packetize(_msg(payload), 1000, KEY)
    assert verify_packet(KEY, pkt)  # the genuine verdict is now memoized
    key, forged = KEY, pkt
    if field == "key":
        key = data.draw(st.binary(max_size=MAX_AUTH_KEY_LEN).filter(lambda k: k != KEY))
    elif field == "payload":
        at = data.draw(st.integers(0, len(payload) - 1))
        mask = data.draw(st.integers(1, 255))
        body = bytearray(payload)
        body[at] ^= mask
        forged = replace(pkt, payload=bytes(body))
    else:
        limit = {"seq_index": 0xFFFF, "total_count": 0xFFFF, "priority": 0xFF}.get(field, 2**32 - 1)
        value = data.draw(st.integers(0, limit).filter(lambda v: v != getattr(pkt, field)))
        forged = replace(pkt, **{field: value})
    assert verify_packet(key, forged) == _uncached_verdict(key, forged)
    assert verify_packet(KEY, pkt)


def test_each_frame_is_authenticated_once_however_many_receivers_decode_it(monkeypatch):
    calls = []
    real = comm.auth_tag

    def counting(key, data):
        calls.append(len(data))
        return real(key, data)

    monkeypatch.setattr(comm, "auth_tag", counting)
    comm._verified.cache_clear()
    (pkt,) = packetize(_msg(b"one frame, six receivers"), 1000, KEY)
    for link in LinkType:
        frame = convert_to_frame(pkt, link)
        assert all(verify_packet(KEY, convert_from_frame(frame, link)) for _ in range(6))
    assert len(calls) == 2  # packetize's tag and one check


@settings(max_examples=100, deadline=None)
@given(
    key=st.binary(max_size=MAX_AUTH_KEY_LEN),
    payload=st.binary(min_size=1, max_size=64),
    forge=st.booleans(),
)
def test_bytes_like_keys_and_an_unhashable_payload_still_verify(key, payload, forge):
    (pkt,) = packetize(_msg(payload), 1000, key)
    if forge:
        pkt = _forge(pkt, "auth_tag")
    for k in (key, bytearray(key), memoryview(key), memoryview(bytearray(key))):
        assert verify_packet(k, pkt) is not forge
    loose = replace(pkt, payload=bytearray(pkt.payload))
    assert verify_packet(key, loose) is not forge
    loose.payload[0] ^= 0xFF  # checked uncached, so an edit in place is seen
    assert verify_packet(key, loose) == _uncached_verdict(key, loose)


@pytest.mark.parametrize("field", _FORGEABLE)
@pytest.mark.parametrize("complete", [False, True])
def test_a_forged_copy_after_the_genuine_packet_changes_no_state(field, complete):
    buf = ReassemblyBuffer()
    pkts = packetize(_msg(bytes(range(256)) * 10, msg_id=41), 1000, KEY)
    genuine = pkts if complete else pkts[:1]
    assert _feed(buf, genuine)[-1].kind is (OutcomeKind.COMPLETE if complete else OutcomeKind.PENDING)

    def state():
        entries = {
            k: (dict(e.received), e.total_count, e.first_seen, e.priority)
            for k, e in buf.entries.items()
        }
        return entries, dict(buf.completed)

    before = state()
    outcome = reassemble(buf, _forge(pkts[0], field), 1, 1000, KEY, src="src")
    assert (outcome.kind, outcome.reason) == (OutcomeKind.REJECTED, "auth")
    assert state() == before


# --- priorities -------------------------------------------------------------------


def test_priority_table_values():
    assert DEFAULT_PRIORITIES == {
        "track_data": 200,
        "command": 180,
        "status": 140,
        "health": 120,
        "log": 40,
    }
    assert classify_priority("track_data") == 200
    assert classify_priority("no_such_type") == DEFAULT_PRIORITY == 100


def test_priority_mapping_is_invertible():
    for data_type, priority in DEFAULT_PRIORITIES.items():
        assert data_type_for_priority(priority) == data_type
    assert data_type_for_priority(100) == "unknown"
    assert data_type_for_priority(99) == "unknown"


# --- packetize --------------------------------------------------------------------


def test_packetize_splits_at_mtu():
    pkts = packetize(_msg(bytes(2500)), 1000, KEY)
    assert [p.payload_len for p in pkts] == [1000, 1000, 500]
    assert [p.seq_index for p in pkts] == [0, 1, 2]
    assert all(p.total_count == 3 for p in pkts)
    assert all(p.msg_id == 7 for p in pkts)
    assert all(p.priority == 200 for p in pkts)
    assert all(verify_packet(KEY, p) for p in pkts)


def test_empty_payload_still_sends_one_packet():
    pkts = packetize(_msg(b""), 1000, KEY)
    assert len(pkts) == 1
    assert pkts[0].payload == b"" and pkts[0].total_count == 1


def test_packetize_rejects_bad_mtu():
    with pytest.raises(ValueError):
        packetize(_msg(), 0, KEY)


def test_packetize_rejects_an_mtu_a_link_a_frame_cannot_carry():
    with pytest.raises(ValueError, match=str(MAX_MTU_PAYLOAD)):
        packetize(_msg(), MAX_MTU_PAYLOAD + 1, KEY)
    payload = bytes(range(256)) * (MAX_MTU_PAYLOAD // 256) + bytes(MAX_MTU_PAYLOAD % 256)
    (pkt,) = packetize(_msg(payload), MAX_MTU_PAYLOAD, KEY)
    frame = convert_to_frame(pkt, LinkType.LINK_A)
    assert frame[2:4] == b"\xff\xff"  # the length field at its largest
    assert convert_from_frame(frame, LinkType.LINK_A) == pkt


def test_packetize_rejects_oversized_message():
    with pytest.raises(MessageTooLarge):
        packetize(_msg(bytes(0x10000)), 1, KEY)


def test_packet_header_layout():
    pkt = packetize(_msg(b"abc"), 10, KEY)[0]
    wire = pkt.to_bytes()
    assert len(wire) == HEADER_LEN + 3
    msg_id, seq, total, priority, plen, tag = struct.unpack(">IHHBHI", wire[:HEADER_LEN])
    assert (msg_id, seq, total, priority, plen) == (7, 0, 1, 200, 3)
    assert tag == pkt.auth_tag
    assert Packet.from_bytes(wire) == pkt


def test_packet_from_bytes_rejects_garbage():
    with pytest.raises(ValueError):
        Packet.from_bytes(b"\x00" * 5)
    good = packetize(_msg(b"abc"), 10, KEY)[0].to_bytes()
    with pytest.raises(ValueError):
        Packet.from_bytes(good + b"extra")


def test_tampered_packet_fails_verification():
    pkt = packetize(_msg(b"abc"), 10, KEY)[0]
    forged = Packet(pkt.msg_id, pkt.seq_index, pkt.total_count, pkt.priority, b"abd", pkt.auth_tag)
    assert not verify_packet(KEY, forged)
    assert not verify_packet(b"wrong", pkt)


# --- reassembly -----------------------------------------------------------------------


def _feed(buffer, pkts, now=0, timeout=1000, src="src"):
    return [reassemble(buffer, p, now, timeout, KEY, src=src) for p in pkts]


def test_reassemble_in_order():
    buf = ReassemblyBuffer(owner="dst")
    pkts = packetize(_msg(bytes(range(250)) * 10), 1000, KEY)
    outcomes = _feed(buf, pkts)
    assert [o.kind for o in outcomes] == [
        OutcomeKind.PENDING, OutcomeKind.PENDING, OutcomeKind.COMPLETE
    ]
    final = outcomes[-1].message
    assert final.payload == bytes(range(250)) * 10
    assert final.msg_id == 7
    assert final.src == "src" and final.dst == "dst"
    assert final.data_type == "track_data"  # recovered from the priority byte
    assert buf.entries == {}


def test_reassemble_out_of_order():
    buf = ReassemblyBuffer()
    pkts = packetize(_msg(bytes(2500)), 1000, KEY)
    outcomes = _feed(buf, list(reversed(pkts)))
    assert outcomes[-1].kind is OutcomeKind.COMPLETE
    assert outcomes[-1].message.payload == bytes(2500)


def test_duplicate_fragment_is_flagged():
    buf = ReassemblyBuffer()
    pkts = packetize(_msg(bytes(2500)), 1000, KEY)
    _feed(buf, pkts[:1])
    assert _feed(buf, pkts[:1])[0].kind is OutcomeKind.DUPLICATE


def test_completed_message_keeps_rejecting_duplicates():
    buf = ReassemblyBuffer()
    pkts = packetize(_msg(b"small"), 1000, KEY)
    assert _feed(buf, pkts)[0].kind is OutcomeKind.COMPLETE
    assert _feed(buf, pkts)[0].kind is OutcomeKind.DUPLICATE
    # ... until the memory of the completion itself times out
    late = reassemble(buf, pkts[0], 5000, 1000, KEY, src="src")
    assert late.kind is OutcomeKind.COMPLETE


def test_auth_failure_rejected_before_any_state_change():
    buf = ReassemblyBuffer()
    pkt = packetize(_msg(b"data"), 1000, b"other-key")[0]
    outcome = reassemble(buf, pkt, 0, 1000, KEY)
    assert outcome.kind is OutcomeKind.REJECTED and outcome.reason == "auth"
    assert buf.entries == {} and buf.completed == {}


def test_inconsistent_total_count_rejected():
    buf = ReassemblyBuffer()
    pkts = packetize(_msg(bytes(2500)), 1000, KEY)
    _feed(buf, pkts[:1])
    # same msg_id, but claims a different fragment count; retag so auth passes
    lying = packetize(_msg(bytes(1500), msg_id=7), 1000, KEY)[1]
    outcome = reassemble(buf, lying, 0, 1000, KEY, src="src")
    assert outcome.kind is OutcomeKind.REJECTED and outcome.reason == "inconsistent"
    assert ("src", 7) in buf.entries  # original entry survives


def test_malformed_indices_rejected():
    pkt = packetize(_msg(b"x"), 10, KEY)[0]
    bad_header = struct.pack(">IHHBH", pkt.msg_id, 5, 1, pkt.priority, 1)
    forged = Packet(pkt.msg_id, 5, 1, pkt.priority, b"x", auth_tag(KEY, bad_header + b"x"))
    outcome = reassemble(ReassemblyBuffer(), forged, 0, 1000, KEY)
    assert outcome.kind is OutcomeKind.REJECTED and outcome.reason == "inconsistent"


def test_stale_entry_restarts_after_timeout():
    buf = ReassemblyBuffer()
    pkts = packetize(_msg(bytes(2500)), 1000, KEY)
    _feed(buf, pkts[:2], now=0)
    # long silence, then the same first fragment arrives again: fresh entry
    outcome = reassemble(buf, pkts[0], 5000, 1000, KEY, src="src")
    assert outcome.kind is OutcomeKind.PENDING
    assert buf.entries[("src", 7)].received.keys() == {0}


def test_scan_timeouts_expires_and_reports():
    buf = ReassemblyBuffer()
    pkts = packetize(_msg(bytes(2500)), 1000, KEY)
    _feed(buf, pkts[:1], now=0)
    assert scan_timeouts(buf, 999, 1000) == []
    expired = scan_timeouts(buf, 1000, 1000)
    assert [(o.kind, o.reason, o.key) for o in expired] == [
        (OutcomeKind.REJECTED, "timeout", ("src", 7))
    ]
    assert buf.entries == {}


def test_sources_do_not_collide():
    buf = ReassemblyBuffer()
    a = packetize(_msg(bytes(2000), msg_id=1), 1000, KEY)
    b = packetize(_msg(bytes(1999), msg_id=1), 1000, KEY)
    assert _feed(buf, a[:1], src="alpha")[0].kind is OutcomeKind.PENDING
    assert _feed(buf, b[:1], src="beta")[0].kind is OutcomeKind.PENDING
    assert len(buf.entries) == 2


# --- framing -----------------------------------------------------------------------------


def _pkt(payload=b"hello", data_type="status"):
    return packetize(_msg(payload, data_type), 4096, KEY)[0]


def test_link_a_frame_layout():
    pkt = _pkt()
    frame = convert_to_frame(pkt, LinkType.LINK_A)
    assert frame[:2] == LINK_A_SYNC == b"\xaa\x55"
    (length,) = struct.unpack(">H", frame[2:4])
    assert length == HEADER_LEN + len(pkt.payload)
    assert frame[4:-2] == pkt.to_bytes()
    (crc,) = struct.unpack(">H", frame[-2:])
    assert crc == crc16(frame[2:-2])
    assert convert_from_frame(frame, "LINK_A") == pkt


def test_link_b_frame_is_flag_delimited():
    pkt = _pkt()
    frame = convert_to_frame(pkt, LinkType.LINK_B)
    assert frame[0] == 0x7E and frame[-1] == 0x7E
    assert 0x7E not in frame[1:-1]
    assert convert_from_frame(frame, "LINK_B") == pkt


def test_link_b_escapes_flag_and_escape_bytes():
    pkt = _pkt(payload=bytes([0x7E, 0x7D, 0x00, 0x7E]))
    frame = convert_to_frame(pkt, LinkType.LINK_B)
    assert 0x7E not in frame[1:-1]
    assert convert_from_frame(frame, LinkType.LINK_B) == pkt


@pytest.mark.parametrize("link", [LinkType.LINK_A, LinkType.LINK_B])
def test_any_single_byte_flip_is_detected(link):
    pkt = _pkt()
    frame = bytearray(convert_to_frame(pkt, link))
    rng = random.Random(1)
    for _ in range(40):
        i = rng.randrange(len(frame))
        flipped = bytes(frame[:i]) + bytes([frame[i] ^ 0x01]) + bytes(frame[i + 1 :])
        if flipped == bytes(frame):
            continue
        try:
            decoded = convert_from_frame(flipped, link)
        except FrameCorrupt:
            continue
        # a flip that still parses must not silently alter the packet
        assert decoded != pkt


@pytest.mark.parametrize(
    "data,link,fragment",
    [
        (b"\xaa\x55\x00", LinkType.LINK_A, "short"),
        (b"\xab\x55" + bytes(30), LinkType.LINK_A, "sync"),
        (b"\xaa\x55\x00\xff" + bytes(30), LinkType.LINK_A, "length"),
        (b"\x7e\x00\x01\x02\x7e", LinkType.LINK_B, "short frame"),
        (b"\x00" + bytes(20), LinkType.LINK_B, "delimiters"),
        (b"\x7e" + bytes(20) + b"\x7d\x7e", LinkType.LINK_B, "dangling escape"),
    ],
)
def test_malformed_frames_are_rejected(data, link, fragment):
    with pytest.raises(FrameCorrupt) as err:
        convert_from_frame(data, link)
    assert fragment in str(err.value)


# --- the memoized decode ------------------------------------------------------------------


@pytest.mark.parametrize("link", [LinkType.LINK_A, LinkType.LINK_B])
def test_repeated_frame_decodes_to_an_equal_packet(link):
    pkt = _pkt(payload=bytes([0x7E, 0x7D]) * 40)
    frame = convert_to_frame(pkt, link)
    first = convert_from_frame(frame, link)
    hits = comm._decode.cache_info().hits
    assert convert_from_frame(bytes(frame), link.value) == first == pkt
    assert comm._decode.cache_info().hits == hits + 1


@pytest.mark.parametrize("link", [LinkType.LINK_A, LinkType.LINK_B])
def test_corrupt_frame_raises_on_every_call(link):
    frame = bytearray(convert_to_frame(_pkt(), link))
    frame[-3] ^= 0x01  # one flipped bit near the end: the CRC no longer checks
    misses = comm._decode.cache_info().misses
    for _ in range(3):
        with pytest.raises(FrameCorrupt):
            convert_from_frame(bytes(frame), link)
    assert comm._decode.cache_info().misses == misses + 3


def test_decode_of_a_mutated_buffer_is_not_stale():
    one, other = _pkt(b"first"), _pkt(b"other")
    buf = bytearray(convert_to_frame(one, LinkType.LINK_A))
    assert convert_from_frame(buf, LinkType.LINK_A) == one
    buf[:] = convert_to_frame(other, LinkType.LINK_A)  # same length, new bytes
    assert convert_from_frame(buf, LinkType.LINK_A) == other
    buf[-1] ^= 0xFF
    with pytest.raises(FrameCorrupt):
        convert_from_frame(buf, LinkType.LINK_A)


def test_unknown_link_name_is_rejected():
    with pytest.raises(UnknownLink):
        convert_to_frame(_pkt(), "LINK_C")
    with pytest.raises(UnknownLink):
        convert_from_frame(b"\x7e\x7e", "serial")


# --- health table -----------------------------------------------------------------------


def test_health_timeline_late_then_dead():
    table = HealthTable()
    table.observe("P", 1)
    assert table.scan(101, 3) == []  # first sight is OK
    table.observe("P", 2)
    assert table.scan(201, 3) == []  # counter moved
    # heartbeats stop: one miss -> LATE, third miss -> DEAD, edge-triggered
    assert table.scan(301, 3) == [Alert("P", HealthStatus.LATE, 301)]
    assert table.scan(401, 3) == []
    assert table.scan(501, 3) == [Alert("P", HealthStatus.DEAD, 501)]
    assert table.scan(601, 3) == []  # dead is terminal and silent
    assert table.records["P"].status is HealthStatus.DEAD


def test_health_silent_recovery_from_late():
    table = HealthTable()
    table.observe("P", 1)
    table.scan(1, 3)
    assert table.scan(101, 3) == [Alert("P", HealthStatus.LATE, 101)]
    table.observe("P", 2)  # resumed before the dead threshold
    assert table.scan(201, 3) == []
    assert table.records["P"].status is HealthStatus.OK
    # relapse alerts again (edge-triggered on each OK->LATE transition)
    assert table.scan(301, 3) == [Alert("P", HealthStatus.LATE, 301)]


def test_dead_process_stays_dead_even_if_counter_moves():
    table = HealthTable()
    table.observe("P", 1)
    for t in (1, 101, 201, 301):
        table.scan(t, 3)
    assert table.records["P"].status is HealthStatus.DEAD
    table.observe("P", 99)
    assert table.scan(401, 3) == []
    assert table.records["P"].status is HealthStatus.DEAD


def test_scan_period_must_be_positive():
    with pytest.raises(ValueError):
        build_world(comm_config=CommConfig(scan_period=0))


def test_comm_imports_no_runtime():
    # the data plane stands alone: the fixture wires it into the engine
    code = (
        "import sys, viewcase.comm; "
        "print(sorted({'viewcase.engine', 'viewcase.statechart'} & set(sys.modules)))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# --- configuration -----------------------------------------------------------------------


def test_config_defaults():
    assert DEFAULT_CONFIG == CommConfig(
        mtu_payload=1000,
        reassembly_timeout=3000,
        scan_period=100,
        dead_threshold=3,
        auth_key=b"viewcase",
        default_priority=100,
    )


def test_parse_comm_config_overrides():
    cfg = parse_comm_config(
        "# tuning\n"
        "mtu_payload = 512\n"
        "auth_key = sesame  # inline comment\n"
        "priority.track_data = 250\n"
        "priority.telemetry = 90\n"
    )
    assert cfg.mtu_payload == 512
    assert cfg.auth_key == b"sesame"
    assert cfg.reassembly_timeout == 3000  # untouched default
    table = cfg.priority_table()
    assert table["track_data"] == 250
    assert table["telemetry"] == 90
    assert table["command"] == 180


@pytest.mark.parametrize(
    "text,line",
    [
        ("mtu_payload 512", 1),
        ("bogus_key = 1", 1),
        ("mtu_payload = twelve", 1),
        ("mtu_payload = 512\npriority.x = high", 2),
    ],
)
def test_parse_comm_config_errors_carry_line_numbers(text, line):
    with pytest.raises(ValueError) as err:
        parse_comm_config(text)
    assert f"line {line}" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "mtu_payload = 0",
        "mtu_payload = 65521",
        "reassembly_timeout = 0",
        "scan_period = -5",
        "dead_threshold = 0",
        "default_priority = 256",
        "priority.status = -1",
    ],
)
def test_parse_comm_config_rejects_values_the_simulation_cannot_use(text):
    with pytest.raises(ValueError) as err:
        parse_comm_config("# tuning\n" + text)
    assert "line 2" in str(err.value)
    assert parse_comm_config("mtu_payload = 1\ndefault_priority = 255\npriority.status = 0\n")


def test_comm_config_render_round_trip():
    cfg = CommConfig(mtu_payload=64, auth_key=b"k", priorities=(("status", 9),))
    assert parse_comm_config(render_comm_config(cfg)) == CommConfig(
        mtu_payload=64,
        auth_key=b"k",
        priorities=tuple({**DEFAULT_PRIORITIES, "status": 9}.items()),
    )


# --- properties ----------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    payload=st.binary(max_size=5000),
    mtu=st.integers(min_value=1, max_value=700),
    shuffle_seed=st.integers(0, 2**16),
    data_type=st.sampled_from(sorted(DEFAULT_PRIORITIES) + ["other"]),
)
def test_packetize_then_reassemble_round_trip(payload, mtu, shuffle_seed, data_type):
    msg = AppMessage(42, "a", "b", data_type, payload)
    pkts = packetize(msg, mtu, KEY)
    assert sum(p.payload_len for p in pkts) == len(payload)
    random.Random(shuffle_seed).shuffle(pkts)
    buf = ReassemblyBuffer(owner="b")
    final = None
    for p in pkts:
        out = reassemble(buf, p, 0, 1000, KEY, src="a")
        if out.kind is OutcomeKind.COMPLETE:
            final = out.message
    assert final is not None
    assert final.payload == payload
    expected_type = data_type if data_type in DEFAULT_PRIORITIES else "unknown"
    assert final.data_type == expected_type


@settings(max_examples=120, deadline=None)
@given(
    payload=st.binary(max_size=600),
    link=st.sampled_from([LinkType.LINK_A, LinkType.LINK_B]),
    msg_id=st.integers(0, 2**32 - 1),
    priority=st.integers(0, 255),
)
def test_frame_round_trip(payload, link, msg_id, priority):
    header = struct.pack(">IHHBH", msg_id, 0, 1, priority, len(payload))
    pkt = Packet(msg_id, 0, 1, priority, payload, auth_tag(KEY, header + payload))
    assert convert_from_frame(convert_to_frame(pkt, link), link) == pkt


# --- LINK_B stuffing against the per-byte reference ----------------------------------------


def _stuff_bytewise(inner: bytes) -> bytes:
    out = bytearray([0x7E])
    for b in inner:
        if b in (0x7E, 0x7D):
            out += bytes((0x7D, b ^ 0x20))
        else:
            out.append(b)
    out.append(0x7E)
    return bytes(out)


def _deframe_link_b_bytewise(data: bytes) -> Packet:
    if len(data) < 2 or data[0] != 0x7E or data[-1] != 0x7E:
        raise FrameCorrupt("bad delimiters")
    raw = data[1:-1]
    if 0x7E in raw:
        raise FrameCorrupt("flag inside frame")
    inner = bytearray()
    i = 0
    while i < len(raw):
        b = raw[i]
        if b == 0x7D:
            if i + 1 >= len(raw):
                raise FrameCorrupt("dangling escape")
            inner.append(raw[i + 1] ^ 0x20)
            i += 2
        else:
            inner.append(b)
            i += 1
    if len(inner) < HEADER_LEN + 2:
        raise FrameCorrupt("short frame")
    (crc,) = struct.unpack(">H", inner[-2:])
    if crc16(bytes(inner[:-2])) != crc:
        raise FrameCorrupt("checksum mismatch")
    try:
        return Packet.from_bytes(bytes(inner[:-2]))
    except ValueError as exc:
        raise FrameCorrupt(str(exc)) from None


def _decode_outcome(decode, data):
    try:
        return decode(data)
    except FrameCorrupt as exc:
        return f"corrupt: {exc}"


# Half the drawn bytes are the ones stuffing touches: flag, escape, and their escaped forms.
_stuffing_bytes = st.lists(
    st.one_of(st.sampled_from([0x7D, 0x7E, 0x5D, 0x5E]), st.integers(0, 255)), max_size=80
).map(bytes)


@settings(max_examples=300, deadline=None)
@given(payload=_stuffing_bytes, msg_id=st.integers(0, 2**32 - 1), priority=st.integers(0, 255))
def test_link_b_stuffing_matches_bytewise_reference(payload, msg_id, priority):
    header = struct.pack(">IHHBH", msg_id, 0, 1, priority, len(payload))
    pkt = Packet(msg_id, 0, 1, priority, payload, auth_tag(KEY, header + payload))
    body = pkt.to_bytes()
    expected = _stuff_bytewise(body + struct.pack(">H", crc16(body)))
    assert convert_to_frame(pkt, LinkType.LINK_B) == expected


def _stuffed_packet(payload: bytes) -> bytes:
    """The stuffed bytes between the flags of a valid LINK_B frame."""
    body = _pkt(payload).to_bytes()
    return _stuff_bytewise(body + struct.pack(">H", crc16(body)))[1:-1]


@settings(max_examples=400, deadline=None)
@given(
    raw=st.one_of(
        _stuffing_bytes,
        _stuffing_bytes.map(_stuffed_packet),
        st.builds(  # a valid frame with its last stuffed byte changed
            lambda raw, x: raw[:-1] + bytes([raw[-1] ^ x]),
            _stuffing_bytes.map(_stuffed_packet),
            st.integers(1, 255),
        ),
    ),
    trailing_escape=st.booleans(),
)
def test_link_b_unstuffing_matches_bytewise_reference(raw, trailing_escape):
    data = b"\x7e" + raw + (b"\x7d" if trailing_escape else b"") + b"\x7e"
    expected = _decode_outcome(_deframe_link_b_bytewise, data)
    assert _decode_outcome(lambda d: convert_from_frame(d, LinkType.LINK_B), data) == expected


# --- reassembly expiry against the full-scan reference ----------------------------------


def _scan_timeouts_full(buffer, now, timeout):
    """`scan_timeouts` before front expiry: a full scan of both dicts, kept as the reference."""
    out = []
    for k in [k for k, e in buffer.entries.items() if now - e.first_seen >= timeout]:
        del buffer.entries[k]
        out.append(comm.ReassemblyOutcome(OutcomeKind.REJECTED, reason="timeout", key=k))
    for k in [k for k, t in buffer.completed.items() if now - t >= timeout]:
        del buffer.completed[k]
    return out


_EXPIRY_TIMEOUT = 1000


def _expiry_packet(msg_id: int, total: int, index: int) -> Packet:
    return packetize(_msg(bytes(4 * total), msg_id=msg_id), 4, KEY)[index % total]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            # time step: `now` never decreases, and often lands exactly on a timeout
            st.one_of(st.integers(0, 700), st.sampled_from([250, 500, 1000])),
            st.one_of(
                st.none(),  # a scan
                st.tuples(  # a packet: source, msg_id, fragment count, fragment index
                    st.sampled_from(["a", "b"]), st.integers(0, 4), st.integers(1, 3),
                    st.integers(0, 2),
                ),
            ),
        ),
        max_size=40,
    )
)
def test_front_expiry_matches_full_scan_for_nondecreasing_now(steps):
    fast, ref = ReassemblyBuffer(), ReassemblyBuffer()
    now = 0
    for dt, packet in steps:
        now += dt
        if packet is None:
            got = scan_timeouts(fast, now, _EXPIRY_TIMEOUT)
            assert got == _scan_timeouts_full(ref, now, _EXPIRY_TIMEOUT)
        else:
            src, msg_id, total, index = packet
            pkt = _expiry_packet(msg_id, total, index)
            got = reassemble(fast, pkt, now, _EXPIRY_TIMEOUT, KEY, src=src)
            assert got == reassemble(ref, pkt, now, _EXPIRY_TIMEOUT, KEY, src=src)
        assert list(fast.entries.items()) == list(ref.entries.items())
        assert list(fast.completed.items()) == list(ref.completed.items())


# --- comments in values and one-to-one priority tables ------------------------------------

_NO_SPACE_PRINTABLE = "".join(c for c in string.printable if not c.isspace())


def test_hash_inside_a_config_value_is_data():
    cfg = CommConfig(auth_key=b"k#1")
    assert parse_comm_config(render_comm_config(cfg)).auth_key == b"k#1"
    assert parse_comm_config("auth_key = k#1  # a comment\n").auth_key == b"k#1"


@st.composite
def _one_to_one_configs(draw):
    names = [*DEFAULT_PRIORITIES, *draw(st.lists(st.from_regex(r"[a-z]{1,8}", fullmatch=True)))]
    names = list(dict.fromkeys(names))
    values = draw(st.lists(st.integers(0, 255), min_size=len(names) + 1,
                           max_size=len(names) + 1, unique=True))
    # a value may not begin with `#`: a `#` that starts a word starts a comment
    key = draw(
        (st.text(alphabet=_NO_SPACE_PRINTABLE) | st.text(alphabet='k#1"'))
        .filter(lambda k: not k.startswith("#") and len(k.encode()) <= MAX_AUTH_KEY_LEN)
    )
    return CommConfig(
        auth_key=key.encode(),
        default_priority=values[0],
        priorities=tuple(zip(names, values[1:])),
    )


@settings(max_examples=150, deadline=None)
@given(_one_to_one_configs())
def test_comm_config_with_hash_keys_and_one_to_one_priorities_round_trips(cfg):
    assert parse_comm_config(render_comm_config(cfg)) == cfg
    table = cfg.priority_table()
    for name, value in cfg.priorities:
        assert data_type_for_priority(value, table) == name


@pytest.mark.parametrize(
    "text,line",
    [
        ("priority.command = 200\n", 1),  # the default track_data is 200
        ("priority.foo = 100\n", 1),  # the default default_priority is 100
        ("default_priority = 140\n", 1),  # the default status is 140
        ("priority.a = 7\n\npriority.b = 7\n", 3),
        ("# tuning\npriority.x = 5\ndefault_priority = 5\n", 3),
        ("default_priority = 5\npriority.x = 5\n", 2),
    ],
)
def test_parse_comm_config_rejects_priorities_the_wire_cannot_invert(text, line):
    with pytest.raises(ValueError) as err:
        parse_comm_config(text)
    assert str(err.value).startswith(f"line {line}:")


def test_priority_swaps_and_fresh_values_are_accepted():
    cfg = parse_comm_config("priority.track_data = 180\npriority.command = 200\npriority.foo = 7\n")
    table = cfg.priority_table()
    assert data_type_for_priority(200, table) == "command"
    assert data_type_for_priority(180, table) == "track_data"
    assert data_type_for_priority(7, table) == "foo"


# --- auth keys a config file can hold ----------------------------------------------------


@pytest.mark.parametrize("key", [b"#1", b" k", b"k ", b"a #b", b"a\nb", b"\xff"])
def test_render_comm_config_rejects_keys_it_cannot_read_back(key):
    with pytest.raises(ValueError, match="auth_key"):
        render_comm_config(CommConfig(auth_key=key))


@settings(max_examples=300, deadline=None)
@given(st.binary())
def test_render_comm_config_round_trips_or_refuses(key):
    cfg = CommConfig(auth_key=key)
    try:
        text = render_comm_config(cfg)
    except ValueError as err:
        assert "auth_key" in str(err)
    else:
        assert parse_comm_config(text) == cfg


def test_32_byte_auth_key_parses_and_tags():
    cfg = parse_comm_config("auth_key = " + "k" * 32 + "\n")
    assert cfg.auth_key == b"k" * 32
    assert auth_tag(cfg.auth_key, b"payload") == 0xED8E3849
    (pkt,) = packetize(_msg(), cfg.mtu_payload, cfg.auth_key)
    assert verify_packet(cfg.auth_key, pkt)
    assert parse_comm_config(render_comm_config(cfg)) == cfg


@pytest.mark.parametrize(
    "key,length", [("k" * 33, 33), ("\u00e9" * 17, 34)], ids=["33-ascii", "17-two-byte"]
)
def test_auth_key_longer_than_32_bytes_is_rejected_at_its_line(key, length):
    with pytest.raises(ValueError) as err:
        parse_comm_config(f"mtu_payload = 500\nauth_key = {key}\n")
    assert str(err.value) == f"line 2: auth_key must be at most 32 bytes, got {length}"
    with pytest.raises(ValueError, match="auth_key"):
        render_comm_config(CommConfig(auth_key=key.encode()))


# --- priority names a config file can hold -----------------------------------------------


@pytest.mark.parametrize("name", ["a=b", "a\nb", "a\rb", "x #y", "a "])
def test_render_comm_config_rejects_priority_names_it_cannot_read_back(name):
    cfg = CommConfig(priorities=(*DEFAULT_PRIORITIES.items(), (name, 5)))
    with pytest.raises(ValueError) as err:
        render_comm_config(cfg)
    assert str(err.value).startswith(f"priority {name!r}")


@settings(max_examples=300, deadline=None)
@given(st.text(min_size=1).filter(lambda name: name not in DEFAULT_PRIORITIES))
def test_priority_names_round_trip_or_are_refused(name):
    cfg = CommConfig(priorities=(*DEFAULT_PRIORITIES.items(), (name, 5)))
    try:
        text = render_comm_config(cfg)
    except ValueError as err:
        assert str(err).startswith(f"priority {name!r}")
    else:
        assert parse_comm_config(text) == cfg
