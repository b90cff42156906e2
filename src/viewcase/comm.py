"""Communication-interface data plane: packets, frames, reassembly, health table, config.

Wire formats
------------

Packet header, 15 bytes, all fields big-endian::

    msg_id:4  seq_index:2  total_count:2  priority:1  payload_len:2  auth_tag:4

The authentication tag is keyed BLAKE2s (RFC 7693) with a 4-byte digest
over header-sans-tag || payload, read as a big-endian integer. The digest
size is part of BLAKE2s's parameter block, so the tag is not a prefix of
the 32-byte digest. BLAKE2s takes keys of at most 32 bytes
(`MAX_AUTH_KEY_LEN`); `CommConfig` refuses a longer one. A tag costs about 5 µs for a
1,011-byte input (CPython 3.11 on an x86-64 Xeon). `verify_packet`
memoizes its verdict per (key, packet) in a 16-entry LRU: every receiver
of one frame gets the same decoded `Packet` (see below), so a frame sent
to six readers is checked once, not six times. The steady 6-peer
benchmark run makes 994 `auth_tag` calls instead of 2,682, and the
failover run 888 instead of 1,325. A key or packet that cannot be hashed,
such as a bytearray key or payload, is checked uncached.

`packetize` accepts an MTU of at most 65,520 payload bytes
(`MAX_MTU_PAYLOAD`, 0xFFFF less the header), the largest packet a LINK_A
length field can carry.

LINK_A frame::

    AA 55 | length:2 (header+payload) | header | payload | CRC-16:2

with CRC-16/CCITT-FALSE computed over length..payload.

LINK_B frame: 0x7E delimiters around the byte-stuffed body
(header | payload | CRC-16 over header+payload); 0x7E and 0x7D inside the
body are escaped as 0x7D followed by the byte XOR 0x20.

`convert_to_frame` and `convert_from_frame` take the link as a `LinkType`
value only, never as a name.

`convert_from_frame` memoizes decoded packets per (frame bytes, link) in a
16-entry LRU, keyed by whether the link is LINK_A (a `LinkType` member
would be hashed by Python code in `enum`), so every receiver of one frame
shares one frozen `Packet` and pays for neither the CRC nor the LINK_B
unstuffing again. Without it, steady 6-peer simulation time rises by
about 10%. A frame that fails to decode raises `FrameCorrupt` on every
call and is never cached. At most 3 distinct frames lie between two
decodes of one frame on the steady fixture run at 6, 50, 100 and 500
peers, and 0 on failover at 6 and 50 peers.

Reassembly is keyed by (src, msg_id): packets may arrive in any order and
duplicated; a completed key is remembered for one timeout window so late
duplicates do not rebuild the message. Entries that never complete are
reported by `scan_timeouts`, which expires from the front and so needs
insertion order to be time order: true while only `reassemble` changes
the buffer and `now` never decreases. `reassemble` checks each key it
touches lazily and needs no such order.

A `CommConfig` checks every value rule when it is built, whether it comes
from a config file (`parse_comm_config`, which names the offending line)
or from code.
"""

from __future__ import annotations

import binascii
import functools
import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum

from .model import strip_comment

# --- integrity primitives -----------------------------------------------------

MAX_AUTH_KEY_LEN = hashlib.blake2s.MAX_KEY_SIZE  # 32 bytes


def auth_tag(key: bytes, data: bytes) -> int:
    """Keyed BLAKE2s with a 4-byte digest, as a big-endian integer."""
    return int.from_bytes(hashlib.blake2s(data, digest_size=4, key=key).digest(), "big")


def crc16(data: bytes, crc: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection)."""
    return binascii.crc_hqx(data, crc)


# --- priorities ----------------------------------------------------------------

DEFAULT_PRIORITY = 100
DEFAULT_PRIORITIES: dict[str, int] = {
    "track_data": 200,
    "command": 180,
    "status": 140,
    "health": 120,
    "log": 40,
}


def classify_priority(
    data_type: str, table: dict[str, int] | None = None, default: int = DEFAULT_PRIORITY
) -> int:
    """Total lookup: configured types map through the table, the rest to default."""
    return (DEFAULT_PRIORITIES if table is None else table).get(data_type, default)


def data_type_for_priority(
    priority: int, table: dict[str, int] | None = None
) -> str:
    """Inverse of classify_priority for the one-to-one tables parse_comm_config accepts."""
    for name, value in (DEFAULT_PRIORITIES if table is None else table).items():
        if value == priority:
            return name
    return "unknown"


# --- packets -------------------------------------------------------------------

HEADER_LEN = 15
_HEADER = struct.Struct(">IHHBHI")
_HEADER_SANS_TAG = struct.Struct(">IHHBH")
MAX_TOTAL_COUNT = 0xFFFF
MAX_MTU_PAYLOAD = 0xFFFF - HEADER_LEN  # a LINK_A length field covers header + payload


@dataclass(frozen=True)
class AppMessage:
    msg_id: int
    src: str
    dst: str
    data_type: str
    payload: bytes


@dataclass(frozen=True)
class Packet:
    msg_id: int
    seq_index: int
    total_count: int
    priority: int
    payload: bytes
    auth_tag: int

    def header_sans_tag(self) -> bytes:
        return _HEADER_SANS_TAG.pack(
            self.msg_id, self.seq_index, self.total_count, self.priority, len(self.payload)
        )

    def to_bytes(self) -> bytes:
        return (
            _HEADER.pack(
                self.msg_id,
                self.seq_index,
                self.total_count,
                self.priority,
                len(self.payload),
                self.auth_tag,
            )
            + self.payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        if len(data) < HEADER_LEN:
            raise ValueError("short packet")
        msg_id, seq, total, priority, payload_len, tag = _HEADER.unpack(data[:HEADER_LEN])
        payload = data[HEADER_LEN:]
        if payload_len != len(payload):
            raise ValueError("payload length mismatch")
        return cls(msg_id, seq, total, priority, payload, tag)


class MessageTooLarge(Exception):
    pass


def packetize(
    msg: AppMessage,
    mtu_payload: int,
    key: bytes,
    table: dict[str, int] | None = None,
    default: int = DEFAULT_PRIORITY,
) -> list[Packet]:
    """Split a message into tagged packets of at most mtu_payload bytes."""
    if not 1 <= mtu_payload <= MAX_MTU_PAYLOAD:
        raise ValueError(f"mtu_payload must be in 1..{MAX_MTU_PAYLOAD}, got {mtu_payload}")
    total = max(1, -(-len(msg.payload) // mtu_payload))
    if total > MAX_TOTAL_COUNT:
        raise MessageTooLarge(
            f"{len(msg.payload)} bytes need {total} packets; limit is {MAX_TOTAL_COUNT}"
        )
    priority = classify_priority(msg.data_type, table, default)
    packets = []
    for i in range(total):
        chunk = msg.payload[i * mtu_payload : (i + 1) * mtu_payload]
        header = _HEADER_SANS_TAG.pack(msg.msg_id, i, total, priority, len(chunk))
        packets.append(
            Packet(msg.msg_id, i, total, priority, chunk, auth_tag(key, header + chunk))
        )
    return packets


def verify_packet(key: bytes, pkt: Packet) -> bool:
    """Whether `pkt` carries the tag `key` gives it (memoized, see module doc)."""
    try:
        return _verified(key, pkt)
    except (TypeError, ValueError):  # unhashable key or packet; a genuine error raises again
        return _tag_matches(key, pkt)


def _tag_matches(key: bytes, pkt: Packet) -> bool:
    return auth_tag(key, pkt.header_sans_tag() + pkt.payload) == pkt.auth_tag


_verified = functools.lru_cache(maxsize=16)(_tag_matches)


# --- reassembly ------------------------------------------------------------------


class OutcomeKind(Enum):
    COMPLETE = "complete"
    PENDING = "pending"
    DUPLICATE = "duplicate"
    REJECTED = "rejected"


@dataclass(frozen=True, slots=True)
class ReassemblyOutcome:
    kind: OutcomeKind
    message: AppMessage | None = None
    reason: str | None = None  # "auth" | "timeout" | "inconsistent"
    key: tuple[str, int] | None = None


@dataclass(slots=True)
class _Entry:
    received: dict[int, bytes]
    total_count: int
    first_seen: int
    priority: int


@dataclass
class ReassemblyBuffer:
    owner: str = ""  # destination endpoint whose traffic this buffer holds
    entries: dict[tuple[str, int], _Entry] = field(default_factory=dict)
    completed: dict[tuple[str, int], int] = field(default_factory=dict)


def reassemble(
    buffer: ReassemblyBuffer,
    pkt: Packet,
    now: int,
    timeout: int,
    key: bytes,
    src: str = "?",
    table: dict[str, int] | None = None,
) -> ReassemblyOutcome:
    """Feed one packet; outcome tells the caller what happened.

    The tag is checked before any state changes, so unauthenticated
    packets can never create or grow an entry.
    """
    k = (src, pkt.msg_id)
    if not verify_packet(key, pkt):
        return ReassemblyOutcome(OutcomeKind.REJECTED, reason="auth", key=k)
    if pkt.total_count < 1 or pkt.seq_index >= pkt.total_count:
        return ReassemblyOutcome(OutcomeKind.REJECTED, reason="inconsistent", key=k)

    done_at = buffer.completed.get(k)
    if done_at is not None:
        if now - done_at < timeout:
            return ReassemblyOutcome(OutcomeKind.DUPLICATE, key=k)
        del buffer.completed[k]

    entry = buffer.entries.get(k)
    if entry is not None and now - entry.first_seen >= timeout:
        del buffer.entries[k]  # stale; scan_timeouts would have reported it
        entry = None

    if entry is None:
        entry = _Entry({pkt.seq_index: pkt.payload}, pkt.total_count, now, pkt.priority)
        buffer.entries[k] = entry
    else:
        if pkt.total_count != entry.total_count:
            return ReassemblyOutcome(OutcomeKind.REJECTED, reason="inconsistent", key=k)
        if pkt.seq_index in entry.received:
            return ReassemblyOutcome(OutcomeKind.DUPLICATE, key=k)
        entry.received[pkt.seq_index] = pkt.payload

    if len(entry.received) == entry.total_count:
        payload = b"".join(entry.received[i] for i in range(entry.total_count))
        del buffer.entries[k]
        buffer.completed[k] = now
        msg = AppMessage(
            pkt.msg_id, src, buffer.owner, data_type_for_priority(entry.priority, table), payload
        )
        return ReassemblyOutcome(OutcomeKind.COMPLETE, message=msg, key=k)
    return ReassemblyOutcome(OutcomeKind.PENDING, key=k)


def scan_timeouts(buffer: ReassemblyBuffer, now: int, timeout: int) -> list[ReassemblyOutcome]:
    """Expire incomplete entries (and stale completed-key memory).

    Precondition: insertion order is time order, which holds while every
    change comes from `reassemble` and `now` never decreases. Each dict is
    then expired from the front, stopping at its first live item.
    """
    out = []
    entries, completed = buffer.entries, buffer.completed
    while entries:
        k, entry = next(iter(entries.items()))
        if now - entry.first_seen < timeout:
            break
        del entries[k]
        out.append(ReassemblyOutcome(OutcomeKind.REJECTED, reason="timeout", key=k))
    while completed:
        k, done_at = next(iter(completed.items()))
        if now - done_at < timeout:
            break
        del completed[k]
    return out


# --- framing ---------------------------------------------------------------------


class LinkType(Enum):
    LINK_A = "LINK_A"
    LINK_B = "LINK_B"


class FrameCorrupt(Exception):
    pass


LINK_A_SYNC = b"\xaa\x55"
_FLAG = 0x7E
_ESCAPE = 0x7D


def convert_to_frame(pkt: Packet, link: LinkType) -> bytes:
    body = pkt.to_bytes()
    if link is LinkType.LINK_A:
        length = struct.pack(">H", len(body))
        return LINK_A_SYNC + length + body + struct.pack(">H", crc16(length + body))
    inner = body + struct.pack(">H", crc16(body))
    # escape 0x7D first, or the escapes written for 0x7E would be escaped again
    stuffed = inner.replace(b"\x7d", b"\x7d\x5d").replace(b"\x7e", b"\x7d\x5e")
    return b"\x7e" + stuffed + b"\x7e"


def convert_from_frame(data: bytes, link: LinkType) -> Packet:
    """Decode one frame; FrameCorrupt if it does not check (memoized, see module doc)."""
    return _decode(bytes(data), link is LinkType.LINK_A)


@functools.lru_cache(maxsize=16)
def _decode(data: bytes, link_a: bool) -> Packet:
    if link_a:
        if len(data) < 2 + 2 + HEADER_LEN + 2:
            raise FrameCorrupt("short frame")
        if data[:2] != LINK_A_SYNC:
            raise FrameCorrupt("bad sync")
        (length,) = struct.unpack(">H", data[2:4])
        if len(data) != 2 + 2 + length + 2:
            raise FrameCorrupt("length mismatch")
        (crc,) = struct.unpack(">H", data[-2:])
        if crc16(data[2:-2]) != crc:
            raise FrameCorrupt("checksum mismatch")
        body = data[4:-2]
    else:
        if len(data) < 2 or data[0] != _FLAG or data[-1] != _FLAG:
            raise FrameCorrupt("bad delimiters")
        raw = data[1:-1]
        if _FLAG in raw:
            raise FrameCorrupt("flag inside frame")
        inner = bytearray()
        i = 0
        j = raw.find(_ESCAPE)
        while j >= 0:
            if j + 1 >= len(raw):
                raise FrameCorrupt("dangling escape")
            inner += raw[i:j]
            inner.append(raw[j + 1] ^ 0x20)
            i = j + 2
            j = raw.find(_ESCAPE, i)
        inner += raw[i:]
        if len(inner) < HEADER_LEN + 2:
            raise FrameCorrupt("short frame")
        body = bytes(inner[:-2])
        (crc,) = struct.unpack(">H", inner[-2:])
        if crc16(body) != crc:
            raise FrameCorrupt("checksum mismatch")
    try:
        return Packet.from_bytes(body)
    except ValueError as exc:
        raise FrameCorrupt(str(exc)) from None


# --- health monitoring -------------------------------------------------------------


class HealthStatus(Enum):
    OK = "ok"
    LATE = "late"
    DEAD = "dead"


@dataclass
class HealthRecord:
    counter: int
    last_scanned: int | None = None
    misses: int = 0
    status: HealthStatus = HealthStatus.OK


@dataclass(frozen=True)
class Alert:
    process: str
    status: HealthStatus
    at: int


@dataclass
class HealthTable:
    records: dict[str, HealthRecord] = field(default_factory=dict)

    def observe(self, process: str, counter: int) -> None:
        """Record a heartbeat counter; `scan` judges progress against it."""
        rec = self.records.get(process)
        if rec is None:
            self.records[process] = HealthRecord(counter)
        else:
            rec.counter = counter

    def scan(self, now: int, dead_threshold: int) -> list[Alert]:
        """Edge-triggered health pass: Late after one miss, Dead after dead_threshold."""
        alerts = []
        for process, rec in self.records.items():
            if rec.last_scanned is None or rec.counter != rec.last_scanned:
                rec.last_scanned = rec.counter
                rec.misses = 0
                if rec.status is HealthStatus.LATE:
                    rec.status = HealthStatus.OK  # silent recovery; dead stays dead
                continue
            rec.misses += 1
            if rec.status is HealthStatus.DEAD:
                continue
            if rec.misses >= dead_threshold:
                rec.status = HealthStatus.DEAD
                alerts.append(Alert(process, HealthStatus.DEAD, now))
            elif rec.status is HealthStatus.OK:
                rec.status = HealthStatus.LATE
                alerts.append(Alert(process, HealthStatus.LATE, now))
        return alerts


# --- configuration ---------------------------------------------------------------------


_COUNT_KEYS = ("mtu_payload", "reassembly_timeout", "scan_period", "dead_threshold")
_INT_KEYS = (*_COUNT_KEYS, "default_priority")


def _check_value(key: str, value) -> None:
    """ValueError when `value` breaks the rule for config key `key`."""
    if key == "auth_key":
        if len(value) > MAX_AUTH_KEY_LEN:
            raise ValueError(f"auth_key must be at most {MAX_AUTH_KEY_LEN} bytes, got {len(value)}")
    elif key in _COUNT_KEYS:
        if value < 1:
            raise ValueError(f"{key} must be at least 1, got {value}")
        if key == "mtu_payload" and value > MAX_MTU_PAYLOAD:
            raise ValueError(f"mtu_payload must be at most {MAX_MTU_PAYLOAD}, got {value}")
    elif not 0 <= value <= 255:
        raise ValueError(f"{key} must be in 0..255, got {value}")


def _priority_clash(default_priority: int, priorities) -> tuple[str, str, int] | None:
    """The first two keys that share a priority, and that priority, or None."""
    owner = {default_priority: "default_priority"}
    for key, number in ((f"priority.{name}", n) for name, n in priorities):
        other = owner.setdefault(number, key)
        if other != key:
            return key, other, number
    return None


@dataclass(frozen=True)
class CommConfig:
    """Comm-stack settings. Sizes, periods and thresholds must be at least 1,
    mtu_payload at most MAX_MTU_PAYLOAD and auth_key at most
    MAX_AUTH_KEY_LEN bytes; priorities travel in one header byte, so they
    must lie in 0..255. A reassembled message's type is read back from its
    priority, so no two types may share one and none may equal
    default_priority. A config that breaks a rule raises ValueError when it
    is built, from a file or from code."""

    mtu_payload: int = 1000
    reassembly_timeout: int = 3000
    scan_period: int = 100
    dead_threshold: int = 3
    auth_key: bytes = b"viewcase"
    default_priority: int = DEFAULT_PRIORITY
    priorities: tuple[tuple[str, int], ...] = tuple(DEFAULT_PRIORITIES.items())

    def __post_init__(self) -> None:
        for key in (*_INT_KEYS, "auth_key"):
            _check_value(key, getattr(self, key))
        for name, number in self.priorities:
            _check_value(f"priority.{name}", number)
        clash = _priority_clash(self.default_priority, self.priorities)
        if clash:
            raise ValueError("{} and {} are both {}; types must differ".format(*clash))

    def priority_table(self) -> dict[str, int]:
        return dict(self.priorities)


DEFAULT_CONFIG = CommConfig()


def parse_comm_config(text: str) -> CommConfig:
    """Parse `key = value` configuration lines (comments as in model files).

    A value that breaks a `CommConfig` rule is refused at the line that
    sets it; two types that share a priority, at the later of their lines.
    """
    values: dict[str, object] = {}
    priorities: dict[str, int] = dict(DEFAULT_PRIORITIES)
    set_at: dict[str, int] = {}  # key -> line that last set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "auth_key":
            number: object = value.encode()
        elif key not in _INT_KEYS and not key.startswith("priority."):
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        else:
            try:
                number = int(value)
            except ValueError:
                raise ValueError(f"line {lineno}: {key} needs an integer, got {value!r}") from None
        try:
            _check_value(key, number)
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
        if key.startswith("priority."):
            priorities[key[len("priority."):]] = number  # type: ignore[assignment]
        else:
            values[key] = number
        set_at[key] = lineno
    clash = _priority_clash(values.get("default_priority", DEFAULT_PRIORITY), priorities.items())
    if clash:
        key, other, number = clash
        lineno = max(set_at.get(key, 0), set_at.get(other, 0))
        raise ValueError(f"line {lineno}: {key} and {other} are both {number}; types must differ")
    return CommConfig(priorities=tuple(priorities.items()), **values)  # type: ignore[arg-type]


def _reads_back(key: str, value: str) -> bool:
    """Whether `parse_comm_config` reads the line `key = value` as that key and value."""
    line = f"{key} = {value}"
    left, _, right = strip_comment(line).partition("=")
    return line.splitlines() == [line] and (left.strip(), right.strip()) == (key, value)


def render_comm_config(cfg: CommConfig) -> str:
    """Config-file text of `cfg`; ValueError naming the auth_key or the
    priority whose line would not read back."""
    key = cfg.auth_key.decode(errors="replace")
    if key.encode() != cfg.auth_key or not _reads_back("auth_key", key):
        raise ValueError(f"auth_key {cfg.auth_key!r} would not read back from a config file")
    for name, value in cfg.priorities:
        if not _reads_back(f"priority.{name}", str(value)):
            raise ValueError(f"priority {name!r} would not read back from a config file")
    lines = [
        f"mtu_payload = {cfg.mtu_payload}",
        f"reassembly_timeout = {cfg.reassembly_timeout}",
        f"scan_period = {cfg.scan_period}",
        f"dead_threshold = {cfg.dead_threshold}",
        f"auth_key = {key}",
        f"default_priority = {cfg.default_priority}",
    ]
    lines.extend(f"priority.{name} = {value}" for name, value in cfg.priorities)
    return "\n".join(lines) + "\n"
