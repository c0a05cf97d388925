"""Wire messages shared by all transports, and their one binary codec.

Two representations exist:

* :class:`Message` — one message as a Python object. The unit of the
  protocol code and of every transport's scalar path.
* :class:`MessageBatch` — a *slab* of same-kind messages as parallel NumPy
  arrays (sources, destinations, wire sizes, a contiguous ``msg_id`` block,
  and opaque caller-owned payload columns). The unit of the bulk-simulation
  path (:meth:`repro.sim.simnet.SimTransport.send_batch`): at 10^5 nodes a
  continuous-push round is one batch, not 10^5 message objects.

The UDP transport sends :func:`encode_message`'s bytes; the simulated and
in-process transports pass objects straight through and account
:meth:`Message.encoded_size`, which equals that length without packing.

**Wire format** (``docs/PROTOCOL.md``): a fixed header (version, layout
code, flags, ids), the payload as :data:`WIRE_LAYOUTS` declares it for the
layout code, then an optional trace section. A payload no layout fits rides
under layout code 0 as a JSON object. Sizes are arithmetic on the layout.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, cast

import numpy as np

from repro.errors import TransportError
from repro.telemetry.spans import TRACE_KEY

__all__ = [
    "MAX_DATAGRAM",
    "Message",
    "MessageBatch",
    "WIRE_LAYOUTS",
    "encode_message",
    "decode_message",
    "reserve_msg_ids",
    "reset_msg_ids",
    "take_rows",
]

#: The UDP datagram budget: an encoded message never exceeds it.
MAX_DATAGRAM = 65000


class _MsgIdAllocator:
    """Monotonic message-id source with O(1) bulk reservation.

    ``take()`` hands out one id (the :class:`Message` default); ``reserve``
    claims a contiguous block for a :class:`MessageBatch` without ticking an
    iterator ``n`` times. Ids issued by either path never collide.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def take(self) -> int:
        value = self._next
        self._next = value + 1
        return value

    def reserve(self, count: int) -> int:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        start = self._next
        self._next = start + count
        return start


_MSG_IDS = _MsgIdAllocator()


def reserve_msg_ids(count: int) -> int:
    """Claim ``count`` consecutive message ids; returns the first.

    Batched sends consume ids from the same global sequence as scalar
    :class:`Message` construction, so byte accounting (ids appear in the
    wire encoding) and reply correlation stay consistent across paths.
    """
    return _MSG_IDS.reserve(count)


def reset_msg_ids(start: int = 1) -> None:
    """Rewind the global message-id sequence (testing support only).

    Equivalence tests replay the same scenario through the object and slab
    paths and compare *wire bytes*; ids appear in the encoding, so each
    replay must start from the same id.
    """
    _MSG_IDS._next = start


@dataclass(slots=True)
class Message:
    """One protocol message.

    Parameters
    ----------
    kind:
        Application-level message type (e.g. ``"find_successor"``,
        ``"agg_push"``).
    source, destination:
        Node identifiers (transport addresses are resolved by the
        transport's registry).
    payload:
        Field dict: laid out by :data:`WIRE_LAYOUTS` when it fits one of
        the kind's layouts, else a JSON object.
    msg_id:
        Unique id; responses echo the request's id in ``reply_to``.
    reply_to:
        For responses: the ``msg_id`` of the request being answered.
    """

    kind: str
    source: int
    destination: int
    payload: dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=_MSG_IDS.take)
    reply_to: int | None = None

    @property
    def is_response(self) -> bool:
        """True when this message answers an earlier request."""
        return self.reply_to is not None

    def response(self, kind: str | None = None, **payload: Any) -> "Message":
        """Build a response to this message (source/destination swapped)."""
        return Message(
            kind=kind or f"{self.kind}_reply",
            source=self.destination,
            destination=self.source,
            payload=payload,
            reply_to=self.msg_id,
        )

    def encoded_size(self) -> int:
        """``len(encode_message(self))``, read off the layout without packing:
        a constant per (layout, width) for a layout with no variable field."""
        try:
            size = _SIZERS[self.kind](self)
        except _MISFIT:  # a ``KeyError`` too: a kind that no layout names
            size = None
        if size is None:
            head, _values, body = _json_message(self)
            size = head.size + len(body)
        return size


#: The JSON-body encoder: compact separators, ASCII-only output.
_WIRE_JSON = json.JSONEncoder(separators=(",", ":"))
_ENCODE_ERRORS = (TypeError, ValueError, RecursionError)


# --------------------------------------------------------------------- #
# The codec
# --------------------------------------------------------------------- #

_Fields = tuple[tuple[str, str], ...]
#: Layout code -> (kind, ordered ``(field, type)`` pairs); fixed-width
#: fields lead. Code 0 is the JSON body; ``leave_notice`` has two shapes.
WIRE_LAYOUTS: dict[int, tuple[str, _Fields]] = {
    1: ("lookup", (("key", "id"), ("origin", "id"), ("token", "uint"),
                   ("hops", "uint"), ("path", "ids"))),
    2: ("lookup_result", (("result", "id"), ("path", "ids"))),
    3: ("get_neighbors", ()),
    4: ("get_neighbors_reply", (("predecessor", "opt_id"), ("successor_list", "ids"))),
    5: ("notify", (("candidate", "id"),)),
    6: ("ping", ()),
    7: ("ping_reply", (("alive", "bool"),)),
    8: ("leave_notice", (("new_successor", "id"),)),
    9: ("leave_notice", (("new_predecessor", "id"),)),
    10: ("probe_join", (("point", "id"),)),
    11: ("probe_join_reply", (("designated", "id"),)),
    12: ("get_fingers", ()),
    13: ("get_fingers_reply", (("entries", "ids"),)),
    20: ("agg_push", (("key", "id"), ("state", "state"))),
    21: ("agg_collect", (("key", "id"), ("root", "id"), ("round_id", "uint"),
                        ("aggregate", "str"))),
    22: ("agg_partial", (("key", "id"), ("round_id", "uint"), ("state", "state"))),
    23: ("gather_push", (("round_id", "uint"), ("state", "state"))),
    30: ("net_error", (("error", "str"), ("detail", "str"))),
    31: ("net_batch", (("messages", "frames"),)),
}

_VERSION, _REPLY, _TRACED, _WIDE = 1, 1, 2, 4
_NARROW, _ID_LIMIT, _I64 = 1 << 64, 1 << 160, 1 << 63  # ids below 2^64 take 8 bytes
#: Header (version, layout code, flags, src, dst, msg_id [, reply_to]) by
#: the reply and wide flags.
_HEAD_FORMATS = {
    flags: "<BBB" + ("20s20s" if flags & _WIDE else "QQ") + ("QQ" if flags & _REPLY else "Q")
    for flags in (0, _REPLY, _WIDE, _REPLY | _WIDE)
}
_HEADS = {flags: struct.Struct(head) for flags, head in _HEAD_FORMATS.items()}
_U16, _U32, _TUPLE = struct.Struct("<H"), struct.Struct("<I"), struct.Struct("<BH")
_NUMBER = {float: struct.Struct("<Bd"), int: struct.Struct("<Bq")}  # state tags 0, 1
_BY_TAG = {0: struct.Struct("<d"), 1: struct.Struct("<q")}  # a tuple is tag 2
#: What a field's ``size`` / ``pack`` raise for a value it does not hold
#: (the message then takes a JSON body).
_MISFIT = (KeyError, TypeError, ValueError, OverflowError, struct.error)

#: Fixed-width field types: the test that ``{v}`` fits, and the struct
#: format at id width 8 and 20. They pack with the header as one struct.
_FIXED = {
    "id": ("type({v}) is int and 0 <= {v} < _ID_LIMIT", "Q", "20s"),
    "uint": ("type({v}) is int and 0 <= {v} < _NARROW", "Q", "Q"),
    "bool": ("type({v}) is bool", "?", "?"),
}


def _take(data: bytes, pos: int, n: int) -> tuple[bytes, int]:
    if pos + n > len(data):
        raise ValueError(f"{n} bytes at offset {pos} run past the end ({len(data)})")
    return data[pos:pos + n], pos + n


def _id_demand(v: Any) -> int:
    """-1: not an id; 1: an id that needs the wide width; 0: any id."""
    return int(v >= _NARROW) if type(v) is int and 0 <= v < _ID_LIMIT else -1


def _ids_demand(v: Any) -> int:
    if type(v) is not list or len(v) > 0xFFFF or set(map(type, v)) - {int}:
        return -1  # ``type is int`` excludes a bool
    return 0 if not v else _id_demand(min(v)) | _id_demand(max(v))


def _get_ids(data: bytes, pos: int, w: int) -> tuple[list[int], int]:
    raw, end = _take(data, pos + 2, _U16.unpack_from(data, pos)[0] * w)
    return [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)], end


def _get_id(data: bytes, pos: int, w: int) -> tuple[int, int]:
    raw, end = _take(data, pos, w)
    return int.from_bytes(raw, "little"), end


def _str_bytes(v: Any) -> bytes:
    if type(v) is not str:
        raise TypeError(f"a {type(v).__name__} is not a str")
    raw: bytes = v.encode()  # a lone surrogate raises: UTF-8 has no form for it
    if len(raw) > 0xFFFF:
        raise ValueError(f"string of {len(raw)} bytes exceeds a u16 length")
    return raw


def _pack_str(v: Any, w: int = 8) -> bytes:
    raw = _str_bytes(v)
    return _U16.pack(len(raw)) + raw


def _get_str(data: bytes, pos: int, w: int = 8) -> tuple[str, int]:
    raw, end = _take(data, pos + 2, _U16.unpack_from(data, pos)[0])
    return raw.decode(), end


def _state_size(v: Any) -> int:
    """A tuple state's size (the generated code sizes a number itself)."""
    if type(v) is tuple and len(v) <= 0xFFFF and all(
        type(n) is float or (type(n) is int and -_I64 <= n < _I64) for n in v
    ):
        return 3 + 9 * len(v)
    raise TypeError(f"state {v!r} is not a float, an int64 or a flat tuple of them")


def _pack_state(v: Any, w: int) -> bytes:
    if type(v) is not tuple:
        return _NUMBER[type(v)].pack(type(v) is int, v)
    numbers = [_NUMBER[type(n)].pack(type(n) is int, n) for n in v]
    return _TUPLE.pack(2, len(v)) + b"".join(numbers)


def _get_number(data: bytes, pos: int) -> Any:
    number = _BY_TAG.get(data[pos])
    if number is None:
        raise ValueError(f"bad state tag {data[pos]}")
    return number.unpack_from(data, pos + 1)[0]


def _get_state(data: bytes, pos: int, w: int) -> tuple[Any, int]:
    if data[pos] != 2:
        return _get_number(data, pos), pos + 9
    end = pos + 3 + 9 * _U16.unpack_from(data, pos + 1)[0]
    return tuple(_get_number(data, at) for at in range(pos + 3, end, 9)), end


def _frames(v: Any) -> list[Message]:
    if type(v) is not list or len(v) > 0xFFFF or any(type(m) is not Message for m in v):
        raise TypeError("frames are a list of at most 65 535 messages")
    return cast(list[Message], v)


def _pack_frames(v: Any, w: int) -> bytes:
    frames = [encode_message(m) for m in _frames(v)]
    return _U16.pack(len(v)) + b"".join(_U32.pack(len(f)) + f for f in frames)


def _get_frames(data: bytes, pos: int, w: int) -> tuple[list[Message], int]:
    frames: list[Message] = []
    count, pos = _U16.unpack_from(data, pos)[0], pos + 2
    for _ in range(count):
        frame, pos = _take(data, pos + 4, _U32.unpack_from(data, pos)[0])
        frames.append(decode_message(frame))
    return frames, pos


#: Variable-width field types, after the fixed ones: the expressions for
#: ``{v}``'s demand (see ``_id_demand``; only for types that hold ids) and
#: byte size, then ``pack(v, w)`` and ``get(data, pos, w) -> (v, pos)``,
#: ``w`` the id width. A size or pack raises for a value it does not hold.
_VARIABLE: dict[str, tuple[Any, ...]] = {
    "opt_id": (
        "(0 if {v} is None else id_demand({v}))", "(1 if {v} is None else 1 + w)",
        lambda v, w: b"\x00" if v is None else b"\x01" + v.to_bytes(w, "little"),
        lambda data, pos, w: _get_id(data, pos + 1, w) if data[pos] else (None, pos + 1),
    ),
    "ids": (
        "ids_demand({v})", "(2 + len({v}) * w)",
        lambda v, w: _U16.pack(len(v)) + b"".join(i.to_bytes(w, "little") for i in v),
        _get_ids,
    ),
    "str": (None, "(2 + len(str_bytes({v})))", _pack_str, _get_str),
    "state": (
        None, "(9 if type({v}) is float or (type({v}) is int and -_I64 <= {v} < _I64)"
        " else state_size({v}))", _pack_state, _get_state,
    ),
    "frames": (
        None, "(2 + sum(4 + m.encoded_size() for m in frames({v})))", _pack_frames, _get_frames,
    ),
}


def _trace_section(trace: Any) -> bytes:
    """``[trace_id, parent, hop]`` as two strings and a u32 (a ``_MISFIT``
    error when it is anything else)."""
    if type(trace) is not list or len(trace) != 3 or type(trace[2]) is not int:
        raise TypeError(f"trace context {trace!r} is not [str, str, int]")
    return _pack_str(trace[0]) + _pack_str(trace[1]) + _U32.pack(trace[2])


def _get_trace(data: bytes, pos: int, payload: dict[str, Any]) -> int:
    trace_id, pos = _get_str(data, pos)
    parent, pos = _get_str(data, pos)
    payload[TRACE_KEY] = [trace_id, parent, _U32.unpack_from(data, pos)[0]]
    return pos + 4


_ENVELOPE_FITS = (  # on the names the generated functions bind
    "type(src) is int and type(dst) is int and type(mid) is int"
    " and 0 <= src < _ID_LIMIT and 0 <= dst < _ID_LIMIT and 0 <= mid < _NARROW"
    " and (rt is None or (type(rt) is int and 0 <= rt < _NARROW))"
)


def _compile(kind: str, layouts: dict[int, _Fields]) -> tuple[Any, Any, dict[int, Any]]:
    """The kind's ``encode(m)`` and ``size(m)`` (None when its payload fits
    none of its layouts) and each layout's ``decode(data, flags)``, generated
    as straight-line code: a loop over fields costs several times the packing."""
    namespace: dict[str, Any] = {
        "_ID_LIMIT": _ID_LIMIT, "_NARROW": _NARROW, "_I64": _I64, "_TRACE": TRACE_KEY,
        "Message": Message,
        "trace_section": _trace_section, "get_trace": _get_trace, "id_demand": _id_demand,
        "ids_demand": _ids_demand, "str_bytes": _str_bytes, "state_size": _state_size,
        "frames": _frames,
    }
    for type_name, (_demand, _size, pack, get) in _VARIABLE.items():
        namespace[f"{type_name}_pack"], namespace[f"{type_name}_get"] = pack, get
    prologue = [
        "    p = m.payload",
        "    src, dst, mid, rt = m.source, m.destination, m.msg_id, m.reply_to",
        f"    if type(p) is not dict or not ({_ENVELOPE_FITS}):",
        "        return None",
        "    traced = _TRACE in p",
        "    keys = p.keys()",
    ]
    encode, size, decode = ["def encode(m):", *prologue], ["def size(m):", *prologue], []
    for code, fields in layouts.items():
        n_fixed = sum(type_name in _FIXED for _, type_name in fields)
        fixed, var = fields[:n_fixed], list(enumerate(fields[n_fixed:], n_fixed))
        if any(t in _FIXED for _, (_, t) in var):
            raise ValueError(f"layout {code}: fixed-width fields must lead")
        names = [f"v{i}" for i in range(n_fixed)]  # the fixed fields' locals
        wide_ids = ["src", "dst", *(f"v{i}" for i, (_, t) in enumerate(fixed) if t == "id")]
        held = [(j, _VARIABLE[t][0]) for j, (_, t) in var if _VARIABLE[t][0] is not None]
        checks = [_FIXED[t][0].format(v=f"v{i}") for i, (_, t) in enumerate(fixed)]
        demands = [f"{v} >= _NARROW" for v in wide_ids] + [f"d{j} == 1" for j, _ in held]
        keys = frozenset(name for name, _ in fields)
        namespace[f"keys{code}"] = (keys, keys | {TRACE_KEY})
        namespace[f"heads{code}"] = {
            flags: struct.Struct(head + "".join(_FIXED[t][1 + bool(flags & _WIDE)] for _, t in fixed))
            for flags, head in _HEAD_FORMATS.items()
        }
        fits = [  # shared by encode and size
            f"    if keys == keys{code}[traced]:",
            *(f"        v{i} = p[{name!r}]" for i, (name, _) in enumerate(fields)),
            f"        if not ({' and '.join(checks) or 'True'}):",
            "            return None",
            *(f"        d{j} = {demand.format(v=f'v{j}')}\n        if d{j} < 0:\n"
              "            return None" for j, demand in held),
            f"        wide = {' or '.join(demands)}",
            "        w, flags = (20 if wide else 8), (rt is not None) | traced * 2 | wide * 4",
        ]
        encode += [
            *fits,
            "        if wide:",
            *(f"            {v} = {v}.to_bytes(20, 'little')" for v in wide_ids),
            f"        head = heads{code}[flags & 5]",
            "        if rt is None:",
            f"            out = head.pack(1, {code}, flags, {', '.join(['src, dst, mid', *names])})",
            "        else:",
            f"            out = head.pack(1, {code}, flags, {', '.join(['src, dst, mid, rt', *names])})",
            *(f"        out += {t}_pack(v{j}, w)" for j, (_, t) in var),
            "        return out + trace_section(p[_TRACE]) if traced else out",
        ]
        size += [
            *fits,
            "        trace = len(trace_section(p[_TRACE])) if traced else 0",
            f"        return heads{code}[flags & 5].size + trace"
            + "".join(" + " + _VARIABLE[t][1].format(v=f"v{j}") for j, (_, t) in var),
        ]
        decode += [
            f"def decode{code}(data, flags):",
            f"    head = heads{code}[flags & 5]",
            "    vals = head.unpack_from(data)",
            "    %s = vals[3], vals[4]%s" % (
                ", ".join(["src", "dst", *names]),
                "".join(f", vals[{i - n_fixed}]" for i in range(n_fixed)),
            ),
            "    pos, w = head.size, 8",
            "    if flags & 4:",
            "        w = 20",
            *(f"        {v} = int.from_bytes({v}, 'little')" for v in wide_ids),
            "    p = {%s}" % ", ".join(f"{n!r}: v{i}" for i, (n, _) in enumerate(fixed)),
            *(f"    p[{fields[j][0]!r}], pos = {t}_get(data, pos, w)" for j, (_, t) in var),
            "    if flags & 2:",
            "        pos = get_trace(data, pos, p)",
            "    if pos != len(data):",
            "        raise ValueError(f'{len(data) - pos} trailing bytes')",
            f"    return Message({kind!r}, src, dst, p, vals[5], vals[6] if flags & 1 else None)",
        ]
    source = [*encode, "    return None", *size, "    return None", *decode]
    exec("\n".join(source), namespace)  # noqa: S102 -- source built from WIRE_LAYOUTS only
    return namespace["encode"], namespace["size"], {c: namespace[f"decode{c}"] for c in layouts}


def _decode_json_body(data: bytes, flags: int) -> Message:
    head = _HEADS[flags & ~_TRACED]  # a JSON body holds its own trace context
    _, _, _, src, dst, mid, *reply = head.unpack_from(data)
    if flags & _WIDE:
        src, dst = int.from_bytes(src, "little"), int.from_bytes(dst, "little")
    kind, pos = _get_str(data, head.size)
    payload = json.loads(data[pos:].decode())
    if not isinstance(payload, dict):
        raise ValueError(f"JSON body is a JSON {type(payload).__name__}, not an object")
    return Message(kind, src, dst, payload, mid, reply[0] if reply else None)


_ENCODERS: dict[str, Callable[[Message], bytes | None]] = {}
_SIZERS: dict[str, Callable[[Message], int | None]] = {}
_DECODERS: dict[int, Callable[[bytes, int], Message]] = {0: _decode_json_body}
for _kind in dict.fromkeys(kind for kind, _ in WIRE_LAYOUTS.values()):
    _layouts = {c: fields for c, (kind, fields) in WIRE_LAYOUTS.items() if kind == _kind}
    _ENCODERS[_kind], _SIZERS[_kind], _decoders = _compile(_kind, _layouts)
    _DECODERS.update(_decoders)
_envelope_fits = eval(  # noqa: S307 -- the generated functions' envelope check
    f"lambda src, dst, mid, rt: {_ENVELOPE_FITS}", {"_ID_LIMIT": _ID_LIMIT, "_NARROW": _NARROW}
)


def _json_message(message: Message) -> tuple[struct.Struct, tuple[Any, ...], bytes]:
    """A message under layout code 0: its header struct and values, and its
    body — the kind string, then the payload as a JSON object (``_trace``
    inside). :class:`TransportError` when it has no encoding."""
    src, dst, mid, rt = message.source, message.destination, message.msg_id, message.reply_to
    if not (_envelope_fits(src, dst, mid, rt) and isinstance(message.payload, dict)):
        raise TransportError(f"message envelope or payload is not encodable: {message!r}")
    try:
        body = _pack_str(message.kind) + _WIRE_JSON.encode(message.payload).encode()
    except _ENCODE_ERRORS as exc:
        raise TransportError(f"message is not encodable: {exc}") from exc
    flags = (rt is not None) | (src >= _NARROW or dst >= _NARROW) * _WIDE
    ids = (src.to_bytes(20, "little"), dst.to_bytes(20, "little")) if flags & _WIDE else (src, dst)
    values = (_VERSION, 0, flags, *ids, mid) + (() if rt is None else (rt,))
    return _HEADS[flags], values, body


def encode_message(message: Message) -> bytes:
    """The message's wire bytes; :class:`TransportError` when it has none."""
    try:
        out = _ENCODERS[message.kind](message)
    except _MISFIT:  # a ``KeyError`` too: a kind that no layout names
        out = None
    if out is None:
        head, values, body = _json_message(message)
        out = head.pack(*values) + body
    return out


def decode_message(data: bytes) -> Message:
    """Parse a wire message; raises :class:`TransportError` on malformed input."""
    try:
        code, flags = data[1], data[2]
        decode = _DECODERS.get(code)
        if decode is None or data[0] != _VERSION or flags & ~(_REPLY | _TRACED | _WIDE):
            raise ValueError(f"unknown version {data[0]}, layout {code} or flags {flags:#x}")
        return decode(data, flags)
    except (ValueError, IndexError, struct.error) as exc:
        raise TransportError(f"malformed wire message: {exc}") from exc


def int_digit_counts(values: np.ndarray) -> np.ndarray:
    """Decimal digit count of each non-negative int64. Only the frozen perf
    ledger calls it; it goes when ROADMAP item 1(a) frees the ledger."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("int_digit_counts requires non-negative values")
    return np.char.str_len(arr.astype(str)).astype(np.int64)


def float_repr_lengths(values: np.ndarray) -> np.ndarray:
    """Length of each float64 as JSON writes it (``Infinity``, not ``inf``).
    Only the frozen perf ledger calls it; it goes with ROADMAP item 1(a)."""
    numerals = _WIRE_JSON.encode(np.asarray(values, dtype=np.float64).tolist())
    return np.array([len(n) for n in numerals[1:-1].split(",") if n], dtype=np.int64)


def take_rows(column: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """``column[rows]`` for ascending distinct ``rows`` (what transports hand
    to delivery callbacks; ``None`` is every row): the column itself,
    uncopied, when that is every row, so a loss-free round gathers nothing."""
    return column if rows is None or len(rows) == len(column) else column[rows]


@dataclass(slots=True)
class MessageBatch:
    """A slab of same-kind request messages as parallel arrays.

    One batch is one logical fan-out (e.g. every ``agg_push`` of a
    continuous round): ``sources[i] -> destinations[i]`` carries the i-th
    message, whose wire size is ``sizes[i]`` and whose id is
    ``msg_id_start + i`` (a contiguous block from :func:`reserve_msg_ids`).
    Payload columns are caller-owned arrays (aggregate states, keys);
    transports never interpret them — delivery hands the batch plus the
    surviving row indices back to the caller's endpoint.

    The id and payload columns are read only once sent: a sender may hand
    the same arrays to the next batch (the slab sends its ``sources`` and
    ``destinations`` every round, and its state columns again while they
    do not change), and an endpoint may keep a delivered column as it is.
    Read-only id vectors also let the hotspot ledger recognise a repeated
    batch by identity.

    ``message(i)`` materializes one row as a :class:`Message` for
    debugging and for the size-exactness tests; the hot path never does.
    """

    kind: str
    sources: np.ndarray
    destinations: np.ndarray
    sizes: np.ndarray
    msg_id_start: int
    payload_columns: dict[str, np.ndarray] = field(default_factory=dict)
    #: Builds row ``i``'s payload dict (for :meth:`message` only).
    payload_of: Any = None

    def __post_init__(self) -> None:
        n = len(self.sources)
        if not (len(self.destinations) == len(self.sizes) == n):
            raise TransportError(
                "batch columns disagree on length: "
                f"{n} sources, {len(self.destinations)} destinations, "
                f"{len(self.sizes)} sizes"
            )

    def __len__(self) -> int:
        return len(self.sources)

    def msg_ids(self) -> np.ndarray:
        """The contiguous id block as an array."""
        return self.msg_id_start + np.arange(len(self), dtype=np.int64)

    def message(self, i: int) -> Message:
        """Materialize row ``i`` as a scalar :class:`Message` (slow path)."""
        payload = self.payload_of(i) if self.payload_of is not None else {}
        return Message(
            kind=self.kind,
            source=int(self.sources[i]),
            destination=int(self.destinations[i]),
            payload=payload,
            msg_id=self.msg_id_start + i,
        )
