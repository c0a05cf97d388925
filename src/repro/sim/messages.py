"""Wire messages shared by all transports.

Messages are small tagged dicts. The UDP transport serializes them as JSON
(UTF-8); the simulated and in-process transports pass the objects straight
through but still account for the encoded size so message/byte statistics
are comparable across substrates.

Two representations exist:

* :class:`Message` — one message as a Python object. The unit of the
  protocol code and of every transport's scalar path.
* :class:`MessageBatch` — a *slab* of same-kind messages as parallel NumPy
  arrays (sources, destinations, wire sizes, a contiguous ``msg_id`` block,
  and opaque caller-owned payload columns). The unit of the bulk-simulation
  path (:meth:`repro.sim.simnet.SimTransport.send_batch`): at 10^5 nodes a
  continuous-push round is one batch, not 10^5 message objects.

Batches never JSON-encode: their per-message wire sizes are computed
arithmetically from the same encoding rules (:func:`int_digit_counts` /
:func:`float_repr_lengths` plus :func:`envelope_overhead`), and
``tests/unit/test_slab.py`` asserts the computed sizes equal
``Message.encoded_size()`` of the materialized equivalents byte-for-byte.
"""

from __future__ import annotations

import json
import json.encoder
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Iterable, cast

import numpy as np

from repro.errors import TransportError

__all__ = [
    "Message",
    "MessageBatch",
    "encode_message",
    "decode_message",
    "reserve_msg_ids",
    "reset_msg_ids",
    "int_digit_counts",
    "block_digit_counts",
    "float_repr_lengths",
    "take_rows",
    "envelope_overhead",
]


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
        JSON-serializable dict.
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
        """Byte size of this message on the wire (JSON encoding).

        ``len(encode_message(self))`` without building the envelope: the
        kind's cached :func:`envelope_overhead`, the envelope numerals and
        the encoded payload. An envelope field of another type than the
        wire's plain ``str`` kind and ``int`` numerals is measured by the
        full encoding.
        """
        src = self.source
        dst = self.destination
        msg_id = self.msg_id
        reply_to = self.reply_to
        if not (
            type(self.kind) is str and type(src) is int and type(dst) is int
            and type(msg_id) is int and (reply_to is None or type(reply_to) is int)
        ):
            return len(encode_message(self))
        try:
            size = (
                envelope_overhead(self.kind)
                + len(f"{src}{dst}{msg_id}")
                + len("".join(_wire_chunks(self.payload, 0)))
            )
            # The overhead spells a request's ``"reply_to":null``.
            return size if reply_to is None else size - 4 + len(f"{reply_to}")
        except _ENCODE_ERRORS as exc:
            raise _not_serializable(exc) from exc


#: Built once: ``json.dumps(..., separators=...)`` makes an encoder per call.
_WIRE_JSON = json.JSONEncoder(separators=(",", ":"))


#: ``chunks(obj, 0)``: the pieces of ``obj``'s wire encoding.
_Chunker = Callable[[Any, int], Iterable[str]]


def _wire_chunker() -> _Chunker:
    """``_WIRE_JSON``'s encoding as a chunker, built once.

    ``JSONEncoder.encode`` constructs a C encoder per call; this one is made
    up front with the same settings. It keeps no circular-reference
    markers (a markers dict would be shared across calls and threads), so a
    cycle ends in the encoder's recursion guard instead: a
    :class:`RecursionError`, caught with the other encoding errors. Without
    the C accelerator it is ``_WIRE_JSON.iterencode``, whose second
    positional argument (``_one_shot``) is then false.
    """
    make = json.encoder.c_make_encoder
    if make is None:
        return _WIRE_JSON.iterencode
    wire = _WIRE_JSON
    encoder = make(
        None, wire.default, json.encoder.encode_basestring_ascii, wire.indent,
        wire.key_separator, wire.item_separator, wire.sort_keys,
        wire.skipkeys, wire.allow_nan,
    )
    return cast(_Chunker, encoder)


_wire_chunks = _wire_chunker()
_ENCODE_ERRORS = (TypeError, ValueError, RecursionError)


def _not_serializable(exc: Exception) -> TransportError:
    return TransportError(f"message payload is not JSON-serializable: {exc}")


def encode_message(message: Message) -> bytes:
    """Serialize to the JSON wire format used by the UDP transport."""
    try:
        return "".join(
            _wire_chunks(
                {
                    "kind": message.kind,
                    "src": message.source,
                    "dst": message.destination,
                    "payload": message.payload,
                    "msg_id": message.msg_id,
                    "reply_to": message.reply_to,
                },
                0,
            )
        ).encode("utf-8")
    except _ENCODE_ERRORS as exc:
        raise _not_serializable(exc) from exc


def decode_message(data: bytes) -> Message:
    """Parse a wire message; raises :class:`TransportError` on malformed input."""
    try:
        obj = json.loads(data.decode("utf-8"))
        if not isinstance(obj, dict):
            raise ValueError(f"envelope is a JSON {type(obj).__name__}, not an object")
        return Message(
            kind=obj["kind"],
            source=obj["src"],
            destination=obj["dst"],
            payload=obj.get("payload", {}),
            msg_id=obj.get("msg_id", 0),
            reply_to=obj.get("reply_to"),
        )
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        raise TransportError(f"malformed wire message: {exc}") from exc


# --------------------------------------------------------------------- #
# Slab representation
# --------------------------------------------------------------------- #

#: ``10^1 .. 10^18`` — the digit-count grid for int64 values.
_POW10 = np.array([10**k for k in range(1, 19)], dtype=np.int64)
#: Digit classes ``1..19`` and the int64 values that bound them.
_DIGITS = np.arange(1, 20, dtype=np.int64)
_DIGIT_EDGES = np.concatenate(([0], _POW10, [np.iinfo(np.int64).max]))
#: ``10^1 .. 10^15`` as floats: the digit-count grid below 1e16.
_POW10_FLOAT = _POW10[:15].astype(np.float64)


def _digit_counts(
    magnitudes: np.ndarray, powers: np.ndarray, start: int = 1
) -> np.ndarray:
    """``start`` plus how many of ``powers`` (ascending powers of ten) each
    magnitude reaches: one vector compare per power up to the largest
    magnitude, which beats a binary search per element on a table this
    small. The tally is ``int8`` — a numeral is at most 19 digits, ``.0``
    and a sign — so each pass adds a byte per element, not a word; the
    caller widens it once."""
    digits = np.full(magnitudes.shape, start, dtype=np.int8)
    if magnitudes.size:
        reached = np.searchsorted(powers, magnitudes.max(), side="right")
        for power in powers[:reached]:
            digits += magnitudes >= power
    return digits


def int_digit_counts(values: np.ndarray) -> np.ndarray:
    """Decimal digit count of each non-negative int64 (JSON numeral length).

    Exact for the full int64 range by integer comparison against the
    powers of ten — no float log10 rounding anywhere.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("int_digit_counts requires non-negative values")
    return _digit_counts(arr, _POW10).astype(np.int64)


def block_digit_counts(start: int, count: int) -> np.ndarray:
    """``int_digit_counts(start + arange(count))`` for a contiguous id block.

    Runs of equal digit count are cut at the block's power-of-ten
    boundaries; the ids themselves are never materialized.
    """
    if start < 0 or count < 0:
        raise ValueError(f"block must be non-negative, got {start=}, {count=}")
    edges = np.clip(_DIGIT_EDGES, start, start + count)
    return np.repeat(_DIGITS, np.diff(edges))


def float_repr_lengths(values: np.ndarray) -> np.ndarray:
    """Length of each float64 as the wire's JSON encoder writes it.

    An integer-valued float below 1e16 in magnitude prints as
    ``<digits>.0`` (with a sign when its sign bit is set, ``-0.0``
    included), so its length is arithmetic on the digit count. The
    residual — fractional values, ``|v| >= 1e16`` (exponent notation) and
    the non-finite values, which JSON spells ``Infinity`` / ``-Infinity``
    / ``NaN`` rather than as ``repr`` does — has no closed form: it is
    encoded (as one list, by the encoder :func:`encode_message` uses) and
    the numerals measured, ~0.6 us each; a round of integer-valued sums
    or counts has none.
    """
    arr = np.asarray(values, dtype=np.float64)
    magnitude = np.abs(arr)
    whole = (magnitude < 1e16) & (np.rint(arr) == arr)
    # Powers of ten up to 1e15 are exact in float64, so the digits are
    # counted on the magnitudes as they are (from 3: one digit and the
    # ".0"); a non-whole entry's count is overwritten below.
    tally = _digit_counts(magnitude, _POW10_FLOAT, start=3)
    tally += np.signbit(arr)
    lengths = tally.astype(np.int64)
    if not whole.all():
        residual = np.flatnonzero(~whole)
        numerals = "".join(_wire_chunks(arr[residual].tolist(), 0))[1:-1].split(",")
        lengths[residual] = list(map(len, numerals))
    return lengths


def take_rows(column: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """``column[rows]`` for ascending distinct ``rows`` (what transports hand
    to delivery callbacks; ``None`` is every row): the column itself,
    uncopied, when that is every row, so a loss-free round gathers nothing."""
    return column if rows is None or len(rows) == len(column) else column[rows]


@lru_cache(maxsize=256)
def envelope_overhead(kind: str) -> int:
    """Wire bytes of a :class:`Message` envelope excluding the variable parts.

    The JSON encoding of a request is::

        {"kind":"<kind>","src":S,"dst":D,"payload":P,"msg_id":M,"reply_to":null}

    This returns the byte length of everything but the ``S``/``D``/``M``
    numerals and the payload body ``P``, so a batch computes
    ``size = overhead + digits(S) + digits(D) + digits(M) + len(P)``, and
    so does :meth:`Message.encoded_size`. Cached per kind.
    """
    probe = Message(kind=kind, source=0, destination=0, payload={}, msg_id=0)
    # The probe contributes one "0" numeral each for src/dst/msg_id (3
    # bytes) and "{}" for the payload (2 bytes).
    return len(encode_message(probe)) - 3 - 2


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

    def nbytes(self) -> int:
        """Slab memory footprint (arrays only), for memory accounting."""
        total = self.sources.nbytes + self.destinations.nbytes + self.sizes.nbytes
        for column in self.payload_columns.values():
            total += column.nbytes
        return total
