"""Minimal HTTP/1.1 and WebSocket (RFC 6455) framing, framework-free.

The experiment service deliberately runs on the stdlib alone, so this
module implements just the wire subset the service needs:

- request parsing and response formatting for plain HTTP/1.1 with
  ``Content-Length`` bodies (the service always answers
  ``Connection: close``, so chunked encoding and keep-alive never
  arise);
- the WebSocket opening handshake (``Sec-WebSocket-Accept`` key
  derivation) and single-frame ("FIN"-only) framing for text, close,
  ping and pong opcodes -- the event stream sends every JSON event as
  one unfragmented text frame, which every conforming peer accepts.

Both ends of the connection use this module: the asyncio server reads
with the ``async`` helpers, the blocking :class:`repro.client`
WebSocket reader uses the ``*_blocking`` variants over a socket file.
"""

from __future__ import annotations

import base64
import hashlib
import struct
from asyncio import IncompleteReadError, LimitOverrunError, StreamReader
from typing import BinaryIO, Dict, Generator, Optional, Tuple

from repro.errors import ServiceError

#: The fixed GUID every WebSocket handshake concatenates (RFC 6455 s4.2.2).
WEBSOCKET_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: WebSocket opcodes the service speaks.
OP_TEXT, OP_CLOSE, OP_PING, OP_PONG = 0x1, 0x8, 0x9, 0xA

#: Largest request body / frame payload accepted (grids are small).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Most header lines accepted per request (the service's own client
#: sends a handful), so a peer cannot grow the header table unbounded.
MAX_HEADER_LINES = 100

#: Reason phrases for the status codes the service emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpRequest:
    """One parsed HTTP/1.1 request: method, path, lowercased headers, body."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def wants_websocket(self) -> bool:
        """Whether the request asks to upgrade to a WebSocket."""
        return (
            "websocket" in self.headers.get("upgrade", "").lower()
            and "upgrade" in self.headers.get("connection", "").lower()
        )


async def read_http_request(reader: StreamReader) -> Optional[HttpRequest]:
    """Parse one request off ``reader``; None when the peer hung up.

    Raises :class:`ServiceError` (``bad-request``/``payload-too-large``)
    for malformed or oversized requests: a bad request line, a request
    or header line longer than the reader's buffer limit, more than
    :data:`MAX_HEADER_LINES` header lines, a ``Content-Length`` that is
    not a plain non-negative decimal integer, or a body over
    :data:`MAX_BODY_BYTES`.
    """
    try:
        request_line = await _read_line(reader)
    except ConnectionError:
        return None
    if not request_line:
        return None
    try:
        method, path, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise ServiceError(
            "malformed request line", code="bad-request", status=400
        )
    headers: Dict[str, str] = {}
    n_lines = 0
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        n_lines += 1
        if n_lines > MAX_HEADER_LINES:
            raise ServiceError(
                f"more than {MAX_HEADER_LINES} header lines",
                code="bad-request", status=400,
            )
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = _content_length(headers.get("content-length", "0"))
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except IncompleteReadError:
            return None
    return HttpRequest(method.upper(), path, headers, body)


async def _read_line(reader: StreamReader) -> bytes:
    """One ``\\n``-terminated line, or the partial tail at EOF.

    A line longer than the reader's buffer limit is a bad request.
    ``readline`` would report it as a bare ``ValueError``; here the line
    is skipped through its terminator first, so none of it is left
    unread when the error response goes out. The skip stops after
    :data:`MAX_BODY_BYTES`, so a peer that never sends a newline still
    gets the error instead of holding the handler forever.
    """
    skipped = 0
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except IncompleteReadError as exc:
            line = exc.partial
        except LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
            skipped += exc.consumed
            if skipped <= MAX_BODY_BYTES:
                continue
        if skipped:
            raise ServiceError(
                "request line or header line too long",
                code="bad-request", status=400,
            )
        return line


def _content_length(value: str) -> int:
    """Parse a ``Content-Length`` value: ASCII decimal digits only.

    ``int()`` alone would accept signs, underscores and non-ASCII
    digits, and raise a bare ``ValueError`` on anything else -- or on
    a digit string longer than the interpreter's conversion limit,
    which is why the size is bounded by length before converting.
    """
    if not (value.isascii() and value.isdigit()):
        raise ServiceError(
            f"invalid Content-Length {value!r}",
            code="bad-request", status=400,
        )
    digits = value.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise ServiceError(
            f"request body exceeds {MAX_BODY_BYTES} bytes",
            code="payload-too-large", status=413,
        )
    return int(digits)


def http_response(
    status: int,
    body: "bytes | str" = b"",
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Format a complete ``Connection: close`` HTTP/1.1 response."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def websocket_accept_key(client_key: str) -> str:
    """Derive ``Sec-WebSocket-Accept`` from the client's key (RFC 6455)."""
    digest = hashlib.sha1(
        (client_key + WEBSOCKET_GUID).encode("latin-1")
    ).digest()
    return base64.b64encode(digest).decode("latin-1")


def websocket_handshake_response(client_key: str) -> bytes:
    """The ``101 Switching Protocols`` response completing the upgrade."""
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept_key(client_key)}\r\n"
        "\r\n"
    ).encode("latin-1")


def encode_frame(
    payload: "bytes | str", opcode: int = OP_TEXT, mask: bool = False
) -> bytes:
    """One FIN-flagged WebSocket frame.

    Servers send unmasked (``mask=False``); clients must mask
    (``mask=True``). Masking uses a fixed-zero masking key, which the
    RFC permits the receiver to accept (the key's unpredictability only
    matters for proxies, irrelevant on loopback) and keeps the wire
    bytes deterministic for tests.
    """
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    head = bytearray([0x80 | (opcode & 0x0F)])
    mask_bit = 0x80 if mask else 0
    length = len(payload)
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", length)
    if mask:
        head += b"\x00\x00\x00\x00"  # zero masking key: XOR is identity
    return bytes(head) + payload


def _frame_decoder() -> Generator[int, bytes, Tuple[int, bytes]]:
    """The one frame decoder, for both readers below.

    Yields how many bytes it needs next and is sent exactly those bytes;
    returns ``(opcode, unmasked payload)``. Raises the 413
    ``payload-too-large`` :class:`~repro.errors.ServiceError` as soon as
    the header announces a payload over :data:`MAX_BODY_BYTES`.
    """
    first_two = yield 2
    opcode = first_two[0] & 0x0F
    masked = bool(first_two[1] & 0x80)
    length = first_two[1] & 0x7F
    if length == 126:
        length = struct.unpack(">H", (yield 2))[0]
    elif length == 127:
        length = struct.unpack(">Q", (yield 8))[0]
    if length > MAX_BODY_BYTES:
        raise ServiceError(
            f"frame of {length} bytes exceeds {MAX_BODY_BYTES}",
            code="payload-too-large", status=413,
        )
    mask_key = (yield 4) if masked else b""
    payload = (yield length) if length else b""
    if masked and any(mask_key):
        payload = bytes(b ^ mask_key[i % 4] for i, b in enumerate(payload))
    return opcode, payload


async def read_frame(reader: StreamReader) -> Optional[Tuple[int, bytes]]:
    """Read one frame; ``(opcode, unmasked payload)`` or None on EOF."""
    decoder = _frame_decoder()
    try:
        need = next(decoder)
        while True:
            need = decoder.send(await reader.readexactly(need))
    except StopIteration as done:
        return done.value
    except (IncompleteReadError, ConnectionError):
        return None


def read_frame_blocking(stream: BinaryIO) -> Optional[Tuple[int, bytes]]:
    """Blocking :func:`read_frame` over a socket file object."""
    decoder = _frame_decoder()
    try:
        need = next(decoder)
        while True:
            data = _read_exact_blocking(stream, need)
            if data is None:
                return None
            need = decoder.send(data)
    except StopIteration as done:
        return done.value


def _read_exact_blocking(stream: BinaryIO, n: int) -> Optional[bytes]:
    data = b""
    while len(data) < n:
        chunk = stream.read(n - len(data))
        if not chunk:
            return None
        data += chunk
    return data
