"""POSTs to one URL over HTTP/1.1, on the standard library's sockets.

``HttpTransport(url, headers, timeout)`` works out once what depends only on
the URL and the headers: the URL's parts, the proxy chosen by
``http_proxy``/``https_proxy``/``all_proxy`` and ``no_proxy``, the TLS
context and every line of the request head but ``Content-Length``. A URL,
proxy or header it cannot use raises ``ValueError`` there, before any
request. ``post(body)`` sends the body bytes on a connection of its own for
each request, the request head and body in one write, reads the whole
response and closes the connection; ``timeout`` bounds the connect and each
read. It returns a ``Response(status, headers, body)``: the status code, a
plain dict of the headers keyed by lower-case name, and the body bytes.
Redirects are returned, not followed.

The response reader skips 1xx responses and reads the body by chunked
transfer coding, by ``Content-Length``, or up to the point where the server
closes the connection.

A failure to exchange a request and its response raises ``OSError``
(``TimeoutError`` for a timeout). A malformed status line, header line or
``Content-Length``, a response head over 64 KiB and a body cut short raise
``ConnectionError``.
"""

from __future__ import annotations

import base64
import os
import re
import socket
import ssl
from typing import NamedTuple
from urllib.parse import SplitResult, unquote, urlsplit

MAX_HEAD_BYTES = 64 * 1024
_RECV_BYTES = 65536
_STATUS_LINE = re.compile(rb"HTTP/\S+ ([0-9]{3})(?: .*)?")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_CONTENT_LENGTH = re.compile(r"[0-9]{1,18}")
_TOO_LONG = f"response head or line over {MAX_HEAD_BYTES // 1024} KiB"


class Response(NamedTuple):
    """A finished response: the status, the headers by lower-case name (a
    header sent more than once holds its values joined by ", ") and the
    whole body."""

    status: int
    headers: dict[str, str]
    body: bytes


class _Route(NamedTuple):
    """How to reach one URL."""

    tls: bool
    host: str  # the server the socket connects to: the origin, or a proxy
    port: int
    tunnel: tuple[str, int] | None  # the origin, when an https URL goes through a proxy
    proxy_auth: str | None  # the Proxy-Authorization value, if the proxy URL has credentials
    target: str  # the request target: the path, or the whole URL through a plain-HTTP proxy
    authority: str  # the Host header: the origin, with its port unless it is the scheme's default


def _address(parts: SplitResult, default_port: int, what: str) -> tuple[str, int]:
    """The host and port of ``parts``; ValueError names ``what`` and the URL
    without its credentials."""
    shown = parts._replace(netloc=parts.netloc.rpartition("@")[2]).geturl()
    try:
        port = parts.port
    except ValueError as exc:  # not a number, or out of range
        raise ValueError(f"{what} {shown!r}: {exc}") from None
    host = parts.hostname
    if not host:
        raise ValueError(f"{what} {shown!r} names no host")
    if not host.isascii():
        try:
            host = host.encode("idna").decode("ascii")
        except UnicodeError as exc:
            raise ValueError(f"{what} {shown!r}: {exc}") from None
    return host, port or default_port


def _bracketed(host: str) -> str:
    """``host`` as it is written before a port: an IPv6 address in brackets."""
    return f"[{host}]" if ":" in host else host


def _proxy_auth(proxy: SplitResult) -> str | None:
    if not proxy.username:
        return None
    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
    return "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii")


def _proxy_variable(name: str) -> str:
    """The proxy variable ``name`` ("http_proxy", ...) as urllib reads it:
    the lower-case spelling wins even when empty, and a CGI script ignores
    HTTP_PROXY, which a client can set through a "Proxy:" request header."""
    if name in os.environ:
        return os.environ[name]
    if name == "http_proxy" and "REQUEST_METHOD" in os.environ:
        return ""
    return os.environ.get(name.upper(), "")


def _bypasses_proxy(hosts: tuple[str, ...], no_proxy: str) -> bool:
    """Whether ``no_proxy``, "*" or a comma-separated list of domain
    suffixes, names one of ``hosts`` (the host, and host:port)."""
    if no_proxy == "*":
        return True
    for name in no_proxy.split(","):
        name = name.strip().lstrip(".").lower()
        if name and any(host == name or host.endswith("." + name) for host in hosts):
            return True
    return False


def _route_for(url: str) -> _Route:
    """The connection, request target and Host header for ``url`` under the
    current proxy environment variables."""
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        raise ValueError(f"not an http or https URL: {url!r}")
    tls = scheme == "https"
    default_port = 443 if tls else 80
    host, port = _address(parts, default_port, "URL")
    authority = _bracketed(host) if port == default_port else f"{_bracketed(host)}:{port}"
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    proxy_url = _proxy_variable(f"{scheme}_proxy") or _proxy_variable("all_proxy")
    hosts = (host, f"{host}:{parts.port}") if parts.port else (host,)
    if not proxy_url or _bypasses_proxy(hosts, _proxy_variable("no_proxy")):
        return _Route(tls, host, port, None, None, target, authority)
    proxy = urlsplit(proxy_url if "://" in proxy_url else "http://" + proxy_url)
    proxy_host, proxy_port = _address(proxy, 80, "proxy")
    if proxy.scheme.lower() != "http":
        raise ValueError(f"proxy {proxy_host}:{proxy_port}: only http:// proxies are supported")
    if tls:
        # CONNECT through the proxy, then TLS with the origin
        return _Route(True, proxy_host, proxy_port, (host, port), _proxy_auth(proxy), target, authority)
    whole_url = parts._replace(fragment="").geturl()
    return _Route(False, proxy_host, proxy_port, None, _proxy_auth(proxy), whole_url, authority)


def _tls_context() -> ssl.SSLContext:
    """The default TLS context, with the CA bundle named by REQUESTS_CA_BUNDLE
    or else CURL_CA_BUNDLE instead of the system store when one is set."""
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or None
    if bundle and os.path.isdir(bundle):
        return ssl.create_default_context(capath=bundle)
    return ssl.create_default_context(cafile=bundle)


def _header_lines(headers: dict[str, str]) -> bytes:
    """``name: value`` lines in latin-1; ValueError when a name or value
    would break a line or is not latin-1."""
    text = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    if text.count("\n") != len(headers) or text.count("\r") != len(headers):
        raise ValueError("a request header name or value holds a line break")
    try:
        return text.encode("latin-1")
    except UnicodeEncodeError:
        raise ValueError("a request header name or value is not latin-1") from None


class _Reader:
    """The bytes a server sends on one connection, received as they are needed."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = bytearray()
        self._pos = 0  # where the bytes not yet consumed start in _buf

    def _recv(self) -> bool:
        """Receive more bytes; False when the server has closed. The consumed
        bytes are dropped once they are more than half of the buffer, so a
        byte is moved a bounded number of times however long the body."""
        chunk = self._sock.recv(_RECV_BYTES)
        if self._pos > len(self._buf) // 2:
            del self._buf[:self._pos]
            self._pos = 0
        self._buf += chunk
        return bool(chunk)

    def _line(self, limit: int) -> bytes | None:
        """The next line without its line end, None when the server closed
        before sending another byte; ConnectionError when the line runs past
        ``limit`` bytes or the connection closes inside it."""
        scan_from = self._pos
        while (end := self._buf.find(b"\n", scan_from)) < 0:
            if len(self._buf) - self._pos > limit:
                raise ConnectionError(_TOO_LONG)
            searched = len(self._buf) - self._pos
            if not self._recv():
                if searched:
                    raise ConnectionError("connection closed inside a response line")
                return None
            scan_from = self._pos + searched  # _recv may move the unconsumed bytes to the front
        if end - self._pos > limit:
            raise ConnectionError(_TOO_LONG)
        line = bytes(self._buf[self._pos:end])
        self._pos = end + 1
        return line[:-1] if line.endswith(b"\r") else line

    def _exactly(self, size: int) -> bytes:
        while len(self._buf) - self._pos < size:
            if not self._recv():
                raise ConnectionError(f"response body cut short: {len(self._buf) - self._pos} of {size} bytes")
        data = bytes(self._buf[self._pos:self._pos + size])
        self._pos += size
        return data

    def head(self) -> tuple[int, dict[str, str]]:
        """The status and headers of the next response head."""
        budget = MAX_HEAD_BYTES
        status_line = self._line(budget)
        if status_line is None:
            raise ConnectionError("the server closed the connection without a response")
        match = _STATUS_LINE.fullmatch(status_line)
        if match is None:
            raise ConnectionError(f"malformed status line: {status_line[:100]!r}")
        budget -= len(status_line) + 1
        fields: dict[str, str] = {}
        name = ""
        while line := self._line(budget):
            budget -= len(line) + 1
            if line[:1] in (b" ", b"\t") and name:  # an obsolete folded continuation
                fields[name] += " " + line.strip().decode("latin-1")
                continue
            raw_name, colon, value = line.partition(b":")
            if not colon or not raw_name or raw_name != raw_name.strip():
                raise ConnectionError(f"malformed header line: {line[:100]!r}")
            name = raw_name.decode("latin-1").lower()
            value_text = value.strip().decode("latin-1")
            fields[name] = f"{fields[name]}, {value_text}" if name in fields else value_text
        if line is None:
            raise ConnectionError("connection closed inside the response head")
        return int(match[1]), fields

    def body(self, status: int, headers: dict[str, str]) -> bytes:
        if status in (204, 304):
            return b""
        if headers.get("transfer-encoding", "").rpartition(",")[2].strip().lower() == "chunked":
            return self._chunked()
        length = headers.get("content-length")
        if length is not None:
            if not _CONTENT_LENGTH.fullmatch(length):
                raise ConnectionError(f"malformed Content-Length: {length[:100]!r}")
            return self._exactly(int(length))
        parts = [self._buf[self._pos:]]
        while chunk := self._sock.recv(_RECV_BYTES):
            parts.append(chunk)
        return b"".join(parts)

    def _chunked(self) -> bytes:
        parts = []
        while True:
            line = self._line(MAX_HEAD_BYTES)
            if line is None:
                raise ConnectionError("response body cut short before its last chunk")
            size = line.partition(b";")[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise ConnectionError(f"malformed chunk size line: {line[:100]!r}")
            chunk_size = int(size, 16)
            if chunk_size == 0:
                break
            parts.append(self._exactly(chunk_size))
            if self._line(MAX_HEAD_BYTES) != b"":
                raise ConnectionError("chunk data not followed by a line end")
        while self._line(MAX_HEAD_BYTES):  # trailer fields, up to the blank line or the close
            pass
        return b"".join(parts)

    def response(self) -> Response:
        while True:
            status, headers = self.head()
            if not 100 <= status < 200:
                return Response(status, headers, self.body(status, headers))


class HttpTransport:
    """POSTs to ``url`` with ``headers``, each on a connection of its own
    with ``timeout`` seconds (None: no limit) for its connect and each read;
    safe to share between threads."""

    def __init__(self, url: str, headers: dict[str, str] | None = None, timeout: float | None = None) -> None:
        self.headers = dict(headers or {})
        self.timeout = timeout
        route = self._route = _route_for(url)
        self._context = _tls_context() if route.tls else None
        if not route.target.isascii() or re.search(r"[\x00-\x20\x7f]", route.target):
            raise ValueError("URL path or query holds a space, a control or a non-ASCII character")
        head_start = f"POST {route.target} HTTP/1.1\r\nHost: {route.authority}\r\nAccept-Encoding: identity\r\n"
        proxy_line = f"Proxy-Authorization: {route.proxy_auth}\r\n" if route.proxy_auth and not route.tunnel else ""
        self._head_start = head_start.encode("ascii")
        # HTTP/1.1: a client that will not reuse the connection says so
        self._head_end = _header_lines(self.headers) + f"Connection: close\r\n{proxy_line}\r\n".encode("ascii")

    def _open(self) -> socket.socket:
        """A connection to the origin: through the proxy's tunnel and TLS
        when the route has them."""
        route = self._route
        sock = socket.create_connection((route.host, route.port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if route.tunnel:
                auth = f"Proxy-Authorization: {route.proxy_auth}\r\n" if route.proxy_auth else ""
                origin, port = route.tunnel
                sock.sendall(f"CONNECT {_bracketed(origin)}:{port} HTTP/1.0\r\n{auth}\r\n".encode("latin-1"))
                status, _ = _Reader(sock).head()
                if status != 200:
                    raise ConnectionError(f"tunnel connection failed: {status}")
            if self._context is not None:
                return self._context.wrap_socket(sock, server_hostname=route.tunnel[0] if route.tunnel else route.host)
        except BaseException:
            sock.close()
            raise
        return sock

    def post(self, body: bytes) -> Response:
        """Send ``body`` and return the whole response."""
        request = b"%sContent-Length: %d\r\n%s%s" % (self._head_start, len(body), self._head_end, body)
        with self._open() as sock:
            sock.sendall(request)
            return _Reader(sock).response()
