"""JSON POSTs to one URL, on the standard library's ``http.client``.

``HttpTransport(url)`` works out once what depends only on the URL: its
parts, the proxy chosen by ``http_proxy``/``https_proxy``/``all_proxy`` and
``no_proxy``, and the TLS context. A URL or proxy it cannot use raises
``ValueError`` there, before any request. ``post(url, json=, headers=,
timeout=)`` sends each request on a connection of its own and closes it once
the whole response is read. Redirects are returned, not followed.

A failure to exchange a request and its response raises ``OSError``
(``TimeoutError`` for a timeout).
"""

from __future__ import annotations

import base64
import http.client
import json as jsonlib
import os
import ssl
from typing import Any, NamedTuple
from urllib.parse import SplitResult, unquote, urlsplit
from urllib.request import getproxies_environment, proxy_bypass_environment


class Response:
    """A finished response: status, headers and the whole body."""

    __slots__ = ("status_code", "headers", "content")

    def __init__(self, status_code: int, headers: http.client.HTTPMessage, content: bytes):
        self.status_code = status_code
        self.headers = headers
        self.content = content

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", "replace")

    def json(self) -> Any:
        return jsonlib.loads(self.content)


class _Route(NamedTuple):
    """How to reach one URL."""

    tls: bool
    host: str  # the server the socket connects to: the origin, or a proxy
    port: int
    tunnel: tuple[str, int] | None  # the origin, when an https URL goes through a proxy
    proxy_auth: str | None  # the Proxy-Authorization value, if the proxy URL has credentials
    target: str  # the request target: the path, or the whole URL through a plain-HTTP proxy


def _address(parts: SplitResult, default_port: int, what: str) -> tuple[str, int]:
    """The host and port of ``parts``; ValueError names ``what`` and the URL
    without its credentials."""
    shown = parts._replace(netloc=parts.netloc.rpartition("@")[2]).geturl()
    try:
        port = parts.port
    except ValueError as exc:  # not a number, or out of range
        raise ValueError(f"{what} {shown!r}: {exc}") from None
    if not parts.hostname:
        raise ValueError(f"{what} {shown!r} names no host")
    return parts.hostname, port or default_port


def _proxy_auth(proxy: SplitResult) -> str | None:
    if not proxy.username:
        return None
    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
    return "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii")


def _route_for(url: str) -> _Route:
    """The connection and request target for ``url`` under the current
    proxy environment variables."""
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        raise ValueError(f"not an http or https URL: {url!r}")
    tls = scheme == "https"
    host, port = _address(parts, 443 if tls else 80, "URL")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    proxies = getproxies_environment()
    proxy_url = proxies.get(scheme) or proxies.get("all")
    if not proxy_url or proxy_bypass_environment(f"{host}:{port}" if parts.port else host, proxies):
        return _Route(tls, host, port, None, None, target)
    proxy = urlsplit(proxy_url if "://" in proxy_url else "http://" + proxy_url)
    proxy_host, proxy_port = _address(proxy, 80, "proxy")
    if proxy.scheme.lower() != "http":
        raise ValueError(f"proxy {proxy_host}:{proxy_port}: only http:// proxies are supported")
    if tls:
        # CONNECT through the proxy, then TLS with the origin
        return _Route(True, proxy_host, proxy_port, (host, port), _proxy_auth(proxy), target)
    return _Route(False, proxy_host, proxy_port, None, _proxy_auth(proxy), parts._replace(fragment="").geturl())


def _tls_context() -> ssl.SSLContext:
    """The default TLS context, with the CA bundle named by REQUESTS_CA_BUNDLE
    or else CURL_CA_BUNDLE instead of the system store when one is set."""
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or None
    if bundle and os.path.isdir(bundle):
        return ssl.create_default_context(capath=bundle)
    return ssl.create_default_context(cafile=bundle)


class HttpTransport:
    """JSON POSTs to ``url``, each on a connection of its own; safe to share
    between threads."""

    def __init__(self, url: str) -> None:
        self.url = url
        self._route = _route_for(url)
        self._context = _tls_context() if self._route.tls else None

    def post(
        self,
        url: str,
        json: Any = None,
        headers: dict[str, str] | None = None,
        timeout: float | None = None,
    ) -> Response:
        if url != self.url:
            raise ValueError(f"this transport posts to {self.url!r}, not {url!r}")
        route = self._route
        headers = {**(headers or {}), "Connection": "close"}  # HTTP/1.1: a client that will not reuse says so
        if route.proxy_auth and route.tunnel is None:
            headers["Proxy-Authorization"] = route.proxy_auth
        body = jsonlib.dumps(json).encode("utf-8")
        if route.tls:
            conn = http.client.HTTPSConnection(route.host, route.port, timeout=timeout, context=self._context)
        else:
            conn = http.client.HTTPConnection(route.host, route.port, timeout=timeout)
        if route.tunnel:
            tunnel_headers = {"Proxy-Authorization": route.proxy_auth} if route.proxy_auth else None
            conn.set_tunnel(*route.tunnel, headers=tunnel_headers)
        try:
            conn.request("POST", route.target, body, headers)
            response = conn.getresponse()
            return Response(response.status, response.msg, response.read())
        except http.client.HTTPException as exc:
            raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
        finally:
            conn.close()
