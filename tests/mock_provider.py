"""A tiny in-process chat-completions server for end-to-end tests.

The handler picks its reply by matching known review texts against the
incoming prompt (the review text appears verbatim in every prompt), so
tests can script one response per review without touching the network.
Without a script it answers "reply N" to the Nth request. It speaks
HTTP/1.1 on 127.0.0.1 and counts the TCP connections it accepts and sees
closed, and the request targets and ``Proxy-Authorization`` headers it sees.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MockProviderServer:
    def __init__(
        self,
        responses_by_review_text: dict[str, str] | None = None,
        *,
        status: int = 200,
        headers: dict[str, str] | None = None,
        idle_timeout: float | None = None,
    ):
        """``status`` and ``headers`` go on every scripted reply; the server
        closes a connection idle for ``idle_timeout`` seconds."""
        self.responses_by_review_text = responses_by_review_text
        self.connections = 0
        self.closed = 0
        self.targets: list[str] = []
        self.proxy_auth: list[str | None] = []
        self._lock = threading.Lock()

        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = idle_timeout

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connections += 1

            def finish(self):
                super().finish()
                with outer._lock:
                    outer.closed += 1

            def do_POST(self):  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                with outer._lock:
                    outer.targets.append(self.path)
                    outer.proxy_auth.append(self.headers.get("Proxy-Authorization"))
                    count = len(outer.targets)
                if outer.responses_by_review_text is None:
                    self._reply(status, f"reply {count}")
                    return
                prompt = " ".join(m["content"] for m in body.get("messages", []))
                for review_text, response in outer.responses_by_review_text.items():
                    if review_text in prompt:
                        self._reply(status, response)
                        return
                self._send(400, b'{"error": "unknown review"}', {})

            def _reply(self, code: int, content: str) -> None:
                payload = json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})
                self._send(code, payload.encode("utf-8"), headers or {})

            def _send(self, code: int, payload: bytes, extra: dict[str, str]) -> None:
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                for name, value in extra.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):  # silence per-request noise
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def request_count(self) -> int:
        return len(self.targets)

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "MockProviderServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
