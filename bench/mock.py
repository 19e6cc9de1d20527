"""Zero-latency chat-completions mock for the run workload.

    python3 bench/mock.py --replies replies.jsonl --workers N

Serves ``POST /chat/completions`` on an ephemeral 127.0.0.1 port, prints
the port on its first stdout line, and exits when its stdin closes, so it
cannot outlive the benchmark that started it. Each reply is looked up in
O(1) by the review text, cut from the prompt's review block, and its HTTP
response is encoded once at start-up; the test mock in ``tests/`` instead
scans every scripted text on each request, which would make the run
workload time the mock.

``--workers`` threads each accept and serve one
connection at a time, with no hand-off between threads, so at most that
many connections are open. The server answers HTTP/1.0 and closes each
connection after its response.

``GET /stats`` returns and clears the server-side service times (ms, from
accept to the response sent) of the requests served since the last call,
the CPU seconds this process used since the last call, and the count of
prompts whose review was not scripted.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time

REVIEW_MARKER = "Review:\n"
UNKNOWN = b'{"error": "unknown review"}'


def review_text_of(body: dict) -> str | None:
    """The review text of an eotbench prompt: the review block is followed
    by the output contract, which holds no blank line."""
    for message in reversed(body.get("messages", [])):
        content = message.get("content", "")
        at = content.rfind(REVIEW_MARKER)
        if at >= 0:
            return content[at + len(REVIEW_MARKER):].rpartition("\n\n")[0]
    return None


def http_response(status: str, payload: bytes) -> bytes:
    head = f"HTTP/1.0 {status}\r\nContent-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
    return head.encode("ascii") + payload


def read_request(conn: socket.socket) -> tuple[str, bytes]:
    """The request line and body of one HTTP request."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            raise ConnectionError("client closed before the headers ended")
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            raise ConnectionError("client closed before the body ended")
        body += chunk
    return lines[0], body


class Mock:
    def __init__(self, replies: dict[str, str]):
        self.responses = {
            text: http_response("200 OK", json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": reply}}]}).encode("utf-8"))
            for text, reply in replies.items()
        }
        self.lock = threading.Lock()
        self.service_ms: list[float] = []
        self.unknown = 0
        self.cpu_mark = time.process_time()

    def respond(self, request_line: str, body: bytes) -> bytes:
        if request_line.startswith("GET /stats"):
            with self.lock:
                now = time.process_time()
                payload = json.dumps({"service_ms": self.service_ms, "unknown": self.unknown,
                                      "cpu_s": now - self.cpu_mark})
                self.service_ms, self.unknown, self.cpu_mark = [], 0, now
            return http_response("200 OK", payload.encode("utf-8"))
        response = self.responses.get(review_text_of(json.loads(body)))
        if response is None:
            with self.lock:
                self.unknown += 1
            return http_response("400 Bad Request", UNKNOWN)
        return response

    def serve(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:  # the listener was closed: shut down
                return
            started = time.perf_counter()
            with conn:
                try:
                    request_line, body = read_request(conn)
                    conn.sendall(self.respond(request_line, body))
                except (OSError, ValueError) as exc:
                    print(f"mock: {exc!r}", file=sys.stderr)
                    continue
            if request_line.startswith("POST"):
                with self.lock:
                    self.service_ms.append((time.perf_counter() - started) * 1000.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replies", required=True, help="JSONL of {review_text, reply}")
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()
    replies = {}
    with open(args.replies, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            replies[record["review_text"]] = record["reply"]
    mock = Mock(replies)
    listener = socket.create_server(("127.0.0.1", 0), backlog=64)
    workers = [threading.Thread(target=mock.serve, args=(listener,)) for _ in range(max(1, args.workers))]
    for worker in workers:
        worker.start()
    print(listener.getsockname()[1], flush=True)
    try:
        sys.stdin.read()  # until the parent closes our stdin
    finally:
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        for worker in workers:
            worker.join()


if __name__ == "__main__":
    main()
