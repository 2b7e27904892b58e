"""A fixed JSON-over-HTTP echo server: the benchmark's speed reference.

It does the work every ``repro serve`` request does that is not the
estimator's own: ``http.server`` request parsing on a keep-alive
connection, a JSON decode, a small JSON reply encode and the socket
writes.  It uses the standard library only, so no change to the
program under test changes its speed; :mod:`hostspeed` times it on the
server's core to see how fast that core runs at the moment.

Run as ``python3 perfbench/refserver.py``; it prints the same start-up
banner as ``repro serve`` and stops on SIGINT.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, *args) -> None:
        pass

    def do_POST(self) -> None:
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        reply = json.dumps({
            "synopsis": body.get("synopsis"),
            "result": {"value": float(len(body.get("query", ""))), "route": "no_order"},
            "generation": 1,
        }).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)


def main() -> None:
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    print("reference server on http://127.0.0.1:%d " % httpd.server_address[1], flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()


if __name__ == "__main__":
    main()
