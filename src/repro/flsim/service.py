"""A live status snapshot + a read-only HTTP status endpoint.

The run's one durable record is its journal (``FLConfig.journal_path``):
:meth:`~repro.flsim.journal.RunJournal.append` flushes every event, so
``tail -f run.jsonl`` is the live event stream.  The experiment's
journalling funnel (``_jlog``) also tees every event into a
:class:`MetricsService`, which

* maintains a thread-safe status snapshot (current round, server
  version, simulated clock, fault/threat/cache counters, last eval);
* optionally serves that snapshot as JSON over a stdlib
  :class:`~http.server.ThreadingHTTPServer` on a daemon thread
  (``FLConfig.status_port``; port 0 binds an ephemeral port) — ``GET
  /status`` for the snapshot, ``GET /events`` for the recent-event
  tail, ``GET /health`` for liveness.

The service is pure observability: it only ever *reads* event payloads
(all emitted from the main run thread), so it cannot perturb results —
``status_port`` is a non-semantic config field.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Dict, List, Optional

#: How many recent events ``GET /events`` serves.
TAIL_EVENTS = 50


class MetricsService:
    """Live status snapshot (and optional endpoint) for one experiment run."""

    def __init__(
        self,
        status_port: Optional[int] = None,
        parallelism: Optional[str] = None,
    ):
        self._lock = threading.Lock()
        self._tail: deque = deque(maxlen=TAIL_EVENTS)
        self._state: Dict[str, Any] = {
            "state": "init",
            "round": None,
            "rounds_completed": 0,
            "aborted_rounds": 0,
            "server_version": 0,
            "clock_s": 0.0,
            "events_observed": 0,
            "counters": {
                "dispatches": 0,
                "merges": 0,
                "evals": 0,
                "merge_evals": 0,
                "checkpoints": 0,
                "agg_aborts": 0,
                "fault_rounds": 0,
                "faults_dropped": 0,
                "threat_rounds": 0,
                "byzantine_clients": 0,
            },
            "cache": None,
            "last_eval": None,
            "last_merge_eval": None,
            "parallelism": parallelism,
        }
        self._server: Optional[StatusServer] = None
        if status_port is not None:
            try:
                self._server = StatusServer(self, status_port)
            except OSError as err:
                raise OSError(
                    err.errno,
                    f"status_port={status_port}: cannot bind 127.0.0.1:"
                    f"{status_port} ({err.strerror or err})",
                ) from err

    # -- observation (main run thread) ----------------------------------------
    def observe(self, kind: str, payload: Dict[str, Any]) -> None:
        """Fold one journal event into the snapshot and the tail."""
        with self._lock:
            s = self._state
            c = s["counters"]
            s["events_observed"] += 1
            self._tail.append({"kind": kind, **payload})
            if s["state"] == "init":
                s["state"] = "running"
            if kind == "run_start":
                for key in (
                    "experiment", "fingerprint", "mode", "population",
                    "cohort", "scheme",
                ):
                    if key in payload:
                        s[key] = payload[key]
                s["rounds_total"] = payload.get("rounds")
            elif kind == "round":
                s["round"] = payload.get("round")
                s["rounds_completed"] += 1
                if payload.get("aborted"):
                    s["aborted_rounds"] += 1
                s["clock_s"] = max(s["clock_s"], payload.get("sim_time_s", 0.0))
            elif kind == "merge":
                c["merges"] += 1
                s["server_version"] = c["merges"]
                s["clock_s"] = max(s["clock_s"], payload.get("sim_time_s", 0.0))
            elif kind == "dispatch":
                c["dispatches"] += 1
            elif kind == "eval":
                c["evals"] += 1
                s["last_eval"] = dict(payload)
            elif kind == "merge_eval":
                c["merge_evals"] += 1
                s["last_merge_eval"] = dict(payload)
            elif kind == "checkpoint":
                c["checkpoints"] += 1
            elif kind == "agg_abort":
                c["agg_aborts"] += 1
            elif kind == "faults":
                c["fault_rounds"] += 1
                c["faults_dropped"] += len(payload.get("dropped", []))
            elif kind == "threats":
                c["threat_rounds"] += 1
                c["byzantine_clients"] += len(payload.get("byzantine", []))
            elif kind == "sample":
                s["cache"] = dict(payload.get("cache") or {})
            elif kind == "run_end":
                s["state"] = "finished"
                s["clock_s"] = max(s["clock_s"], payload.get("clock_s", 0.0))
            elif kind == "run_abort":
                s["state"] = "aborted"

    def update_pipeline(self, stats: Dict[str, int]) -> None:
        """Fold live cross-round pipeline stats into the snapshot."""
        with self._lock:
            self._state["pipeline"] = dict(stats)

    # -- serving (any thread) --------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A deep-enough copy of the current status (JSON-safe)."""
        with self._lock:
            return json.loads(json.dumps(self._state))

    def tail(self) -> List[dict]:
        with self._lock:
            return list(self._tail)

    @property
    def port(self) -> Optional[int]:
        """The bound status-endpoint port (resolves ephemeral port 0)."""
        return self._server.port if self._server is not None else None

    @property
    def address(self) -> Optional[str]:
        return (
            f"http://127.0.0.1:{self._server.port}"
            if self._server is not None
            else None
        )

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None


class StatusServer:
    """Read-only JSON status endpoint on a daemon thread (loopback only)."""

    def __init__(self, service: MetricsService, port: int):
        # Imported here: ~20 ms that only a run with a status port should pay.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        handler = _make_handler(service, BaseHTTPRequestHandler)
        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="flsim-status",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)


def _make_handler(service: MetricsService, base: type):
    class Handler(base):
        def log_message(self, *args):  # silence per-request stderr noise
            pass

        def _send(self, payload: Any, status: int = 200) -> None:
            body = json.dumps(payload, indent=2).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0].rstrip("/") or "/status"
            if path in ("/status", "/"):
                self._send(service.snapshot())
            elif path == "/events":
                self._send({"events": service.tail()})
            elif path == "/health":
                snap = service.snapshot()
                self._send({"ok": True, "state": snap["state"]})
            else:
                self._send({"error": f"unknown path {self.path!r}"}, status=404)

    return Handler
