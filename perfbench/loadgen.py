"""Serve side of the benchmark: the server child, the closed-loop load and
the timed hot reload.

The server is ``python -m repro serve`` in its own process, exactly as a
user starts it.  The load is a closed loop: each of ``CLIENTS`` keep-alive
connections sends its next request only after the previous reply arrived,
because callers of an explanation service wait for each answer.  Requests
come from a sequence generated from the workload seed before the clock
starts.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from spec import CACHE_SIZE, ENDPOINT_MIX
from stats import Tally

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_SNAPSHOT_KEY = b'"snapshot": "'
SAMPLE_EVERY = 53  # keep every 53rd response body for the correctness check
SAMPLES_PER_CLIENT = 120


def request_plan(seed: int, num_nodes: int, client: int, length: int) -> List[str]:
    """The seeded request sequence of one client: endpoints mixed 3:2:1,
    node ids uniform over the graph."""
    rng = np.random.default_rng([seed, 0x5E7E, client])
    names = [name for name, weight in ENDPOINT_MIX for _ in range(weight)]
    kinds = rng.integers(0, len(names), size=length)
    nodes = rng.integers(0, num_nodes, size=length)
    return [f"/{names[k]}/{n}" for k, n in zip(kinds.tolist(), nodes.tolist())]


def snapshot_name(body: bytes) -> Optional[str]:
    """The ``snapshot`` field of a JSON reply, without parsing the body."""
    start = body.rfind(_SNAPSHOT_KEY)
    if start < 0:
        return None
    start += len(_SNAPSHOT_KEY)
    end = body.find(b'"', start)
    return body[start:end].decode("utf-8") if end > start else None


def vm_kib(pid: int, field_name: str) -> Optional[int]:
    """``VmHWM``/``VmRSS`` of a live process in KiB (None once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


class ServerProcess:
    """``python -m repro serve`` as a child process."""

    def __init__(self, snapshot_dir: Path, log_path: Path, poll_interval: float = 0.05):
        self.snapshot_dir = snapshot_dir
        self.log_path = log_path
        self.poll_interval = poll_interval
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait for ``"ready": true``; returns start→ready seconds.

        Readiness is the ``ready`` flag of ``/healthz``, not its status code:
        the server answers 200 from the moment it binds, long before the
        first snapshot has loaded.
        """
        begin = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--snapshot-dir", str(self.snapshot_dir), "--port", "0",
                 "--cache-size", str(CACHE_SIZE),
                 "--poll-interval", str(self.poll_interval)],
                stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = begin + timeout
        while not self.port:
            self._check_alive(deadline)
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
            else:
                time.sleep(0.01)
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            while True:
                self._check_alive(deadline)
                conn.request("GET", "/healthz")
                payload = json.loads(conn.getresponse().read())
                if payload.get("ready") is True:
                    return time.perf_counter() - begin
                time.sleep(0.01)
        finally:
            conn.close()

    def _check_alive(self, deadline: float) -> None:
        assert self.process is not None
        if self.process.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.process.returncode}: "
                + self.log_path.read_text(errors="replace")[-2000:]
            )
        if time.perf_counter() > deadline:
            raise TimeoutError("server did not become ready in time")

    def get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} -> {response.status}")
            return body
        finally:
            conn.close()

    def stop(self, timeout: float = 15.0) -> None:
        """Graceful SIGTERM drain, then SIGKILL; always waits for the exit."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


@dataclass
class LoadResult:
    latencies: List[float]
    finished: List[float]  # completion time of each latency, from the chunk start
    wall: float
    tally: Tally
    samples: List[Tuple[str, bytes]]
    sent: List[int]  # per client: where its plan resumes in the next chunk


def run_load(
    server: ServerProcess,
    plans: Sequence[Sequence[str]],
    offsets: Sequence[int],
    seconds: float,
) -> LoadResult:
    """Drive ``plans`` (one per connection, resuming at ``offsets``) for one
    chunk of ``seconds``."""
    stop = threading.Event()
    start_gate = threading.Barrier(len(plans) + 1)
    latencies: List[List[float]] = [[] for _ in plans]
    finished: List[List[float]] = [[] for _ in plans]
    opened = [0.0]  # chunk start, set before the gate opens
    samples: List[List[Tuple[str, bytes]]] = [[] for _ in plans]
    tallies = [Tally() for _ in plans]
    sent = list(offsets)

    def client(index: int) -> None:
        plan, lat, tally, kept = plans[index], latencies[index], tallies[index], samples[index]
        ends = finished[index]
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30.0)
        perf_counter = time.perf_counter
        start_gate.wait()
        n = offsets[index]
        try:
            while not stop.is_set():
                path = plan[n % len(plan)]
                n += 1
                sent[index] = n
                begin = perf_counter()
                try:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException) as error:
                    tally.fail(f"dropped: {type(error).__name__}")
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30.0)
                    continue
                end = perf_counter()
                if response.status != 200:
                    tally.fail(f"status {response.status}")
                    continue
                tally.ok()
                lat.append(end - begin)
                ends.append(end - opened[0])
                if n % SAMPLE_EVERY == 0 and len(kept) < SAMPLES_PER_CLIENT:
                    kept.append((path, body))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(len(plans))]
    for thread in threads:
        thread.start()
    begin = opened[0] = time.perf_counter()
    start_gate.wait()
    time.sleep(seconds)
    stop.set()
    wall = time.perf_counter() - begin
    tally = Tally()
    for thread in threads:
        thread.join(timeout=60.0)
        if thread.is_alive():
            tally.fail("client thread hung")
    for part in tallies:
        tally.merge(part)
    return LoadResult(
        latencies=[x for part in latencies for x in part],
        finished=[x for part in finished for x in part],
        wall=wall,
        tally=tally,
        samples=[s for part in samples for s in part],
        sent=sent,
    )


def timed_reload(server: ServerProcess, name: str, point_to, timeout: float = 30.0) -> float:
    """Rewrite ``LATEST`` to ``name``; seconds until a reply names it."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
    try:
        begin = time.perf_counter()
        point_to(name)
        while True:
            conn.request("GET", "/predict/0")
            body = conn.getresponse().read()
            now = time.perf_counter()
            if snapshot_name(body) == name:
                return now - begin
            if now - begin > timeout:
                raise TimeoutError(f"reload to {name} did not land in {timeout:.0f}s")
            time.sleep(0.005)
    finally:
        conn.close()


def check_samples(samples, states) -> List[str]:
    """Compare sampled reply bodies with the in-process payload of the
    snapshot each one names; returns the mismatches."""
    problems: List[str] = []
    for path, body in samples:
        _, endpoint, raw = path.split("/")
        node = int(raw)
        payload = json.loads(body)
        state = states.get(payload.get("snapshot"))
        if state is None:
            problems.append(f"{path}: unknown snapshot {payload.get('snapshot')!r}")
            continue
        if endpoint == "predict":
            expected = state.predict_payload(node)
        elif endpoint == "explain":
            if not isinstance(payload.pop("cached", None), bool):
                problems.append(f"{path}: explain reply lacks the cached flag")
            expected = state.explain_payload(node)
        else:
            expected = state.neighbors_payload(node)
        if payload != json.loads(json.dumps(expected)):
            problems.append(f"{path}: reply differs from {state.snapshot_name}")
    return problems
