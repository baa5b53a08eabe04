"""Shared plumbing of the benchmark: statistics, answer digests, served
endpoints, peak RSS and the run's provenance (source digest, git sha,
machine fingerprint).

Nothing here imports the program at module load; the program is imported
from ``src/`` of the checkout by :mod:`run` before any workload runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch output of runs (span dumps, the work-count ledger); gitignored.
OUT = HERE / ".out"

#: Tail percentiles, lowest first.  ``tail`` reports the highest one with
#: at least ``TAIL_BEYOND`` samples beyond it, so a short run never
#: reports a percentile that rests on a handful of samples.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# Statistics (applied after the timed loop, never inside it).
# ----------------------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of *values* (0 <= pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def tail(values) -> dict:
    """The highest ladder percentile with TAIL_BEYOND samples beyond it."""
    n = len(values)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            chosen = pct
    return {
        "percentile": chosen,
        "value": percentile(values, chosen),
        "samples": n,
        "beyond": int(n * (100.0 - chosen) / 100.0),
    }


def ratio(part: float, whole: float) -> float:
    """``part / whole``, reported as 0.0 when the base is empty."""
    return part / whole if whole else 0.0


def stats_counts(p) -> dict:
    """Engine counters summed over the responses of a pass (exact)."""
    stats = [r.stats for r in p.responses if r is not None]
    return {
        "queries": sum(s.queries for s in stats),
        "memo_hits": sum(s.memo_hits for s in stats),
        "engine.chases": sum(s.chases for s in stats),
        "engine.pair_chases": sum(s.pair_chases for s in stats),
        "cover_seed_hits": sum(s.cover_seed_hits for s in stats),
        "cover_seed_misses": sum(s.cover_seed_misses for s in stats),
    }


# ----------------------------------------------------------------------
# Answer digests: canonical JSON built here, not by the code under test.
# ----------------------------------------------------------------------


def canonical_cover(cover) -> str:
    """Sorted canonical JSON of a cover (CFD objects or wire documents)."""
    from repro.io import dependency_to_json

    docs = [dep if isinstance(dep, dict) else dependency_to_json(dep) for dep in cover]
    return json.dumps(
        sorted(json.dumps(doc, sort_keys=True, separators=(",", ":")) for doc in docs),
        separators=(",", ":"),
    )


def canonical_verdicts(verdicts) -> str:
    return "".join("1" if v else "0" for v in verdicts)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def expected_digests(workload, source: str) -> list[str]:
    """The reference answer digests of *workload*'s run.

    Taken from the digests pinned in ``reference/`` when they cover the
    run, else from an earlier run with the same source digest in this
    checkout, else computed (outside the timed loop) and kept.
    """
    needed = workload.reference_size
    pinned = HERE / "reference" / f"{workload.name}.json"
    if pinned.is_file():
        pins = json.loads(pinned.read_text())["digests"]
        if len(pins) >= needed:
            return pins[:needed]
    cached = OUT / f"reference-{workload.name}-{source}.json"
    if cached.is_file():
        digests = json.loads(cached.read_text())
        if len(digests) >= needed:
            return digests[:needed]
    digests = workload.reference_digests()
    OUT.mkdir(exist_ok=True)
    cached.write_text(json.dumps(digests))
    return digests


# ----------------------------------------------------------------------
# Processes.
# ----------------------------------------------------------------------


def child_env() -> dict:
    """The environment of every process the benchmark starts: the
    program comes from ``src/`` of this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Server:
    """One ``repro serve --port 0`` subprocess (NDJSON over TCP).

    ``launcher`` replaces the plain CLI entry with a benchmark script
    that installs span wrappers first (the traced run).
    """

    def __init__(self, launcher: list[str] | None = None):
        command = launcher or ["-m", "repro.cli"]
        self.proc = subprocess.Popen(
            [sys.executable, *command, "serve", "--port", "0", "--host", "127.0.0.1"],
            cwd=str(ROOT),
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self._stderr: list[bytes] = []
        self._drain: threading.Thread | None = None
        try:
            self.url = self._await_announce()
        except BaseException:
            self.kill()
            raise
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_announce(self) -> str:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        stream = self.proc.stderr
        buffer = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                self._stderr.append(line)
                text = line.decode(errors="replace")
                if text.startswith("listening on "):
                    host, port = text[len("listening on ") :].rsplit(":", 1)
                    return f"tcp://{host}:{int(port)}"
        raise RuntimeError(
            "server did not announce its port: "
            + b"\n".join(self._stderr[-20:]).decode(errors="replace")
        )

    def _drain_stderr(self) -> None:
        """Keep reading the server's stderr so a full pipe never blocks it."""
        for _line in self.proc.stderr:
            pass

    def stop(self, client) -> None:
        """Ask the server to shut down over *client*, then reap it."""
        try:
            client.shutdown()
        finally:
            client.close()
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            finally:
                self.kill()

    def kill(self) -> None:
        """Kill the server if it still runs, reap it, close its pipe."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=5.0)
        if self.proc.stderr is not None:
            self.proc.stderr.close()


# ----------------------------------------------------------------------
# Provenance of a run.
# ----------------------------------------------------------------------


def source_digest() -> str:
    """sha256 over the program's and the benchmark's source files."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """The checkout's commit, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
