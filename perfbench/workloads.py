"""The two workloads, each a closed loop with one client.

- ``paper-cover``: in-process ``PropagationService().cover`` on a fresh
  |Sigma|=200 set per op at the Fig 5 setting, so every op is cold.
- ``edit-stream``: a fixed cycle of Sigma edits, each followed by a
  check and a cover, over one TCP connection to a ``repro serve``
  subprocess.

A workload issues a fixed op sequence whose length is set by
``--seconds`` through a per-workload rate (ops per second on the
reference host), so every run does the same work and lasts about
``--seconds``; the seed only orders it.  The timed loop only calls the
program and stores raw samples and responses, and times a fixed
host-speed chunk between ops (:mod:`hostspeed`); scaling, percentiles,
canonical JSON and reference comparisons all happen after it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import harness
import hostspeed
import inputs
import tracing
from harness import canonical_cover, canonical_verdicts, digest, stats_counts

from repro.api import (
    ApiError,
    CoverRequest,
    PropagationService,
    connect,
)
from repro.io import dependencies_from_json
from repro.streaming import ColdReference, parse_trace

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 5
#: Host-speed chunks timed before each set-up and after the last one.
SETUP_CHUNKS = 3
SETUP_TIMEOUT_S = 120.0
#: Pool entries covered again with spans installed to take the exact
#: work counts of ``paper-cover`` (outside the timed loop).
COUNTED_OPS = 4

clock = time.perf_counter


class Pass:
    """What one timed pass recorded, raw."""

    def __init__(self) -> None:
        #: Raw set-up times, and the host speed around them: set-up k
        #: lies between chunk positions k and k + 1.
        self.setup_s: list[float] = []
        self.setup_speed = hostspeed.Speed()
        #: Wall time of the timed loop without its host-speed chunks.
        self.loop_s = 0.0
        #: Host speed through the timed loop, by op index.
        self.speed = hostspeed.Speed()
        self.latency_s: list[float] = []
        self.responses: list = []
        self.errors: dict[int, str] = {}
        self.rss_mb = 0.0
        self.spans: list | None = None
        #: Request id of the first timed op in ``spans``.
        self.rid0 = 0

    def latency_ms(self) -> list[float]:
        return [s * 1000.0 for s in self.latency_s]

    def scaled_latency_ms(self) -> list[float]:
        """Per-op latency at reference host speed."""
        return [self.speed.scale(s, i) * 1000.0 for i, s in enumerate(self.latency_s)]

    def scaled_setup_s(self) -> list[float]:
        """Per-set-up time at reference host speed."""
        return [self.setup_speed.scale(s, k + 0.5) for k, s in enumerate(self.setup_s)]


def _loop(call, requests, speed_every: int, tracer=None, rid0=0) -> Pass:
    """The timed loop: one op after another, raw samples only, and a
    host-speed chunk after every *speed_every* ops."""
    n = len(requests)
    latency = [0.0] * n
    responses: list = [None] * n
    errors: dict[int, str] = {}
    speed = hostspeed.Speed()
    chunks_s = 0.0
    started = clock()
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.rid = rid0 + i
        t0 = clock()
        try:
            responses[i] = call(request)
        except (ApiError, OSError) as exc:
            errors[i] = f"{type(exc).__name__}: {exc}"
        latency[i] = clock() - t0
        if i % speed_every == speed_every - 1:
            chunks_s += speed.sample(i)
    loop_s = clock() - started - chunks_s
    p = Pass()
    p.loop_s, p.latency_s, p.responses, p.errors = loop_s, latency, responses, errors
    p.speed = speed
    return p


class Workload:
    """What :mod:`run` needs of a workload."""

    name = ""
    seed = 0
    n = 0
    #: Ops between two host-speed chunks of the timed loop.
    speed_every = 1
    #: Op kind (``edit`` / ``check`` / ``cover``) per timed op.
    kinds: list[str] = []

    def run_pass(self, traced: bool) -> Pass:
        raise NotImplementedError

    @property
    def reference_size(self) -> int:
        """How many answers :meth:`reference_digests` covers."""
        raise NotImplementedError

    def reference_digests(self) -> list[str]:
        """Digest of every answer the run checks, from the independent
        reference.  The answers do not depend on the seed, and the list
        is prefix-stable in the run length."""
        raise NotImplementedError

    def failures(self, p: Pass, expected: list[str]) -> dict:
        """Answers that differ from *expected*: timed ops keyed by index,
        set-up answers by a label."""
        raise NotImplementedError

    def work_counts(self, p: Pass) -> dict:
        """Exact work counts; two runs of one seed must agree on them."""
        return stats_counts(p)


def _compare(out: dict, key, got: str, expected: str) -> None:
    if got != expected:
        out[key] = f"answer {got} != reference {expected}"


# ----------------------------------------------------------------------
# paper-cover
# ----------------------------------------------------------------------


class PaperCover(Workload):
    name = "paper-cover"
    ops_per_second = 3.3
    #: Least ops per run: 10 samples beyond p90, so the tail is p90.
    min_ops = 100
    sigma_size = 200

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.n = max(self.min_ops, round(seconds * self.ops_per_second))
        self.schema, self.view = inputs.paper_setting()
        self.pool = inputs.sigma_pool(self.schema, self.sigma_size, self.n)
        #: Pool index of each timed op.
        self.order = inputs.op_order(seed, self.n)
        self.requests = [CoverRequest(view=self.view, sigma=self.pool[k]) for k in self.order]
        self.kinds = ["cover"] * self.n

    @classmethod
    def setup(cls) -> None:
        """One set-up: build the view and a warm-up Sigma, run one cover."""
        schema, view = inputs.paper_setting()
        sigma = inputs.paper_sigma(inputs.POOL_SEED, schema, cls.sigma_size, "warmup")
        with PropagationService() as service:
            service.cover(CoverRequest(view=view, sigma=sigma))

    def _probe_setup(self) -> float:
        """Wall time of a fresh process that imports the program and sets up.

        The child is reaped by a blocking wait, with a timer to kill it if
        it hangs: ``subprocess.run(timeout=...)`` polls for the exit in
        steps of up to 50 ms, which showed as 50-ms steps in ``setup_s``.
        """
        started = clock()
        proc = subprocess.Popen(
            [sys.executable, str(harness.HERE / "run.py"), "--workload", self.name, "--setup-only"],
            cwd=str(harness.ROOT),
            env=harness.child_env(),
        )
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        elapsed = clock() - started
        if code:
            raise subprocess.CalledProcessError(code, proc.args)
        return elapsed

    @staticmethod
    def _cover(request):
        service = PropagationService()
        try:
            return service.cover(request)
        finally:
            service.close()

    def run_pass(self, traced: bool) -> Pass:
        setup_s: list[float] = []
        setup_speed = hostspeed.Speed()
        if not traced:
            for k in range(SETUPS):
                setup_speed.sample(k, SETUP_CHUNKS)
                setup_s.append(self._probe_setup())
            setup_speed.sample(SETUPS, SETUP_CHUNKS)
        self.setup()  # this process's own warm-up
        tracer = installed = None
        if traced:
            tracer = tracing.Tracer()
            installed = tracing.install(tracer)
        try:
            p = _loop(self._cover, self.requests, self.speed_every, tracer)
        finally:
            if installed is not None:
                installed.uninstall()
        p.setup_s, p.setup_speed = setup_s, setup_speed
        p.rss_mb = harness.peak_rss_mb()
        if tracer is not None:
            p.spans = tracer.records()
        return p

    def work_counts(self, p: Pass) -> dict:
        """``stats_counts`` plus the ``implies`` calls and chase runs of
        the first pool entries, covered again with spans after the loop
        (the same entries on every seed)."""
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            for k in range(COUNTED_OPS):
                tracer.rid = k
                self._cover(CoverRequest(view=self.view, sigma=self.pool[k]))
        finally:
            installed.uninstall()
        layers = tracing.by_layer(tracer.records(), range(COUNTED_OPS))
        return stats_counts(p) | {
            "ops_counted": COUNTED_OPS,
            "core.implication.calls": layers.get("core.implication", {}).get("calls", 0),
            "core.chase.runs": layers.get("core.chase", {}).get("calls", 0),
        }

    @property
    def reference_size(self) -> int:
        return self.n

    def reference_digests(self) -> list[str]:
        """Each pool entry's cover from the uncached baseline kernel."""
        out = []
        for sigma in self.pool:
            with PropagationService(use_cache=False, kernel="baseline") as service:
                request = CoverRequest(view=self.view, sigma=sigma)
                out.append(digest(canonical_cover(service.cover(request).cover)))
        return out

    def failures(self, p: Pass, expected: list[str]) -> dict:
        out: dict = {}
        for i, response in enumerate(p.responses):
            if response is not None:
                got = digest(canonical_cover(response.cover))
                _compare(out, i, got, expected[self.order[i]])
        return out


# ----------------------------------------------------------------------
# edit-stream
# ----------------------------------------------------------------------


class EditStream(Workload):
    """Sigma edits beside checks and covers, over one TCP connection to a
    ``repro serve`` subprocess."""

    name = "edit-stream"
    edits_per_second = 50.0
    #: About 110 ms of ops between two 15-ms chunks.
    speed_every = 12

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.trace, self.offset = inputs.edit_trace(seed, round(seconds * self.edits_per_second))
        self.edits = self.trace["edits"]
        self.schema, self.sigma, self.views, _ = parse_trace(self.trace)
        self.cycle = inputs.edit_cycle()
        parsed = inputs.trace_requests(self.trace)
        self.kinds = [kind for kind, _ in parsed]
        self.requests = [request for _, request in parsed]
        self.n = len(self.requests)
        self.warm: list = []

    def prepare(self, client) -> int:
        client.register_schema("default", self.schema)
        client.register_sigma("default", self.sigma)
        for name, view in self.views.items():
            client.register_view(name, view)
        # The stream joins a service that has answered each view once.
        self.warm = [client.cover(CoverRequest(view=name)) for name in self.views]
        return 2 + 2 * len(self.views)

    def run_pass(self, traced: bool) -> Pass:
        setup_s: list[float] = []
        setup_speed = hostspeed.Speed()
        rounds = 1 if traced else SETUPS
        spans_path = harness.OUT / f"spans-{self.name}-{self.seed}.json"
        launcher = None
        if traced:
            harness.OUT.mkdir(exist_ok=True)
            spans_path.unlink(missing_ok=True)
            launcher = [str(harness.HERE / "traced_serve.py"), str(spans_path)]
        for round_index in range(rounds):
            setup_speed.sample(round_index, SETUP_CHUNKS)
            started = clock()
            server = harness.Server(launcher)
            try:
                client = connect(server.url)
                sent = 1 + self.prepare(client)  # the handshake ping, then set-up
                setup_s.append(clock() - started)
                if round_index < rounds - 1:
                    server.stop(client)
                    continue
                setup_speed.sample(rounds, SETUP_CHUNKS)
                client_tracer = installed = None
                if traced:
                    client_tracer = tracing.Tracer()
                    installed = tracing.install(
                        client_tracer, tracing.CLIENT_FUNCTIONS, methods=()
                    )
                try:
                    p = _loop(
                        client.submit, self.requests, self.speed_every, client_tracer, rid0=sent
                    )
                finally:
                    if installed is not None:
                        installed.uninstall()
                p.rss_mb = harness.peak_rss_mb(server.pid)
                server.stop(client)
            finally:
                server.kill()
        p.setup_s, p.setup_speed = setup_s, setup_speed
        p.rid0 = sent
        if traced:
            p.spans = client_tracer.records() + json.loads(spans_path.read_text())
        return p

    @staticmethod
    def _answer(kind: str, text: str) -> str:
        return digest(f"{kind}:{text}")

    @property
    def reference_size(self) -> int:
        return len(self.views) + len(self.cycle)

    def reference_digests(self) -> list[str]:
        """Warm-up covers, then every op of the cycle, from ``ColdReference``."""
        reference = ColdReference(self.trace)
        out = [self._answer("cover", canonical_cover(reference.cover(v))) for v in self.views]
        for op in self.cycle:
            if op["op"] == "edit":
                reference.apply_edit(op)
                out.append(self._answer("edit", str(len(reference.sigma))))
            elif op["op"] == "check":
                verdicts = reference.check(op["view"], dependencies_from_json(op["targets"]))
                out.append(self._answer("check", canonical_verdicts(verdicts)))
            else:
                out.append(self._answer("cover", canonical_cover(reference.cover(op["view"]))))
        return out

    def _digest(self, kind: str, response) -> str:
        if kind == "edit":
            return self._answer(kind, str(response.size))
        if kind == "check":
            return self._answer(kind, canonical_verdicts(response.propagated))
        return self._answer(kind, canonical_cover(response.cover))

    def failures(self, p: Pass, expected: list[str]) -> dict:
        out: dict = {}
        for i, response in enumerate(self.warm):
            _compare(out, f"warm {i}", self._digest("cover", response), expected[i])
        base = len(self.views)
        for i, response in enumerate(p.responses):
            if response is not None:
                got = self._digest(self.kinds[i], response)
                _compare(out, i, got, expected[base + (self.offset + i) % len(self.cycle)])
        return out

    def work_counts(self, p: Pass) -> dict:
        counts = stats_counts(p)
        updates = [
            r for kind, r in zip(self.kinds, p.responses) if kind == "edit" and r is not None
        ]
        counts["edits"] = len(updates)
        counts["invalidated"] = sum(u.invalidated for u in updates)
        counts["retained"] = sum(u.retained for u in updates)
        return counts


WORKLOADS = {cls.name: cls for cls in (PaperCover, EditStream)}
