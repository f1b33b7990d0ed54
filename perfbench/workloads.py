"""The serving workloads: inputs, topology, timed phase, check.

Inputs are seeded numpy data generated here, never through
``repro.data``, so the workloads stay fixed while that module changes.
Each workload sends a fixed base (its preload) and then repeats one
cycle of batches for as long as the phase lasts (see ``oracle``), so
the state the service holds is bounded and every answer is checkable.

The untraced run serves from ``LocalCluster`` worker processes (or,
for ``join-window``, an in-process ``CatalogService``).  The traced run
hosts the same topology in-process behind ``EventLoopServer`` threads,
so the span recorder sees both sides of every hop.  Why each workload
exists is in ``NOTES.md``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import ClusterService, LocalCluster, ShardClient
from repro.cluster.worker import build_store, store_config
from repro.relational.windowed import WindowedSignatureCatalog
from repro.service.aserver import EventLoopServer
from repro.service.service import CatalogService, SketchService
from repro.store import SketchSpec, WindowedSketchStore

from .oracle import Query, Reference

#: The sketch every workload serves unless it says otherwise.  The hash
#: seed is part of the served configuration, not of the inputs.
SKETCH = {"s1": 256, "s2": 5, "seed": 1_000_003}
POPULARITY_SEED = 20_240_601
#: The data every workload stores (its preload and the ingest cycle it
#: repeats) is one fixed dataset; ``--seed`` draws the query stream and
#: the arrival jitter.  Repeated cycles come to dominate the stored
#: state, so seeded data would move ``estimate_rel_err`` from seed to
#: seed by more than any bound allows.
DATASET_SEED = 7_919

#: The timed phase is cut into slices this long, and the end-to-end
#: figures come from its faster slices (see ``Phase.fast_slices``).
SLICE_S = 1.0
#: The share of the phase's slices, the fastest, that the figures use.
FAST_SHARE = 0.5


class Zipf:
    """Draws from a Zipf law over ``domain`` values.

    Which value holds which popularity rank is fixed; ``rng`` drives
    the draws.
    """

    def __init__(self, rng: np.random.Generator, domain: int, exponent: float):
        weights = np.arange(1, domain + 1, dtype=np.float64) ** -exponent
        self._cdf = np.cumsum(weights / weights.sum())
        self._cdf[-1] = 1.0
        self.order = np.random.default_rng([POPULARITY_SEED, domain]).permutation(domain)
        self._rng = rng

    def ranks(self, n: int) -> np.ndarray:
        return np.searchsorted(self._cdf, self._rng.random(n), side="right")

    def __call__(self, n: int) -> np.ndarray:
        return self.order[self.ranks(n)]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


@dataclass
class Phase:
    """What one timed phase did, measured on the load generator."""

    acks: list = field(default_factory=list)  # (sent, acknowledged, values)
    latencies: list = field(default_factory=list)  # seconds, answered queries
    answered_at: list = field(default_factory=list)  # when each was answered
    queries: list = field(default_factory=list)  # oracle.Query records
    attempted: int = 0
    failed: int = 0  # refused or errored ops
    notes: dict = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter)
    _index: dict = field(default_factory=dict, repr=False)

    def record(self, query: Query) -> None:
        """Keep a query for the check, folding exact repeats into one."""
        index = self._index.setdefault(query.key, len(self.queries))
        if index == len(self.queries):
            self.queries.append(query)
        else:
            self.queries[index].weight += 1

    def ack(self, sent: float, values: int) -> None:
        """Record one acknowledged ingest op sent at ``sent``."""
        self.acks.append((sent, time.perf_counter(), values))

    def answered(self, since: float) -> None:
        """Record one answered query, timed from ``since``."""
        now = time.perf_counter()
        self.latencies.append(now - since)
        self.answered_at.append(now)

    def _slice_of(self, times) -> np.ndarray:
        return ((np.asarray(times, dtype=np.float64) - self.started) // SLICE_S).astype(np.int64)

    def fast_slices(self) -> np.ndarray:
        """The whole ``SLICE_S`` slices of the phase the figures come from.

        The shared host runs this process at one of two speeds, about
        45% apart, switching every few seconds, and the share of slow
        time in a run varies from run to run.  Slices are ranked by the
        ops completed in them (acknowledged ingests plus answered
        queries) and the fastest ``FAST_SHARE`` of them are kept, so the
        figures describe the program on the undisturbed host.  A change
        that slows every op moves every slice, so it moves the figures
        in full.  The host's slower drift, over tens of seconds and
        more, moves whole runs and is not removed here.
        """
        ends = [acked for _, acked, _ in self.acks] + self.answered_at
        if not ends:
            return np.zeros(0, np.int64)
        whole = int((max(ends) - self.started) // SLICE_S)
        if whole < 2:
            return np.arange(max(whole, 1))
        done = np.bincount(self._slice_of(ends), minlength=whole + 1)[:whole]
        keep = max(1, int(round(whole * FAST_SHARE)))
        return np.sort(np.argsort(-done, kind="stable")[:keep])

    def fast_latencies(self) -> np.ndarray:
        """Latencies (seconds) of the queries answered in the fast slices."""
        if not self.latencies:
            return np.zeros(0)
        slices = self._slice_of(self.answered_at)
        chosen = np.isin(slices, self.fast_slices())
        if not chosen.any():  # a phase shorter than one slice
            chosen[:] = True
        return np.asarray(self.latencies)[chosen]

    def ingest_rate(self) -> float:
        """Values acknowledged per second in the fast slices.

        Within each slice the rate runs from the first send to the last
        acknowledgement of the ops acknowledged in it.
        """
        if not self.acks:
            return 0.0
        sent, acked, values = (np.asarray(c, dtype=np.float64) for c in zip(*self.acks))
        slices = self._slice_of(acked)
        chosen = [s for s in self.fast_slices() if (slices == s).any()] or [slices[-1]]
        total = span = 0.0
        for s in chosen:
            mine = slices == s
            total += values[mine].sum()
            span += acked[mine].max() - sent[mine].min()
        return float(total / span) if span > 0 else 0.0


class Fleet:
    """The shard servers of one run and the clients that reach them.

    Untraced: ``LocalCluster`` worker processes.  Traced: the same
    services in this process behind ``EventLoopServer`` threads.
    """

    def __init__(self, config: dict, shards: int, in_process: bool):
        self.cluster = None
        self.services: list = []
        self._servers: list = []
        self._extra: list[ShardClient] = []
        if in_process:
            addresses = []
            for _ in range(shards):
                service = SketchService(build_store(config))
                server = EventLoopServer(service)
                thread = threading.Thread(target=server.serve_forever, daemon=True)
                thread.start()
                self.services.append(service)
                self._servers.append((server, thread))
                addresses.append(server.server_address[:2])
            self.clients = [
                ShardClient(host, port, protocol="binary") for host, port in addresses
            ]
        else:
            self.cluster = LocalCluster(config, shards)
            self.clients = self.cluster.clients()

    def connect(self, shard: int = 0) -> ShardClient:
        """A second connection to one shard (its own socket and lock)."""
        primary = self.clients[shard]
        client = ShardClient(primary.host, primary.port, protocol="binary")
        client.request({"op": "ping"})
        self._extra.append(client)
        return client

    def rss_mb(self) -> float:
        """Summed peak RSS of the worker processes."""
        return sum(vm_hwm_mb(w.process.pid) for w in self.cluster.workers)

    def close(self) -> None:
        for client in self._extra:
            client.close()
        if self.cluster is not None:
            self.cluster.shutdown()
            return
        for client in self.clients:
            client.close()
        for server, thread in self._servers:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()


def open_loop(due_times, seconds: float, issue) -> float:
    """Call ``issue(i, due)`` at each offset of ``due_times`` (seconds
    from now) that falls inside the phase; returns the worst lateness."""
    start = time.perf_counter()
    worst = 0.0
    for i, offset in enumerate(due_times):
        if offset >= seconds:
            break
        due = start + offset
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        else:
            worst = max(worst, now - due)
        issue(i, due)
    return worst


def jittered_schedule(rng: np.random.Generator, rate: float, seconds: float = 120.0) -> np.ndarray:
    """Arrival offsets at ``rate`` per second, one at a seeded random
    point of each period.

    The jitter keeps an open-loop schedule from phase-locking with the
    period of the work it measures, without the bursts of Poisson
    arrivals that would queue behind one another on the single query
    connection.
    """
    slots = np.arange(int(rate * seconds))
    return (slots + rng.random(slots.size)) / rate


class _Progress:
    """Cycle batches sent and acknowledged, shared with query threads."""

    def __init__(self):
        self.sent = 0
        self.acked = 0


class Workload:
    """Inputs, set-up, timed phase and check of one workload."""

    name = ""
    width = 1000  # bucket width, in timestamp units

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.data_rng = np.random.default_rng(DATASET_SEED)
        self.spec = SketchSpec("tugofwar", SKETCH)
        self.base_ops: list = []
        self.cycle_ops: list = []
        self.progress = _Progress()

    def make_store(self, spec: SketchSpec | None = None) -> WindowedSketchStore:
        return WindowedSketchStore(spec or self.spec, bucket_width=self.width)

    def check(self, phases: list[Phase], perturb: bool = False) -> list[dict]:
        """Reference results for every query of every phase.

        ``perturb`` builds the reference from another sketch seed, so
        every answer must come out wrong: the test that the oracle is live.
        """
        spec = self.spec
        if perturb:
            spec = SketchSpec(spec.kind, {**spec.params, "seed": spec.params["seed"] + 1})
        reference = Reference(
            lambda: self.make_store(spec), self.base_ops, self.cycle_ops,
            self.nbuckets, self.width, self.domain,
        )
        return reference.resolve([q for phase in phases for q in phase.queries])

    def cycle_op(self, p: int):
        return self.cycle_ops[p % len(self.cycle_ops)]

    @staticmethod
    def rss_mb(session) -> float:
        """Peak RSS of the serving processes (this one when in-process)."""
        fleet = session.get("fleet")
        if fleet is not None and fleet.cluster is not None:
            return fleet.rss_mb()
        return vm_hwm_mb()

    @staticmethod
    def teardown(session) -> None:
        service = session.get("service")
        if isinstance(service, ClusterService):
            service.close()
        if "fleet" in session:
            session["fleet"].close()


class IngestMono(Workload):
    """Pipelined signed ingest into one worker, with open-loop queries."""

    name = "ingest-mono"

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.nbuckets = 16
        self.domain = 1 << 14
        batches, batch = (8, 4096) if tiny else (8, 16384)
        # A low rate: each query waits out the frame being written, so a
        # higher one would queue queries behind each other on their one
        # connection and the tail would measure the generator; 14/s still
        # leaves ten samples beyond p95 in the fast half of a 30 s phase.
        # One frame per ingest call: with several frames in flight the
        # worker's writer-preferring lock let queries through between
        # frames in some runs and not in others, and p95 moved with that race.
        self.arrivals = jittered_schedule(self.rng, 14.0)
        data = self.data_rng
        draw = Zipf(data, self.domain, 1.1)
        per_batch = self.nbuckets // batches
        pool_ts, pool_values = [], []
        for i in range(batches):
            deletes = batch // 10 if i else 0
            inserts = batch - deletes
            head = i * per_batch
            ts = data.integers(head * self.width, (head + per_batch) * self.width, inserts)
            if head:
                late = data.random(inserts) < 0.05
                ts[late] = data.integers(
                    max(0, head - 4) * self.width, head * self.width, int(late.sum())
                )
            values = draw(inserts)
            if deletes:
                old_ts = np.concatenate(pool_ts)
                old_values = np.concatenate(pool_values)
                pick = data.choice(old_ts.size, deletes, replace=False)
                keep = np.ones(old_ts.size, bool)
                keep[pick] = False
                pool_ts, pool_values = [old_ts[keep]], [old_values[keep]]
                ts = np.concatenate([ts, old_ts[pick]])
                values = np.concatenate([values, old_values[pick]])
            pool_ts.append(ts[:inserts])
            pool_values.append(values[:inserts])
            counts = np.ones(batch, np.int64)
            counts[inserts:] = -1
            order = data.permutation(batch)  # deletions interleave, out of order
            self.cycle_ops.append((None, ts[order], values[order], counts[order]))
        self.per_batch = per_batch
        # Window lengths 1..8 buckets, each block of eight queries a
        # permutation, so queries between two ingests rarely repeat a
        # window and nearly every query misses the merged-window cache.
        self.lengths = np.concatenate(
            [self.rng.permutation(8) + 1 for _ in range(1 << 13)]
        )

    def setup(self, traced: bool):
        fleet = Fleet(store_config(self.make_store()), 1, traced)
        fleet.clients[0].request({"op": "ping"})
        return {"fleet": fleet, "queries": fleet.connect(0)}

    def run(self, session, seconds: float) -> Phase:
        """Closed-loop ingest on one connection, open-loop queries on the other."""
        phase = Phase()
        progress = self.progress
        client = session["fleet"].clients[0]
        stop_at = time.perf_counter() + seconds
        errors: list = []

        def ingest() -> None:
            while time.perf_counter() < stop_at:
                batch = self.cycle_op(progress.sent)[1:]
                progress.sent += 1
                phase.attempted += 1
                sent = time.perf_counter()
                try:
                    phase.ack(sent, client.ingest_batches([batch], window=1))
                except (OSError, ValueError) as exc:
                    phase.failed += 1
                    errors.append(repr(exc))
                    break
                progress.acked = progress.sent

        query_client = session["queries"]

        def query(i: int, due: float) -> None:
            head = (progress.sent - 1) % len(self.cycle_ops) if progress.sent else 0
            end = (head + 1) * self.per_batch
            start = max(0, end - int(self.lengths[i % self.lengths.size]))
            t0, t1 = start * self.width, end * self.width
            lo = progress.acked
            phase.attempted += 1
            try:
                response = query_client.request({"op": "estimate", "from": t0, "until": t1})
                answer = float(response["estimate"])
                phase.answered(due)
            except (OSError, ValueError, KeyError) as exc:
                phase.failed += 1
                errors.append(repr(exc))
                answer = None
            phase.record(Query("f2", (None,), t0, t1, lo, progress.sent, answer))

        thread = threading.Thread(target=ingest)
        thread.start()
        try:
            phase.notes["query_lateness_s"] = open_loop(self.arrivals, seconds, query)
        finally:
            thread.join()
        phase.notes["errors"] = errors[:5]
        return phase

    def gauges(self, session) -> dict:
        """State size (and worker kernel backend) through the ``info`` op."""
        info = session["queries"].request({"op": "info"})
        return {"state_words": int(info["memory_words"]), "worker_backend": info["kernel_backend"]}


class WindowQueryCluster(Workload):
    """Closed-loop window queries over two preloaded shard workers."""

    name = "window-query-cluster"

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.nbuckets = 16 if tiny else 256
        self.domain = 1 << 13
        per_bucket = 256 if tiny else 1024
        trickle, trickles = 256, 64
        self.ingest_every = 4  # one trickle batch per this many ops
        data = self.data_rng
        draw = Zipf(data, self.domain, 1.1)
        for b in range(self.nbuckets):
            ts = data.integers(b * self.width, (b + 1) * self.width, per_bucket)
            self.base_ops.append((None, ts, draw(per_bucket), None))
        for _ in range(trickles):
            ts = data.integers(0, self.nbuckets * self.width, trickle)
            self.cycle_ops.append((None, ts, draw(trickle), None))
        # Windows of 1..8 buckets: most pairs of them share little data,
        # so their errors are nearly independent samples of the estimator.
        pairs = [
            (a, b) for a in range(self.nbuckets)
            for b in range(a + 1, min(a + 8, self.nbuckets) + 1)
        ]
        self.windows = [pairs[i] for i in self.rng.permutation(len(pairs))]
        self.next_window = 0

    def setup(self, traced: bool):
        fleet = Fleet(store_config(self.make_store()), 2, traced)
        service = ClusterService(fleet.clients, supervisor=fleet.cluster)
        for _, ts, values, _ in self.base_ops:
            service.ingest(ts, values)
        return {"fleet": fleet, "service": service}

    def run(self, session, seconds: float) -> Phase:
        phase = Phase()
        service = session["service"]
        errors: list = []
        stop_at = time.perf_counter() + seconds
        op = 0
        while time.perf_counter() < stop_at:
            op += 1
            phase.attempted += 1
            if op % self.ingest_every == 0:
                _, ts, values, _ = self.cycle_op(self.progress.sent)
                self.progress.sent += 1
                sent = time.perf_counter()
                try:
                    service.ingest(ts, values)
                except (OSError, ValueError) as exc:
                    phase.failed += 1
                    errors.append(repr(exc))
                    break
                self.progress.acked = self.progress.sent
                phase.ack(sent, values.size)
                continue
            a, b = self.windows[self.next_window % len(self.windows)]
            self.next_window += 1
            t0, t1 = a * self.width, b * self.width
            started = time.perf_counter()
            try:
                answer = float(service.estimate_window(t0, t1).estimate)
                phase.answered(started)
            except (OSError, ValueError) as exc:
                phase.failed += 1
                errors.append(repr(exc))
                answer = None
            p = self.progress.acked
            phase.record(Query("f2", (None,), t0, t1, p, p, answer))
        phase.notes["windows_repeated"] = max(0, self.next_window - len(self.windows))
        phase.notes["errors"] = errors[:5]
        return phase

    def gauges(self, session) -> dict:
        info = session["service"].info()
        return {"state_words": int(info["memory_words"]), "worker_backend": info["kernel_backend"]}


class JoinWindow(Workload):
    """Cached windowed join estimates over a four-relation star."""

    name = "join-window"
    relations = ("fact", "dim1", "dim2", "dim3")
    #: Zipf exponent of the request popularity.  Hits take ~0.02 ms and
    #: misses 0.2-1 ms; at 0.7 about a fifth of requests hit, so p50
    #: lies inside the miss latencies.  At 1.0 nearly half hit and p50
    #: sat on the edge between the two, moving with the hit share.
    skew = 0.7

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.nbuckets = 8 if tiny else 32
        self.domain = 1 << 13
        per_bucket = 128 if tiny else 4096
        batch, batches = (256, 16) if tiny else (1024, 64)
        self.schedule = np.arange(0, 120, 0.025)  # one ingest batch per 25 ms
        self.think = 0.001  # client think time between requests, seconds
        data = self.data_rng
        draw = Zipf(data, self.domain, 1.1)  # shared popularity: big joins
        for name in self.relations:
            for b in range(self.nbuckets):
                ts = data.integers(b * self.width, (b + 1) * self.width, per_bucket)
                self.base_ops.append((name, ts, draw(per_bucket), None))
        for i in range(batches):
            name = self.relations[i % len(self.relations)]
            head = data.integers(0, self.nbuckets)
            ts = data.integers(head * self.width, (head + 1) * self.width, batch)
            self.cycle_ops.append((name, ts, draw(batch), None))
        kinds = [("join", ("fact", d)) for d in self.relations[1:]]
        kinds += [("f2", (r,)) for r in self.relations]
        pairs = [(a, b) for a in range(self.nbuckets) for b in range(a + 1, self.nbuckets + 1)]
        space = [(k, s, a, b) for k, s in kinds for a, b in pairs]
        requests = Zipf(self.rng, len(space), self.skew)
        self.requests = [space[i] for i in requests(1 << 16)]
        self.next_request = 0

    def setup(self, traced: bool):
        params = self.spec.params
        catalog = WindowedSignatureCatalog(
            params["s1"] * params["s2"], self.width, s2=params["s2"], seed=params["seed"]
        )
        service = CatalogService(catalog)
        for name in self.relations:
            service.register(name)
        for name, ts, values, _ in self.base_ops:
            service.ingest(name, ts, values)
        return {"service": service, "catalog": catalog}

    def run(self, session, seconds: float) -> Phase:
        phase = Phase()
        progress = self.progress
        service = session["service"]
        stop_at = time.perf_counter() + seconds
        errors: list = []

        def ingest(i: int, due: float) -> None:
            name, ts, values, _ = self.cycle_op(progress.sent)
            progress.sent += 1
            phase.attempted += 1
            sent = time.perf_counter()
            try:
                service.ingest(name, ts, values)
            except (OSError, ValueError) as exc:
                phase.failed += 1
                errors.append(repr(exc))
                return
            progress.acked = progress.sent
            phase.ack(sent, values.size)

        lateness: list = []
        thread = threading.Thread(
            target=lambda: lateness.append(open_loop(self.schedule, seconds, ingest))
        )
        thread.start()
        seen: set = set()
        repeats = 0
        first = self.next_request
        try:
            while time.perf_counter() < stop_at:
                kind, streams, a, b = request = self.requests[self.next_request % len(self.requests)]
                self.next_request += 1
                repeats += request in seen
                seen.add(request)
                t0, t1 = a * self.width, b * self.width
                lo = progress.acked
                phase.attempted += 1
                started = time.perf_counter()
                try:
                    if kind == "join":
                        answer = service.join_estimate(streams[0], streams[1], t0, t1)
                    else:
                        answer = service.self_join_estimate(streams[0], t0, t1)
                    answer = float(answer)
                    phase.answered(started)
                except (KeyError, ValueError) as exc:
                    phase.failed += 1
                    errors.append(repr(exc))
                    answer = None
                phase.record(Query(kind, streams, t0, t1, lo, progress.sent, answer))
                time.sleep(self.think)
        finally:
            thread.join()
        phase.notes["ingest_schedule_lateness_s"] = lateness[0] if lateness else None
        phase.notes["repeat_share"] = repeats / max(1, self.next_request - first)
        phase.notes["errors"] = errors[:5]
        return phase

    def gauges(self, session) -> dict:
        return {"state_words": int(session["service"].memory_words)}


WORKLOADS = {cls.name: cls for cls in (IngestMono, WindowQueryCluster, JoinWindow)}


def layer_gauges(session) -> dict:
    """Store and cache gauges of a traced (in-process) session."""
    spans = keys = memory = hits = lookups = invalidated = 0
    services = session["fleet"].services if "fleet" in session else [session["service"]]
    for service in services:
        stats = service.stats()
        hits += stats["hits"]
        lookups += stats["hits"] + stats["misses"] + stats["coalesced"]
        invalidated += stats["invalidated"]
        memory += service.memory_words
        if isinstance(service, CatalogService):
            catalog = session["catalog"]
            spans += sum(catalog.store(name).span_count for name in catalog.relations)
            keys += len(catalog.relations)
        else:
            spans += service.span_count
            keys += 1
    return {
        "store.spans": spans,
        "store.keys": keys,
        "store.memory_words": memory,
        "service.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "service.cache.invalidations": invalidated,
    }
