"""The benchmark's three workloads, each one repetition at a time.

Every repetition builds its system from scratch with the given seed and
returns a :class:`Rep`: host timings (set-up, whole repetition, measured
window) in reference seconds (see :class:`Stopwatch`), the simulated
outputs (``sim``), a sha256 digest of those outputs and the outcome of
each correctness check. Simulated outputs depend only on the seed:
traffic is generated in simulated time, so a host stall cannot change
them.

* ``crr_offload`` -- fig14's exact configuration: the server vNIC
  offloaded to 4 FEs, a controller plus health monitor, closed-loop
  TCP_CRR with 24 slots per client, and one FE crashing at ``KILL_AT``.
* ``elephant_offload`` -- the same offloaded testbed without a
  controller, carrying 16 long-lived bulk flows in 32-packet bursts.
* ``fleet_10k`` -- ``repro.experiments.fleet.run`` at 10K vSwitches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Callable, Dict, List, Optional

from repro.bench.micro import calibration_loop
from repro.controller import FePlacement, HealthMonitor, NezhaController
from repro.controller.controller import ControllerConfig
from repro.experiments import fleet as fleet_exp
from repro.experiments import testbed as testbed_mod
from repro.sim.rng import SeededRng
from repro.workloads import ClosedLoopCrr
from repro.workloads.elephant import ElephantFlow

# fig14's defaults (repro.experiments.fig14.run): do not change them; a
# later crash or fewer slots per client hides the known failover defect.
KILL_AT = 4.0
DURATION = 10.0
BUCKET = 0.5
MONITOR_INTERVAL = 0.4
CRR_SLOTS = 24
OFFLOAD_SETTLE = 1.0
CRR_WARMUP = 0.5
CRR_CHUNKS = 14
CRR_POST_CRASH_CHUNKS = 12

ELEPHANT_FLOWS_PER_CLIENT = 4
ELEPHANT_RATE_PPS = 2500.0
ELEPHANT_PAYLOAD = 1400
ELEPHANT_BURST = 32
ELEPHANT_DPORT = 5201
ELEPHANT_WARMUP = 0.1
ELEPHANT_WINDOW = 0.5
ELEPHANT_DRAIN = 0.05
ELEPHANT_CHUNKS = 5

FLEET_VSWITCHES = 10_000
FLEET_EPOCHS = 6
FLEET_JOBS = 2


class Stopwatch:
    """Host time in reference seconds.

    A 2-core cloud box's speed drifts by up to 1.5x within a minute as
    other tenants load the cores it shares, and no number of repetitions
    averages that out. So every lap's host seconds are scaled by the host
    speed measured with ``repro.bench.micro.calibration_loop`` right
    before and right after the lap: a lap reads as the seconds it would
    take on a host that runs the loop at :attr:`REFERENCE_SPEED`. Speed
    samples take ~20 ms and are excluded from the laps; ``raw_s`` keeps
    the unscaled host seconds.
    """

    REFERENCE_SPEED = 1.0e7     # calibration-loop iterations per second
    SAMPLE_CALLS = 20           # 10K iterations each

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._speed = self.host_speed()
        self._mark = time.perf_counter()

    @classmethod
    def host_speed(cls) -> float:
        """Calibration-loop iterations per second, measured now."""
        started = time.perf_counter()
        for _ in range(cls.SAMPLE_CALLS):
            calibration_loop()
        return cls.SAMPLE_CALLS * 10_000 / (time.perf_counter() - started)

    def lap(self) -> float:
        """Reference seconds since the previous lap (or creation)."""
        raw = time.perf_counter() - self._mark
        speed = self.host_speed()
        ref = raw * (self._speed + speed) / (2 * self.REFERENCE_SPEED)
        self.raw_s += raw
        self.ref_s += ref
        self._speed = speed
        self._mark = time.perf_counter()
        return ref


@dataclasses.dataclass
class Rep:
    """One repetition of one workload; times in reference seconds."""

    setup_s: float
    wall_s: float
    wall_raw_s: float         # unscaled host seconds of the repetition
    window_s: float           # the measured window
    window_ops: int           # operations completed in that window
    rates: List[float]        # ops per reference second, per window chunk
    attempted: int            # operations attempted in the repetition
    sim: Dict[str, float]     # simulated outputs (deterministic per seed)
    digest: str
    checks: Dict[str, bool]
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.window_ops / self.window_s


def run_chunked(engine, start: float, end: float, chunks: int,
                count: Callable[[], int], watch: Stopwatch):
    """Run ``engine`` from ``start`` to ``end`` in ``chunks`` equal
    slices of simulated time, one lap each; returns the reference seconds
    taken and the per-chunk rates (``count()`` increase per reference
    second). Stopping the engine at a bound does not reorder events."""
    rates = []
    total = 0.0
    watch.lap()
    for index in range(1, chunks + 1):
        before = count()
        engine.run(until=start + (end - start) * index / chunks)
        elapsed = watch.lap()
        total += elapsed
        rates.append((count() - before) / elapsed)
    return total, rates


def digest_of(outputs) -> str:
    blob = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _offloaded_testbed(seed: int):
    """fig14's testbed: 4 clients, 6 idle vSwitches, the server vNIC
    offloaded to the first 4 idle ones and given time to settle."""
    testbed = testbed_mod.build_testbed(n_clients=4, n_idle=6, seed=seed)
    handle = testbed.orchestrator.offload(testbed.server_vnic,
                                          testbed.idle_vswitches[:4])
    testbed.run(OFFLOAD_SETTLE)
    if handle.completed_at is None:
        raise RuntimeError("offload did not complete")
    return testbed, handle


# -- crr_offload ---------------------------------------------------------------


class TimedCrr(ClosedLoopCrr):
    """:class:`ClosedLoopCrr` that also records each transaction's
    completion time and latency; the traffic it sends is unchanged."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.opened = 0
        self.samples: List[tuple] = []

    def _spawn(self) -> None:
        if self._running:
            self.opened += 1
        super()._spawn()

    def _on_done(self, conn) -> None:
        self.samples.append((conn.completed_at, conn.latency))
        super()._on_done(conn)


class CrrRun:
    """fig14's run_point, with ``Engine.run`` split into warm-up, the
    pre-crash window and the rest, each sliced into laps. Stopping the
    engine at a bound does not reorder events; ``perfbench/selftest.py``
    checks the loss series against ``fig14.run_point``."""

    def __init__(self, seed: int) -> None:
        testbed, handle = _offloaded_testbed(seed)
        engine = testbed.engine
        monitor = HealthMonitor(engine, testbed.topo.servers[-1],
                                interval=MONITOR_INTERVAL, miss_threshold=3)
        placement = FePlacement(testbed.topo, {})
        controller = NezhaController(engine, testbed.gateway,
                                     testbed.orchestrator, placement,
                                     config=ControllerConfig(),
                                     monitor=monitor)
        for vswitch in testbed.vswitches:
            controller.register(vswitch)
        for fe in handle.fe_vswitches:
            monitor.add_target(fe.server)
        monitor.start()
        self.loops = [TimedCrr(engine, app, testbed_mod.SERVER_IP, 80,
                               concurrency=CRR_SLOTS).start()
                      for app in testbed.client_apps]
        self.buckets: List[tuple] = []
        self.testbed, self.handle, self.engine = testbed, handle, engine
        self.controller = controller
        self.victim = handle.fe_vswitches[0]
        engine.process(self._sampler(), name="loss-sampler")
        self.start = engine.now
        self.crash_at = engine.now + KILL_AT
        engine.call_at(self.crash_at, self.victim.crash)
        self.window_start = self.start + CRR_WARMUP
        engine.run(until=self.window_start)

    def _sampler(self):
        engine, loops = self.engine, self.loops
        prev_done = prev_fail = 0
        while True:
            yield engine.timeout(BUCKET)
            done = sum(loop.completed for loop in loops)
            fail = sum(loop.failed for loop in loops)
            d, f = done - prev_done, fail - prev_fail
            prev_done, prev_fail = done, fail
            total = d + f
            self.buckets.append((engine.now - self.handle.completed_at,
                                 f / total if total else 0.0))

    def measure(self, watch: Stopwatch) -> Dict[str, object]:
        engine, loops = self.engine, self.loops

        def completed() -> int:
            return sum(loop.completed for loop in loops)
        window_s, rates = run_chunked(engine, self.window_start,
                                      self.crash_at, CRR_CHUNKS, completed,
                                      watch)
        run_chunked(engine, self.crash_at, self.start + DURATION,
                    CRR_POST_CRASH_CHUNKS, completed, watch)
        return {"window_s": window_s, "rates": rates}

    def outputs(self) -> Dict[str, object]:
        loops = self.loops
        window = [latency for loop in loops for at, latency in loop.samples
                  if self.window_start < at <= self.crash_at]
        window.sort()
        lossy = [t for t, loss in self.buckets if loss > 0.02]
        surge = max(lossy) - min(lossy) + BUCKET if lossy else 0.0
        completed = sum(loop.completed for loop in loops)
        failed = sum(loop.failed for loop in loops)
        opened = sum(loop.opened for loop in loops)
        in_flight = sum(app.in_flight for app in self.testbed.client_apps)
        samples = [sample for loop in loops for sample in loop.samples]
        return {
            "buckets": self.buckets,
            "opened": opened, "completed": completed, "failed": failed,
            "in_flight": in_flight,
            "window_completed": len(window),
            "window_latencies": window,
            "samples_sha": digest_of(samples),
            "fes_after": sorted(fe.name for fe in
                                self.handle.fe_vswitches),
            "failovers": self.controller.failovers,
            "surge_s": surge,
        }


def setup_time(build: Callable[[int], object]) -> Callable[[int], float]:
    """A set-up-only repetition: reference seconds to ``build(seed)``."""
    def timed(seed: int) -> float:
        watch = Stopwatch()
        build(seed)
        return watch.lap()
    return timed


def crr_rep(seed: int) -> Rep:
    watch = Stopwatch()
    run = CrrRun(seed)
    setup_s = watch.lap()
    measured = run.measure(watch)
    out = run.outputs()
    watch.lap()
    window = out["window_latencies"]
    window_sim_s = run.crash_at - run.window_start
    sim = {
        "sim_cps": len(window) / window_sim_s,
        "sim_conn_p50_us": percentile(window, 50) * 1e6,
        "sim_conn_p99_us": percentile(window, 99) * 1e6,
        "sim_conn_samples": len(window),
        "sim_loss_surge_s": out["surge_s"],
        "error_rate": out["failed"] / out["opened"],
    }
    checks = {
        "engine strict, no process crashed":
            run.engine.strict and not run.engine.crashed_processes,
        "attempted == completed + failed + in-flight":
            out["opened"] == out["completed"] + out["failed"]
            + out["in_flight"],
        "one loss bucket per 0.5 s": len(out["buckets"]) ==
            round(DURATION / BUCKET),
        "controller restored 4 FEs": len(out["fes_after"]) == 4,
    }
    return Rep(setup_s=setup_s, wall_s=watch.ref_s, wall_raw_s=watch.raw_s,
               window_s=measured["window_s"], window_ops=len(window),
               rates=measured["rates"], attempted=out["opened"], sim=sim,
               digest=digest_of(out), checks=checks,
               extra={"buckets": out["buckets"],
                      "crash_at": run.crash_at})


# -- elephant_offload ------------------------------------------------------------


class _Sink:
    __slots__ = ("delivered",)

    def __init__(self) -> None:
        self.delivered = 0

    def __call__(self, _packet) -> None:
        self.delivered += 1


class ElephantRun:
    """16 bulk flows (4 per client) into the offloaded server vNIC."""

    def __init__(self, seed: int) -> None:
        testbed, handle = _offloaded_testbed(seed)
        engine = testbed.engine
        self.sink = _Sink()
        testbed.server_vm.listen(testbed.server_vnic, ELEPHANT_DPORT,
                                 self.sink)
        rng = SeededRng(seed, "perfbench/elephant")
        gap = ELEPHANT_BURST / ELEPHANT_RATE_PPS
        self.start = engine.now
        self.window_start = self.start + gap + ELEPHANT_WARMUP
        self.window_end = self.window_start + ELEPHANT_WINDOW
        self.flows: List[ElephantFlow] = []
        sports = rng.sample(range(20000, 60000),
                            ELEPHANT_FLOWS_PER_CLIENT
                            * len(testbed.client_apps))
        for index, sport in enumerate(sports):
            client = index % len(testbed.client_apps)
            flow = ElephantFlow(engine, testbed.client_vms[client],
                                testbed.client_vnics[client],
                                testbed_mod.SERVER_IP,
                                rate_pps=ELEPHANT_RATE_PPS,
                                payload_bytes=ELEPHANT_PAYLOAD, sport=sport,
                                dport=ELEPHANT_DPORT, burst=ELEPHANT_BURST)
            offset = rng.uniform(0.0, gap)
            engine.call_at(self.start + offset, flow.run,
                           self.window_end - self.start - offset)
            self.flows.append(flow)
        self.testbed, self.handle, self.engine = testbed, handle, engine
        engine.run(until=self.window_start)

    def measure(self, watch: Stopwatch) -> Dict[str, object]:
        sink = self.sink
        before = sink.delivered
        window_s, rates = run_chunked(
            self.engine, self.window_start, self.window_end,
            ELEPHANT_CHUNKS, lambda: sink.delivered, watch)
        window_pkts = sink.delivered - before
        self.engine.run(until=self.window_end + ELEPHANT_DRAIN)
        return {"window_s": window_s, "window_pkts": window_pkts,
                "rates": rates}

    def outputs(self) -> Dict[str, object]:
        testbed = self.testbed
        vms = [testbed.server_vm] + testbed.client_vms
        return {
            "sent": [flow.sent for flow in self.flows],
            "delivered": self.sink.delivered,
            "vswitch_stats": [dataclasses.asdict(vs.stats)
                              for vs in testbed.vswitches],
            "kernel_drops": [vm.kernel_drops for vm in vms],
        }


def elephant_rep(seed: int) -> Rep:
    watch = Stopwatch()
    run = ElephantRun(seed)
    setup_s = watch.lap()
    measured = run.measure(watch)
    out = run.outputs()
    watch.lap()
    sent = sum(out["sent"])
    cpu_drops = sum(stats["cpu_drops"] for stats in out["vswitch_stats"])
    kernel_drops = sum(out["kernel_drops"])
    undelivered = sent - out["delivered"]
    sim = {
        "sim_pkts_delivered": out["delivered"],
        "sim_window_pkts": measured["window_pkts"],
        "error_rate": undelivered / sent,
    }
    checks = {
        "engine strict, no process crashed":
            run.engine.strict and not run.engine.crashed_processes,
        "sent == delivered + vSwitch CPU drops + VM kernel drops":
            sent == out["delivered"] + cpu_drops + kernel_drops,
        "every flow sent traffic": all(n > 1 for n in out["sent"]),
    }
    return Rep(setup_s=setup_s, wall_s=watch.ref_s, wall_raw_s=watch.raw_s,
               window_s=measured["window_s"],
               window_ops=measured["window_pkts"], rates=measured["rates"],
               attempted=sent, sim=sim,
               digest=digest_of(out), checks=checks)


# -- fleet_10k ----------------------------------------------------------------------


class _FleetLaps:
    """Laps inside ``fleet.run``: shims over the two names it looks up
    (``make_shards``, ``ResidentPool``) mark the end of set-up and time
    each pool step, so the epoch loop is measured in reference seconds.
    Without a pool (``jobs=1``) only set-up is lapped."""

    def __init__(self, watch: Stopwatch) -> None:
        self.setup_s = 0.0
        self.loop_s: Optional[float] = None
        make_shards = fleet_exp.make_shards
        pool_cls = fleet_exp.ResidentPool
        laps = self

        def timed_make_shards(*args, **kwargs):
            states = make_shards(*args, **kwargs)
            laps.setup_s = watch.lap()
            return states

        class TimedPool(pool_cls):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                laps.setup_s += watch.lap()
                self.loop_started = watch.ref_s

            def step(self, payload):
                watch.lap()
                reports = super().step(payload)
                watch.lap()
                return reports

            def collect(self):
                watch.lap()
                laps.loop_s = watch.ref_s - self.loop_started
                return super().collect()

        self._saved = (make_shards, pool_cls)
        fleet_exp.make_shards = timed_make_shards
        fleet_exp.ResidentPool = TimedPool

    def close(self) -> None:
        fleet_exp.make_shards, fleet_exp.ResidentPool = self._saved


def fleet_rep(seed: int, jobs: int = FLEET_JOBS) -> Rep:
    stats: Dict[str, object] = {}
    watch = Stopwatch()
    laps = _FleetLaps(watch)
    try:
        result = fleet_exp.run(n_vswitches=FLEET_VSWITCHES,
                               epochs=FLEET_EPOCHS, seed=seed, jobs=jobs,
                               policy="nezha", stats=stats)
    finally:
        laps.close()
    watch.lap()
    rows = {row["metric"]: row["value"] for row in result.rows}
    simulated = rows["hot packets simulated"]
    ops = FLEET_VSWITCHES * FLEET_EPOCHS
    sim = {
        "sim_mitigated_frac": rows["cps mitigated fraction"],
        "sim_hot_observations": rows["hot observations"],
        "error_rate": rows["hot packets dropped"] / simulated,
    }
    checks = {
        # fleet.run asserts its folded flyweight totals itself; reaching
        # here means the assertion held.
        "folded fluid totals == reported totals": True,
        "hot packets delivered + dropped <= simulated":
            rows["hot packets delivered"] + rows["hot packets dropped"]
            <= simulated,
        "every epoch ran": len(stats["epoch_walls_s"]) == FLEET_EPOCHS,
    }
    pool = stats.get("pool")
    if pool is not None:
        checks["pool workers stopped"] = not any(
            worker["alive"] for worker in pool["workers"])
    window_s = laps.loop_s
    if window_s is None:    # no pool: scale the run's own epoch walls
        window_s = sum(stats["epoch_walls_s"]) * watch.ref_s / watch.raw_s
    return Rep(setup_s=laps.setup_s, wall_s=watch.ref_s,
               wall_raw_s=watch.raw_s, window_s=window_s, window_ops=ops,
               rates=[ops / window_s], attempted=ops, sim=sim,
               digest=digest_of(result.to_text()), checks=checks,
               extra={"stats": stats})


WORKLOADS: Dict[str, Dict[str, object]] = {
    "crr_offload": {
        "rep": crr_rep, "setup": setup_time(CrrRun), "min_reps": 1,
        "op": "conns_per_s",
        "kwargs": {"n_clients": 4, "n_idle": 6, "fes": 4,
                   "slots_per_client": CRR_SLOTS, "kill_at": KILL_AT,
                   "duration": DURATION, "bucket": BUCKET,
                   "monitor_interval": MONITOR_INTERVAL,
                   "warmup": CRR_WARMUP},
    },
    "elephant_offload": {
        "rep": elephant_rep, "setup": setup_time(ElephantRun), "min_reps": 3,
        "op": "pkts_per_s",
        "kwargs": {"n_clients": 4, "n_idle": 6, "fes": 4,
                   "flows_per_client": ELEPHANT_FLOWS_PER_CLIENT,
                   "rate_pps": ELEPHANT_RATE_PPS,
                   "payload_bytes": ELEPHANT_PAYLOAD,
                   "burst": ELEPHANT_BURST, "warmup": ELEPHANT_WARMUP,
                   "window": ELEPHANT_WINDOW},
    },
    "fleet_10k": {
        "rep": fleet_rep, "setup": None, "min_reps": 3,
        "op": "vswitch_epochs_per_s",
        "kwargs": {"n_vswitches": FLEET_VSWITCHES, "epochs": FLEET_EPOCHS,
                   "jobs": FLEET_JOBS, "policy": "nezha"},
    },
}

