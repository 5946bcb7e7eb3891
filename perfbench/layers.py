"""Per-layer metrics of one traced repetition.

Self times and call counts come from :mod:`tracer`; drops and hit
counts from hooks on the functions that produce them; the fleet's
``parallel.*`` IPC figures and epoch timings from the untraced run's
``fleet.run(stats=...)``, since spans in pool workers would never reach
the parent (the traced fleet runs in-process at ``jobs=1``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import tracer

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("sim.self_s", "s"), ("sim.events", "count"),
    ("sim.events_per_op", "count/op"),
    ("net.self_s", "s"), ("net.calls", "count"),
    ("net.packets_built", "count"), ("net.nsh_codec_per_op", "count/op"),
    ("vswitch.self_s", "s"), ("vswitch.slow_path_lookups", "count"),
    ("vswitch.session_hit_ratio", "ratio"), ("vswitch.cpu_drops", "count"),
    ("core.self_s", "s"), ("core.be_calls", "count"),
    ("core.fe_calls", "count"),
    ("fabric.self_s", "s"), ("fabric.transmits", "count"),
    ("fabric.pkts_per_transmit", "count"), ("fabric.link_drops", "count"),
    ("host.self_s", "s"), ("host.calls", "count"),
    ("host.kernel_drops", "count"),
    ("controller.self_s", "s"), ("controller.reconciles", "count"),
    ("controller.failovers", "count"), ("controller.detect_sim_s", "sim_s"),
    ("fleet.self_s", "s"), ("fleet.cold.self_s", "s"),
    ("fleet.hotsim.self_s", "s"), ("fleet.hotsim.runs", "count"),
    ("fleet.coordinator.self_s", "s"), ("fleet.seed_epoch_s", "s"),
    ("fleet.steady_epoch_s", "s"),
    ("parallel.self_s", "s"), ("parallel.bytes_per_epoch", "B"),
    ("parallel.collect_bytes", "B"), ("parallel.collect_s", "s"),
    ("parallel.recv_wait_s", "s"), ("parallel.worker_busy_ratio", "ratio"),
    ("other.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    # The end-to-end views the issue names per workload (0 where the
    # workload has no such operation), from the untraced repetition.
    ("conns_per_s", "1/s"), ("pkts_per_s", "1/s"),
    ("vswitch_epochs_per_s", "1/s"),
    # Fidelity: simulated outputs, deterministic for a seed; their units
    # are simulated time, not host time.
    ("sim_cps", "1/sim_s"), ("sim_conn_p50_us", "sim_us"),
    ("sim_conn_p99_us", "sim_us"), ("sim_conn_samples", "count"),
    ("sim_loss_surge_s", "sim_s"),
    ("sim_mitigated_frac", "ratio"), ("error_rate", "ratio"),
]

PACKETS_BUILT = ("repro.net.packet.Packet.tcp", "repro.net.packet.Packet.copy",
                 "repro.net.packet.Packet.decode")
NSH_CODEC = ("repro.net.nsh.NshHeader.encode", "repro.net.nsh.NshHeader.decode",
             "repro.net.nsh.NshContext.encode",
             "repro.net.nsh.NshContext.decode",
             "repro.core.header.NezhaMeta.to_context",
             "repro.core.header.NezhaMeta.from_context")
ENGINE_EVENTS = tuple(f"repro.sim.engine.Engine.{name}" for name in
                      ("call_at", "call_soon", "call_at_batch", "process"))
BE_CALLS = tuple(f"repro.core.backend.BackendInstance.{name}" for name in
                 ("handle_tx", "handle_rx", "handle_from_fe",
                  "handle_notify"))
FE_CALLS = ("repro.core.frontend.FrontendInstance.handle_from_be",
            "repro.core.frontend.FrontendInstance.handle_overlay_rx")
HOST_CALLS = ("repro.host.vm.Vm.send", "repro.host.vm.Vm.send_burst",
              "repro.host.vm.Vm.send_run", "repro.host.guest_tcp.GuestTcp.open")
TRANSMITS = ("repro.fabric.link.Link.transmit",
             "repro.fabric.link.Link.transmit_burst",
             "repro.fabric.link.Link.transmit_run")
INCLUSIVE = {
    "repro.fleet.shard.run_shard_epoch": "shard_epoch",
    "repro.fleet.hotsim.simulate_hot_epoch": "hotsim",
    "repro.fleet.coordinator.FleetCoordinator.settle": "settle",
}


class Observations:
    """Counts the hooks collect while the traced repetition runs."""

    def __init__(self) -> None:
        self.session_hits = 0
        self.link_pkts = 0
        self.link_drops = 0
        self.kernel_drops = 0
        self.vswitch_stats: list = []
        self.first_fail_fe: Optional[float] = None

    def hooks(self) -> Dict[str, tracer.Hook]:
        hooks = {
            "repro.vswitch.session_table.SessionTable.lookup":
                tracer.Hook(post=self._session_lookup),
            "repro.vswitch.vswitch.VSwitch.__init__":
                tracer.Hook(post=self._vswitch_built),
            "repro.core.offload.NezhaOrchestrator.fail_fe":
                tracer.Hook(pre=self._fail_fe),
            # Private, but the monitor's failover entry into the controller.
            "repro.controller.controller.NezhaController._on_target_down":
                tracer.Hook(),
        }
        for name, packets in zip(TRANSMITS, (
                lambda args: 1, lambda args: len(args[2]),
                lambda args: args[3])):
            hooks[name] = tracer.Hook(pre=self._link_before,
                                      post=self._link_after(packets))
        for method in ("send", "send_burst", "send_run", "_rx", "_rx_run"):
            hooks[f"repro.host.vm.Vm.{method}"] = tracer.Hook(
                pre=self._vm_before, post=self._vm_after)
        return hooks

    def _session_lookup(self, _args, result, _token) -> None:
        if result is not None:
            self.session_hits += 1

    def _vswitch_built(self, args, _result, _token) -> None:
        self.vswitch_stats.append(args[0].stats)

    def _fail_fe(self, args) -> None:
        if self.first_fail_fe is None:
            self.first_fail_fe = args[0].engine.now

    @staticmethod
    def _link_before(args):
        return args[0].drops_down

    def _link_after(self, packets):
        def post(args, _result, drops_before) -> None:
            self.link_pkts += packets(args)
            self.link_drops += args[0].drops_down - drops_before
        return post

    @staticmethod
    def _vm_before(args):
        return args[0].kernel_drops

    def _vm_after(self, args, _result, drops_before) -> None:
        self.kernel_drops += args[0].kernel_drops - drops_before


def _sum_calls(names) -> int:
    return sum(tracer.calls(name) for name in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(op_name: str, base, traced,
                      obs: Observations, ops: int,
                      view=None, pool_stats: Optional[dict] = None,
                      crash_at: Optional[float] = None) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one workload. ``base`` is the
    untraced repetition the overhead is measured against, ``view`` the
    untraced repetition the end-to-end views come from (default
    ``base``), ``ops`` the traced repetition's attempted operations and
    ``pool_stats`` the untraced resident-pool ``fleet.run`` stats."""
    view = view or base
    selfs = tracer.self_s()
    lookups = tracer.calls("repro.vswitch.session_table.SessionTable.lookup")
    transmits = _sum_calls(TRANSMITS)
    events = _sum_calls(ENGINE_EVENTS)
    m: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    m.update({
        "sim.events": events,
        "sim.events_per_op": _ratio(events, ops),
        "net.calls": tracer.layer_calls("net"),
        "net.packets_built": _sum_calls(PACKETS_BUILT),
        "net.nsh_codec_per_op": _ratio(_sum_calls(NSH_CODEC), ops),
        "vswitch.slow_path_lookups":
            tracer.calls("repro.vswitch.slow_path.SlowPath.lookup"),
        "vswitch.session_hit_ratio": _ratio(obs.session_hits, lookups),
        "vswitch.cpu_drops": sum(s.cpu_drops for s in obs.vswitch_stats),
        "core.be_calls": _sum_calls(BE_CALLS),
        "core.fe_calls": _sum_calls(FE_CALLS),
        "fabric.transmits": transmits,
        "fabric.pkts_per_transmit": _ratio(obs.link_pkts, transmits),
        "fabric.link_drops": obs.link_drops,
        "host.calls": _sum_calls(HOST_CALLS),
        "host.kernel_drops": obs.kernel_drops,
        "controller.reconciles":
            tracer.calls("repro.controller.controller.NezhaController"
                         ".reconcile"),
        "controller.failovers":
            tracer.calls("repro.controller.controller.NezhaController"
                         "._on_target_down"),
        "fleet.cold.self_s": tracer.inclusive_s("shard_epoch")
            - tracer.inclusive_s("hotsim"),
        "fleet.hotsim.self_s": tracer.inclusive_s("hotsim"),
        "fleet.hotsim.runs":
            tracer.calls("repro.fleet.hotsim.simulate_hot_epoch"),
        "fleet.coordinator.self_s": tracer.inclusive_s("settle"),
        "trace.overhead_ratio": traced.wall_s / base.wall_s,
        op_name: view.ops_per_s,
    })
    if crash_at is not None and obs.first_fail_fe is not None:
        m["controller.detect_sim_s"] = obs.first_fail_fe - crash_at
    if pool_stats is not None:
        m.update(parallel_metrics(pool_stats))
    for name in m:
        if name in view.sim:
            m[name] = view.sim[name]
    return m


def parallel_metrics(stats: dict) -> Dict[str, float]:
    """Epoch timings and IPC accounting of a resident-pool fleet run."""
    pool = stats["pool"]
    step_walls = pool["phase_wall_s"]["step"]
    busy = sum(worker["step_wall_s"] for worker in pool["workers"])
    return {
        "fleet.seed_epoch_s": stats["seed_epoch_s"],
        "fleet.steady_epoch_s": stats["steady_epoch_s"],
        "parallel.bytes_per_epoch": stats["ipc_bytes_per_epoch"],
        "parallel.collect_bytes": stats["ipc_bytes_collect"],
        "parallel.collect_s": pool["phase_wall_s"]["collect"],
        "parallel.recv_wait_s": sum(worker["recv_wait_s"]
                                    for worker in pool["workers"]),
        "parallel.worker_busy_ratio":
            _ratio(busy, pool["jobs"] * sum(step_walls)),
    }
