"""Unit tests for simulated resources (repro.sim.resources)."""

import pytest

from repro.errors import ResourceExhausted, SimulationError
from repro.sim import CpuResource, Engine, FifoQueue, MemoryBudget


# -- CpuResource --------------------------------------------------------------

def test_cpu_service_time():
    cpu = CpuResource(Engine(), cores=1, hz=1_000_000)
    assert cpu.service_time(1_000_000) == pytest.approx(1.0)
    assert cpu.service_time(500) == pytest.approx(0.0005)


def test_cpu_single_core_serializes_jobs():
    engine = Engine()
    cpu = CpuResource(engine, cores=1, hz=100.0)
    completions = []
    for _ in range(2):          # 1s of work each; the second queues
        assert cpu.try_submit_call(100, 10.0,
                                   lambda: completions.append(engine.now))
    engine.run()
    assert completions == [pytest.approx(1.0), pytest.approx(2.0)]


def test_cpu_multi_core_parallelism():
    engine = Engine()
    cpu = CpuResource(engine, cores=2, hz=100.0)
    # Two cores: both jobs finish at t=1.0.
    assert cpu.try_book(100, 10.0) == pytest.approx(1.0)
    assert cpu.try_book(100, 10.0) == pytest.approx(1.0)


def test_cpu_try_submit_call_runs_callback_at_completion():
    engine = Engine()
    cpu = CpuResource(engine, cores=1, hz=100.0)
    got = []
    assert cpu.try_submit_call(50, 1.0, lambda *a: got.append(
        (engine.now, a)), "x", 2)
    engine.run()
    assert got == [(pytest.approx(0.5), ("x", 2))]
    assert cpu.jobs_done == 1 and cpu.total_cycles == 50


def test_cpu_utilization_tracks_busy_fraction():
    engine = Engine()
    cpu = CpuResource(engine, cores=1, hz=100.0, util_window=1.0)
    cpu.try_book(50, 1.0)       # 0.5s of work on a 1s window
    engine.call_at(1.0, lambda: None)
    engine.run()
    assert engine.now == pytest.approx(1.0)
    assert cpu.utilization() == pytest.approx(0.5, abs=0.01)


def test_cpu_utilization_idle_is_zero():
    engine = Engine()
    cpu = CpuResource(engine, cores=4, hz=100.0)
    engine.call_at(10.0, lambda: None)
    engine.run()
    assert cpu.utilization() == 0.0


def test_cpu_try_submit_rejects_over_backlog():
    engine = Engine()
    cpu = CpuResource(engine, cores=1, hz=100.0)
    cpu.try_book(1000, max_backlog=1.0)  # 10s backlog
    assert cpu.try_book(10, max_backlog=1.0) is None
    assert not cpu.try_submit_call(10, 1.0, lambda: None)
    assert cpu.jobs_rejected == 2
    # With generous limit it is accepted.
    assert cpu.try_book(10, max_backlog=100.0) == pytest.approx(10.1)
    assert cpu.try_submit_call(10, 100.0, lambda: None)


def test_cpu_backlog_reports_queued_seconds():
    engine = Engine()
    cpu = CpuResource(engine, cores=1, hz=100.0)
    cpu.try_book(200, max_backlog=1.0)  # 2s
    assert cpu.backlog() == pytest.approx(2.0)


def test_cpu_validates_configuration():
    with pytest.raises(SimulationError):
        CpuResource(Engine(), cores=0, hz=100.0)
    with pytest.raises(SimulationError):
        CpuResource(Engine(), cores=1, hz=0.0)


# -- MemoryBudget --------------------------------------------------------------

def test_memory_alloc_free_roundtrip():
    mem = MemoryBudget(1000)
    mem.alloc("sessions", 300)
    mem.alloc("rules", 200)
    assert mem.used == 500
    assert mem.by_tag == {"sessions": 300, "rules": 200}
    mem.free("sessions", 300)
    assert mem.used == 200
    assert "sessions" not in mem.by_tag


def test_memory_exhaustion_raises_and_counts():
    mem = MemoryBudget(100)
    mem.alloc("a", 90)
    with pytest.raises(ResourceExhausted):
        mem.alloc("b", 20)
    assert mem.failed_allocs == 1
    assert mem.used == 90  # failed alloc did not leak


def test_memory_try_alloc():
    mem = MemoryBudget(100)
    assert mem.try_alloc("a", 60)
    assert not mem.try_alloc("b", 60)
    assert mem.used == 60


def test_memory_over_free_rejected():
    mem = MemoryBudget(100)
    mem.alloc("a", 10)
    with pytest.raises(SimulationError):
        mem.free("a", 20)


def test_memory_free_all_returns_bytes():
    mem = MemoryBudget(100)
    mem.alloc("a", 30)
    mem.alloc("a", 20)
    assert mem.free_all("a") == 50
    assert mem.used == 0
    assert mem.free_all("missing") == 0


def test_memory_peak_and_utilization():
    mem = MemoryBudget(100)
    mem.alloc("a", 80)
    mem.free("a", 50)
    assert mem.peak == 80
    assert mem.utilization() == pytest.approx(0.3)
    assert mem.available() == 70


# -- FifoQueue ------------------------------------------------------------------

def test_queue_put_get_order():
    engine = Engine()
    q = FifoQueue(engine)
    got = []

    def consumer():
        for _ in range(3):
            item = yield q.get()
            got.append(item)

    engine.process(consumer())
    for i in range(3):
        q.put(i)
    engine.run()
    assert got == [0, 1, 2]


def test_queue_blocks_until_item():
    engine = Engine()
    q = FifoQueue(engine)
    got = []

    def consumer():
        item = yield q.get()
        got.append((engine.now, item))

    engine.process(consumer())
    engine.call_at(5.0, q.put, "late")
    engine.run()
    assert got == [(5.0, "late")]


def test_queue_drop_tail_when_full():
    engine = Engine()
    q = FifoQueue(engine, capacity=2)
    assert q.put(1)
    assert q.put(2)
    assert not q.put(3)
    assert q.drops == 1
    assert len(q) == 2
