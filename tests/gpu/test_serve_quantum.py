"""``SteppedEngine._serve_quantum``: the branches the models do not hold.

The per-quantum traffic function is built from the component models
(``CacheModel.demand``, ``HmcFlowModel.bottleneck_time_ns``,
``SmArray.compute_time_ns``, ``HmcFlowModel.traffic_rates``,
``PowerModel.package_total_w``), each tested on its own. What it adds
is the served share, the ledger clamp, the final-step flush and the
zero-DRAM guard; this suite pins those, and that the models' input
guards still fire through it.
"""

import pytest

from repro.gpu.caches import CacheModel, MemoryTraffic
from repro.gpu.config import GPU_DEFAULT
from repro.gpu.simulator import SteppedEngine, SystemSimulator, _EpochState
from repro.hmc.dram_timing import TemperaturePhase
from repro.sim.trace import OpBatch


def make_engine(coherence_mode="bypass", phase=TemperaturePhase.NORMAL,
                vault_scale=1.0):
    sim = SystemSimulator(cache=CacheModel(
        GPU_DEFAULT, host_atomic_coalescing=0.6,
        coherence_mode=coherence_mode, pei_dirty_fraction=0.3,
    ))
    sim.flow.phase = phase
    sim.flow.vault_capacity_scale = vault_scale
    return SteppedEngine(sim)


def serve(engine, fluid, ledgers, threads=4096, fraction=0.5, es=1.0):
    """``_serve_quantum`` on the key the scalar step would build."""
    epoch = _EpochState(
        OpBatch(reads=0, writes=0, atomics=0, threads=threads),
        MemoryTraffic(0, 0, 0, 0), engine.sim.saturation_threads,
    )
    return engine._serve_quantum((
        *fluid, *ledgers, epoch.mlp, epoch.divergence, fraction,
        *engine.sim.flow.capacities(), es,
    ))


def test_ledger_clamp_cuts_host_accounting_first():
    """The atomics ledger (10) is far below the fluid's served share of
    a link-bound quantum: the served atomics are cut to the ledger, the
    host accounting before the offloaded packets."""
    engine = make_engine()
    value = serve(engine, (1e6, 0.0, 1000.0, 0.0, 0.0), (1_000_000, 0, 10))
    dt_ns, rec = value[0], value[-1]
    assert dt_ns == engine.sim.control_dt_s * 1e9  # not the last quantum
    s_pim, s_pimr, h_raw = rec[4], rec[5], rec[6]
    assert s_pim + s_pimr + h_raw == 10
    assert h_raw == 0 < s_pim
    assert value[10] == 0


def test_final_step_flush_serves_the_ledgers():
    """A remainder served in one quantum, with ledgers above the rounded
    fluid: the last quantum empties the fluid and every ledger."""
    engine = make_engine("writeback", phase=TemperaturePhase.EXTENDED)
    fluid, ledgers = (3.0, 2.0, 2.4, 1.0, 5.0), (5, 3, 4)
    value = serve(engine, fluid, ledgers, threads=0, es=1.2)
    assert value[0] < engine.sim.control_dt_s * 1e9
    assert value[3:11] == (0.0,) * 5 + (0, 0, 0)
    rec = value[-1]
    assert rec[1:3] == (5, 3)
    # Work conservation: every ledger atomic is offloaded or host-assigned.
    assert rec[4] + rec[5] + rec[6] == 4
    assert value[2] > 0.0  # the interval's package energy


def test_zero_dram_capacity_serves_nothing():
    """The ``dram_gbs > 0 else inf`` guard: with no DRAM capacity the
    quantum elapses and nothing is served."""
    engine = make_engine(vault_scale=0.0)
    fluid, ledgers = (100.0, 50.0, 20.0, 5.0, 10.0), (100, 50, 20)
    # Host execution only: with no vaults the FU pool is empty too.
    value = serve(engine, fluid, ledgers, fraction=0.0)
    assert value[0] == engine.sim.control_dt_s * 1e9
    assert value[-1][1:7] == (0, 0, 0, 0, 0, 0)
    assert value[3:11] == (*fluid, *ledgers)


def test_model_guards_fire_through_the_quantum():
    engine = make_engine()
    with pytest.raises(ValueError, match="pim_fraction"):
        serve(engine, (10.0, 0.0, 10.0, 0.0, 0.0), (10, 0, 10), fraction=1.2)
    engine.sim.flow.phase = TemperaturePhase.SHUTDOWN
    with pytest.raises(RuntimeError, match="shutdown"):
        engine.sim.flow.capacities()
