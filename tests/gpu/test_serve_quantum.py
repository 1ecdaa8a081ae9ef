"""``SteppedEngine._serve_quantum``: the branches the models do not hold.

The per-quantum traffic function is built from the component models'
count cores (``CacheModel.demand_counts``,
``repro.hmc.flow.demand_time_ns``, ``SmArray.issue_time_ns``,
``repro.hmc.flow.demand_bytes`` and ``rates_of``,
``PowerModel.package_w``), each tested on its own and against its
dataclass wrapper (``tests/gpu/test_count_cores.py``). What it adds is
the served share, the ledger clamp, the final-step flush and the
zero-DRAM guard; this suite pins those, and that the models' input
guards still fire through it.
"""

import pytest

from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT
from repro.gpu.simulator import SteppedEngine, SystemSimulator, epoch_row
from repro.hmc.dram_timing import TemperaturePhase
from repro.sim.trace import OpBatch
from repro.thermal.operators import CONTROL_DT_S


def make_engine(coherence_mode="bypass", phase=TemperaturePhase.NORMAL,
                vault_scale=1.0):
    sim = SystemSimulator(cache=CacheModel(
        GPU_DEFAULT, host_atomic_coalescing=0.6,
        coherence_mode=coherence_mode, pei_dirty_fraction=0.3,
    ))
    sim.flow.phase = phase
    sim.flow.vault_capacity_scale = vault_scale
    return SteppedEngine(sim)


def serve(engine, fluid, ledgers, threads=4096, fraction=0.5, es=1.0,
          wb_carry=0.0):
    """``_serve_quantum`` on the key the scalar step would build."""
    *_, mlp, divergence = epoch_row(
        OpBatch(reads=0, writes=0, atomics=0, threads=threads),
        engine.sim.cache, engine.sim.saturation_threads,
    )
    return engine._serve_quantum((
        *fluid, *ledgers, wb_carry, mlp, divergence, fraction,
        *engine.sim.flow.capacities(), es,
    ))


def test_ledger_clamp_cuts_host_accounting_first():
    """The atomics ledger (10) is far below the fluid's served share of
    a link-bound quantum: the served atomics are cut to the ledger, the
    host accounting before the offloaded packets."""
    engine = make_engine()
    value = serve(engine, (1e6, 0.0, 1000.0, 0.0, 0.0), (1_000_000, 0, 10))
    dt_ns, rec = value[0], value[-1]
    assert dt_ns == CONTROL_DT_S * 1e9  # not the last quantum
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
    assert value[0] < CONTROL_DT_S * 1e9
    assert value[3:11] == (0.0,) * 5 + (0, 0, 0)
    rec = value[-1]
    # All 3 ledger writes, plus round(2 * 0.3) = 1 PEI writeback for the
    # 2 offloaded ops; the rounding remainder is carried.
    assert rec[4] + rec[5] == 2
    assert rec[1:3] == (5, 3 + 1)
    assert value[11] == pytest.approx(0.6 - 1)
    # Work conservation: every ledger atomic is offloaded or host-assigned.
    assert rec[4] + rec[5] + rec[6] == 4
    assert value[2] > 0.0  # the interval's package energy


def test_writeback_carry_is_key_and_post_state():
    """The PEI writeback remainder enters through the key and leaves in
    the post-state: with 0.4 carried, 2 ops x 0.3 dirty round to 1
    writeback and leave nothing; with 0.0 carried they round to 1 and
    leave -0.4."""
    engine = make_engine("writeback", phase=TemperaturePhase.EXTENDED)
    fluid, ledgers = (0.0, 0.0, 2.0, 0.0, 0.0), (0, 0, 2)
    fresh = serve(engine, fluid, ledgers, fraction=1.0)
    carried = serve(engine, fluid, ledgers, fraction=1.0, wb_carry=0.4)
    assert fresh[-1][4] == carried[-1][4] == 2
    assert fresh[-1][2] == carried[-1][2] == 1
    assert fresh[11] == pytest.approx(-0.4)
    assert carried[11] == pytest.approx(0.0)
    assert fresh[3:11] == carried[3:11]


def test_bypass_carries_no_writebacks():
    engine = make_engine()
    value = serve(engine, (0.0, 0.0, 2.0, 0.0, 0.0), (0, 0, 2), fraction=1.0)
    assert value[-1][2] == 0 and value[11] == 0.0


def test_zero_dram_capacity_serves_nothing():
    """The ``dram_gbs > 0 else inf`` guard: with no DRAM capacity the
    quantum elapses and nothing is served."""
    engine = make_engine(vault_scale=0.0)
    fluid, ledgers = (100.0, 50.0, 20.0, 5.0, 10.0), (100, 50, 20)
    # Host execution only: with no vaults the FU pool is empty too.
    value = serve(engine, fluid, ledgers, fraction=0.0)
    assert value[0] == CONTROL_DT_S * 1e9
    assert value[-1][1:7] == (0, 0, 0, 0, 0, 0)
    assert value[3:12] == (*fluid, *ledgers, 0.0)


def test_model_guards_fire_through_the_quantum():
    engine = make_engine()
    with pytest.raises(ValueError, match="pim_fraction"):
        serve(engine, (10.0, 0.0, 10.0, 0.0, 0.0), (10, 0, 10), fraction=1.2)
    with pytest.raises(ValueError, match="negative energy scale"):
        serve(engine, (10.0, 0.0, 10.0, 0.0, 0.0), (10, 0, 10), es=-1.0)
    engine.sim.flow.phase = TemperaturePhase.SHUTDOWN
    with pytest.raises(RuntimeError, match="shutdown"):
        engine.sim.flow.capacities()
