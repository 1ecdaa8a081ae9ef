"""Design-choice ablations called out in DESIGN.md §6, at full scale.

- Control-factor sweep (Sec. IV-B: large CF cools fast but under-tunes,
  small CF converges slowly).
- PTP margin ablation (Eq. (1)'s +4 blocks).
- The cooling requirement of Sec. III-B: full-loaded PIM under 85 °C needs
  a sink in the high-end class, and its fan power is a large fraction of
  the cube's own power.
- Cache-bypass vs writeback coherence, and open-loop static fractions.
"""

from scipy.optimize import brentq

from repro.core import CoolPimSystem
from repro.core.initialization import PtpInitializer
from repro.core.policies import IdealThermal, NonOffloading, StaticFraction
from repro.core.sw_dynt import SwDynT
from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT
from repro.gpu.simulator import SystemSimulator
from repro.graph import get_dataset
from repro.thermal.cooling import CoolingSolution, fan_power_w
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import PowerModel, TrafficPoint
from repro.workloads.dc import DegreeCentrality
from repro.workloads.pagerank import PageRank


def _hot_workload():
    w = DegreeCentrality()
    w.repeats = 36
    return w


def test_control_factor_sweep():
    """CF trade-off: every CF must keep the cube within limits; larger CF
    throttles deeper (more under-tuning risk)."""
    graph = get_dataset("ldbc")
    system = CoolPimSystem()
    results = {
        cf: system.run(_hot_workload(), graph, SwDynT(control_factor=cf))
        for cf in (2, 8, 32)
    }
    fractions = {cf: r.offload_fraction for cf, r in results.items()}
    temps = {cf: r.peak_dram_temp_c for cf, r in results.items()}
    # All configurations control the temperature.
    assert all(t < 92.0 for t in temps.values())
    # The largest CF never offloads more than the smallest.
    assert fractions[32] <= fractions[2] + 0.02


def test_ptp_margin_ablation():
    """Margin 0 vs the paper's 4 blocks vs an over-generous 16."""
    graph = get_dataset("ldbc")
    system = CoolPimSystem()
    results = {
        margin: system.run(
            _hot_workload(), graph,
            SwDynT(initializer=PtpInitializer(margin_blocks=margin)),
        )
        for margin in (0, 4, 16)
    }
    # A bigger initial margin starts hotter (or equal).
    assert (results[16].peak_dram_temp_c
            >= results[0].peak_dram_temp_c - 0.5)


def test_cooling_requirement_for_pim_loads():
    """Sec. III-B: keeping PIM-loaded operation below 85 C requires a sink
    in the high-end class (paper: < 0.27 C/W for a full-loaded PIM), and
    that class of fan consumes a large fraction of the cube's own power.

    In our calibration the stack's internal (junction-to-case) resistance
    is higher than the paper's, so for the extreme 6.5 op/ns load no
    external sink suffices — we report the requirement across rates and
    check the qualitative claim: the budget shrinks rapidly with rate and
    leaves the realm of commodity cooling.
    """

    def peak_at(r_sink, rate):
        m = HmcThermalModel(cooling=CoolingSolution("custom", r_sink, 1.0))
        return m.steady_peak_dram_c(TrafficPoint.pim_saturated(rate))

    required = {}
    for rate in (1.3, 2.0, 3.0, 4.0, 6.5):
        lo, hi = 0.02, 6.0
        if peak_at(lo, rate) > 85.0:
            required[rate] = None  # unreachable with any sink
        elif peak_at(hi, rate) < 85.0:
            required[rate] = hi
        else:
            required[rate] = brentq(
                lambda r: peak_at(r, rate) - 85.0, lo, hi, xtol=1e-3
            )

    # Budget shrinks monotonically with the offloading rate.
    values = [r if r is not None else 0.0 for r in required.values()]
    assert values == sorted(values, reverse=True)
    # The paper's threshold rate (1.3 op/ns) is sustainable with a
    # commodity-class sink; 4+ op/ns is not.
    assert required[1.3] is not None and required[1.3] > 0.4
    assert required[4.0] is None or required[4.0] < 0.27

    # A high-end sink's fan is a big slice of the cube's own power.
    fan_w = fan_power_w(0.2, wheel_diameter_relative=2.0)
    cube_w = PowerModel(HmcThermalModel().config).package_total_w(
        TrafficPoint.pim_saturated(6.5)
    )
    assert fan_w > 0.25 * cube_w


def test_coherence_mode_ablation():
    """GraphPIM's cache bypass vs PEI's invalidate/writeback coherence
    (Sec. II-B): bypass avoids per-op writeback traffic, so offloading
    gains more. Runs pagerank under ideal-thermal to isolate the
    bandwidth effect from the thermal loop."""
    graph = get_dataset("ldbc")
    w = PageRank()
    w.iterations = 16
    launch = w.launch(graph)
    c = w.coeffs
    speedups = {}
    for mode in ("bypass", "writeback"):
        cache = CacheModel(
            GPU_DEFAULT,
            read_hit_rate=c.read_hit_rate,
            write_hit_rate=c.write_hit_rate,
            host_atomic_coalescing=c.atomic_coalescing,
            coherence_mode=mode,
        )
        sim = SystemSimulator(cache=cache)
        base = sim.run(launch, NonOffloading())
        ideal = sim.run(launch, IdealThermal())
        speedups[mode] = ideal.speedup_over(base)
    # Cache bypass preserves more of the offloading benefit.
    assert speedups["bypass"] > speedups["writeback"]


def test_static_fraction_sweep():
    """Open-loop sweep of fixed offloading fractions vs CoolPIM.

    The sweep traces the thermal trade-off curve directly: low fractions
    waste offloading headroom, high fractions overheat. CoolPIM's
    closed-loop control should land near the static optimum *without*
    knowing it in advance."""
    graph = get_dataset("ldbc")
    system = CoolPimSystem()
    results = {
        frac: system.run(_hot_workload(), graph, StaticFraction(frac))
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0)
    }
    results["coolpim-sw"] = system.run(_hot_workload(), graph, "coolpim-sw")
    base = results[0.0]
    sus = {key: base.runtime_s / res.runtime_s for key, res in results.items()}

    static_best = max(su for k, su in sus.items() if isinstance(k, float))
    # Closed-loop CoolPIM reaches at least ~90% of the best static point.
    assert sus["coolpim-sw"] >= 0.9 * static_best
    # The sweep is non-monotone: full offloading is NOT the best static
    # point (the thermal penalty bends the curve back down).
    assert sus[1.0] < static_best
