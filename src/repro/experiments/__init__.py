"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(...)`` returning a structured result and
``format_result(result)`` producing the text the paper's table/figure
reports; :func:`repro.experiments.runner.experiment_catalog` lists them.
``python -m repro.experiments.runner`` regenerates everything
(EXPERIMENTS.md records one such run; ``results/`` holds its texts).

=============  ====================================================
Module         Reproduces
=============  ====================================================
tables         Tables I–IV (FLIT costs, cooling, mapping, config)
fig1           HMC 1.1 prototype surface temperatures
fig2           Thermal-model validation (surface vs die)
fig3           Heat map at full bandwidth, commodity cooling
fig4           Peak DRAM temperature vs bandwidth × cooling
fig5           Peak DRAM temperature vs PIM offloading rate
fig8           Feedback-control delays, constants and measured
fig10          Speedups over the non-offloading baseline
fig11          Normalized bandwidth consumption
fig12          Average PIM offloading rates
fig13          Peak DRAM temperature per benchmark
fig14          PIM-rate-over-time control traces (bfs-ta)
energy         Package+fan energy per policy (extension)
management     Shutdown vs derating vs CoolPIM (Sec. III-C, extension)
sensitivity    Social vs road-like graphs (extension)
hotspot        Vault-skew hot spots (extension)
cooling-sweep  Cooling-budget sweep (extension)
=============  ====================================================
"""

from repro.experiments.evaluation import EvaluationMatrix, run_matrix

__all__ = ["EvaluationMatrix", "run_matrix"]
