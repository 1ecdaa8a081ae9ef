"""Regrowth guard: every public name in ``src/repro`` has a non-test caller.

A public top-level function or class, or a public method of such a class,
is used when its name appears as an identifier, attribute, import or string
anywhere in ``src``, ``scripts``, ``examples``, ``perfbench`` or
``benchmarks`` (a package ``__init__`` re-exporting it does not count).
A name nothing reaches either goes, or is listed below with why it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "detailed.DetailedSimulator": "oracle: the event-level protocol oracle",
    "ReducedPropagator.dram_peaks": "oracle: PeakReader's full readout",
    "HmcFlowModel.service_time_ns": "oracle: the cube/flow cross-check reads it",
    "PtpInitializer.estimated_rate": "oracle: forward Eq. (1) checks calculated_size",
    "packet.bandwidth_saving_fraction": "paper claim: Sec. II-B 'up to 50 %'",
    "SensitivityResult.naive_peak": "paper claim: the sensitivity test reads it",
    "CoolingSweepResult.coolpim_fraction": "paper claim: the cooling-sweep test reads it",
    "adapters.as_agent": "contract: policy -> agent adapter",
    "scripted.ScriptedAgent": "contract: the non-policy agent the adapter tests run",
    "ApiClient.artifact": "contract: client for GET /runs/{id}/artifacts/{name}",
    "jobs.unregister_handler": "test seam: removes a test-registered job kind",
    "fingerprint.clear_fingerprint_cache": "test seam: resets the source digest memo",
    "HwDynT.enabled_warps": "test seam: HW-DynT tests read the PCU warp count",
    "CSRGraph.degree_stats": "test seam: generator tests measure degree shape",
    "generators.star_graph": "test seam: hub-shaped fixture graph",
}


def _is_reexport(node):
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets))


def _public(nodes, kind):
    return [n for n in nodes if isinstance(n, kind) and not n.name.startswith("_")]


def test_every_public_name_has_a_caller():
    used, defined = set(), []
    for top in ("src", "scripts", "examples", "perfbench", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            if path.name == "__init__.py":
                tree.body = [n for n in tree.body if not _is_reexport(n)]
            for node in ast.walk(tree):
                used.add(node.id if isinstance(node, ast.Name) else
                         node.attr if isinstance(node, ast.Attribute) else
                         node.name.rsplit(".", 1)[-1] if isinstance(node, ast.alias) else
                         node.value if isinstance(node, ast.Constant) else None)
            if top == "src":
                for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((path.stem, node.name))
                    if isinstance(node, ast.ClassDef):
                        defined += [(node.name, m.name)
                                    for m in _public(node.body, ast.FunctionDef)]
    orphans = {f"{owner}.{name}" for owner, name in defined if name not in used}
    assert orphans <= ALLOWED.keys(), sorted(orphans - ALLOWED.keys())
    assert not ALLOWED.keys() - orphans, "stale allowlist entries"
