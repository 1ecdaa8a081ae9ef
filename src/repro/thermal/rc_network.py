"""3D RC thermal network construction.

Discretizes the layer stack × floorplan grid into a conduction network
(3D-ICE style): every (layer, cell) pair is a node; vertical conductances
cross layer interfaces (half-thickness series model), lateral conductances
connect neighbouring cells within a layer; the top layer couples to ambient
through the heat sink (Table II resistance, distributed over cells) and the
bottom leaks weakly to the board.

Produces the sparse conductance matrix ``G``, capacitance vector ``C``, and
boundary conductance vector ``B`` consumed by :mod:`repro.thermal.solver`:

    C dT/dt = P + B·T_amb − G·T
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
import scipy.sparse as sp

from repro.thermal.floorplan import Floorplan
from repro.thermal.stack import StackSpec

#: Vertical interface-resistance multiplier. Compact per-cell 1-D vertical
#: conduction mis-estimates the constriction/spreading resistance around
#: the microbump fields; this scale is calibrated once (together with the
#: static logic power) against the paper's commodity-cooling operating
#: points (33 °C idle, 81 °C at 320 GB/s — Sec. III-B), the same way the
#: authors validated against the HMC 1.1 prototype (Fig. 2).
DEFAULT_INTERFACE_SCALE = 0.7928

#: Weak conduction path from the logic die to the board (°C/W, total).
BOARD_RESISTANCE_C_W = 25.0

#: Transient-capacitance scales. The paper's feedback model uses a thermal
#: response delay of ~1 ms (Fig. 8) — the *local* die response that its
#: 3D-ICE simulations exhibit — while a lumped package (die stack + sink
#: base) settles orders of magnitude slower. We keep the full conduction
#: network for steady accuracy but scale capacitances so the die-level
#: transient matches the paper's millisecond dynamics: the spreader (sink
#: base) is treated as quasi-steady, and die capacitance is reduced to the
#: thermally-active volume near the junctions.
DIE_CAPACITANCE_SCALE = 0.02
SPREADER_CAPACITANCE_SCALE = 0.005


@dataclass
class RcNetwork:
    """Assembled network matrices and index helpers."""

    stack: StackSpec
    floorplan: Floorplan
    G: sp.csr_matrix            # conductance Laplacian + boundary diagonal
    C: np.ndarray               # per-node heat capacity (J/K)
    B: np.ndarray               # per-node boundary conductance to ambient (W/K)
    layer_index: Dict[str, int]

    @property
    def num_nodes(self) -> int:
        return self.C.size

    def node(self, layer: int, ix: int, iy: int) -> int:
        """Flat node index of (layer, cell)."""
        fp = self.floorplan
        if not (0 <= ix < fp.nx and 0 <= iy < fp.ny):
            raise ValueError(f"cell ({ix},{iy}) outside {fp.nx}x{fp.ny} grid")
        if not 0 <= layer < self.stack.num_layers:
            raise ValueError(f"layer {layer} outside stack")
        return layer * fp.num_cells + iy * fp.nx + ix

    def layer_slice(self, layer: int) -> slice:
        n = self.floorplan.num_cells
        return slice(layer * n, (layer + 1) * n)

    def layer_temps(self, T: np.ndarray, layer: int) -> np.ndarray:
        """Temperatures of one layer reshaped to (ny, nx)."""
        fp = self.floorplan
        return T[self.layer_slice(layer)].reshape(fp.ny, fp.nx)

    def power_vector(self, layer_maps: Dict[str, np.ndarray]) -> np.ndarray:
        """Assemble the node power vector from per-layer maps."""
        P = np.zeros(self.num_nodes)
        fp = self.floorplan
        for name, grid in layer_maps.items():
            if name not in self.layer_index:
                raise KeyError(f"unknown layer {name!r}; have {sorted(self.layer_index)}")
            g = np.asarray(grid, dtype=float)
            if g.shape != (fp.ny, fp.nx):
                raise ValueError(
                    f"map for {name!r} has shape {g.shape}, expected {(fp.ny, fp.nx)}"
                )
            P[self.layer_slice(self.layer_index[name])] = g.ravel()
        return P


def _validate_build_args(sink_resistance_c_w: float, interface_scale: float) -> None:
    if sink_resistance_c_w <= 0:
        raise ValueError(f"sink resistance must be positive: {sink_resistance_c_w}")
    if interface_scale <= 0:
        raise ValueError(f"interface scale must be positive: {interface_scale}")


def _lateral_conductances(
    layers, dx: float, dy: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-layer neighbour conductances (g_x, g_y) as arrays over layers."""
    k = np.array([layer.material.conductivity_w_mk for layer in layers])
    t = np.array([layer.thickness_m for layer in layers])
    return k * t * dy / dx, k * t * dx / dy


def _vertical_conductances(
    layers, cell_area: float, interface_scale: float
) -> np.ndarray:
    """Per-interface conductance between adjacent layers (length nl-1)."""
    r_half = 0.5 * np.array(
        [layer.vertical_resistance_k_w(cell_area) for layer in layers]
    )
    r = r_half[:-1] + r_half[1:]
    is_iface = np.array(
        [layer.name.startswith(("bond", "tim")) for layer in layers]
    )
    r[is_iface[:-1] | is_iface[1:]] *= interface_scale
    return 1.0 / r


def _boundary_vector(
    nl: int, nc: int, sink_resistance_c_w: float, board_resistance_c_w: float
) -> np.ndarray:
    """Boundary conductances: heat sink above the top layer, weak board
    path below the bottom layer. A total resistance R spread over nc
    parallel cells is R*nc per cell."""
    B = np.zeros(nl * nc)
    B[(nl - 1) * nc :] += 1.0 / (sink_resistance_c_w * nc)
    B[:nc] += 1.0 / (board_resistance_c_w * nc)
    return B


def _capacitance_vector(layers, nc: int, cell_area: float) -> np.ndarray:
    """Heat capacities (with transient calibration scales, see above)."""
    cap = np.array(
        [
            layer.heat_capacity_j_k(cell_area)
            * (
                SPREADER_CAPACITANCE_SCALE
                if layer.name == "spreader"
                else DIE_CAPACITANCE_SCALE
            )
            for layer in layers
        ]
    )
    return np.repeat(cap, nc)


def build_network(
    stack: StackSpec,
    floorplan: Floorplan,
    sink_resistance_c_w: float,
    interface_scale: float = DEFAULT_INTERFACE_SCALE,
    board_resistance_c_w: float = BOARD_RESISTANCE_C_W,
) -> RcNetwork:
    """Build G, C, B for a stack/floorplan/heat-sink combination.

    Assembly is pure numpy index arithmetic — no per-cell Python loops —
    and produces the same matrices as :func:`build_network_reference`
    (the readable loop formulation kept as the specification).
    """
    _validate_build_args(sink_resistance_c_w, interface_scale)

    fp = floorplan
    layers = stack.layers
    nl, nc = len(layers), fp.num_cells
    n = nl * nc
    nx, ny = fp.nx, fp.ny
    cell_area = fp.cell_area_m2

    g_x, g_y = _lateral_conductances(layers, fp.cell_dx_m, fp.cell_dy_m)
    g_v = _vertical_conductances(layers, cell_area, interface_scale)

    # Edge endpoint indices, vectorized per edge family. Cells are numbered
    # iy*nx + ix within a layer; layer l occupies [l*nc, (l+1)*nc).
    cell = np.arange(nc).reshape(ny, nx)
    layer_off = np.arange(nl)[:, None] * nc

    # x-neighbours: (l, ix, iy) — (l, ix+1, iy), for ix+1 < nx.
    ex = (layer_off + cell[:, :-1].ravel()).ravel()
    ex_g = np.repeat(g_x, ny * (nx - 1))
    # y-neighbours: (l, ix, iy) — (l, ix, iy+1), for iy+1 < ny.
    ey = (layer_off + cell[:-1, :].ravel()).ravel()
    ey_g = np.repeat(g_y, (ny - 1) * nx)
    # vertical: (l, ix, iy) — (l+1, ix, iy) for every interface l.
    ev = (layer_off[:-1] + cell.ravel()).ravel()
    ev_g = np.repeat(g_v, nc)

    edge_a = np.concatenate((ex, ey, ev))
    edge_b = np.concatenate((ex + 1, ey + nx, ev + nc))
    edge_g = np.concatenate((ex_g, ey_g, ev_g))

    # Degree (diagonal) accumulation; each edge contributes g at both ends.
    diag = np.zeros(n)
    np.add.at(diag, edge_a, edge_g)
    np.add.at(diag, edge_b, edge_g)

    B = _boundary_vector(nl, nc, sink_resistance_c_w, board_resistance_c_w)

    G = sp.csr_matrix(
        sp.coo_matrix(
            (
                np.concatenate((edge_g * -1.0, edge_g * -1.0, diag + B)),
                (
                    np.concatenate((edge_a, edge_b, np.arange(n))),
                    np.concatenate((edge_b, edge_a, np.arange(n))),
                ),
            ),
            shape=(n, n),
        )
    )

    C = _capacitance_vector(layers, nc, cell_area)
    layer_index = {layer.name: i for i, layer in enumerate(layers)}
    return RcNetwork(
        stack=stack, floorplan=fp, G=G, C=C, B=B, layer_index=layer_index
    )


def build_network_reference(
    stack: StackSpec,
    floorplan: Floorplan,
    sink_resistance_c_w: float,
    interface_scale: float = DEFAULT_INTERFACE_SCALE,
    board_resistance_c_w: float = BOARD_RESISTANCE_C_W,
) -> RcNetwork:
    """Per-cell loop assembly — the readable specification.

    Retained for the equivalence tests and the assembly benchmark;
    production code uses the vectorized :func:`build_network`.
    """
    _validate_build_args(sink_resistance_c_w, interface_scale)

    fp = floorplan
    layers = stack.layers
    nl, nc = len(layers), fp.num_cells
    n = nl * nc
    cell_area = fp.cell_area_m2
    dx, dy = fp.cell_dx_m, fp.cell_dy_m

    def node(l: int, ix: int, iy: int) -> int:
        return l * nc + iy * fp.nx + ix

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def add_conductance(a: int, b: int, g: float) -> None:
        rows.extend((a, b, a, b))
        cols.extend((a, b, b, a))
        vals.extend((g, g, -g, -g))

    # Lateral conduction within each layer.
    for l, layer in enumerate(layers):
        k = layer.material.conductivity_w_mk
        t = layer.thickness_m
        g_x = k * t * dy / dx   # between horizontal neighbours
        g_y = k * t * dx / dy
        for iy in range(fp.ny):
            for ix in range(fp.nx):
                if ix + 1 < fp.nx:
                    add_conductance(node(l, ix, iy), node(l, ix + 1, iy), g_x)
                if iy + 1 < fp.ny:
                    add_conductance(node(l, ix, iy), node(l, ix, iy + 1), g_y)

    # Vertical conduction between adjacent layers (half-thickness series).
    for l in range(nl - 1):
        la, lb = layers[l], layers[l + 1]
        r = (
            0.5 * la.vertical_resistance_k_w(cell_area)
            + 0.5 * lb.vertical_resistance_k_w(cell_area)
        )
        # Interface (bond/TIM) crossings carry the calibration scale.
        if la.name.startswith(("bond", "tim")) or lb.name.startswith(("bond", "tim")):
            r *= interface_scale
        g_v = 1.0 / r
        for iy in range(fp.ny):
            for ix in range(fp.nx):
                add_conductance(node(l, ix, iy), node(l + 1, ix, iy), g_v)

    # Boundary: heat sink above the top layer, weak board path below the
    # bottom layer. A total resistance R spread over nc parallel cells is
    # R*nc per cell.
    B = np.zeros(n)
    g_sink_cell = 1.0 / (sink_resistance_c_w * nc)
    top = nl - 1
    for iy in range(fp.ny):
        for ix in range(fp.nx):
            B[node(top, ix, iy)] += g_sink_cell
    g_board_cell = 1.0 / (board_resistance_c_w * nc)
    for iy in range(fp.ny):
        for ix in range(fp.nx):
            B[node(0, ix, iy)] += g_board_cell

    G = sp.csr_matrix(
        sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    )
    G = G + sp.diags(B)

    # Heat capacities (with transient calibration scales, see above).
    C = np.zeros(n)
    for l, layer in enumerate(layers):
        scale = (
            SPREADER_CAPACITANCE_SCALE
            if layer.name == "spreader"
            else DIE_CAPACITANCE_SCALE
        )
        C[l * nc : (l + 1) * nc] = layer.heat_capacity_j_k(cell_area) * scale

    layer_index = {layer.name: i for i, layer in enumerate(layers)}
    return RcNetwork(
        stack=stack, floorplan=fp, G=G, C=C, B=B, layer_index=layer_index
    )
