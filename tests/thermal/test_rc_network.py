"""RC network construction: structure, conservation, boundary terms."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.hmc.config import HMC_1_1, HMC_2_0
from repro.thermal.floorplan import Floorplan
from repro.thermal.rc_network import build_network, build_network_reference
from repro.thermal.stack import build_stack


@pytest.fixture(scope="module")
def network():
    stack = build_stack(HMC_2_0)
    fp = Floorplan.for_config(HMC_2_0, sub=2)
    return build_network(stack, fp, sink_resistance_c_w=0.5)


class TestStructure:
    def test_node_count(self, network):
        layers = network.stack.num_layers
        assert network.num_nodes == layers * network.floorplan.num_cells

    def test_node_indexing(self, network):
        fp = network.floorplan
        assert network.node(0, 0, 0) == 0
        assert network.node(1, 0, 0) == fp.num_cells
        assert network.node(0, 1, 0) == 1
        assert network.node(0, 0, 1) == fp.nx

    def test_node_bounds(self, network):
        with pytest.raises(ValueError):
            network.node(0, 99, 0)
        with pytest.raises(ValueError):
            network.node(99, 0, 0)

    def test_layer_index_covers_stack(self, network):
        assert "logic" in network.layer_index
        assert "dram0" in network.layer_index
        assert "spreader" in network.layer_index


class TestMatrixProperties:
    def test_G_is_symmetric(self, network):
        diff = network.G - network.G.T
        assert abs(diff).max() < 1e-12

    def test_row_sums_equal_boundary(self, network):
        # Laplacian + diag(B): row sums must equal B exactly.
        row_sums = np.asarray(network.G.sum(axis=1)).ravel()
        assert np.allclose(row_sums, network.B)

    def test_G_positive_definite(self, network):
        # Grounded Laplacian with boundary conductance: SPD.
        from scipy.sparse.linalg import eigsh

        lam = eigsh(sp.csc_matrix(network.G), k=1, which="SA",
                    return_eigenvectors=False)
        assert lam[0] > 0

    def test_capacitances_positive(self, network):
        assert np.all(network.C > 0)

    def test_boundary_on_top_and_bottom_only(self, network):
        n_cells = network.floorplan.num_cells
        top = network.stack.num_layers - 1
        interior = network.B[n_cells : top * n_cells]
        assert np.all(interior == 0)
        assert np.all(network.B[:n_cells] > 0)           # board leak
        assert np.all(network.B[top * n_cells :] > 0)    # sink

    def test_sink_conductance_total(self, network):
        top = network.stack.num_layers - 1
        g_sink = network.B[top * network.floorplan.num_cells :].sum()
        assert g_sink == pytest.approx(1.0 / 0.5)


class TestPowerVector:
    def test_assembles_named_layers(self, network):
        fp = network.floorplan
        maps = {"logic": np.full((fp.ny, fp.nx), 0.1)}
        P = network.power_vector(maps)
        assert P.sum() == pytest.approx(0.1 * fp.num_cells)
        sl = network.layer_slice(network.layer_index["logic"])
        assert np.all(P[sl] == 0.1)

    def test_unknown_layer_rejected(self, network):
        with pytest.raises(KeyError):
            network.power_vector({"nope": np.zeros((8, 16))})

    def test_shape_checked(self, network):
        with pytest.raises(ValueError):
            network.power_vector({"logic": np.zeros((3, 3))})


class TestValidation:
    def test_sink_resistance_positive(self):
        stack = build_stack(HMC_2_0)
        fp = Floorplan.for_config(HMC_2_0)
        with pytest.raises(ValueError):
            build_network(stack, fp, sink_resistance_c_w=0.0)

    def test_interface_scale_positive(self):
        stack = build_stack(HMC_2_0)
        fp = Floorplan.for_config(HMC_2_0)
        with pytest.raises(ValueError):
            build_network(stack, fp, 0.5, interface_scale=0.0)

    def test_reference_validates_too(self):
        stack = build_stack(HMC_2_0)
        fp = Floorplan.for_config(HMC_2_0)
        with pytest.raises(ValueError):
            build_network_reference(stack, fp, sink_resistance_c_w=-1.0)


class TestVectorizedEquivalence:
    """The vectorized assembly must reproduce the loop specification."""

    @pytest.mark.parametrize(
        "config,sub", [(HMC_2_0, 1), (HMC_2_0, 2), (HMC_2_0, 4), (HMC_1_1, 3)]
    )
    def test_matches_reference(self, config, sub):
        stack = build_stack(config)
        fp = Floorplan.for_config(config, sub=sub)
        vec = build_network(stack, fp, sink_resistance_c_w=0.5)
        ref = build_network_reference(stack, fp, sink_resistance_c_w=0.5)

        assert np.array_equal(vec.C, ref.C)
        assert np.array_equal(vec.B, ref.B)
        assert vec.layer_index == ref.layer_index
        # Same sparsity pattern, entries equal to within summation-order
        # rounding (the diagonal sums up to 6 conductances per node).
        assert vec.G.nnz == ref.G.nnz
        diff = abs(vec.G - ref.G).max()
        assert diff <= 1e-12 * abs(ref.G).max()

    def test_matches_reference_nondefault_boundaries(self):
        stack = build_stack(HMC_2_0)
        fp = Floorplan.for_config(HMC_2_0, sub=2)
        kwargs = dict(
            sink_resistance_c_w=2.0,
            interface_scale=1.3,
            board_resistance_c_w=40.0,
        )
        vec = build_network(stack, fp, **kwargs)
        ref = build_network_reference(stack, fp, **kwargs)
        assert np.array_equal(vec.B, ref.B)
        assert abs(vec.G - ref.G).max() <= 1e-12 * abs(ref.G).max()
