"""Tests for the region partitioner (repro.grid.partition)."""

import pytest

from repro.grid.geometry import BoundingBox, GridPoint
from repro.grid.partition import (
    RegionPartition,
    balanced_mesh,
    partition_grid,
)
from repro.router.netlist import Net, Netlist, Pin


def span_net(name, x0, y0, x1, y1):
    return Net(name, Pin(f"{name}:d", GridPoint(x0, y0, 0)),
               [Pin(f"{name}:s0", GridPoint(x1, y1, 0))])


def quadrant_netlist():
    """One net per quadrant of a 16x16 grid plus one full-span net."""
    return Netlist(
        "quad",
        [
            span_net("q0", 1, 1, 3, 3),
            span_net("q1", 12, 1, 14, 3),
            span_net("q2", 1, 12, 3, 14),
            span_net("q3", 12, 12, 14, 14),
            span_net("wide", 1, 1, 14, 14),
        ],
    )


class TestPartitionGrid:
    def test_regions_tile_the_grid_disjointly(self):
        partition = partition_grid(13, 9, 6)
        seen = {}
        for region in partition:
            box = region.box
            for x in range(box.xlo, box.xhi + 1):
                for y in range(box.ylo, box.yhi + 1):
                    assert (x, y) not in seen, "regions overlap"
                    seen[(x, y)] = region.index
        assert len(seen) == 13 * 9
        for (x, y), region_index in seen.items():
            assert partition.region_of_tile(x, y) == region_index

    def test_k1_is_the_identity_partition(self):
        assert partition_grid(10, 7, 1).regions[0].box == BoundingBox(0, 0, 9, 6)
        partition = partition_grid(16, 16, 1)
        assert partition.num_regions == 1
        classification = partition.classify_nets(quadrant_netlist())
        assert classification.seam == []
        assert classification.interior[0] == [0, 1, 2, 3, 4]

    def test_balanced_mesh_prefers_square_regions(self):
        assert balanced_mesh(4, 16, 16) == (2, 2)
        assert balanced_mesh(6, 30, 20) == (3, 2)
        # A prime K degenerates into strips along the longer axis.
        assert balanced_mesh(5, 50, 10) == (5, 1)

    def test_impossible_meshes_are_rejected(self):
        with pytest.raises(ValueError):
            partition_grid(3, 2, 7)  # no 7-way rectangular tiling of 3x2
        with pytest.raises(ValueError):
            balanced_mesh(0, 4, 4)

    def test_cut_invariants_are_checked(self):
        with pytest.raises(ValueError):
            RegionPartition(8, 8, [0, 4, 4, 8], [0, 8])  # duplicate cut
        with pytest.raises(ValueError):
            RegionPartition(8, 8, [0, 4], [0, 8])  # does not span the grid

    def test_region_containing(self):
        partition = partition_grid(16, 16, 4)
        assert partition.region_containing(BoundingBox(0, 0, 7, 7)) == 0
        assert partition.region_containing(BoundingBox(8, 8, 15, 15)) == 3
        assert partition.region_containing(BoundingBox(6, 6, 9, 9)) is None


class TestClassifyNets:
    def test_quadrants_and_seam(self):
        partition = partition_grid(16, 16, 4)
        classification = partition.classify_nets(quadrant_netlist())
        assert classification.interior == [[0], [1], [2], [3]]
        assert classification.seam == [4]
        assert classification.num_interior == 4
        assert classification.num_seam == 1

    def test_halo_pushes_boundary_nets_to_the_seam(self):
        partition = partition_grid(16, 16, 4)
        netlist = Netlist("edge", [span_net("n0", 5, 5, 7, 7)])
        assert partition.classify_nets(netlist, halo=0).interior[0] == [0]
        # A 1-tile halo reaches x=8, the neighbouring region.
        assert partition.classify_nets(netlist, halo=1).seam == [0]

    def test_k_larger_than_net_count_leaves_regions_empty(self):
        partition = partition_grid(16, 16, 16)
        netlist = Netlist("two", [span_net("n0", 0, 0, 1, 1),
                                  span_net("n1", 14, 14, 15, 15)])
        classification = partition.classify_nets(netlist)
        assert classification.num_interior + classification.num_seam == 2
        empty = [r for r in classification.interior if not r]
        assert len(empty) >= 14  # most regions hold no nets at all

    def test_all_nets_seam_crossing(self):
        partition = partition_grid(16, 16, 4)
        netlist = Netlist(
            "spans",
            [span_net(f"n{i}", 0, i, 15, i) for i in range(4)],
        )
        classification = partition.classify_nets(netlist)
        assert classification.seam == [0, 1, 2, 3]
        assert all(not r for r in classification.interior)

    def test_every_net_classified_exactly_once(self):
        from repro.instances.chips import CHIP_SUITE, build_chip

        _, netlist = build_chip(CHIP_SUITE[0].scaled(0.5))
        partition = partition_grid(14, 14, 4)
        classification = partition.classify_nets(netlist, halo=1)
        assigned = sorted(
            classification.seam
            + [i for nets in classification.interior for i in nets]
        )
        assert assigned == list(range(netlist.num_nets))

    def test_negative_halo_rejected(self):
        partition = partition_grid(8, 8, 4)
        with pytest.raises(ValueError):
            partition.classify_nets(quadrant_netlist(), halo=-1)
