"""Machine assembly: platform builders, image loading, aggregates."""

import pytest

from repro.config import itanium2_smp, sgi_altix
from repro.cpu import Machine
from repro.isa import assemble
from repro.memory import CoherentFabric, CpuCacheSystem


class TestBuilders:
    def test_smp_is_the_one_node_fabric(self):
        machine = Machine(itanium2_smp(4))
        assert isinstance(machine.fabric, CoherentFabric)
        assert machine.fabric.n_nodes == 1
        assert machine.n_cpus == 4
        assert all(c.node_id == 0 for c in machine.caches)

    def test_altix_is_the_same_fabric_with_two_cpus_per_node(self):
        machine = Machine(sgi_altix(8))
        assert isinstance(machine.fabric, CoherentFabric)  # the same class: no machine kinds
        assert machine.fabric.n_nodes == machine.config.n_nodes == 4
        assert [c.node_id for c in machine.caches] == [0, 0, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("node_id", [-1, 2])
    def test_fabric_refuses_a_cache_on_an_unknown_node(self, node_id):
        machine = Machine(sgi_altix(4))  # nodes 0 and 1
        with pytest.raises(ValueError, match=f"on node {node_id}, fabric has nodes 0..1"):
            CpuCacheSystem(9, node_id, machine.config, machine.fabric)
        assert len(machine.fabric.caches) == 4

    def test_scaled_cache_geometry(self):
        cfg = itanium2_smp(4, scale=16)
        assert cfg.l2.size_bytes == 16 * 1024
        assert cfg.l3.size_bytes == 192 * 1024
        assert cfg.l2.line_size == 128  # never scaled

    def test_config_validation(self):
        with pytest.raises(ValueError):
            itanium2_smp(0)
        with pytest.raises(ValueError):
            sgi_altix(5)  # not a multiple of 2 cpus/node

    def test_with_cobra_override(self):
        cfg = itanium2_smp(4).with_cobra(sampling_interval=123)
        assert cfg.cobra.sampling_interval == 123
        assert itanium2_smp(4).cobra.sampling_interval != 123


class TestAggregates:
    def test_load_image_reaches_all_cores(self):
        machine = Machine(itanium2_smp(2))
        image = assemble("halt\n")
        machine.load_image(image)
        assert all(image in core.images for core in machine.cores)
        machine.load_image(image)  # idempotent
        assert all(core.images.count(image) == 1 for core in machine.cores)

    def test_aggregate_events_sum(self):
        machine = Machine(itanium2_smp(2))
        machine.caches[0].events.loads = 3
        machine.caches[1].events.loads = 4
        assert machine.aggregate_events().loads == 7
