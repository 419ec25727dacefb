"""First-touch page placement effects on the Altix (paper §3.2)."""

import pytest

from repro.config import itanium2_smp, sgi_altix
from repro.cpu import Machine
from repro.errors import MemoryError_
from repro.workloads import build_daxpy, verify_daxpy, working_set_elems


def _run(pin_to_node0: bool) -> int:
    machine = Machine(sgi_altix(8, scale=4))
    n = working_set_elems("2M", 4)
    program = build_daxpy(machine, n, 8, outer_reps=6)
    if pin_to_node0:
        for name in ("x", "y"):
            machine.mem.place_pages(program.arrays[name], node=0)
    result = program.run(max_bundles=400_000_000)
    assert verify_daxpy(program, 6)
    return result.cycles


def test_serial_init_misplacement_costs_remote_latency():
    first_touch = _run(pin_to_node0=False)
    node0_only = _run(pin_to_node0=True)
    assert node0_only > first_touch * 1.2, (
        "pages homed on one node must pay remote-memory latency"
    )


@pytest.mark.parametrize("config, node", [
    (itanium2_smp(4), 3), (itanium2_smp(4), 1), (sgi_altix(4), 2), (sgi_altix(4), -1),
])
def test_placing_pages_on_a_node_the_machine_lacks_is_refused(config, node):
    """Refused at the call, naming the node and the node count; it used
    to be accepted and end the run in an IndexError inside the fabric."""
    machine = Machine(config)
    alloc = machine.mem.alloc("x", 4096)
    with pytest.raises(MemoryError_, match=f"node {node}: n_nodes is {config.n_nodes}"):
        machine.mem.place_pages(alloc, node)
    assert machine.mem.page_home == {}
