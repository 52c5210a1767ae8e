"""Unit and behavioural tests for the CODAR remapper."""

import pytest

from repro.arch.coupling import CouplingGraph
from repro.arch.devices import Device, get_device
from repro.arch.durations import GateDurationMap
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.compiler.backends import backend_names, get_backend
from repro.mapping.codar.priority import SwapPriority, swap_priority
from repro.mapping.codar.remapper import CodarConfig, CodarRouter
from repro.mapping.layout import Layout
from repro.mapping.verification import verify_routing

DUR = GateDurationMap(single=1, two=2, swap=6)


class TestSwapPriority:
    def _line_layout(self):
        return CouplingGraph.line(4), Layout.identity(4)

    def test_positive_when_swap_brings_operands_closer(self):
        coupling, layout = self._line_layout()
        gate = Gate("cx", (0, 3))
        priority = swap_priority(0, 1, coupling, layout, [gate])
        assert priority.basic == 1
        assert priority.is_positive

    def test_negative_when_swap_moves_operands_apart(self):
        coupling, layout = self._line_layout()
        gate = Gate("cx", (1, 2))
        priority = swap_priority(0, 1, coupling, layout, [gate])
        assert priority.basic == -1
        assert not priority.is_positive

    def test_untouched_gates_contribute_nothing(self):
        coupling, layout = self._line_layout()
        gate = Gate("cx", (2, 3))
        priority = swap_priority(0, 1, coupling, layout, [gate])
        assert priority.basic == 0

    def test_sums_over_all_target_gates(self):
        coupling, layout = self._line_layout()
        gates = [Gate("cx", (0, 3)), Gate("cx", (1, 3))]
        # SWAP(0,1): helps the first (+1) and hurts the second (-1).
        priority = swap_priority(0, 1, coupling, layout, gates)
        assert priority.basic == 0

    def test_fine_priority_balances_grid_distance(self):
        coupling = CouplingGraph.grid(3, 3)
        layout = Layout.identity(9)
        gate = Gate("cx", (0, 5))  # (0,0) -> (1,2): VD=1, HD=2
        swap_right = swap_priority(0, 1, coupling, layout, [gate])   # VD=1,HD=1
        swap_down = swap_priority(0, 3, coupling, layout, [gate])    # VD=0,HD=2
        assert swap_right.basic == swap_down.basic == 1
        assert swap_right.fine > swap_down.fine

    def test_fine_priority_disabled(self):
        coupling = CouplingGraph.grid(3, 3)
        layout = Layout.identity(9)
        gate = Gate("cx", (0, 5))
        priority = swap_priority(0, 1, coupling, layout, [gate], use_fine=False)
        assert priority.fine == 0.0

    def test_lookahead_is_only_a_tiebreak(self):
        assert SwapPriority(1, 0.0, -5.0) > SwapPriority(0, 0.0, 100.0)
        assert SwapPriority(1, 0.0, 2.0) > SwapPriority(1, 0.0, 1.0)

    def test_priority_ordering(self):
        assert SwapPriority(2, -1.0) > SwapPriority(1, 5.0)
        assert SwapPriority(1, 0.0) > SwapPriority(1, -1.0)

    def test_best_swap_selects_highest_priority(self):
        coupling, layout = self._line_layout()
        gate = Gate("cx", (0, 3))
        for name in backend_names():
            edge, priority = get_backend(name).codar_best_swap(
                coupling, layout, [(0, 1), (1, 2), (2, 3)], [gate])
            assert priority.basic == 1
            # Equal priorities: the smallest edge wins.
            assert edge == (0, 1), name

    def test_best_swap_empty_candidates(self):
        coupling, layout = self._line_layout()
        for name in backend_names():
            assert get_backend(name).codar_best_swap(
                coupling, layout, [], [Gate("cx", (0, 3))]) is None, name


def route(circuit, device=None, config=None, layout=None):
    device = device or get_device("grid", rows=2, cols=3)
    router = CodarRouter(config)
    return router.run(circuit, device, initial_layout=layout)


class TestCodarRouting:
    def test_already_compliant_circuit_untouched(self):
        circ = Circuit(2).h(0).cx(0, 1).t(1)
        result = route(circ, get_device("line", num_qubits=2))
        assert result.swap_count == 0
        assert [g.name for g in result.routed] == ["h", "cx", "t"]

    def test_distant_cnot_gets_swaps(self):
        circ = Circuit(4).cx(0, 3)
        result = route(circ, get_device("line", num_qubits=4),
                       layout=Layout.identity(4))
        assert result.swap_count >= 1
        verify_routing(result)

    def test_coupling_compliance_on_grid(self):
        from repro.workloads import qft
        result = route(qft(5), get_device("grid", rows=2, cols=3))
        verify_routing(result)

    def test_measurements_preserved(self):
        circ = Circuit(3).h(0).cx(0, 2).measure_all()
        result = route(circ, get_device("line", num_qubits=3))
        assert result.routed.count_ops()["measure"] == 3

    def test_repeated_gate_object_routes_every_occurrence(self):
        # Gate is a frozen value, so one object may sit at several positions;
        # the front bookkeeping must track positions, not object identity.
        shared = Gate("cx", (0, 3))
        circ = Circuit(4)
        for gate in (shared, Gate("h", (1,)), shared, Gate("cx", (1, 2)), shared):
            circ.append(gate)
        result = route(circ, get_device("ibm_q16_melbourne"))
        program = [g.name for g in result.routed if not g.is_routing_swap]
        assert sorted(program) == ["cx", "cx", "cx", "cx", "h"]
        verify_routing(result)

    def test_barriers_dropped_by_router(self):
        circ = Circuit(2).h(0).barrier().cx(0, 1)
        result = route(circ, get_device("line", num_qubits=2))
        assert "barrier" not in result.routed.count_ops()

    def test_weighted_depth_reported_consistently(self):
        from repro.sim.scheduler import weighted_depth
        circ = Circuit(4).cx(0, 3).cx(1, 2)
        result = route(circ, get_device("line", num_qubits=4))
        assert result.weighted_depth == weighted_depth(result.routed,
                                                       result.device.durations)

    def test_inserted_swaps_are_tagged(self):
        circ = Circuit(4).cx(0, 3)
        result = route(circ, get_device("line", num_qubits=4),
                       layout=Layout.identity(4))
        assert all(g.is_routing_swap for g in result.routed if g.is_swap)

    def test_program_swaps_not_counted_as_insertions(self):
        circ = Circuit(2).swap(0, 1)
        result = route(circ, get_device("line", num_qubits=2))
        assert result.swap_count == 0
        assert result.routed.count_ops()["swap"] == 1

    def test_padding_qubits_usable_for_routing(self):
        # 3-qubit circuit on a 2x3 grid: CODAR may route through unused qubits.
        circ = Circuit(3).cx(0, 1).cx(1, 2).cx(0, 2)
        result = route(circ, get_device("grid", rows=2, cols=3))
        verify_routing(result)

    def test_deterministic_output(self):
        from repro.workloads import qft
        circ = qft(5)
        device = get_device("ibm_q20_tokyo")
        layout = Layout.identity(20)
        first = CodarRouter().run(circ, device, initial_layout=layout)
        second = CodarRouter().run(circ, device, initial_layout=layout)
        assert first.routed == second.routed

    def test_final_layout_tracks_swaps(self):
        circ = Circuit(4).cx(0, 3)
        result = route(circ, get_device("line", num_qubits=4),
                       layout=Layout.identity(4))
        layout = result.initial_layout.copy()
        for gate in result.routed:
            if gate.is_routing_swap:
                layout.swap_physical(*gate.qubits)
        assert layout == result.final_layout

    def test_circuit_larger_than_device_rejected(self):
        with pytest.raises(ValueError, match="only has"):
            route(Circuit(10).h(0), get_device("line", num_qubits=4))

    def test_disconnected_device_raises(self):
        device = Device("broken", CouplingGraph(4, [(0, 1), (2, 3)]), DUR)
        with pytest.raises((RuntimeError, ValueError)):
            route(Circuit(4).cx(0, 3), device, layout=Layout.identity(4))

    def test_extra_metrics_recorded(self):
        circ = Circuit(4).cx(0, 3).cx(1, 2)
        result = route(circ, get_device("line", num_qubits=4))
        assert result.extra["cycles"] >= 1
        assert result.extra["final_time"] >= 0
        assert result.runtime_seconds >= 0


class TestCodarConfigurations:
    @pytest.mark.parametrize("config", [
        CodarConfig(use_commutativity=False),
        CodarConfig(use_fine_priority=False),
        CodarConfig(use_qubit_locks=False),
        CodarConfig(lookahead_size=0),
        CodarConfig(front_scan_limit=8, max_front_size=4),
    ])
    def test_ablated_variants_still_route_correctly(self, config):
        from repro.workloads import qft
        result = route(qft(5), get_device("grid", rows=2, cols=3), config=config)
        verify_routing(result)

    def test_duration_awareness_exploits_early_free_qubits(self):
        # The Fig. 2 scenario on the motivating device: CODAR should finish in
        # 9 cycles (SWAP starts at cycle 1 on the early-free qubit).
        from repro.experiments.motivating import (
            duration_example_circuit,
            example_device,
        )
        result = CodarRouter().run(duration_example_circuit(), example_device(),
                                   initial_layout=Layout.identity(4))
        assert result.weighted_depth == 9

    def test_context_awareness_avoids_busy_qubit(self):
        # The Fig. 1 scenario: the chosen SWAP must not touch the busy qubit Q2
        # and the whole fragment finishes in 8 cycles (T runs in parallel).
        from repro.experiments.motivating import (
            context_example_circuit,
            example_device,
        )
        result = CodarRouter().run(context_example_circuit(), example_device(),
                                   initial_layout=Layout.identity(4))
        swaps = [g for g in result.routed if g.is_routing_swap]
        assert len(swaps) == 1
        assert 2 not in swaps[0].qubits
        assert result.weighted_depth == 8
