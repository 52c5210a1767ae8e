"""Tests for the SABRE baseline and the trivial shortest-path router."""


from repro.arch.coupling import CouplingGraph
from repro.arch.devices import get_device
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.mapping.layout import Layout
from repro.mapping.sabre.heuristic import sabre_score
from repro.mapping.sabre.remapper import SabreConfig, SabreRouter, reverse_traversal_layout
from repro.mapping.trivial import TrivialRouter
from repro.mapping.verification import verify_routing


class TestSabreScore:
    def _setup(self):
        return CouplingGraph.line(4), Layout.identity(4), [1.0] * 4

    def test_lower_score_for_helpful_swap(self):
        coupling, layout, decay = self._setup()
        front = [Gate("cx", (0, 3))]
        helpful = sabre_score(0, 1, coupling, layout, front, [], decay)
        useless = sabre_score(1, 2, coupling, layout, front, [], decay)
        assert helpful < useless

    def test_extended_set_weighted(self):
        coupling, layout, decay = self._setup()
        front = [Gate("cx", (0, 1))]
        extended = [Gate("cx", (0, 3))]
        with_lookahead = sabre_score(2, 3, coupling, layout, front, extended, decay,
                                     extended_weight=0.5)
        without_lookahead = sabre_score(2, 3, coupling, layout, front, [], decay)
        assert with_lookahead != without_lookahead

    def test_decay_penalises_recently_swapped_qubits(self):
        coupling, layout, _ = self._setup()
        front = [Gate("cx", (0, 3))]
        fresh = sabre_score(0, 1, coupling, layout, front, [], [1.0, 1.0, 1.0, 1.0])
        decayed = sabre_score(0, 1, coupling, layout, front, [], [1.5, 1.0, 1.0, 1.0])
        assert decayed > fresh

    def test_empty_front_and_extended(self):
        coupling, layout, decay = self._setup()
        assert sabre_score(0, 1, coupling, layout, [], [], decay) == 0.0


class TestSabreRouting:
    def test_compliant_circuit_untouched(self):
        circ = Circuit(2).h(0).cx(0, 1)
        result = SabreRouter().run(circ, get_device("line", num_qubits=2))
        assert result.swap_count == 0

    def test_distant_cnot_routed(self):
        circ = Circuit(4).cx(0, 3)
        result = SabreRouter().run(circ, get_device("line", num_qubits=4),
                                   initial_layout=Layout.identity(4))
        assert result.swap_count >= 1
        verify_routing(result)

    def test_respects_dependency_order(self):
        circ = Circuit(3).h(0).cx(0, 1).cx(1, 2).t(2)
        result = SabreRouter().run(circ, get_device("line", num_qubits=3))
        verify_routing(result)

    def test_benchmarks_verify_on_tokyo(self):
        from repro.workloads import qft, qaoa_maxcut
        device = get_device("ibm_q20_tokyo")
        for circ in (qft(5), qaoa_maxcut(6)):
            result = SabreRouter().run(circ, device)
            verify_routing(result)

    def test_deterministic(self):
        from repro.workloads import qft
        device = get_device("ibm_q20_tokyo")
        layout = Layout.identity(20)
        a = SabreRouter().run(qft(5), device, initial_layout=layout)
        b = SabreRouter().run(qft(5), device, initial_layout=layout)
        assert a.routed == b.routed

    def test_swaps_tagged_as_routing(self):
        circ = Circuit(4).cx(0, 3)
        result = SabreRouter().run(circ, get_device("line", num_qubits=4),
                                   initial_layout=Layout.identity(4))
        assert all(g.is_routing_swap for g in result.routed if g.is_swap)

    def test_measurements_preserved(self):
        circ = Circuit(3).h(0).cx(0, 2).measure_all()
        result = SabreRouter().run(circ, get_device("line", num_qubits=3))
        assert result.routed.count_ops()["measure"] == 3

    def test_config_decay_interval(self):
        config = SabreConfig(decay_delta=0.01, decay_reset_interval=2,
                             extended_set_size=5)
        circ = Circuit(4).cx(0, 3).cx(3, 0).cx(1, 2)
        result = SabreRouter(config).run(circ, get_device("line", num_qubits=4))
        verify_routing(result)

    def test_duration_unawareness(self):
        # SABRE ignores durations while routing: its output gate sequence is
        # identical no matter which duration map the device carries.
        from repro.arch.durations import UNIFORM_DURATIONS
        from repro.workloads import qft
        circ = qft(5)
        layout = Layout.identity(20)
        fast = SabreRouter().run(circ, get_device("ibm_q20_tokyo"), initial_layout=layout)
        slow = SabreRouter().run(circ, get_device("ibm_q20_tokyo",
                                                  durations=UNIFORM_DURATIONS),
                                 initial_layout=layout)
        assert fast.routed == slow.routed


class TestReverseTraversalLayout:
    def test_produces_valid_layout(self):
        from repro.workloads import qft
        device = get_device("ibm_q20_tokyo")
        layout = reverse_traversal_layout(qft(5), device)
        assert sorted(layout.physical_list()) == list(range(20))

    def test_no_two_qubit_gates_returns_degree_layout(self):
        circ = Circuit(3).h(0).h(1).h(2)
        device = get_device("line", num_qubits=5)
        layout = reverse_traversal_layout(circ, device)
        assert sorted(layout.physical_list()) == list(range(5))

    def test_zero_rounds_is_plain_degree_layout(self):
        from repro.mapping.layout import initial_layout
        from repro.workloads import qft
        device = get_device("ibm_q20_tokyo")
        circ = qft(5)
        assert reverse_traversal_layout(circ, device, rounds=0) == \
            initial_layout(circ, device.coupling, "degree")

    def test_reverse_traversal_not_worse_on_average(self):
        # A weak sanity property: the refined layout should not blow up the
        # SABRE swap count compared to the naive identity layout.
        from repro.workloads import qft
        device = get_device("ibm_q20_tokyo")
        circ = qft(8)
        refined = reverse_traversal_layout(circ, device)
        sabre = SabreRouter()
        refined_swaps = sabre.run(circ, device, initial_layout=refined).swap_count
        identity_swaps = sabre.run(circ, device,
                                   initial_layout=Layout.identity(20)).swap_count
        assert refined_swaps <= identity_swaps + 5

    def test_memo_is_safe_under_concurrent_eviction(self, monkeypatch):
        """Two jobs that miss together must not both evict the same entry."""
        import threading

        from repro.mapping import base
        from repro.mapping.sabre import remapper

        computed = threading.Barrier(2)
        evicting = threading.Barrier(2)

        class RendezvousMemo(dict):
            def pop(self, *args):
                # Hold the first evictor until the second one arrives too.
                # Under the memo lock the second cannot arrive, so the wait
                # times out and the evictions run one after the other.
                try:
                    evicting.wait(timeout=0.5)
                except threading.BrokenBarrierError:
                    pass
                return super().pop(*args)

        def fake_layout(circuit, device, seed=None, rounds=1):
            computed.wait(timeout=10)  # both threads have missed
            return Layout.identity(device.num_qubits)

        monkeypatch.setattr(remapper, "reverse_traversal_layout", fake_layout)
        monkeypatch.setattr(base, "_REVERSE_TRAVERSAL_MEMO",
                            RendezvousMemo({("oldest",): [0, 1, 2, 3]}))
        monkeypatch.setattr(base, "_REVERSE_TRAVERSAL_MEMO_LIMIT", 1)
        device = get_device("line", num_qubits=4)
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            try:
                base._reverse_traversal_memoized(Circuit(4).h(0), device,
                                                 seed=seed)
            except Exception as exc:  # pragma: no cover - the bug
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with base._lock:
            assert len(base._REVERSE_TRAVERSAL_MEMO) == 1


class TestTrivialRouter:
    def test_moves_operand_along_shortest_path(self):
        circ = Circuit(4).cx(0, 3)
        result = TrivialRouter().run(circ, get_device("line", num_qubits=4),
                                     initial_layout=Layout.identity(4))
        assert result.swap_count == 2
        verify_routing(result)

    def test_verifies_on_benchmarks(self):
        from repro.workloads import qft, ghz
        device = get_device("grid", rows=3, cols=3)
        for circ in (qft(5), ghz(6)):
            verify_routing(TrivialRouter().run(circ, device))

    def test_usually_not_better_than_codar(self):
        from repro.mapping.codar.remapper import CodarRouter
        from repro.workloads import qft
        device = get_device("ibm_q20_tokyo")
        layout = Layout.identity(20)
        circ = qft(8)
        trivial = TrivialRouter().run(circ, device, initial_layout=layout)
        codar = CodarRouter().run(circ, device, initial_layout=layout)
        assert codar.weighted_depth <= trivial.weighted_depth
