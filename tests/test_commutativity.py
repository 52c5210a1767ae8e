"""Unit tests for commutation rules and Commutative-Front detection."""

import random

import pytest

from repro.core.circuit import Circuit
from repro.core.commutativity import (
    CommutativityChecker,
    IncrementalFront,
    commutative_front,
    dependency_front,
    gates_commute,
)
from repro.core.gates import Gate
from repro.core.unitary import expand_to, gate_unitary, matrices_commute


def exact_commute(a: Gate, b: Gate) -> bool:
    """Ground truth via explicit matrices on the union of qubits."""
    union = sorted(set(a.qubits) | set(b.qubits))
    index = {q: i for i, q in enumerate(union)}
    ma = expand_to(gate_unitary(a), tuple(index[q] for q in a.qubits), len(union))
    mb = expand_to(gate_unitary(b), tuple(index[q] for q in b.qubits), len(union))
    return matrices_commute(ma, mb)


class TestPairwiseRules:
    def test_disjoint_gates_commute(self):
        assert gates_commute(Gate("h", (0,)), Gate("cx", (1, 2)))

    def test_diagonal_gates_commute(self):
        assert gates_commute(Gate("t", (0,)), Gate("rz", (0,), (0.3,)))
        assert gates_commute(Gate("cz", (0, 1)), Gate("cu1", (1, 2), (0.5,)))

    def test_cx_sharing_control_commute(self):
        assert gates_commute(Gate("cx", (0, 1)), Gate("cx", (0, 2)))

    def test_cx_sharing_target_commute(self):
        # The paper's Section IV-B example: CX q1,q3 and CX q2,q3 commute.
        assert gates_commute(Gate("cx", (1, 3)), Gate("cx", (2, 3)))

    def test_cx_control_vs_target_do_not_commute(self):
        assert not gates_commute(Gate("cx", (0, 1)), Gate("cx", (1, 2)))

    def test_diagonal_on_cx_control_commutes(self):
        assert gates_commute(Gate("t", (0,)), Gate("cx", (0, 1)))

    def test_diagonal_on_cx_target_does_not_commute(self):
        assert not gates_commute(Gate("t", (1,)), Gate("cx", (0, 1)))

    def test_x_on_cx_target_commutes(self):
        assert gates_commute(Gate("x", (1,)), Gate("cx", (0, 1)))

    def test_x_on_cx_control_does_not_commute(self):
        assert not gates_commute(Gate("x", (0,)), Gate("cx", (0, 1)))

    def test_h_vs_cx_does_not_commute(self):
        assert not gates_commute(Gate("h", (0,)), Gate("cx", (0, 1)))

    def test_measure_never_commutes_on_shared_qubit(self):
        assert not gates_commute(Gate("measure", (0,)), Gate("t", (0,)))
        assert gates_commute(Gate("measure", (0,)), Gate("t", (1,)))

    def test_global_barrier_blocks_everything(self):
        assert not gates_commute(Gate("barrier", ()), Gate("h", (0,)))

    def test_scoped_barrier_blocks_only_its_qubits(self):
        assert not gates_commute(Gate("barrier", (0, 1)), Gate("h", (0,)))
        assert gates_commute(Gate("barrier", (0, 1)), Gate("h", (2,)))

    @pytest.mark.parametrize("a,b", [
        (Gate("cx", (0, 1)), Gate("cx", (0, 2))),
        (Gate("cx", (0, 2)), Gate("cx", (1, 2))),
        (Gate("cx", (0, 1)), Gate("cz", (0, 1))),
        (Gate("cz", (0, 1)), Gate("cz", (1, 2))),
        (Gate("rz", (1,), (0.4,)), Gate("cx", (1, 0))),
        (Gate("rx", (1,), (0.4,)), Gate("cx", (0, 1))),
        (Gate("s", (0,)), Gate("cu1", (0, 1), (0.3,))),
        (Gate("h", (1,)), Gate("cx", (0, 1))),
        (Gate("y", (1,)), Gate("cx", (0, 1))),
        (Gate("swap", (0, 1)), Gate("cx", (0, 1))),
    ])
    def test_rules_agree_with_exact_matrices(self, a, b):
        assert gates_commute(a, b) == exact_commute(a, b)

    def test_checker_caches_and_agrees(self):
        checker = CommutativityChecker()
        a, b = Gate("cx", (3, 7)), Gate("cx", (5, 7))
        assert checker.commute(a, b)
        assert checker.commute(a, b)  # served from cache
        assert checker.commute(Gate("cx", (0, 1)), Gate("cx", (2, 1)))


class TestCommutativeFront:
    def test_all_disjoint_gates_are_cf(self):
        circ = Circuit(4).h(0).h(1).cx(2, 3)
        assert commutative_front(circ.gates) == [0, 1, 2]

    def test_commuting_cx_chain_exposed(self):
        # CX(1,3); CX(2,3) share the target and commute: both are CF.
        circ = Circuit(4).cx(1, 3).cx(2, 3)
        assert commutative_front(circ.gates) == [0, 1]

    def test_non_commuting_successor_excluded(self):
        circ = Circuit(2).h(0).cx(0, 1)
        assert commutative_front(circ.gates) == [0]

    def test_qft_like_diagonal_ladder(self):
        circ = Circuit(3)
        circ.cu1(0.5, 1, 0)
        circ.cu1(0.25, 2, 0)
        circ.h(1)
        # Both cu1 are diagonal and commute; the H on qubit 1 does not commute
        # with the first cu1.
        assert commutative_front(circ.gates) == [0, 1]

    def test_max_front_truncates(self):
        circ = Circuit(8)
        for q in range(8):
            circ.h(q)
        assert commutative_front(circ.gates, max_front=3) == [0, 1, 2]

    def test_scan_limit_bounds_work(self):
        circ = Circuit(2)
        for _ in range(50):
            circ.t(0)
        front = commutative_front(circ.gates, scan_limit=10)
        assert front == list(range(10))

    def test_global_barrier_stops_the_front(self):
        circ = Circuit(2).h(0).barrier().h(1)
        assert commutative_front(circ.gates) == [0]

    def test_empty_sequence(self):
        assert commutative_front([]) == []

    def test_first_gate_always_cf(self):
        circ = Circuit(1).measure(0)
        assert commutative_front(circ.gates) == [0]


class TestDependencyFront:
    def test_plain_front_blocks_on_shared_qubits(self):
        circ = Circuit(4).cx(1, 3).cx(2, 3).h(0)
        # Gate 1 shares qubit 3 with gate 0, so only gates 0 and 2 are in the
        # dependency front even though gate 1 commutes.
        assert dependency_front(circ.gates) == [0, 2]

    def test_dependency_front_subset_of_cf(self):
        circ = Circuit(4).cx(0, 1).cx(0, 2).cx(1, 2).h(3)
        dep = set(dependency_front(circ.gates))
        cf = set(commutative_front(circ.gates))
        assert dep <= cf


def _mixed_gates(rng: random.Random, num_qubits: int, count: int,
                 barriers: bool) -> list[Gate]:
    """Random gates covering every commutation rule, the unitary fallback,
    measurements and (optionally) scoped and global barriers."""
    one = ["h", "x", "rx", "z", "rz", "t", "s", "ry", "sx"]
    two = ["cx", "cx", "cx", "cz", "cp", "rzz", "swap"]
    gates: list[Gate] = []
    for _ in range(count):
        roll = rng.random()
        if barriers and roll < 0.03:
            gates.append(Gate("barrier", ()))
        elif barriers and roll < 0.06:
            gates.append(Gate("barrier", tuple(rng.sample(range(num_qubits), 2))))
        elif roll < 0.09:
            gates.append(Gate("measure", (rng.randrange(num_qubits),), cbits=(0,)))
        elif roll < 0.45:
            name = rng.choice(one)
            params = (rng.choice([0.5, 1.25]),) if name in ("rx", "rz", "ry") else ()
            gates.append(Gate(name, (rng.randrange(num_qubits),), params))
        else:
            name = rng.choice(two)
            params = (0.75,) if name in ("cp", "rzz") else ()
            gates.append(Gate(name, tuple(rng.sample(range(num_qubits), 2)), params))
    return gates


def _assert_tracks_reference(gates, rng, checker=None, max_front=None,
                             scan_limit=None) -> None:
    """Launch random front subsets until empty; after every launch step the
    incremental front equals the reference recomputed on what remains."""
    pending = IncrementalFront(gates, checker, max_front=max_front,
                               scan_limit=scan_limit)
    remaining = list(range(len(gates)))
    while True:
        sequence = [gates[p] for p in remaining]
        if checker is None:
            limit = len(sequence) if scan_limit is None else scan_limit
            expected = dependency_front(sequence[:limit])
        else:
            expected = commutative_front(sequence, checker, max_front=max_front,
                                         scan_limit=scan_limit)
        assert pending.front() == [remaining[i] for i in expected]
        assert list(pending.remaining()) == remaining
        assert len(pending) == len(remaining)
        if not remaining:
            return
        front = pending.front()
        for position in rng.sample(front, rng.randint(1, len(front))):
            pending.launch(position)
            remaining.remove(position)


#: ``(max_front, scan_limit)``: CODAR's defaults, a tight window that makes
#: launches refill it constantly, and the unbounded reference.
_FRONT_CONFIGS = [(32, 64), (4, 8), (None, None)]


class TestIncrementalFront:
    @pytest.mark.parametrize("max_front,scan_limit", _FRONT_CONFIGS)
    def test_matches_commutative_front_on_random_circuits(self, max_front,
                                                          scan_limit):
        rng = random.Random(1234)
        checker = CommutativityChecker()
        for _ in range(25):
            gates = _mixed_gates(rng, rng.randint(2, 6), rng.randint(1, 90),
                                 barriers=True)
            _assert_tracks_reference(gates, rng, checker, max_front, scan_limit)

    @pytest.mark.parametrize("max_front,scan_limit", _FRONT_CONFIGS)
    def test_matches_commutative_front_on_suite_circuits(self, max_front,
                                                         scan_limit):
        from repro.workloads.suite import benchmark_suite

        rng = random.Random(99)
        checker = CommutativityChecker()
        for case in benchmark_suite(max_qubits=6)[:12]:
            gates = [g for g in case.build().gates if not g.is_barrier]
            _assert_tracks_reference(gates[:300], rng, checker, max_front,
                                     scan_limit)

    @pytest.mark.parametrize("scan_limit", [64, 8])
    def test_without_checker_matches_dependency_front(self, scan_limit):
        rng = random.Random(7)
        for _ in range(25):
            gates = _mixed_gates(rng, rng.randint(2, 6), rng.randint(1, 90),
                                 barriers=False)
            _assert_tracks_reference(gates, rng, scan_limit=scan_limit)

    def test_repeated_gate_object_is_tracked_per_position(self):
        shared = Gate("cx", (0, 1))
        gates = [shared, Gate("h", (0,)), shared, shared]
        pending = IncrementalFront(gates, CommutativityChecker())
        assert pending.front() == [0]
        pending.launch(0)
        assert pending.front() == [1]
        pending.launch(1)
        assert pending.front() == [2, 3]
        pending.launch(3)
        assert pending.front() == [2]
        pending.launch(2)
        assert len(pending) == 0 and pending.front() == []

    def test_zero_scan_limit_exposes_the_head(self):
        gates = [Gate("h", (0,)), Gate("h", (1,))]
        pending = IncrementalFront(gates, CommutativityChecker(), scan_limit=0)
        assert pending.front() == [0]
        assert commutative_front(gates, scan_limit=0) == [0]
