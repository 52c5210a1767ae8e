"""Commutativity detection and the Commutative-Front (CF) gate set.

Definition 1 of the paper: given a gate sequence ``I = [g1, g2, ..., gk, ...]``,
``gk`` is a *commutative forward* gate iff it commutes with every gate that
precedes it in ``I``.  CF gates can be hoisted to the head of the sequence,
so they are all logically executable *now*; exposing them (instead of only the
plain dependency front) gives CODAR's heuristic more context to score SWAPs.

Two gates on disjoint qubits always commute, so the check reduces to pairwise
commutation against earlier gates that share at least one qubit.  Pairwise
commutation is decided by fast symbolic rules (diagonal-vs-diagonal, shared
CX control, shared CX target, X-rotation on a CX target, ...) with an exact
unitary check as fallback for rare unclassified pairs.

:func:`commutative_front` computes the CF set of a sequence from scratch; it
is the reference definition.  A router that launches gates one by one uses
:class:`IncrementalFront` instead, which keeps the same set up to date as
gates leave the sequence and asks each gate pair at most once, in the way
SABRE maintains its front layer over the gate DAG (Li, Ding, Xie, ASPLOS'19).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.gates import Gate
from repro.core.unitary import expand_to, gate_unitary, matrices_commute

#: Gates whose unitary is diagonal in the computational basis.  Any two
#: diagonal gates commute regardless of which qubits they share.
_DIAGONAL_LIKE = frozenset(
    {"id", "z", "s", "sdg", "t", "tdg", "rz", "p", "u1", "cz", "cp", "cu1", "rzz"}
)

#: Pure X-axis gates; they commute with the target leg of a CX and with each
#: other on the same qubit.
_X_LIKE = frozenset({"x", "rx", "sx", "sxdg"})

#: Controlled gates whose control leg is Z-like (commutes with diagonal gates
#: and with other controls on the shared qubit).
_Z_CONTROLLED = frozenset({"cx", "cy", "cz", "ch", "crx", "cry", "crz", "cp", "cu1", "cu3"})


def _shares_qubits(a: Gate, b: Gate) -> bool:
    return bool(set(a.qubits) & set(b.qubits))


def _control_set(gate: Gate) -> frozenset[int]:
    return frozenset(gate.qubits[i] for i in gate.spec.control_qubits)


def _target_set(gate: Gate) -> frozenset[int]:
    return frozenset(gate.qubits[i] for i in gate.spec.target_qubits)


def _role(gate: Gate, qubit: int) -> str:
    """Classify how ``gate`` acts on ``qubit``: 'diag', 'x', 'control', 'target' or 'other'."""
    if gate.name in _DIAGONAL_LIKE:
        return "diag"
    if gate.name in _X_LIKE:
        return "x"
    if gate.name in _Z_CONTROLLED:
        if qubit in _control_set(gate):
            return "control"
        if qubit in _target_set(gate):
            # The CX/CY/CH target leg behaves like an X-type action for CX,
            # but in general we only use 'target' for the cx special cases.
            return "target"
    return "other"


_ROLE_COMMUTES = {
    # On a shared qubit, these action types commute with each other.
    ("diag", "diag"): True,
    ("diag", "control"): True,
    ("control", "diag"): True,
    ("control", "control"): True,
    ("x", "x"): True,
}


def _rule_based(a: Gate, b: Gate) -> bool | None:
    """Symbolic commutation test; returns None when no rule applies."""
    # Rule 0: identical gates trivially commute.
    if a.name == b.name and a.qubits == b.qubits and a.params == b.params:
        return True
    # Rule 1: both globally diagonal.
    if a.name in _DIAGONAL_LIKE and b.name in _DIAGONAL_LIKE:
        return True
    # Rule 2: check every shared qubit; all shared legs must commute.
    shared = set(a.qubits) & set(b.qubits)
    for q in shared:
        ra, rb = _role(a, q), _role(b, q)
        # cx target leg vs x-like single-qubit gate commutes (both are X-type).
        if {ra, rb} <= {"x", "target"} and _cx_target_is_x_like(a, q) and _cx_target_is_x_like(b, q):
            continue
        if _ROLE_COMMUTES.get((ra, rb), False):
            continue
        if "other" in (ra, rb) or "target" in (ra, rb):
            # Not covered by a symbolic rule; let the exact check decide.
            return None
        return False
    return True


def _cx_target_is_x_like(gate: Gate, qubit: int) -> bool:
    """True when the gate acts on ``qubit`` as an X-type operation.

    That is the case for X/RX/SX single-qubit gates and for the target leg of
    a CX (whose action on the target is X conditioned on the control, which
    still commutes with other X-type actions).
    """
    if gate.name in _X_LIKE:
        return True
    if gate.name == "cx" and qubit in _target_set(gate):
        return True
    return False


def _unitary_check(a: Gate, b: Gate) -> bool:
    """Exact fallback: embed both gates on their union of qubits and compare."""
    union = sorted(set(a.qubits) | set(b.qubits))
    index = {q: i for i, q in enumerate(union)}
    n = len(union)
    mat_a = expand_to(gate_unitary(a), tuple(index[q] for q in a.qubits), n)
    mat_b = expand_to(gate_unitary(b), tuple(index[q] for q in b.qubits), n)
    return matrices_commute(mat_a, mat_b)


def gates_commute(a: Gate, b: Gate, exact_fallback: bool = True) -> bool:
    """Decide whether two gates commute.

    Measurement, reset and barrier never commute with anything sharing their
    qubits (a barrier blocks everything that touches any qubit when it has no
    explicit operand list).
    """
    if a.is_barrier or b.is_barrier:
        barrier, other = (a, b) if a.is_barrier else (b, a)
        if not barrier.qubits:
            return False
        return not _shares_qubits(a, b)
    if not _shares_qubits(a, b):
        return True
    if a.is_measure or b.is_measure or a.name == "reset" or b.name == "reset":
        return False
    verdict = _rule_based(a, b)
    if verdict is not None:
        return verdict
    if not exact_fallback:
        return False
    try:
        return _unitary_check(a, b)
    except ValueError:
        return False


class CommutativityChecker:
    """Memoising commutation oracle.

    Routing a 30k-gate benchmark asks the same (gate-kind, relative-overlap)
    questions over and over; caching on a structural key answers each such
    question with one rule evaluation (or one unitary comparison).
    """

    def __init__(self, exact_fallback: bool = True):
        self._exact_fallback = exact_fallback
        self._cache: dict[tuple, bool] = {}

    def _key(self, a: Gate, b: Gate) -> tuple:
        # Canonicalise the qubit overlap pattern so distinct qubit indices with
        # the same sharing structure hit the same cache entry.
        relabel: dict[int, int] = {}
        for q in a.qubits + b.qubits:
            if q not in relabel:
                relabel[q] = len(relabel)
        return (
            a.name, tuple(relabel[q] for q in a.qubits), a.params,
            b.name, tuple(relabel[q] for q in b.qubits), b.params,
        )

    def commute(self, a: Gate, b: Gate) -> bool:
        if not _shares_qubits(a, b) and not (a.is_barrier or b.is_barrier):
            return True
        key = self._key(a, b)
        cached = self._cache.get(key)
        if cached is None:
            cached = gates_commute(a, b, exact_fallback=self._exact_fallback)
            self._cache[key] = cached
        return cached


def commutative_front(gates: Sequence[Gate],
                      checker: CommutativityChecker | None = None,
                      max_front: int | None = None,
                      scan_limit: int | None = None) -> list[int]:
    """Indices of the Commutative-Front gates of ``gates`` (Definition 1).

    Parameters
    ----------
    gates:
        The remaining (un-executed) gate sequence ``I``.
    checker:
        Optional shared :class:`CommutativityChecker`.
    max_front:
        Stop once this many CF gates have been found (routers only need a
        bounded look-ahead window).
    scan_limit:
        Only examine the first ``scan_limit`` gates of the sequence; beyond
        that the chance of still commuting with *everything* earlier is
        negligible and the scan cost is quadratic.

    Returns
    -------
    list of indices into ``gates`` that form the CF set, in program order.
    """
    checker = checker or CommutativityChecker()
    front: list[int] = []
    # Per-qubit list of indices of earlier gates touching that qubit: a later
    # gate only needs to be checked against earlier gates sharing a qubit.
    per_qubit: dict[int, list[int]] = {}
    limit = len(gates) if scan_limit is None else min(scan_limit, len(gates))
    for k in range(limit):
        gate = gates[k]
        if gate.is_barrier and not gate.qubits:
            # A global barrier: nothing after it can be hoisted.
            if k == 0:
                front.append(k)
            break
        is_cf = True
        seen: set[int] = set()
        for q in gate.qubits:
            for j in per_qubit.get(q, ()):
                if j in seen:
                    continue
                seen.add(j)
                if not checker.commute(gates[j], gate):
                    is_cf = False
                    break
            if not is_cf:
                break
        if is_cf:
            front.append(k)
            if max_front is not None and len(front) >= max_front:
                break
        for q in gate.qubits:
            per_qubit.setdefault(q, []).append(k)
    if not front and gates:
        # Degenerate safety net: the first gate is always CF by definition.
        front.append(0)
    return front


def dependency_front(gates: Sequence[Gate]) -> list[int]:
    """Plain dependency front (no commutativity): first gate per qubit chain.

    This is what duration-unaware routers such as SABRE use; provided here so
    the ablation experiment can switch CODAR's look-ahead strategy.
    """
    blocked: set[int] = set()
    front: list[int] = []
    for k, gate in enumerate(gates):
        if gate.is_barrier and not gate.qubits:
            break
        if any(q in blocked for q in gate.qubits):
            blocked.update(gate.qubits)
            continue
        front.append(k)
        blocked.update(gate.qubits)
        if len(blocked) >= 10_000:  # pragma: no cover - defensive bound
            break
    return front


class IncrementalFront:
    """The front of a gate sequence, kept up to date as front gates launch.

    The structure holds a *window*: the first ``scan_limit`` remaining gates
    of ``gates``, in program order.  For each window gate it counts the
    earlier window gates that *block* it, i.e. share a qubit with it and do
    not commute with it.  Launching a gate decrements the counts of the gates
    it blocked; a gate entering the window is checked once against the gates
    already in it.  :meth:`front` is the first ``max_front`` window gates
    whose count is zero.

    With a ``checker`` this is the Commutative-Front set: at every step
    :meth:`front` equals ``commutative_front(remaining, checker, max_front,
    scan_limit)`` with its indices mapped to positions in ``gates``.
    Without one every earlier gate on a shared qubit blocks, which is the
    plain dependency front of the window (``dependency_front(
    remaining[:scan_limit])`` for a barrier-free sequence and no
    ``max_front``).

    All bookkeeping is keyed by position in ``gates``, never by gate
    identity: :class:`Gate` is a frozen value, so one object may occur at
    several positions of a circuit.  Only front gates may be launched.
    """

    def __init__(self, gates: Sequence[Gate],
                 checker: CommutativityChecker | None = None,
                 max_front: int | None = None,
                 scan_limit: int | None = None):
        self._gates = gates
        self._checker = checker
        self._max_front = len(gates) if max_front is None else max_front
        # The head gate is always in the front (``commutative_front`` falls
        # back to it when nothing is scanned), so the window holds at least it.
        self._capacity = max(1, len(gates) if scan_limit is None else scan_limit)
        #: First position not yet admitted to the window.
        self._next = 0
        #: Window position -> number of remaining earlier gates blocking it,
        #: in program order.
        self._window: dict[int, int] = {}
        #: Window position -> later window positions it blocks.
        self._blocks: dict[int, list[int]] = {}
        #: Qubit -> window positions acting on it.
        self._on_qubit: dict[int, list[int]] = {}
        #: Window positions of global (operand-less) barriers.
        self._barriers: list[int] = []
        self._front: list[int] | None = None
        self._fill()

    def __len__(self) -> int:
        """Number of gates not launched yet."""
        return len(self._window) + len(self._gates) - self._next

    def front(self) -> list[int]:
        """Positions of the front gates, in program order."""
        if self._front is None:
            front: list[int] = []
            for position, blockers in self._window.items():
                if blockers == 0:
                    front.append(position)
                    if len(front) >= self._max_front:
                        break
            self._front = front
        return self._front

    def remaining(self) -> Iterator[int]:
        """Positions of the gates not launched yet, in program order."""
        yield from self._window
        yield from range(self._next, len(self._gates))

    def launch(self, position: int) -> None:
        """Remove the front gate at ``position`` from the sequence."""
        del self._window[position]
        for later in self._blocks.pop(position):
            self._window[later] -= 1
        gate = self._gates[position]
        for qubit in gate.qubits:
            self._on_qubit[qubit].remove(position)
        if gate.is_barrier and not gate.qubits:
            self._barriers.remove(position)
        self._front = None
        self._fill()

    def _fill(self) -> None:
        while len(self._window) < self._capacity and self._next < len(self._gates):
            self._admit(self._next)
            self._next += 1

    def _admit(self, position: int) -> None:
        gate = self._gates[position]
        if gate.is_barrier and not gate.qubits:
            # A global barrier waits for, and holds back, every other gate.
            blockers = list(self._window)
            self._barriers.append(position)
        else:
            blockers = list(self._barriers)
            earlier = {p for q in gate.qubits for p in self._on_qubit.get(q, ())}
            checker = self._checker
            for p in earlier:
                if checker is None or not checker.commute(self._gates[p], gate):
                    blockers.append(p)
        for p in blockers:
            self._blocks[p].append(position)
        self._window[position] = len(blockers)
        self._blocks[position] = []
        for qubit in gate.qubits:
            self._on_qubit.setdefault(qubit, []).append(position)
