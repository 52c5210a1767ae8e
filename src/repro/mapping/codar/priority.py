"""CODAR's heuristic cost function for candidate SWAPs (Section IV-D).

A candidate SWAP ``(A, B)`` on physical qubits is scored with a lexicographic
pair ``(H_basic, H_fine)``:

* ``H_basic`` (Equation 1) is the total shortest-path distance reduction the
  SWAP brings to the unresolved two-qubit gates of the Commutative-Front set:
  ``Σ_g  L(π, g) − L(π_swapped, g)``.  A SWAP with non-positive ``H_basic``
  does not move any pending CNOT closer and is normally not inserted (except
  to break a deadlock).

* ``H_fine`` (Equation 2) is the 2-D-lattice tie-breaker
  ``−|VD − HD|`` summed over the same gates: keeping the vertical and
  horizontal separation balanced preserves more distinct shortest routing
  paths (``C(HD+VD, HD)`` of them), which pays off in later cycles.  Devices
  without lattice coordinates get ``H_fine = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arch.coupling import CouplingGraph
from repro.core.gates import Gate
from repro.mapping.layout import Layout


@dataclass(frozen=True, order=True)
class SwapPriority:
    """Lexicographically ordered priority of a candidate SWAP.

    ``basic`` and ``fine`` are the paper's ``H_basic`` / ``H_fine``
    (Section IV-D).  ``lookahead`` is an implementation-level tie-breaker the
    paper leaves unspecified: when two SWAPs are indistinguishable under both
    published criteria, prefer the one that also shortens the distance of the
    next few two-qubit gates *beyond* the Commutative-Front set.  It never
    overrides ``H_basic`` or ``H_fine``.
    """

    basic: int
    fine: float
    lookahead: float = 0.0

    @property
    def is_positive(self) -> bool:
        """True when the SWAP strictly reduces total CF-gate distance."""
        return self.basic > 0


def _gate_distance(coupling: CouplingGraph, layout: Layout, gate: Gate) -> int:
    """``L(π, g)``: coupling distance between the physical images of g's operands."""
    a, b = gate.qubits
    return coupling.distance(layout.physical(a), layout.physical(b))


def _fine_term(coupling: CouplingGraph, layout: Layout, gate: Gate) -> float:
    a, b = gate.qubits
    pa, pb = layout.physical(a), layout.physical(b)
    vd = coupling.vertical_distance(pa, pb)
    hd = coupling.horizontal_distance(pa, pb)
    return -abs(vd - hd)


def swap_priority(phys_a: int, phys_b: int, coupling: CouplingGraph,
                  layout: Layout, target_gates: Sequence[Gate],
                  use_fine: bool = True,
                  lookahead_gates: Sequence[Gate] = (),
                  lookahead_decay: float = 0.5) -> SwapPriority:
    """Score the SWAP of physical qubits ``(phys_a, phys_b)``.

    Parameters
    ----------
    target_gates:
        The two-qubit Commutative-Front gates (logical operands); Equation 1
        sums the distance change over all of them.
    use_fine:
        Disable to ablate the fine priority (``H_fine`` forced to 0).
    lookahead_gates:
        Two-qubit gates *beyond* the CF set, in program order; their distance
        change only contributes to the tie-breaking term with geometrically
        decaying weights (``lookahead_decay ** position``).
    """
    swapped = layout.swapped_physical(phys_a, phys_b)
    basic = 0
    fine = 0.0
    touched = {phys_a, phys_b}
    for gate in target_gates:
        pa = layout.physical(gate.qubits[0])
        pb = layout.physical(gate.qubits[1])
        if pa not in touched and pb not in touched:
            # The SWAP does not move either operand; no contribution to either
            # term (its fine term is unchanged and cancels between candidates).
            continue
        basic += (_gate_distance(coupling, layout, gate)
                  - _gate_distance(coupling, swapped, gate))
        if use_fine and coupling.has_coordinates:
            fine += _fine_term(coupling, swapped, gate)
    lookahead = 0.0
    weight = 1.0
    for gate in lookahead_gates:
        pa = layout.physical(gate.qubits[0])
        pb = layout.physical(gate.qubits[1])
        if pa in touched or pb in touched:
            lookahead += weight * (_gate_distance(coupling, layout, gate)
                                   - _gate_distance(coupling, swapped, gate))
        weight *= lookahead_decay
    return SwapPriority(basic=basic, fine=fine if use_fine else 0.0,
                        lookahead=lookahead)

