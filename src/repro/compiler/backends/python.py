"""The reference ``python`` backend: the routers' original scalar loops.

This backend *is* today's code — it delegates to the exact functions the
routers called before the backend seam existed (``swap_priority``,
``sabre_score``, ``coupling.shortest_path``), so selecting it changes
nothing, byte for byte.  It is not the default (``numpy`` is the production
kernel); it is the ground truth the differential suite measures every
accelerated backend against.
"""

from __future__ import annotations

from typing import Sequence

from repro.arch.coupling import CouplingGraph
from repro.core.gates import Gate
from repro.compiler.backends.base import RouterBackend
from repro.mapping.codar.priority import SwapPriority, swap_priority
from repro.mapping.layout import Layout
from repro.mapping.sabre.heuristic import sabre_score


class PythonBackend(RouterBackend):
    """Pure-python scalar scoring (the pre-backend behaviour, verbatim)."""

    name = "python"

    def codar_swap_scores(self, coupling: CouplingGraph, layout: Layout,
                          candidates: Sequence[tuple[int, int]],
                          target_gates: Sequence[Gate], *,
                          use_fine: bool = True,
                          lookahead_gates: Sequence[Gate] = (),
                          lookahead_decay: float = 0.5
                          ) -> list[SwapPriority]:
        return [swap_priority(edge[0], edge[1], coupling, layout,
                              target_gates, use_fine=use_fine,
                              lookahead_gates=lookahead_gates,
                              lookahead_decay=lookahead_decay)
                for edge in candidates]

    def sabre_scores(self, coupling: CouplingGraph, layout: Layout,
                     candidates: Sequence[tuple[int, int]],
                     front_gates: Sequence[Gate],
                     extended_gates: Sequence[Gate],
                     decay: Sequence[float],
                     extended_weight: float = 0.5) -> list[float]:
        return [sabre_score(edge[0], edge[1], coupling, layout, front_gates,
                            extended_gates, decay, extended_weight)
                for edge in candidates]

    def pairs_distance(self, coupling: CouplingGraph, layout: Layout,
                       pairs: Sequence[tuple[int, int]]) -> int:
        total = 0
        for a, b in pairs:
            total += coupling.distance(layout.physical(a),
                                       layout.physical(b)) - 1
        return total

    def shortest_path(self, coupling: CouplingGraph, a: int, b: int
                      ) -> list[int]:
        return coupling.shortest_path(a, b)
