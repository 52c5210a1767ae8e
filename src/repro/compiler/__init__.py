"""Staged pass-pipeline compiler architecture.

This package turns a compilation from a hard-coded ``Router.run`` call into a
declarative, JSON-serialisable *pipeline* of stages — the PassManager design
of production compilers (Qiskit's transpiler, t|ket⟩) applied to the paper's
context-aware flow:

* :mod:`repro.compiler.analysis` — a process-wide per-device cache of
  distance matrices, adjacency and duration tables, shared by every router,
  pipeline and portfolio leg (previously recomputed per ``Router.run``),
* :mod:`repro.compiler.context` — the :class:`PipelineContext` property set
  a compilation carries between stages, including per-stage timings,
* :mod:`repro.compiler.stages` — the :class:`Pass` protocol, the
  :data:`STAGES` registry and the built-in stages (parse, decompose, layout,
  route, orientation, optimize, schedule, verify),
* :mod:`repro.compiler.pipeline` — the :class:`Pipeline` runner, the preset
  registry and the content-addressed pipeline key that the service cache and
  the portfolio layer build on,
* :mod:`repro.compiler.backends` — the pluggable router-backend registry
  (the vectorized ``"numpy"`` production default and the scalar
  ``"python"`` reference oracle, selectable per job/candidate/stage),
* :mod:`repro.compiler.parse_cache` — the process-wide content-addressed
  parsed-circuit cache in front of the parse stage.
"""

from repro.compiler.analysis import (DeviceAnalysis, analyze, cache_stats,
                                     clear_cache, device_fingerprint)
from repro.compiler.backends import (DEFAULT_BACKEND, backend_names,
                                     get_backend, has_backend, list_backends,
                                     register_backend)
from repro.compiler.context import PipelineContext, StageRecord
from repro.compiler.parse_cache import cache_stats as parse_cache_stats
from repro.compiler.parse_cache import clear_cache as clear_parse_cache
from repro.compiler.parse_cache import parse_cached
from repro.compiler.pipeline import (PIPELINE_SCHEMA_VERSION, Pipeline,
                                     PipelineResult, canonical_stage_specs,
                                     list_pipelines, pipeline_preset)
from repro.compiler.stages import (LAYOUT_STRATEGIES, STAGES, DecomposeStage,
                                   LayoutStage, OptimizeStage,
                                   OrientationStage, ParseStage, Pass,
                                   RouteStage, ScheduleStage, VerifyStage,
                                   build_stage, stage_spec)

__all__ = [
    "DeviceAnalysis",
    "analyze",
    "cache_stats",
    "clear_cache",
    "device_fingerprint",
    "DEFAULT_BACKEND",
    "backend_names",
    "get_backend",
    "has_backend",
    "list_backends",
    "register_backend",
    "parse_cached",
    "parse_cache_stats",
    "clear_parse_cache",
    "PipelineContext",
    "StageRecord",
    "PIPELINE_SCHEMA_VERSION",
    "Pipeline",
    "PipelineResult",
    "canonical_stage_specs",
    "list_pipelines",
    "pipeline_preset",
    "LAYOUT_STRATEGIES",
    "STAGES",
    "Pass",
    "ParseStage",
    "DecomposeStage",
    "OptimizeStage",
    "LayoutStage",
    "RouteStage",
    "OrientationStage",
    "ScheduleStage",
    "VerifyStage",
    "build_stage",
    "stage_spec",
]
