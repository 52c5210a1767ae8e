"""Differential suite for the router-backend seam (``repro.compiler.backends``).

The contract under test: a backend may only *accelerate* scoring, never change
the answer.  Every kernel of the ``numpy`` backend must therefore be
bit-identical to the scalar ``python`` reference — same swap scores (including
the float fine/lookahead terms), same chosen swaps under ties, same routed
circuits end to end — across random circuits, devices and layouts.  The suite
also pins the key-stability rule (the ``backend`` field joins content
addresses only when set) and the caches this PR leans on (analysis LRU,
content-addressed parse cache).
"""

import random

import pytest

from repro.service.registry import build_device
from repro.compiler.backends import (DEFAULT_BACKEND, backend_names,
                                     get_backend, has_backend, list_backends,
                                     register_backend)
from repro.compiler.backends.python import PythonBackend
from repro.core.gates import Gate
from repro.mapping.layout import Layout
from repro.qasm.exporter import circuit_to_qasm
from repro.service.registry import build_router
from repro.workloads.generators import random_circuit

DEVICES = ("grid_4x4", "ibm_q20_tokyo")
ROUTERS = ("codar", "sabre", "astar", "codar_noise_aware")

py = get_backend("python")
nq = get_backend("numpy")


def _random_layout(rng: random.Random, num_qubits: int) -> Layout:
    perm = list(range(num_qubits))
    rng.shuffle(perm)
    return Layout(perm)


def _random_gates(rng: random.Random, num_logical: int,
                  count: int) -> list[Gate]:
    gates = []
    for _ in range(count):
        a, b = rng.sample(range(num_logical), 2)
        gates.append(Gate("cx", (a, b)))
    return gates


def _candidate_edges(coupling) -> list[tuple[int, int]]:
    return sorted((min(a, b), max(a, b)) for a, b in coupling.edges)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_backends_are_registered(self):
        assert {"python", "numpy"} <= set(backend_names())
        assert DEFAULT_BACKEND == "numpy"
        assert get_backend().name == "numpy"
        assert get_backend("numpy").name == "numpy"
        for name, description in list_backends().items():
            assert isinstance(description, str)
            assert has_backend(name)

    def test_backends_are_lazy_singletons(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend(None) is get_backend("numpy")

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("fortran")
        assert not has_backend("fortran")

    def test_reregistration_needs_overwrite(self):
        register_backend("test_tmp_backend", PythonBackend,
                         description="test double")
        assert has_backend("test_tmp_backend")
        with pytest.raises(ValueError, match="already registered"):
            register_backend("test_tmp_backend", PythonBackend)
        register_backend("test_tmp_backend", PythonBackend,
                         description="replaced", overwrite=True)
        assert list_backends()["test_tmp_backend"] == "replaced"


# --------------------------------------------------------------------------- #
# Kernel-level parity (python vs numpy, exact equality including floats)
# --------------------------------------------------------------------------- #
class TestKernelParity:
    @pytest.mark.parametrize("device_name", DEVICES)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_codar_swap_scores_identical(self, device_name, seed):
        device = build_device(device_name)
        coupling = device.coupling
        rng = random.Random(seed)
        candidates = _candidate_edges(coupling)
        for _trial in range(5):
            layout = _random_layout(rng, coupling.num_qubits)
            targets = _random_gates(rng, coupling.num_qubits, rng.randint(1, 6))
            lookahead = _random_gates(rng, coupling.num_qubits,
                                      rng.randint(0, 5))
            for use_fine in (True, False):
                # 0.3 is deliberately non-dyadic: the accumulated float
                # weights only match if the numpy kernel mirrors the scalar
                # ``weight *= decay`` recurrence exactly.
                for decay in (0.5, 0.3):
                    expected = py.codar_swap_scores(
                        coupling, layout, candidates, targets,
                        use_fine=use_fine, lookahead_gates=lookahead,
                        lookahead_decay=decay)
                    got = nq.codar_swap_scores(
                        coupling, layout, candidates, targets,
                        use_fine=use_fine, lookahead_gates=lookahead,
                        lookahead_decay=decay)
                    assert got == expected

    @pytest.mark.parametrize("device_name", DEVICES)
    @pytest.mark.parametrize("seed", (4, 5, 6))
    def test_codar_best_swap_identical_under_ties(self, device_name, seed):
        device = build_device(device_name)
        coupling = device.coupling
        rng = random.Random(seed)
        candidates = _candidate_edges(coupling)
        for _trial in range(8):
            layout = _random_layout(rng, coupling.num_qubits)
            # A single gate makes most candidates score 0 — maximal ties, so
            # this exercises the smallest-edge tie-break hardest.
            targets = _random_gates(rng, coupling.num_qubits, 1)
            lookahead = _random_gates(rng, coupling.num_qubits,
                                      rng.randint(0, 3))
            expected = py.codar_best_swap(coupling, layout, candidates,
                                          targets, lookahead_gates=lookahead)
            got = nq.codar_best_swap(coupling, layout, candidates, targets,
                                     lookahead_gates=lookahead)
            assert got == expected

    @pytest.mark.parametrize("device_name", DEVICES)
    @pytest.mark.parametrize("seed", (7, 8, 9))
    def test_sabre_scores_and_best_swap_identical(self, device_name, seed):
        device = build_device(device_name)
        coupling = device.coupling
        rng = random.Random(seed)
        candidates = _candidate_edges(coupling)
        for _trial in range(5):
            layout = _random_layout(rng, coupling.num_qubits)
            front = _random_gates(rng, coupling.num_qubits, rng.randint(1, 4))
            extended = _random_gates(rng, coupling.num_qubits,
                                     rng.randint(0, 8))
            decay = [1.0 + rng.random() for _ in range(coupling.num_qubits)]
            expected = py.sabre_scores(coupling, layout, candidates, front,
                                       extended, decay, 0.5)
            got = nq.sabre_scores(coupling, layout, candidates, front,
                                  extended, decay, 0.5)
            assert got == expected
            assert (nq.sabre_best_swap(coupling, layout, candidates, front,
                                       extended, decay, 0.5)
                    == py.sabre_best_swap(coupling, layout, candidates, front,
                                          extended, decay, 0.5))

    @pytest.mark.parametrize("device_name", DEVICES)
    def test_pairs_distance_identical(self, device_name):
        device = build_device(device_name)
        coupling = device.coupling
        rng = random.Random(10)
        for _trial in range(10):
            layout = _random_layout(rng, coupling.num_qubits)
            pairs = [tuple(rng.sample(range(coupling.num_qubits), 2))
                     for _ in range(rng.randint(1, 6))]
            assert (nq.pairs_distance(coupling, layout, pairs)
                    == py.pairs_distance(coupling, layout, pairs))
        assert nq.pairs_distance(coupling, Layout.identity(
            coupling.num_qubits), []) == 0

    @pytest.mark.parametrize("device_name", DEVICES)
    def test_shortest_path_via_predecessor_matches_bfs(self, device_name):
        # Two independent coupling instances: one answers with the per-call
        # BFS, the other through the predecessor-matrix walk.  Paths must be
        # node-for-node identical (the matrix BFS visits sorted neighbours,
        # same as the per-call BFS).
        bfs_coupling = build_device(device_name).coupling
        walk_coupling = build_device(device_name).coupling
        assert bfs_coupling is not walk_coupling
        walk_coupling.predecessor_matrix()
        n = bfs_coupling.num_qubits
        for a in range(n):
            for b in range(n):
                assert (walk_coupling.shortest_path(a, b)
                        == bfs_coupling.shortest_path(a, b)), (a, b)

    def test_predecessor_matrix_invalidated_by_add_edge(self):
        from repro.arch.coupling import CouplingGraph

        coupling = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert coupling.shortest_path(0, 3) == [0, 1, 2, 3]
        coupling.predecessor_matrix()
        coupling.add_edge(0, 3)
        assert coupling.shortest_path(0, 3) == [0, 3]


# --------------------------------------------------------------------------- #
# End-to-end routing parity
# --------------------------------------------------------------------------- #
class TestRoutedCircuitParity:
    @pytest.mark.parametrize("router_name", ROUTERS)
    @pytest.mark.parametrize("device_name", DEVICES)
    def test_routed_circuits_identical(self, router_name, device_name):
        device = build_device(device_name)
        for seed, strategy in ((21, "degree"), (22, "random")):
            circuit = random_circuit(6, 60, seed=seed,
                                     two_qubit_fraction=0.5)
            results = {}
            for backend_name in ("python", "numpy"):
                router = build_router(router_name)
                router.backend = backend_name
                result = router.run(circuit.copy(), device,
                                    layout_strategy=strategy, seed=7)
                results[backend_name] = (circuit_to_qasm(result.routed),
                                         result.swap_count, result.depth,
                                         result.weighted_depth,
                                         result.final_layout.physical_list())
            assert results["numpy"] == results["python"], (
                f"{router_name}/{device_name}/{strategy} diverged")


# --------------------------------------------------------------------------- #
# Key stability: ``backend`` joins content addresses only when set
# --------------------------------------------------------------------------- #
class TestKeyStability:
    def test_route_stage_params_omit_unset_backend(self):
        from repro.compiler.stages import RouteStage

        assert "backend" not in RouteStage(router="codar").params()
        assert RouteStage(router="codar",
                          backend="numpy").params()["backend"] == "numpy"
        with pytest.raises(ValueError, match="unknown backend"):
            RouteStage(router="codar", backend="fortran")

    def test_compile_job_key_and_payload_stability(self):
        from repro.service.jobs import CompileJob, job_from_dict

        qasm = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
                'cx q[0],q[1];\n')
        plain = CompileJob(qasm=qasm, device="grid_4x4", router="codar")
        tagged = CompileJob(qasm=qasm, device="grid_4x4", router="codar",
                            backend="numpy")
        assert "backend" not in plain.to_dict()
        assert tagged.to_dict()["backend"] == "numpy"
        assert plain.key != tagged.key
        # Round-trip preserves the backend (and therefore the key).
        assert job_from_dict(tagged.to_dict()).key == tagged.key
        assert job_from_dict(plain.to_dict()).key == plain.key
        with pytest.raises(ValueError, match="unknown backend"):
            CompileJob(qasm=qasm, device="grid_4x4", router="codar",
                       backend="fortran")

    def test_unset_backend_job_reports_the_default_that_ran(self):
        from repro.service.executor import execute_job
        from repro.service.jobs import CompileJob

        qasm = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\n'
                'cx q[0],q[3];\ncx q[1],q[2];\n')
        outcome = execute_job(CompileJob(qasm=qasm, device="grid_4x4",
                                         router="codar"))
        assert outcome.ok
        extra = outcome.summary["extra"]
        assert extra["backend"] == DEFAULT_BACKEND == "numpy"
        route_rows = [row for row in extra["stages"] if row["stage"] == "route"]
        assert [row["metrics"]["backend"] for row in route_rows] == ["numpy"]

    def test_candidate_key_stability_and_seed_pinning(self):
        from repro.portfolio.candidates import Candidate

        plain = Candidate("codar")
        tagged = Candidate("codar", backend="numpy")
        assert "backend" not in plain.to_dict()
        assert tagged.to_dict()["backend"] == "numpy"
        assert plain.key != tagged.key
        assert Candidate.from_dict(tagged.to_dict()).key == tagged.key
        pinned = tagged.with_seed(3)
        assert pinned.backend == "numpy" and pinned.seed == 3
        job = tagged.job_for("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                             "qreg q[2];\ncx q[0],q[1];\n", "grid_4x4")
        assert job.backend == "numpy"
        with pytest.raises(ValueError, match="unknown backend"):
            Candidate("codar", backend="fortran")


# --------------------------------------------------------------------------- #
# Analysis-cache LRU regression (eviction must follow recency, not insertion)
# --------------------------------------------------------------------------- #
class TestAnalysisCacheLRU:
    def test_hits_refresh_eviction_order(self, monkeypatch):
        from repro.compiler import analysis

        monkeypatch.setattr(analysis, "_ANALYSIS_CACHE_LIMIT", 2)
        analysis.clear_cache()
        try:
            d1, d2, d3 = (build_device("grid_2x2"), build_device("grid_2x3"),
                          build_device("grid_3x3"))
            analysis.analyze(d1)
            analysis.analyze(d2)
            # Touch d1: it is now the most recently used entry, so admitting
            # d3 must evict d2 — the insertion-order bug evicted d1 here.
            analysis.analyze(d1)
            analysis.analyze(d3)
            before = analysis.cache_stats()
            analysis.analyze(build_device("grid_2x2"))
            after = analysis.cache_stats()
            assert after["hits"] == before["hits"] + 1
            assert after["misses"] == before["misses"]
            analysis.analyze(build_device("grid_2x3"))  # was evicted: a miss
            assert analysis.cache_stats()["misses"] == after["misses"] + 1
        finally:
            analysis.clear_cache()


# --------------------------------------------------------------------------- #
# Content-addressed parse cache
# --------------------------------------------------------------------------- #
QASM = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
        'h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n')


class TestParseCache:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        from repro.compiler import parse_cache

        parse_cache.clear_cache()
        yield
        parse_cache.clear_cache()

    def test_hit_after_miss_and_stats(self):
        from repro.compiler import parse_cache

        circuit, hit = parse_cache.parse_cached_info(QASM, name="first")
        assert not hit and circuit.name == "first"
        again, hit = parse_cache.parse_cached_info(QASM, name="second")
        assert hit and again.name == "second"
        stats = parse_cache.cache_stats()
        assert stats == {"hits": 1, "misses": 1, "evictions": 0, "entries": 1}

    def test_returned_circuits_are_independent_copies(self):
        from repro.compiler import parse_cache
        from repro.core.gates import Gate

        first = parse_cache.parse_cached(QASM)
        first.append(Gate("x", (0,)))  # caller-side mutation
        second = parse_cache.parse_cached(QASM)
        assert len(second) == len(parse_cache.parse_cached(QASM))
        assert len(first) == len(second) + 1

    def test_eviction_is_lru_and_counted(self, monkeypatch):
        from repro.compiler import parse_cache

        monkeypatch.setattr(parse_cache, "_CACHE_LIMIT", 2)
        texts = [QASM.replace("q[3]", f"q[{n}]") for n in (3, 4, 5)]
        for text in texts:
            parse_cache.parse_cached(text)
        stats = parse_cache.cache_stats()
        assert stats["evictions"] == 1 and stats["entries"] == 2
        assert parse_cache.parse_cached_info(texts[0])[1] is False  # evicted
        assert parse_cache.parse_cached_info(texts[2])[1] is True

    def test_parse_errors_are_not_cached(self):
        from repro.compiler import parse_cache
        from repro.qasm import QasmError

        for _ in range(2):
            with pytest.raises(QasmError):
                parse_cache.parse_cached("qreg q[2]; nonsense")
        stats = parse_cache.cache_stats()
        assert stats["entries"] == 0 and stats["misses"] == 0

    def test_parse_stage_records_cache_hits(self):
        from repro.compiler import Pipeline

        device = build_device("grid_4x4")
        pipeline = Pipeline.from_spec({"stages": ["parse", "layout", "route",
                                                  "schedule"]})
        first = pipeline.run(QASM, device, seed=1)
        second = pipeline.run(QASM, device, seed=1)

        def parse_metrics(result):
            row = next(r for r in result.summary()["extra"]["stages"]
                       if r["stage"] == "parse")
            return row["metrics"]

        assert parse_metrics(first)["cache_hit"] is False
        assert parse_metrics(second)["cache_hit"] is True
        assert (circuit_to_qasm(first.compiled)
                == circuit_to_qasm(second.compiled))


# --------------------------------------------------------------------------- #
# Server metrics surface
# --------------------------------------------------------------------------- #
class TestBackendMetrics:
    def test_backend_counter_and_parse_cache_exposition(self):
        from repro.server.metrics import ServerMetrics

        metrics = ServerMetrics()
        metrics.observe_backend("numpy")
        metrics.observe_backend("numpy")
        metrics.observe_backend("python")
        assert metrics.backend_jobs() == {"numpy": 2, "python": 1}
        text = metrics.to_prometheus()
        assert 'repro_server_backend_jobs_total{backend="numpy"} 2' in text
        assert 'repro_server_backend_jobs_total{backend="python"} 1' in text
        assert "repro_server_parse_cache_hits_total" in text
        assert "repro_server_parse_cache_entries" in text
        snapshot = metrics.snapshot()
        assert snapshot["backends"] == {"numpy": 2, "python": 1}
        assert {"hits", "misses", "evictions",
                "entries"} <= set(snapshot["parse_cache"])
