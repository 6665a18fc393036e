"""Public-API surface checks: exports resolve, docstrings exist."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.engine",
    "repro.baseline",
    "repro.hashing",
    "repro.privacy",
    "repro.accuracy",
    "repro.vcps",
    "repro.roadnet",
    "repro.traffic",
    "repro.experiments",
    "repro.utils",
    "repro.service",
    "repro.obs",
    "repro.federation",
    "repro.scenarios",
    "repro.streaming",
    "repro.adaptive",
]


def iter_all_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                yield importlib.import_module(f"{package_name}.{info.name}")


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["VlmScheme"] is repro.core.VlmScheme

    def test_fresh_packages_load_on_first_use(self):
        """In a fresh interpreter: ``import repro`` loads neither numpy
        nor asyncio, an attribute naming a submodule not imported yet
        imports it, and each package's ``dir()`` lists its ``__all__``
        before any name is used."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import importlib, json, sys, repro\n"
            "heavy = sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'asyncio'})\n"
            "submodule = repro.roadnet.sioux_falls.__name__\n"
            "missing = {}\n"
            f"for name in {PACKAGES!r}:\n"
            "    package = importlib.import_module(name)\n"
            "    missing[name] = sorted(set(package.__all__) - set(dir(package)))\n"
            "print(json.dumps([heavy, submodule, missing]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        heavy, submodule, missing = json.loads(out.stdout)
        assert heavy == []
        assert submodule == "repro.roadnet.sioux_falls"
        assert missing == {name: [] for name in PACKAGES}
        assert not hasattr(repro.roadnet, "no_such_module")

    def test_top_level_quickstart_symbols(self):
        for name in (
            "VlmScheme",
            "FixedLengthScheme",
            "make_pair_population",
            "preserved_privacy",
            "BitArray",
        ):
            assert hasattr(repro, name)

    def test_pair_matrix_is_exported(self):
        from repro.core import estimator

        assert repro.PairMatrix is repro.core.PairMatrix is estimator.PairMatrix
        assert "PairMatrix" in estimator.__all__

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        for module in iter_all_modules():
            assert module.__doc__, f"{module.__name__} lacks a module docstring"

    def test_every_public_callable_documented(self):
        """Every class/function re-exported in a package's __all__
        carries a docstring."""
        undocumented = []
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            for name in getattr(package, "__all__", []):
                obj = getattr(package, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{package_name}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_public_classes_document_their_methods(self):
        """Spot-check: public methods of the flagship classes are
        documented."""
        from repro.core.bitarray import BitArray
        from repro.core.scheme import VlmScheme
        from repro.vcps.server import CentralServer

        for cls in (BitArray, VlmScheme, CentralServer):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name} undocumented"


class TestRemovedSurface:
    """The 1.x aliases deleted in 2.0.0, the duplicate live-plane
    surface deleted in 3.0.0, the second load generator deleted in
    4.0.0, the bit-engine backends deleted in 5.0.0, the decoder's
    unfold memo deleted in 6.0.0, ``DeploymentSpec.config`` deleted
    in 7.0.0, the dict-tree routing helpers deleted in 8.0.0,
    ``TripTable.symmetrized`` deleted in 9.0.0, the two chaos drill
    modules deleted in 10.0.0, the dict methods of the all-pairs
    result, a read-only ``PairMatrix`` since 11.0.0, the library-only
    extensions deleted in 15.0.0, and the report codec and
    multi-period driver twins deleted in 16.0.0, and the stream frame
    reads and writes deleted in 17.0.0 stay deleted (each CHANGELOG
    maps them to their replacements)."""

    @pytest.mark.parametrize(
        "module_name,path",
        [
            ("repro.core.estimator", "PairEstimate.n_c_hat"),
            ("repro.core.multiperiod", "AggregatedEstimate.n_c_hat"),
            ("repro.core.multiperiod", "AggregatedEstimate.confidence_interval"),
            ("repro.core.results", "deprecated_alias"),
            ("repro.core.sizing", "LoadFactorSizing"),
            ("repro.core", "LoadFactorSizing"),
            ("repro.traffic.network_workload", "sioux_falls_workload"),
            ("repro.engine", "set_default_backend"),
            ("repro.core.bitarray", "BitArray.with_backend"),
            ("repro.core.config", "SchemeConfig.engine"),
            ("repro.federation", "ShardGateway"),
            ("repro.federation", "FederatedCollector"),
            ("repro.federation", "build_shard_rsus"),
            ("repro.federation", "spec_provisioner"),
            ("repro.federation.runtime", "ShardClient"),
            ("repro.federation.runtime", "FederatedLoadgenResult"),
            ("repro.federation.runtime", "run_federated_serve"),
            ("repro.federation.runtime", "DEFAULT_SHARD_BASE_PORT"),
            ("repro.federation.runtime", "plan_shard_batches"),
            ("repro.service.loadgen", "_day_batches"),
            ("repro.service.loadgen", "_day_window_batches"),
            ("repro.service.gateway", "RsuGateway._handle_extra"),
            ("repro.service.gateway", "RsuGateway._make_snapshot"),
            ("repro.service.collector", "CollectorService._journal_window"),
            ("repro.service.collector", "CollectorService._journal_sizes"),
            ("repro.vcps.rsu", "RoadsideUnit.handle_index_batch"),
            ("repro.engine", "use_backend"),
            ("repro.engine", "get_backend"),
            ("repro.engine", "get_kernels"),
            ("repro.engine", "register_backend"),
            ("repro.engine", "available_backends"),
            ("repro.engine", "BitBackend"),
            ("repro.engine", "KernelTable"),
            ("repro.engine", "ENV_VAR"),
            ("repro.engine.numba_backend", "NumbaWordBackend"),
            ("repro.core.bitarray", "BitArray.backend"),
            ("repro.core.bitarray", "BitArray._storage_as"),
            ("repro.core.decoder", "DEFAULT_MEMO_CAPACITY"),
            ("repro.core.decoder", "CentralDecoder._unfolded"),
            ("repro.streaming", "_tiled_peer_popcounts"),
            ("repro.roadnet.graph", "shortest_path_tree"),
            ("repro.roadnet.graph", "tree_path"),
            ("repro.roadnet.trips", "TripTable.symmetrized"),
            ("repro.service.drills", "run_shard_kill"),
            ("repro.service.drills", "run_rsu_outage"),
            ("repro.core.estimator", "PairMatrix.copy"),
            ("repro.core.estimator", "PairMatrix.pop"),
            ("repro.core.estimator", "PairMatrix.__setitem__"),
            ("repro.roadnet.graph", "RoadNetwork.graph"),
            ("repro.roadnet.graph", "RoadNetwork.is_strongly_connected"),
            ("repro.service.wire", "Connections"),
            ("repro.service.collector", "CollectorService._serve_client"),
            ("repro.service.collector", "CollectorService._session"),
            ("repro.service.collector", "CollectorService._reply"),
            ("repro", "TripleEstimate"),
            ("repro.accuracy", "confidence_interval"),
            ("repro.privacy", "route_privacy"),
            ("repro.privacy", "report_index_entropy"),
            ("repro.core.reports", "RsuReport.to_wire"),
            ("repro.core.reports", "RsuReport.from_wire"),
            ("repro.core.parameters", "SchemeParameters.with_m_o"),
            ("repro.roadnet.volumes", "TrafficAssignment.total_vehicles"),
            ("repro.service.wire", "read_message"),
            ("repro.service.wire", "write_message"),
            ("repro.service.wire", "write_messages"),
        ],
    )
    def test_name_is_gone(self, module_name, path):
        owner = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        assert not hasattr(owner, name)

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.engine.backend",
            "repro.engine.kernels",
            "repro.engine.legacy",
            "repro.engine.packed",
        ],
    )
    def test_engine_modules_are_gone(self, module_name):
        """One word representation since 5.0.0 (CHANGELOG 5.0.0)."""
        with pytest.raises(ImportError):
            importlib.import_module(module_name)

    def test_route_plan_stores_flat_routes(self):
        """Routes are one node array plus offsets since 8.0.0; build a
        plan from a route dict with ``RoutePlan.from_routes``."""
        import dataclasses

        from repro.roadnet.routing import RoutePlan

        fields = [f.name for f in dataclasses.fields(RoutePlan)]
        assert fields == ["trips", "nodes", "offsets"]

    def test_matrix_decode_is_not_a_dict(self):
        """Every all-pairs decode returns a read-only ``Mapping`` since
        11.0.0 (CHANGELOG 11.0.0)."""
        from collections.abc import Mapping

        from repro.core.decoder import CentralDecoder

        matrix = CentralDecoder(2).estimate_matrix()
        assert isinstance(matrix, Mapping) and not isinstance(matrix, dict)

    def test_decoder_takes_no_memo_capacity(self):
        """No unfold memo since 6.0.0 (CHANGELOG 6.0.0)."""
        from repro.core.decoder import CentralDecoder

        params = inspect.signature(CentralDecoder.__init__).parameters
        assert list(params) == ["self", "s", "policy", "config"]
        with pytest.raises(TypeError):
            CentralDecoder(2, memo_capacity=8)

    def test_deployment_spec_takes_no_config(self):
        """No ``config`` override since 7.0.0 (CHANGELOG 7.0.0): the
        live plane always clamps."""
        import dataclasses

        from repro.core.estimator import ZeroFractionPolicy
        from repro.service.runtime import DeploymentSpec

        names = {f.name for f in dataclasses.fields(DeploymentSpec)}
        assert "config" not in names
        spec = DeploymentSpec(total_trips=600)
        assert spec.policy is ZeroFractionPolicy.CLAMP

    def test_baseline_sizing_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.baseline.sizing")

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.federation.shards",
            "repro.federation.collector",
            "repro.federation.chaos",
            "repro.service.outage",
            "repro.apps",
            "repro.analysis",
            "repro.core.multiway",
            "repro.accuracy.confidence",
            "repro.privacy.metrics",
            "repro.privacy.trajectory",
            "repro.baseline.pseudonym",
            "repro.core.compression",
            "repro.vcps.deployment",
            "repro.vcps.persistence",
        ],
    )
    def test_folded_federation_modules_are_gone(self, module_name):
        """Folded into the service tier in 3.0.0 (CHANGELOG 3.0.0); the
        two chaos drills into ``repro.service.drills`` in 10.0.0
        (CHANGELOG 10.0.0); the library-only extensions that nothing
        but tests reached deleted in 15.0.0 (CHANGELOG 15.0.0); the
        report codec, persistence and ``Deployment`` twins of the live
        plane deleted in 16.0.0 (CHANGELOG 16.0.0)."""
        with pytest.raises(ImportError):
            importlib.import_module(module_name)

    @pytest.mark.parametrize(
        "function, keywords",
        [
            ("shard_kill_scenario", {"wire_batch", "window", "period"}),
            ("rsu_outage_scenario", {"wire_batch", "window"}),
        ],
    )
    def test_drills_take_no_wire_keywords(self, function, keywords):
        """Frame size, send window and shard-kill period are constants
        since 10.0.0 (CHANGELOG 10.0.0)."""
        from repro.service import drills

        params = inspect.signature(getattr(drills, function)).parameters
        assert not keywords & set(params)

    def test_drill_entry_point_needs_a_spec(self):
        """No built-in default spec since 10.0.0: the CLI builds it."""
        from repro.service.drills import run_chaos_drill

        spec = inspect.signature(run_chaos_drill).parameters["spec"]
        assert spec.default is inspect.Parameter.empty

    def test_loadgen_result_field_renamed(self):
        import dataclasses

        from repro.service.loadgen import LoadgenResult

        names = {f.name for f in dataclasses.fields(LoadgenResult)}
        assert "pair_mismatches" in names and "mismatches" not in names

    def test_adaptive_results_have_no_engine_verdict(self):
        import dataclasses

        from repro.experiments.adaptive_sizing import (
            AdaptiveMatrixResult,
            AdaptiveSizingResult,
        )

        for result in (AdaptiveSizingResult, AdaptiveMatrixResult):
            names = {f.name for f in dataclasses.fields(result)}
            assert "serial_identical" in names
            assert "engines_identical" not in names
