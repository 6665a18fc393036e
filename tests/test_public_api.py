"""Public-API surface checks: exports resolve, docstrings exist."""

import importlib
import inspect
import pkgutil

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
    "repro.analysis",
    "repro.apps",
    "repro.service",
    "repro.obs",
    "repro.federation",
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

    def test_top_level_quickstart_symbols(self):
        for name in (
            "VlmScheme",
            "FixedLengthScheme",
            "make_pair_population",
            "preserved_privacy",
            "BitArray",
        ):
            assert hasattr(repro, name)

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
    4.0.0 and the bit-engine backends deleted in 5.0.0 stay deleted
    (each CHANGELOG maps them to their replacements)."""

    @pytest.mark.parametrize(
        "module_name,path",
        [
            ("repro.core.estimator", "PairEstimate.n_c_hat"),
            ("repro.core.multiway", "TripleEstimate.n_xyz_hat"),
            ("repro.core.multiway", "MultiwayEstimate.n_hat"),
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

    def test_baseline_sizing_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.baseline.sizing")

    @pytest.mark.parametrize(
        "module_name", ["repro.federation.shards", "repro.federation.collector"]
    )
    def test_folded_federation_modules_are_gone(self, module_name):
        """Folded into the service tier in 3.0.0 (CHANGELOG 3.0.0)."""
        with pytest.raises(ImportError):
            importlib.import_module(module_name)

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
