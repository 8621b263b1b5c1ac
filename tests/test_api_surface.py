"""API-surface conformance: exports resolve, public items are documented.

These tests enforce the documentation deliverable mechanically: every
package re-exports a coherent ``__all__``, every module and every public
class/function in the public API carries a docstring.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro.engine",
    "repro.econ",
    "repro.network",
    "repro.node",
    "repro.cluster",
    "repro.frameworks",
    "repro.scheduler",
    "repro.analytics",
    "repro.workloads",
    "repro.survey",
    "repro.core",
    "repro.ecosystem",
    "repro.mc",
    "repro.reporting",
    "repro.runner",
    "repro.service",
]

#: The pinned top-level surface. Additions here are API commitments --
#: update deliberately (with the matching ``__version__`` bump), never
#: by accident.
TOP_LEVEL_SURFACE = [
    "EXPERIMENTS",
    "Experiment",
    "FaultInjector",
    "FaultSpec",
    "GridResult",
    "JobResult",
    "JobSpec",
    "Observability",
    "RandomStream",
    "RetryPolicy",
    "RunResult",
    "ServiceClient",
    "ShardedSimulation",
    "Simulator",
    "SubmitRequest",
    "__version__",
    "build_roadmap",
    "execute_job",
    "generate_corpus",
    "get_experiment",
    "mc",
    "render_table",
    "run_experiment",
    "run_grid",
    "run_trace",
    "runnable_experiments",
    "simulate_fabric",
    "simulate_fabric_sharded",
    "with_deadline",
]


def _all_modules():
    out = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        out.append(package)
        for info in pkgutil.iter_modules(package.__path__):
            out.append(
                importlib.import_module(f"{package_name}.{info.name}")
            )
    return out


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted_and_unique(self, package_name):
        exported = importlib.import_module(package_name).__all__
        assert list(exported) == sorted(set(exported)), package_name


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            module.__name__
            for module in _all_modules()
            if not (module.__doc__ or "").strip()
        ]
        assert not undocumented, undocumented

    def test_every_exported_item_documented(self):
        undocumented = []
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            for name in package.__all__:
                item = getattr(package, name)
                if inspect.isclass(item) or inspect.isfunction(item):
                    if not (item.__doc__ or "").strip():
                        undocumented.append(f"{package_name}.{name}")
        assert not undocumented, undocumented

    def test_public_methods_documented(self):
        undocumented = []
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            for name in package.__all__:
                item = getattr(package, name)
                if not inspect.isclass(item):
                    continue
                for method_name, method in inspect.getmembers(
                    item, inspect.isfunction
                ):
                    if method_name.startswith("_"):
                        continue
                    if method.__qualname__.split(".")[0] != item.__name__:
                        continue  # inherited
                    if not (method.__doc__ or "").strip():
                        undocumented.append(
                            f"{package_name}.{name}.{method_name}"
                        )
        assert not undocumented, undocumented


class TestTopLevelSurface:
    def test_exactly_the_pinned_surface(self):
        assert list(repro.__all__) == TOP_LEVEL_SURFACE

    def test_pinned_names_resolve(self):
        for name in TOP_LEVEL_SURFACE:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_service_contract_exports(self):
        # The v2 service surface: client, job contract, execution path.
        assert repro.ServiceClient.__module__ == "repro.client"
        assert repro.JobSpec is repro.service.JobSpec
        assert repro.JobResult is repro.service.JobResult
        assert repro.SubmitRequest is repro.service.SubmitRequest
        assert callable(repro.execute_job)


class TestVersionAndMain:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_version_is_v2(self):
        # The service layer is a major surface addition.
        major = int(repro.__version__.split(".")[0])
        assert major >= 2

    def test_cli_module_importable(self):
        module = importlib.import_module("repro.__main__")
        assert callable(module.main)
