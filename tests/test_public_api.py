"""Public-API surface checks.

Guards the import structure a downstream user relies on: top-level
re-exports exist, every name in each subpackage's ``__all__`` resolves,
and the version marker is sane.
"""

import importlib

import pytest

import repro

SUBPACKAGES = (
    "repro.solver",
    "repro.powermarket",
    "repro.datacenter",
    "repro.workload",
    "repro.core",
    "repro.sim",
    "repro.routing",
    "repro.experiments",
    "repro.telemetry",
    "repro.resilience",
)


class TestTopLevel:
    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_headline_exports(self):
        for name in (
            "BillCapper",
            "Budgeter",
            "CostMinimizer",
            "ThroughputMaximizer",
            "MinOnlyDispatcher",
            "PriceMode",
            "Site",
            "Engine",
            "SimulationResult",
            "PaperWorld",
            "paper_world",
        ):
            assert hasattr(repro, name), name

    def test_all_matches_attributes(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


@pytest.mark.parametrize("module_name", SUBPACKAGES)
class TestSubpackages:
    def test_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_all_is_deduplicated(self, module_name):
        module = importlib.import_module(module_name)
        names = list(getattr(module, "__all__", ()))
        assert len(names) == len(set(names))


class TestCliEntry:
    def test_module_entry_file_exists(self):
        # `repro.__main__` calls sys.exit on import (as __main__ shims
        # do), so assert its presence without importing it.
        import pathlib

        assert (pathlib.Path(repro.__file__).parent / "__main__.py").exists()

    def test_parser_builds(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.prog == "repro"
