"""Public-API surface tests."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg
)


class TestPublicApi:
    def test_version(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_subpackage_exports_resolve(self, package):
        module = importlib.import_module(package)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{package}.__all__ names missing attributes: {missing}"

    def test_quickstart_symbols(self):
        # The README's quickstart must keep working.
        assert callable(repro.capture_trace)
        assert callable(repro.laboratory_scenario)
        assert callable(repro.PhaseBeat)

    def test_subpackages_importable(self):
        import repro.baselines  # noqa: F401
        import repro.core  # noqa: F401
        import repro.dsp  # noqa: F401
        import repro.eval  # noqa: F401
        import repro.io_  # noqa: F401
        import repro.physio  # noqa: F401
        import repro.rf  # noqa: F401
