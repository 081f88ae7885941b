"""The benchmark's per-layer probes still find every name they wrap in the package."""

import importlib.util
from pathlib import Path

import panfuse
# Tracer.install reads these as attributes of the package
from panfuse import autodiff, cli, gan, harness, metrics, raster  # noqa: F401

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    probes = load_probes()
    originals = {(mod, name): getattr(mod, name)
                 for mod, names in ((panfuse.metrics, probes.METRIC_FNS),
                                    (panfuse.raster, probes.RASTER_FNS))
                 for name in names}
    tracer = probes.Tracer()
    tracer.install(panfuse)  # an AttributeError here names a wrapped function that is gone
    try:
        assert all(getattr(mod, name) is not fn for (mod, name), fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(getattr(mod, name) is fn for (mod, name), fn in originals.items())
