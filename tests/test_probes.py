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


def test_tracer_times_the_cli_stages(tmp_path):
    # the parser looks each handler up by its module name, so a patched cmd_<stage> runs
    probes = load_probes()
    tracer = probes.Tracer()
    tracer.install(panfuse)
    try:
        assert cli.main(["synth", "--size", "16", "--ratio", "2", "--bands", "2",
                         "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.totals["cli.synth.ms"] > 0
