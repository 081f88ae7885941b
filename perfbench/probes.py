"""Per-layer tracing of panfuse from outside the package.

Every public function the benchmark times is replaced by a wrapper in each
module that holds a reference to it (``harness`` and ``cli`` import names
directly, so ``metrics.evaluate_reduced`` and ``harness.evaluate_reduced`` are
both patched).  Backward time is taken by wrapping ``backward_fn`` on the
``TapeNode`` of every tensor a wrapped autodiff op returns.  Nothing under
``src/`` is changed; :meth:`Tracer.uninstall` restores every original.

Spans keep a per-thread stack, so a span's self time is its duration minus
the spans directly inside it, also when ``run_experiment`` runs cells on its
thread pool.  A span nested inside one of the same key (``raster.upsample``
calling ``upsample_band``) is not counted twice.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from collections import defaultdict

# autodiff ops that reach the tape in the train-256 and scene-1024 workloads
OPS = (
    "add", "sub", "mul", "div", "neg", "scalar_mul", "log", "sigmoid",
    "leaky_relu", "clamp_smooth", "mean", "variance", "covariance",
    "concat_channels", "channel_slice", "channel_weighted_sum", "block_mean",
    "conv2d",
)
GAN_LAYERS = (
    "gen.conv1", "gen.conv2", "gen.head",
    "dspec.conv1", "dspec.conv2", "dspec.conv3",
    "dspat.conv1", "dspat.conv2", "dspat.conv3",
)
METRIC_FNS = ("sam_global", "cc", "q4", "ergas", "d_lambda", "d_s")
RASTER_FNS = ("upsample", "mtf_degrade", "estimate_weights", "detail_inject", "save_raster")
BASELINES = ("exp", "cs", "glp")
CLI_STAGES = ("synth", "degrade", "fuse", "eval", "report")


def per_layer_metrics():
    """(name, unit, better) for every per-layer metric a traced run reports."""
    out = []
    for op in OPS:
        out += [(f"autodiff.{op}.fwd_ms", "ms", "lower"),
                (f"autodiff.{op}.bwd_ms", "ms", "lower"),
                (f"autodiff.{op}.calls", "count", "lower")]
    out += [("autodiff.conv2d.gflop", "GFLOP", "lower"),
            ("autodiff.conv2d.gflops", "GFLOP/s", "higher"),
            ("autodiff.backward.ms", "ms", "lower"),
            ("autodiff.backward.nodes", "count", "lower"),
            ("autodiff.adam_step.ms", "ms", "lower")]
    for layer in GAN_LAYERS:
        out += [(f"gan.{layer}.fwd_ms", "ms", "lower"), (f"gan.{layer}.bwd_ms", "ms", "lower")]
    out += [("gan.spectral_loss.ms", "ms", "lower"),
            ("gan.discriminator_loss.ms", "ms", "lower"),
            ("gan.fuse.ms", "ms", "lower"),
            ("gan.fuse.peak_mb", "MB", "lower")]
    out += [(f"metrics.{fn}.ms", "ms", "lower") for fn in METRIC_FNS]
    out += [("metrics.uiqi.self_ms", "ms", "lower"), ("metrics.windows", "count", "lower")]
    out += [(f"raster.{fn}.ms", "ms", "lower") for fn in RASTER_FNS]
    out += [("raster.load_raster.pfr_ms", "ms", "lower"),
            ("raster.load_raster.png_ms", "ms", "lower")]
    out += [("harness.synth_scene.ms", "ms", "lower"), ("harness.wald_reduce.ms", "ms", "lower")]
    out += [(f"harness.baseline_fuse.{m}.ms", "ms", "lower") for m in BASELINES]
    out += [("harness.parallel_efficiency", "ratio", "higher")]
    for stage in CLI_STAGES:
        out += [(f"cli.{stage}.ms", "ms", "lower"), (f"cli.{stage}.self_ms", "ms", "lower")]
    out += [("trace.overhead_ms", "ms", "lower"), ("trace.overhead_pct", "%", "lower")]
    return out


class Tracer:
    """Accumulates span times (ms), counts and peaks while installed."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.peaks = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self._layer_maps = []  # id(weight tensor) -> layer, one map per active forward

    # -- recording ---------------------------------------------------------

    def add(self, name, value):
        with self._lock:
            self.totals[name] += value

    def peak(self, name, value):
        with self._lock:
            self.peaks[name] = max(self.peaks[name], value)

    def span(self, key, fn, args, kwargs, total=None, self_name=None, also=()):
        """Call fn; add its duration in ms to ``total`` and ``also`` and its self
        time to ``self_name``.  ``key`` identifies the span for nesting."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if any(entry[0] == key for entry in stack):
            return fn(*args, **kwargs)
        entry = [key, 0.0]
        stack.append(entry)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            with self._lock:
                for name in (total, *also):
                    if name is not None:
                        self.totals[name] += dt * 1e3
                if self_name is not None:
                    self.totals[self_name] += (dt - entry[1]) * 1e3

    # -- patching ------------------------------------------------------------

    def _replace(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _timed(self, modules, original, total=None, self_name=None, key_of=None):
        def wrapper(*args, **kwargs):
            name = key_of(args, kwargs) if key_of else total
            return self.span(name or self_name, original, args, kwargs,
                             total=name, self_name=self_name)
        self._replace(modules, original, functools.wraps(original)(wrapper))

    def install(self, pf):
        """Wrap the layers of the ``panfuse`` package object ``pf``."""
        ad, gan, metrics, raster, harness, cli = (
            pf.autodiff, pf.gan, pf.metrics, pf.raster, pf.harness, pf.cli)
        mods = (raster, metrics, ad, gan, harness, cli)

        for op in OPS:
            self._wrap_op(mods, ad, op)
        self._timed(mods, ad.backward, total="autodiff.backward.ms")
        self._timed(mods, ad.adam_step, total="autodiff.adam_step.ms")
        for cls, attr in ((gan.GeneratorSpec, "forward_from"), (gan.DiscriminatorSpec, "forward")):
            self._wrap_forward(cls, attr)

        self._timed(mods, gan.spectral_loss, total="gan.spectral_loss.ms")
        self._timed(mods, gan.discriminator_loss, total="gan.discriminator_loss.ms")
        fuse = gan.fuse

        def traced_fuse(*args, **kwargs):
            tracemalloc.start()
            try:
                return self.span("gan.fuse.ms", fuse, args, kwargs, total="gan.fuse.ms")
            finally:
                self.peak("gan.fuse.peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
        self._replace(mods, fuse, functools.wraps(fuse)(traced_fuse))

        for fn in METRIC_FNS:
            self._timed(mods, getattr(metrics, fn), total=f"metrics.{fn}.ms")
        # UIQI has no function of its own: it is evaluate_reduced's self time
        self._timed(mods, metrics.evaluate_reduced, self_name="metrics.uiqi.self_ms")
        origins = metrics._window_origins

        def counted_origins(*args, **kwargs):
            result = origins(*args, **kwargs)
            self.add("metrics.windows", len(result))
            return result
        self._replace(mods, origins, functools.wraps(origins)(counted_origins))

        for fn in RASTER_FNS:
            self._timed(mods, getattr(raster, fn), total=f"raster.{fn}.ms")
        self._timed(mods, raster.upsample_band, total="raster.upsample.ms")
        self._timed(mods, raster.load_raster, key_of=lambda a, k: "raster.load_raster.%s_ms" % (
            "png" if str(a[0] if a else k["path"]).lower().endswith(".png") else "pfr"))

        self._timed(mods, harness.synth_scene, total="harness.synth_scene.ms")
        self._timed(mods, harness.wald_reduce, total="harness.wald_reduce.ms")
        self._timed(mods, harness.baseline_fuse, key_of=lambda a, k: "harness.baseline_fuse.%s.ms" % (
            a[0] if a else k["method"]))

        for stage in CLI_STAGES:
            self._timed(mods, getattr(cli, f"cmd_{stage}"), total=f"cli.{stage}.ms",
                        self_name=f"cli.{stage}.self_ms")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- autodiff and gan specifics -------------------------------------------

    def _wrap_forward(self, cls, attr):
        original = getattr(cls, attr)

        def forward(spec, params, *args, **kwargs):
            # match conv weights to their ParameterSet names for this pass
            layers = {id(t): name.rsplit(".", 1)[0] for name, t in params.items()
                      if name.endswith(".weight")}
            self._layer_maps.append(layers)
            try:
                return original(spec, params, *args, **kwargs)
            finally:
                self._layer_maps.pop()
        self._patches.append((cls, attr, original))
        setattr(cls, attr, functools.wraps(original)(forward))

    def _wrap_op(self, mods, ad, op):
        original = getattr(ad, op)
        fwd_name, bwd_name = f"autodiff.{op}.fwd_ms", f"autodiff.{op}.bwd_ms"

        def wrapper(*args, **kwargs):
            layer, flop = None, 0.0
            if op == "conv2d":
                weight = args[1] if len(args) > 1 else kwargs["weight"]
                if self._layer_maps:
                    layer = self._layer_maps[-1].get(id(weight))
            also = (f"gan.{layer}.fwd_ms",) if layer else ()
            out = self.span(fwd_name, original, args, kwargs, total=fwd_name, also=also)
            self.add(f"autodiff.{op}.calls", 1)
            if op == "conv2d":
                # one multiply-add per weight tap per output sample
                _, c_in, k, _ = weight.data.shape
                flop = 2.0 * c_in * k * k * out.data.size
                self.add("autodiff.conv2d.gflop", flop / 1e9)
            node = out.node
            if node is not None:
                node.backward_fn = self._timed_pullback(node.backward_fn, bwd_name, layer, flop)
            return out
        self._replace(mods, original, functools.wraps(original)(wrapper))

    def _timed_pullback(self, pullback, bwd_name, layer, flop):
        also = (f"gan.{layer}.bwd_ms",) if layer else ()

        def timed(g, needs):
            self.add("autodiff.backward.nodes", 1)
            if flop:
                # grad_x and grad_w each cost one forward's multiply-adds
                self.add("autodiff.conv2d.gflop", flop * (bool(needs[0]) + bool(needs[1])) / 1e9)
            return self.span(bwd_name, pullback, (g, needs), {}, total=bwd_name, also=also)
        return timed

    # -- reduction -----------------------------------------------------------

    def per_unit(self, units):
        """Totals divided by the number of work units traced; peaks as they are."""
        values = {name: total / units for name, total in self.totals.items()}
        values.update(self.peaks)
        conv_ms = values.get("autodiff.conv2d.fwd_ms", 0.0) + values.get("autodiff.conv2d.bwd_ms", 0.0)
        if conv_ms > 0.0:
            values["autodiff.conv2d.gflops"] = values["autodiff.conv2d.gflop"] / (conv_ms / 1e3)
        return values
