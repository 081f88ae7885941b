"""Command-line front end wiring the toolkit into reproducible pipelines.

Subcommands: ``synth``, ``degrade``, ``fuse``, ``train``, ``eval``, ``report``.
All stages read and write conventional file names under ``--out`` so they can
be chained; re-running a stage with identical inputs overwrites its outputs
with byte-identical files.  A stage only computes and returns its outputs;
:func:`main` then writes all of them or none, a guarantee that covers a failed
or killed process but not a power loss (see :func:`_write_outputs`).  Exit
codes: 0 success, 2 validation error or out of memory, 3 numerical or training
error, 130 interrupted (SIGINT), 143 terminated (SIGTERM).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from . import gan
from .autodiff import load_checkpoint, save_checkpoint
from .errors import ConfigError, NumericalError, PanfuseError
from .harness import (
    ExperimentResult,
    baseline_fuse,
    results_table_csv,
    results_table_text,
    synth_scene,
    wald_reduce,
)
from .metrics import (
    MetricConfig,
    QualityReport,
    evaluate_full,
    evaluate_reduced,
)
from .raster import (
    NYQUIST_GAIN,
    MultispectralImage,
    RasterBand,
    kv_format,
    kv_parse,
    kv_value,
    load_raster,
    mtf_degrade,
    save_raster,
)

# The run settings: the fields of MetricConfig (less the pixel-size ratio, which eval
# derives from the scene) and TrainingConfig, then the CLI's own keys.  A value takes
# the type of its default; keys that default to None are strings.
CONFIG_DEFAULTS = {
    **{f.name: f.default for f in fields(MetricConfig) if f.name != "ratio"},
    **{f.name: f.default for f in fields(gan.TrainingConfig)},
    "size": 256,
    "bands": 4,
    "out": ".",
    **dict.fromkeys(("ms", "pan", "gt", "fused", "checkpoint", "method", "mode", "label")),
}
_CONFIG_TYPES = {key: str if v is None else type(v) for key, v in CONFIG_DEFAULTS.items()}


def parse_kv_file(path) -> dict:
    """Read a config file of known keys, each converted to the type of its default."""
    source = str(path)
    values = kv_parse(Path(path).read_bytes(), source)
    for key in values:
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{source}: unknown config key {key!r}")
    return {key: kv_value(values, key, _CONFIG_TYPES[key], source) for key in values}


class RunConfig:
    """Flat resolved configuration: defaults, then config file, then CLI flags."""

    def __init__(self, args: argparse.Namespace):
        values = dict(CONFIG_DEFAULTS)
        config_path = getattr(args, "config", None)
        if config_path:
            values.update(parse_kv_file(config_path))
        for key in CONFIG_DEFAULTS:
            flag = getattr(args, key, None)
            if flag is not None:
                values[key] = flag
        self.values = values
        self.ratio_flag = getattr(args, "ratio", None) is not None

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError as exc:
            raise AttributeError(key) from exc

    def _build(self, config_class, ratio):
        """``config_class`` from these values, with the scene's ``ratio``."""
        values = {f.name: self.values[f.name] for f in fields(config_class) if f.name != "ratio"}
        return config_class(**values, ratio=ratio)

    def metric_config(self, ratio: int) -> MetricConfig:
        return self._build(MetricConfig, Fraction(1, ratio))

    def training_config(self, ratio: int) -> gan.TrainingConfig:
        return self._build(gan.TrainingConfig, ratio)

    def echo(self, ratio: int) -> str:
        values = dict(self.values, ratio=ratio)
        return kv_format(
            (f"config.{key}", values[key])
            for key in sorted(values)
            if values[key] is not None
        )


def _out_path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out, name)


def _resolve_input(cfg: RunConfig, key: str, candidates) -> str:
    explicit = getattr(cfg, key)
    if explicit:
        return explicit
    for name in candidates:
        path = _out_path(cfg, name)
        if os.path.exists(path):
            return path
    raise ConfigError(
        f"no --{key} given and none of {candidates} exist under {cfg.out!r}"
    )


def _resolve_ratio(cfg: RunConfig) -> int:
    """--ratio wins; otherwise the ratio of scene.meta under --out; otherwise the config's."""
    ratio, source = cfg.ratio, ""
    path = _out_path(cfg, "scene.meta")
    if not cfg.ratio_flag and os.path.exists(path):
        meta = kv_parse(Path(path).read_bytes(), path)
        if "ratio" in meta:
            ratio, source = kv_value(meta, "ratio", int, path), f"{path}: "
    if ratio < 1:
        raise ConfigError(f"{source}key 'ratio' must be >= 1, got {ratio}")
    return ratio


def _load_ms_pan(cfg: RunConfig, suffixes=("",)):
    """Load the MS/PAN pair: --ms/--pan, or else the first of ms<suffix>.pfr /
    pan<suffix>.pfr under --out, trying ``suffixes`` in order."""
    ms_path = _resolve_input(cfg, "ms", tuple(f"ms{s}.pfr" for s in suffixes))
    pan_path = _resolve_input(cfg, "pan", tuple(f"pan{s}.pfr" for s in suffixes))
    ms = load_raster(ms_path)
    pan = load_raster(pan_path)
    if not isinstance(ms, MultispectralImage) or not isinstance(pan, RasterBand):
        raise ConfigError(
            f"expected a multiband ms file ({ms_path}) and a single-band pan file ({pan_path})"
        )
    return ms, pan


def cmd_synth(cfg: RunConfig):
    scene = synth_scene(
        seed=cfg.seed,
        width=cfg.size,
        height=cfg.size,
        bands=cfg.bands,
        ratio=cfg.ratio,
    )
    gt = scene.gt_hrms
    meta = kv_format([
        ("seed", scene.seed), ("ratio", scene.ratio), ("bands", gt.band_count),
        ("width", gt.width), ("height", gt.height), ("nyquist_gain", NYQUIST_GAIN),
        ("pan_weights", ",".join(repr(float(w)) for w in scene.pan_weights)),
    ])
    outputs = {"gt.pfr": gt, "ms.pfr": scene.ms, "pan.pfr": scene.pan, "scene.meta": meta}
    return outputs, f"wrote scene (seed={scene.seed}) to {cfg.out}\n"


def cmd_degrade(cfg: RunConfig):
    ratio = _resolve_ratio(cfg)
    ms, pan = _load_ms_pan(cfg)
    ms_lo, pan_lo, reference = wald_reduce(ms, pan, ratio)
    # reference is the ms input: its float32 round trip writes the same bytes
    outputs = {"ms_lo.pfr": ms_lo, "pan_lo.pfr": pan_lo, "reference.pfr": reference}
    return outputs, f"wrote ms_lo/pan_lo/reference to {cfg.out}\n"


def cmd_fuse(cfg: RunConfig):
    method = cfg.method
    if not method:
        raise ConfigError("missing required key 'method' (--method exp|cs|glp|gan)")
    ratio = _resolve_ratio(cfg)
    ms, pan = _load_ms_pan(cfg, ("_lo", ""))
    if method == "gan":
        if not cfg.checkpoint:
            raise ConfigError("method 'gan' requires --checkpoint PATH")
        params = load_checkpoint(cfg.checkpoint)
        product = gan.fuse(params, ms, pan, ratio)
    else:
        product = baseline_fuse(method, ms, pan, ratio)
    name = f"fused_{method}.pfr"
    return {name: product}, f"wrote {_out_path(cfg, name)}\n"


def cmd_train(cfg: RunConfig):
    ratio = _resolve_ratio(cfg)
    ckpt = cfg.checkpoint or _out_path(cfg, "checkpoint.pfck")
    if os.path.realpath(ckpt) == os.path.realpath(_out_path(cfg, "train_log.csv")):
        raise ConfigError(f"key 'checkpoint' names the training log {ckpt!r}")
    ms, pan = _load_ms_pan(cfg)
    params, log = gan.train(ms, pan, cfg.training_config(ratio))
    # absolute, since --checkpoint is a path of its own, not a name under --out
    outputs = {os.path.abspath(ckpt): params, "train_log.csv": log.to_csv()}
    return outputs, f"wrote {ckpt} (final total_G = {log.rows[-1][-1]:.6g})\n"


def _eval_label(cfg: RunConfig, fused_path: str) -> str:
    """The report label: --label, else the fused file's stem less ``fused_``.  It is a
    file name part and a report table cell, so it may hold no separator of either,
    and it may not be empty, which ``report`` could not tell from no label."""
    label = cfg.label
    if not label:
        stem = os.path.splitext(os.path.basename(fused_path))[0]
        label = stem[6:] if stem.startswith("fused_") else stem
    if not label:
        raise ConfigError(f"key 'label' must not be empty; the fused file {fused_path!r} "
                          "gives none, so pass --label")
    bad = {",", "\n", "\r", "/", os.sep} & set(label)
    if bad:
        raise ConfigError(f"key 'label' must not contain {sorted(bad)}, got {label!r}")
    return label


def _find_fused(cfg: RunConfig) -> str:
    if cfg.fused:
        return cfg.fused
    candidates = sorted(
        name for name in os.listdir(cfg.out)
        if name.startswith("fused_") and name.endswith(".pfr")
    )
    if len(candidates) == 1:
        return _out_path(cfg, candidates[0])
    if not candidates:
        raise ConfigError(f"no fused_*.pfr under {cfg.out!r}; pass --fused PATH")
    raise ConfigError(
        f"multiple fused products under {cfg.out!r}: {candidates}; pass --fused PATH"
    )


def cmd_eval(cfg: RunConfig):
    mode = cfg.mode
    if mode not in ("reduced", "full"):
        raise ConfigError("missing or bad key 'mode' (--mode reduced|full)")
    ratio = _resolve_ratio(cfg)
    mcfg = cfg.metric_config(ratio)
    fused_path = _find_fused(cfg)
    label = _eval_label(cfg, fused_path)
    fused = load_raster(fused_path)
    if not isinstance(fused, MultispectralImage):
        raise ConfigError("fused input must be multiband")
    if mode == "reduced":
        gt_path = _resolve_input(cfg, "gt", ("reference.pfr", "gt.pfr"))
        gt = load_raster(gt_path)
        if not isinstance(gt, MultispectralImage):
            raise ConfigError("ground truth must be multiband")
        report = evaluate_reduced(fused, gt, mcfg)
    else:
        ms, pan = _load_ms_pan(cfg, ("_lo", ""))
        pan_low = mtf_degrade(pan, ratio)
        report = evaluate_full(fused, ms, pan, pan_low, mcfg)
    stem = f"eval_{mode}_{label}"
    outputs = {f"{stem}.csv": report.to_csv(), f"{stem}.kv": report.to_kv() + cfg.echo(ratio)}
    return outputs, report.to_csv()


def cmd_report(cfg: RunConfig):
    results = []
    for name in sorted(os.listdir(cfg.out)):
        if not (name.startswith("eval_") and name.endswith(".kv")):
            continue
        stem = name[5:-3]
        mode, _, label = stem.partition("_")
        if mode not in ("reduced", "full") or not label:
            continue
        path = _out_path(cfg, name)
        report = QualityReport.parse_kv(Path(path).read_bytes(), path)
        results.append(ExperimentResult(label, mode, report, wall_time=0.0))
    if not results:
        raise ConfigError(f"no eval_*.kv files under {cfg.out!r}; run `eval` first")
    results.sort(key=lambda res: res.method)
    modes = [m for m in ("reduced", "full") if any(res.mode == m for res in results)]
    outputs = {f"report_{mode}.csv": results_table_csv(results, mode) for mode in modes}
    text = outputs["report.txt"] = results_table_text(results, modes)
    return outputs, text


# Each flag once: its argparse keywords.  A flag of a config key parses to the
# type of that key's default.
_FLAGS = {
    "config": dict(help="key = value config file"),
    "seed": dict(help="seed for all stochastic behavior"),
    "ratio": dict(help="PAN pixels per MS pixel per axis"),
    "out": dict(help="workspace directory (default: current)"),
    "size": dict(help="PAN-scale width and height"),
    "bands": dict(help="number of spectral bands"),
    "ms": dict(help="input multispectral .pfr"),
    "pan": dict(help="input pan .pfr"),
    "method": dict(choices=["exp", "cs", "glp", "gan"]),
    "checkpoint": dict(help="checkpoint path: written by train, read by fuse gan"),
    "iterations": dict(help="training iterations"),
    "mode": dict(choices=["reduced", "full"]),
    "fused": dict(help="fused .pfr to score"),
    "gt": dict(help="reference .pfr for reduced mode"),
    "label": dict(help="method label used in report files"),
}
_COMMON_FLAGS = ("config", "seed", "ratio", "out")
# Each stage: its help and the flags it takes beyond the common ones; its handler
# is the module's cmd_<stage>.
_STAGES = {
    "synth": ("write a synthetic scene as .pfr files", ("size", "bands")),
    "degrade": ("Wald reduction: degrade ms/pan by the ratio", ("ms", "pan")),
    "fuse": ("run a fusion method", ("method", "checkpoint", "ms", "pan")),
    "train": ("train the generative fuser, write a checkpoint",
              ("ms", "pan", "iterations", "checkpoint")),
    "eval": ("score a fused product", ("mode", "fused", "gt", "ms", "pan", "label")),
    "report": ("aggregate eval outputs into one table", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panfuse",
        description="Pansharpening toolkit: synthetic scenes, fusion, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage, (help_text, flags) in _STAGES.items():
        p = sub.add_parser(stage, help=help_text)
        for flag in (*_COMMON_FLAGS, *flags):
            p.add_argument(f"--{flag}", type=_CONFIG_TYPES.get(flag, str), **_FLAGS[flag])
        # looked up when the parser is built, so that a patched cmd_<stage> is called
        p.set_defaults(handler=globals()[f"cmd_{stage}"])
    return parser


def _write_outputs(out: str, outputs: dict) -> None:
    """Write a stage's ``{path: image | ParameterSet | text}`` outputs, all or none.
    A path is relative to ``out``, unless it is absolute.

    Makes ``out``, writes each output to ``.<name>.<pid>.tmp`` beside its target
    (a name that no stage reads and no search of --out matches), and only after
    every write succeeded moves each into place with ``os.replace``, in the given
    order.  On an error it removes its temporary files and re-raises, and every
    target keeps its previous bytes.  Nothing is fsynced: the guarantee holds for
    a process that fails or is killed, not for a power loss.
    """
    os.makedirs(out, exist_ok=True)
    paths = [os.path.join(out, path) for path in outputs]
    temps = []
    try:
        for path, value in zip(paths, outputs.values()):
            head, name = os.path.split(path)
            temps.append(os.path.join(head, f".{name}.{os.getpid()}.tmp"))
            if isinstance(value, str):
                Path(temps[-1]).write_text(value, encoding="utf-8")
            elif isinstance(value, (RasterBand, MultispectralImage)):
                save_raster(value, temps[-1])
            else:
                save_checkpoint(value, temps[-1])
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            if os.path.isfile(temp):
                os.remove(temp)
        raise


class _Terminated(BaseException):
    """SIGTERM, raised where the main thread runs, as KeyboardInterrupt is for SIGINT."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a signal handler can only be set from the main thread
    in_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if in_main else None
    try:
        cfg = RunConfig(args)
        outputs, text = args.handler(cfg)
        _write_outputs(cfg.out, outputs)
    except NumericalError as exc:
        print(f"panfuse: numerical error: {exc}", file=sys.stderr)
        return 3
    except (PanfuseError, OSError) as exc:
        print(f"panfuse: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"panfuse: out of memory in {args.command}", file=sys.stderr)
        return 2
    except (KeyboardInterrupt, _Terminated) as exc:
        print(f"panfuse: interrupted in {args.command}", file=sys.stderr)
        return 130 if isinstance(exc, KeyboardInterrupt) else 143
    finally:
        if in_main:
            # None: a handler set outside Python, which cannot be set again from here
            signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
