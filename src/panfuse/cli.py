"""Command-line front end wiring the toolkit into reproducible pipelines.

Subcommands: ``synth``, ``degrade``, ``fuse``, ``train``, ``eval``, ``report``.
All stages read and write conventional file names under ``--out`` so they can
be chained; re-running a stage with identical inputs overwrites its outputs
with byte-identical files.  Exit codes: 0 success, 2 validation error,
3 numerical or training error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np

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
    "nyquist_gain": NYQUIST_GAIN,
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
        if values["ratio"] < 1:
            raise ConfigError(f"key 'ratio' must be >= 1, got {values['ratio']}")
        self.values = values

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


def _resolve_ratio(cfg: RunConfig, args) -> int:
    # explicit flag wins; otherwise the scene metadata; otherwise config default
    if getattr(args, "ratio", None) is not None:
        return int(args.ratio)
    path = _out_path(cfg, "scene.meta")
    if os.path.exists(path):
        meta = kv_parse(Path(path).read_bytes(), path)
        if "ratio" in meta:
            ratio = kv_value(meta, "ratio", int, path)
            if ratio < 1:
                raise ConfigError(f"{path}: key 'ratio' must be >= 1, got {ratio}")
            return ratio
    return cfg.ratio


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


def cmd_synth(args) -> int:
    cfg = RunConfig(args)
    scene = synth_scene(
        seed=cfg.seed,
        width=cfg.size,
        height=cfg.size,
        bands=cfg.bands,
        ratio=cfg.ratio,
        nyquist_gain=cfg.nyquist_gain,
    )
    os.makedirs(cfg.out, exist_ok=True)
    save_raster(scene.gt_hrms, _out_path(cfg, "gt.pfr"))
    save_raster(scene.ms, _out_path(cfg, "ms.pfr"))
    save_raster(scene.pan, _out_path(cfg, "pan.pfr"))
    gt = scene.gt_hrms
    meta = kv_format([
        ("seed", scene.seed), ("ratio", scene.ratio), ("bands", gt.band_count),
        ("width", gt.width), ("height", gt.height), ("nyquist_gain", scene.nyquist_gain),
        ("pan_weights", ",".join(repr(w) for w in scene.pan_weights)),
    ])
    Path(_out_path(cfg, "scene.meta")).write_text(meta, encoding="utf-8")
    print(f"wrote scene (seed={scene.seed}) to {cfg.out}")
    return 0


def cmd_degrade(args) -> int:
    cfg = RunConfig(args)
    ratio = _resolve_ratio(cfg, args)
    ms, pan = _load_ms_pan(cfg)
    ms_lo, pan_lo, reference = wald_reduce(ms, pan, ratio, cfg.nyquist_gain)
    os.makedirs(cfg.out, exist_ok=True)
    save_raster(ms_lo, _out_path(cfg, "ms_lo.pfr"))
    save_raster(pan_lo, _out_path(cfg, "pan_lo.pfr"))
    save_raster(reference, _out_path(cfg, "reference.pfr"))  # float32 round trip: same bytes
    print(f"wrote ms_lo/pan_lo/reference to {cfg.out}")
    return 0


def cmd_fuse(args) -> int:
    cfg = RunConfig(args)
    method = cfg.method
    if not method:
        raise ConfigError("missing required key 'method' (--method exp|cs|glp|gan)")
    ratio = _resolve_ratio(cfg, args)
    ms, pan = _load_ms_pan(cfg, ("_lo", ""))
    if method == "gan":
        if not cfg.checkpoint:
            raise ConfigError("method 'gan' requires --checkpoint PATH")
        params = load_checkpoint(cfg.checkpoint)
        product = gan.fuse(params, ms, pan, ratio)
    else:
        product = baseline_fuse(method, ms, pan, ratio, cfg.nyquist_gain)
    os.makedirs(cfg.out, exist_ok=True)
    out_path = _out_path(cfg, f"fused_{method}.pfr")
    save_raster(product, out_path)
    print(f"wrote {out_path}")
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig(args)
    ratio = _resolve_ratio(cfg, args)
    ms, pan = _load_ms_pan(cfg)
    params, log = gan.train(ms, pan, cfg.training_config(ratio))
    os.makedirs(cfg.out, exist_ok=True)
    ckpt = cfg.checkpoint or _out_path(cfg, "checkpoint.pfck")
    save_checkpoint(params, ckpt)
    Path(_out_path(cfg, "train_log.csv")).write_text(log.to_csv(), encoding="utf-8")
    final = log.rows[-1]
    print(f"wrote {ckpt} (final total_G = {final[-1]:.6g})")
    return 0


def _eval_label(cfg: RunConfig, fused_path: str) -> str:
    if cfg.label:
        return cfg.label
    stem = os.path.splitext(os.path.basename(fused_path))[0]
    return stem[6:] if stem.startswith("fused_") else stem


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


def cmd_eval(args) -> int:
    cfg = RunConfig(args)
    mode = cfg.mode
    if mode not in ("reduced", "full"):
        raise ConfigError("missing or bad key 'mode' (--mode reduced|full)")
    ratio = _resolve_ratio(cfg, args)
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
        pan_low = mtf_degrade(pan, ratio, cfg.nyquist_gain)
        report = evaluate_full(fused, ms, pan, pan_low, mcfg)
    kv_text = report.to_kv() + cfg.echo(ratio=ratio)
    os.makedirs(cfg.out, exist_ok=True)
    Path(_out_path(cfg, f"eval_{mode}_{label}.csv")).write_text(report.to_csv(), encoding="utf-8")
    Path(_out_path(cfg, f"eval_{mode}_{label}.kv")).write_text(kv_text, encoding="utf-8")
    sys.stdout.write(report.to_csv())
    return 0


def cmd_report(args) -> int:
    cfg = RunConfig(args)
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
    for mode in modes:
        Path(_out_path(cfg, f"report_{mode}.csv")).write_text(
            results_table_csv(results, mode), encoding="utf-8"
        )
    text = results_table_text(results, modes)
    Path(_out_path(cfg, "report.txt")).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panfuse",
        description="Pansharpening toolkit: synthetic scenes, fusion, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="seed for all stochastic behavior")
        p.add_argument("--ratio", type=int, help="PAN pixels per MS pixel per axis")
        p.add_argument("--out", help="workspace directory (default: current)")

    p = sub.add_parser("synth", help="write a synthetic scene as .pfr files")
    common(p)
    p.add_argument("--size", type=int, help="PAN-scale width and height")
    p.add_argument("--bands", type=int, help="number of spectral bands")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("degrade", help="Wald reduction: degrade ms/pan by the ratio")
    common(p)
    p.add_argument("--ms", help="input multispectral .pfr")
    p.add_argument("--pan", help="input pan .pfr")
    p.set_defaults(handler=cmd_degrade)

    p = sub.add_parser("fuse", help="run a fusion method")
    common(p)
    p.add_argument("--method", choices=["exp", "cs", "glp", "gan"])
    p.add_argument("--checkpoint", help="trained checkpoint (required for gan)")
    p.add_argument("--ms", help="input multispectral .pfr")
    p.add_argument("--pan", help="input pan .pfr")
    p.set_defaults(handler=cmd_fuse)

    p = sub.add_parser("train", help="train the generative fuser, write a checkpoint")
    common(p)
    p.add_argument("--ms", help="input multispectral .pfr")
    p.add_argument("--pan", help="input pan .pfr")
    p.add_argument("--iterations", type=int, help="training iterations")
    p.add_argument("--checkpoint", help="checkpoint output path")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="score a fused product")
    common(p)
    p.add_argument("--mode", choices=["reduced", "full"])
    p.add_argument("--fused", help="fused .pfr to score")
    p.add_argument("--gt", help="reference .pfr for reduced mode")
    p.add_argument("--ms", help="ms input for full mode")
    p.add_argument("--pan", help="pan input for full mode")
    p.add_argument("--label", help="method label used in report files")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("report", help="aggregate eval outputs into one table")
    common(p)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"panfuse: numerical error: {exc}", file=sys.stderr)
        return 3
    except (PanfuseError, OSError) as exc:
        print(f"panfuse: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
