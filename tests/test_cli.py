import os
import re
import signal
import struct
import subprocess
import sys
import threading
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import panfuse
from panfuse.autodiff import ParameterSet, save_checkpoint
from panfuse.cli import CONFIG_DEFAULTS, main, parse_kv_file
from panfuse.errors import ConfigError
from panfuse.gan import GeneratorSpec
from panfuse.harness import parse_results_table, synth_scene
from panfuse.metrics import QualityReport
from panfuse.raster import (
    MultispectralImage,
    RasterBand,
    kv_format,
    kv_parse,
    load_raster,
    save_raster,
)


def run(args) -> int:
    return main(args)


def overflow_fuse_args(tmp_path) -> list:
    """``fuse --method exp`` on a valid 2-band 4x4 MS of +-3.3e38 samples in
    a checkerboard, whose bicubic upsample overshoots the float32 range."""
    sign = np.where(np.indices((4, 4)).sum(0) % 2, 1.0, -1.0)
    ms, pan = tmp_path / "big_ms.pfr", tmp_path / "big_pan.pfr"
    save_raster(MultispectralImage(np.stack([3.3e38 * sign, -3.3e38 * sign])), ms)
    save_raster(RasterBand(np.full((16, 16), 0.5)), pan)
    return ["fuse", "--method", "exp", "--ratio", "4", "--ms", str(ms), "--pan", str(pan),
            "--out", str(tmp_path / "big")]


def synth_args(out, size=64, ratio=4, seed=7, bands=4):
    return [
        "synth",
        "--seed", str(seed),
        "--size", str(size),
        "--bands", str(bands),
        "--ratio", str(ratio),
        "--out", str(out),
    ]


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("window = 8   # tile size\nstride = 8\nmethod = cs\n\nseed = 5\n")
        values = parse_kv_file(path)
        assert values == {"window": 8, "stride": 8, "method": "cs", "seed": 5}

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("wibble = 3\n")
        with pytest.raises(ConfigError, match="wibble"):
            parse_kv_file(path)

    def test_readme_lists_every_key(self):
        # the README's config paragraph names each key of CONFIG_DEFAULTS, and no other
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = " ".join(readme.read_text(encoding="utf-8").split())
        start = text.index("Its keys are")
        paragraph = text[start : text.index("Unknown keys are rejected", start)]
        assert set(re.findall(r"`([a-z_][a-z0-9_]*)`", paragraph)) == set(CONFIG_DEFAULTS)

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("window = soon\n")
        with pytest.raises(ConfigError, match="window"):
            parse_kv_file(path)


    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("window = 8\n\nstride 8\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:3:"):
            parse_kv_file(path)


# a key or value kv_parse reads back unchanged: no `#`, no NUL, no line break,
# no surrounding whitespace; keys are non-empty and hold no `=`
_KV_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).filter(
    lambda t: not {"#", "\x00"} & set(t) and t == t.strip() and len(t.splitlines()) <= 1
)


class TestKeyValueFormat:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(_KV_TEXT.filter(lambda k: k and "=" not in k), _KV_TEXT, max_size=8))
    def test_written_pairs_read_back(self, pairs):
        text = kv_format(pairs.items())
        assert list(kv_parse(text, "t").items()) == list(pairs.items())
        assert kv_parse(text.encode("utf-8"), "t") == pairs

    @pytest.mark.parametrize("key,value", [("a=b", 1), ("", 1), ("a", "x # y"), ("a", "x\ny"), ("a", " x"),
                                           ("a", "x\x00y")])
    def test_writer_rejects_what_would_not_read_back(self, key, value):
        with pytest.raises(ConfigError):
            kv_format([(key, value)])


class TestPipeline:
    def test_synth_degrade_fuse_eval(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(synth_args(out)) == 0
        for name in ("gt.pfr", "ms.pfr", "pan.pfr", "scene.meta"):
            assert (out / name).exists()
        assert run(["degrade", "--out", str(out)]) == 0
        ms_lo = load_raster(out / "ms_lo.pfr")
        assert (ms_lo.height, ms_lo.width) == (4, 4)
        assert (out / "reference.pfr").read_bytes() == (out / "ms.pfr").read_bytes()
        assert run(["fuse", "--method", "exp", "--out", str(out)]) == 0
        fused = load_raster(out / "fused_exp.pfr")
        assert (fused.height, fused.width) == (16, 16)
        assert (
            run(
                [
                    "eval",
                    "--mode", "reduced",
                    "--out", str(out),
                    "--config", str(_window_cfg(tmp_path, 8)),
                ]
            )
            == 0
        )
        report = QualityReport.parse_kv((out / "eval_reduced_exp.kv").read_text())
        assert report.entries["CC"] < 1.0
        csv_text = (out / "eval_reduced_exp.csv").read_text()
        assert csv_text.splitlines()[0] == "SAM,CC,UIQI,Q4,ERGAS"

    def test_scene_meta_pan_weights_are_numbers(self, tmp_path):
        out = tmp_path / "run"
        assert run(synth_args(out, size=16, ratio=2, bands=3)) == 0
        meta = kv_parse((out / "scene.meta").read_bytes(), "scene.meta")
        weights = [float(w) for w in meta["pan_weights"].split(",")]
        assert weights == synth_scene(7, 16, 16, 3, 2).pan_weights.tolist()

    def test_eval_self_is_ideal(self, tmp_path):
        out = tmp_path / "run"
        run(synth_args(out))
        # score the ground truth against itself in reduced mode
        code = run(
            [
                "eval",
                "--mode", "reduced",
                "--fused", str(out / "gt.pfr"),
                "--gt", str(out / "gt.pfr"),
                "--label", "self",
                "--out", str(out),
                "--config", str(_window_cfg(tmp_path, 8)),
            ]
        )
        assert code == 0
        report = QualityReport.parse_kv((out / "eval_reduced_self.kv").read_text())
        assert report.entries["SAM"] == 0.0
        assert report.entries["ERGAS"] == 0.0
        assert abs(report.entries["CC"] - 1.0) < 1e-12

    def test_eval_takes_the_scene_ratio(self, tmp_path):
        # no --ratio: eval must score and echo the ratio of scene.meta
        out = tmp_path / "run"
        assert run(synth_args(out, size=32, ratio=2)) == 0
        assert run(["fuse", "--method", "exp", "--out", str(out)]) == 0
        assert run(["eval", "--mode", "reduced", "--out", str(out)]) == 0
        pairs = kv_parse((out / "eval_reduced_exp.kv").read_bytes(), "eval_reduced_exp.kv")
        assert pairs["ratio"] == "1/2"
        assert pairs["config.ratio"] == "2"

    def test_eval_scores_a_nearly_flat_window(self, tmp_path):
        # the top-right 32 x 32 window is 1.0 but for one pixel one float32 step
        # below it, another pixel in each file: its one-pass variance cancels
        paths = [tmp_path / "fused.pfr", tmp_path / "gt.pfr"]
        for (y, x), path in zip(((3, 37), (20, 50)), paths):
            a = np.zeros((4, 64, 64))
            a[:, :32, 32:] = 1.0
            a[:, y, x] = np.nextafter(np.float32(1.0), np.float32(0.0))
            save_raster(MultispectralImage(a), path)
        assert run(["eval", "--mode", "reduced", "--fused", str(paths[0]), "--gt", str(paths[1]),
                    "--label", "flat", "--out", str(tmp_path)]) == 0
        report = QualityReport.parse_kv((tmp_path / "eval_reduced_flat.kv").read_text())
        f, g = (load_raster(path).data for path in paths)
        expected = np.mean([oracles.naive_uiqi(a, b, 32, 32) for a, b in zip(f, g)])
        assert abs(report.entries["UIQI"] - expected) < 1e-10

    def test_eval_echoes_every_config_key(self, tmp_path):
        # every setting at its default; the keys that default to None are set, so
        # that all 16 keys are echoed
        out = tmp_path / "run"
        run(synth_args(out))
        run(["fuse", "--method", "exp", "--out", str(out)])
        given = {
            "checkpoint": out / "c.pfck", "fused": out / "fused_exp.pfr", "gt": out / "gt.pfr",
            "label": "pinned", "method": "exp", "ms": out / "ms.pfr", "pan": out / "pan.pfr",
        }
        cfg = tmp_path / "paths.cfg"
        cfg.write_text(kv_format(given.items()))
        assert run(["eval", "--mode", "reduced", "--config", str(cfg), "--out", str(out)]) == 0
        echo = dict(
            given, bands=4, iterations=500, mode="reduced", out=out, ratio=4, seed=0, size=256,
            stride=32, window=32,
        )
        assert len(echo) == 16
        text = (out / "eval_reduced_pinned.kv").read_text()
        assert [ln for ln in text.splitlines() if ln.startswith("config.")] == [
            f"config.{key} = {echo[key]}" for key in sorted(echo)
        ]

    def test_full_mode_eval(self, tmp_path):
        out = tmp_path / "run"
        run(synth_args(out))
        run(["fuse", "--method", "cs", "--out", str(out)])
        code = run(
            [
                "eval",
                "--mode", "full",
                "--out", str(out),
                "--config", str(_window_cfg(tmp_path, 4)),
            ]
        )
        assert code == 0
        report = QualityReport.parse_kv((out / "eval_full_cs.kv").read_text())
        assert set(report.entries) == {"D_lambda", "D_s", "QNR"}

    def test_report_aggregates(self, tmp_path):
        out = tmp_path / "run"
        run(synth_args(out))
        run(["fuse", "--method", "exp", "--out", str(out)])
        run(["fuse", "--method", "cs", "--out", str(out)])
        cfg = _window_cfg(tmp_path, 4)
        run(["eval", "--mode", "reduced", "--fused", str(out / "fused_exp.pfr"),
             "--gt", str(out / "gt.pfr"), "--label", "exp", "--out", str(out),
             "--config", str(cfg)])
        run(["eval", "--mode", "reduced", "--fused", str(out / "fused_cs.pfr"),
             "--gt", str(out / "gt.pfr"), "--label", "cs", "--out", str(out),
             "--config", str(cfg)])
        assert run(["report", "--out", str(out)]) == 0
        table = (out / "report_reduced.csv").read_text().splitlines()
        assert table[0] == "method,SAM,CC,UIQI,Q4,ERGAS"
        methods = [line.split(",")[0] for line in table[1:]]
        assert methods == ["cs", "exp", "Ideal"]

    def test_report_reads_reports_with_qnr_exponents(self, tmp_path):
        # an eval_*.kv of the format that still echoed the QNR exponents p, q, alpha
        # and beta loads, and report tables it next to one of the current format
        out = tmp_path / "run"
        out.mkdir()
        entries = {"D_lambda": 0.0125, "D_s": 0.03125, "QNR": 0.956640625}
        (out / "eval_full_x.kv").write_text(
            "mode = full\nwindow = 32\nstride = 32\np = 1\nq = 1\nalpha = 1.0\n"
            "beta = 1.0\nratio = 1/4\nD_lambda = 0.0125\nD_s = 0.03125\n"
            "QNR = 0.956640625\nconfig.alpha = 1.0\nconfig.beta = 1.0\n"
            "config.nyquist_gain = 0.3\nconfig.p = 1\nconfig.q = 1\n"
        )
        (out / "eval_full_y.kv").write_text(QualityReport("full", entries).to_kv())
        old, new = (QualityReport.parse_kv((out / f"eval_full_{label}.kv").read_text())
                    for label in ("x", "y"))
        assert old.entries == new.entries == entries
        assert old.config == new.config
        assert run(["report", "--out", str(out)]) == 0
        table = parse_results_table((out / "report_full.csv").read_text(), "full")
        assert list(table) == ["x", "y", "Ideal"]
        assert table["x"] == table["y"] == entries

    def test_train_and_gan_fuse(self, tmp_path):
        out = tmp_path / "run"
        run(synth_args(out, size=32, ratio=2, bands=3))
        code = run(
            [
                "train",
                "--out", str(out),
                "--iterations", "3",
                "--seed", "5",
            ]
        )
        assert code == 0
        assert (out / "checkpoint.pfck").exists()
        log_lines = (out / "train_log.csv").read_text().splitlines()
        assert log_lines[0].split(",")[0] == "iteration"
        assert len(log_lines) == 4
        code = run(
            [
                "fuse",
                "--method", "gan",
                "--checkpoint", str(out / "checkpoint.pfck"),
                "--ms", str(out / "ms.pfr"),
                "--pan", str(out / "pan.pfr"),
                "--out", str(out),
            ]
        )
        assert code == 0
        fused = load_raster(out / "fused_gan.pfr")
        assert (fused.height, fused.width) == (32, 32)
        arr = fused.data
        assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_gan_without_checkpoint_fails(self, tmp_path):
        out = tmp_path / "run"
        run(synth_args(out, size=32, ratio=2, bands=3))
        assert run(["fuse", "--method", "gan", "--out", str(out)]) == 2

    def test_seed7_pipeline_frozen_cc(self, tmp_path):
        # full-size pipeline: plain upsampling after Wald reduction loses
        # detail, so the correlation against the reference drops below 1
        out = tmp_path / "run"
        for argv in (
            synth_args(out, size=256, ratio=4, seed=7, bands=4),
            ["degrade", "--out", str(out)],
            ["fuse", "--method", "exp", "--out", str(out)],
            ["eval", "--mode", "reduced", "--out", str(out)],
        ):
            assert run(argv) == 0
        report = QualityReport.parse_kv((out / "eval_reduced_exp.kv").read_text())
        assert report.entries["CC"] < 1.0
        # frozen regression value from the first verified run of this pipeline
        assert report.entries["CC"] == pytest.approx(0.9033029003998098, rel=1e-6)


def _window_cfg(tmp_path, window):
    path = tmp_path / f"win{window}.cfg"
    path.write_text(f"window = {window}\nstride = {window}\n")
    return path


class TestExitCodes:
    def test_unknown_flag_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "none"
        with pytest.raises(SystemExit) as err:
            main(["synth", "--frobnicate", "1", "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["degrade", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("size,ratio", [(0, 4), (2, 2), (-4, 4)])
    def test_synth_below_3x3_exits_2(self, tmp_path, capsys, size, ratio):
        out = tmp_path / "o"
        assert run(synth_args(out, size=size, ratio=ratio)) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and f"{size}x{size}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_synth_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(synth_args(out, seed=-1)) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and "seed" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_negative_seed_train_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        run(synth_args(out, size=16, ratio=2, bands=2))
        before = sorted(p.name for p in out.iterdir())
        cfg = tmp_path / "train.cfg"
        cfg.write_text("seed = -1\n")
        capsys.readouterr()
        assert run(["train", "--config", str(cfg), "--iterations", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and "seed" in err and len(err.splitlines()) == 1
        assert sorted(p.name for p in out.iterdir()) == before

    @pytest.mark.parametrize(
        "flags",
        [["--fused", "fused_exp.pfr", "--label", "a,b"],
         ["--fused", "fused_exp.pfr", "--label", "a/b"], ["--fused", "fused_a,b.pfr"],
         ["--fused", "fused_.pfr"]],
        ids=["comma", "slash", "comma_stem", "empty_stem"],
    )
    def test_eval_label_with_separator_exits_2(self, tmp_path, capsys, flags):
        # the label is a file name part and a report table cell; report skips
        # an eval file whose label is empty
        out = tmp_path / "run"
        run(synth_args(out, size=16))
        run(["fuse", "--method", "exp", "--out", str(out)])
        for name in ("fused_a,b.pfr", "fused_.pfr"):
            (out / name).write_bytes((out / "fused_exp.pfr").read_bytes())
        before = sorted(p.name for p in out.rglob("*"))
        flags = [str(out / f) if f.endswith(".pfr") else f for f in flags]
        capsys.readouterr()
        assert run(["eval", "--mode", "reduced", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and "'label'" in err and err.count("\n") == 1
        assert sorted(p.name for p in out.rglob("*")) == before

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--mode", "sideways", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_training_divergence_exits_3(self, tmp_path, monkeypatch):
        from panfuse.errors import TrainingDivergenceError

        out = tmp_path / "run"
        run(synth_args(out, size=32, ratio=2, bands=3))

        def explode(ms, pan, cfg):
            raise TrainingDivergenceError("generator loss is non-finite", iteration=3)

        monkeypatch.setattr("panfuse.gan.train", explode)
        assert run(["train", "--out", str(out)]) == 3

    @pytest.mark.parametrize("where", ["stage", "second-write"])
    def test_out_of_memory_exits_2_without_outputs(self, tmp_path, capsys, monkeypatch, where):
        def exhaust(*args):
            raise MemoryError

        write_one = panfuse.cli.save_raster

        def write_once(image, path):
            # the first output is written, the second finds no memory
            monkeypatch.setattr("panfuse.cli.save_raster", exhaust)
            write_one(image, path)

        if where == "stage":
            monkeypatch.setattr("panfuse.cli.cmd_synth", exhaust)
        else:
            monkeypatch.setattr("panfuse.cli.save_raster", write_once)
        out = tmp_path / "run"
        assert run(synth_args(out, size=16, ratio=2)) == 2
        assert capsys.readouterr().err == "panfuse: out of memory in synth\n"
        assert not out.exists() or list(out.iterdir()) == []

    def test_saturated_critic_exits_3_and_names_it(self, tmp_path, capsys, monkeypatch):
        # a huge critic step drives its sigmoid to exactly 0 or 1 in the first iteration
        out = tmp_path / "run"
        run(synth_args(out, size=64, seed=3))
        monkeypatch.setattr("panfuse.gan.LR_D", 1e3)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 3\n")
        capsys.readouterr()
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.search(r"(spectral|spatial) critic .*score .* \(iteration \d\)", err), err
        assert "Traceback" not in err


    # checkpoints for a 2-band scene with one generator parameter left out
    # (None) or replaced
    @pytest.mark.parametrize(
        "name, value",
        [
            pytest.param("gen.conv2.bias", None, id="no-conv2-bias"),
            pytest.param("gen.head.weight", None, id="no-head-weight"),
            pytest.param("gen.conv2.bias", np.zeros(15), id="conv2-bias-length"),
            pytest.param("gen.conv2.weight", np.zeros((16, 8, 3, 3)), id="conv2-in-channels"),
            pytest.param("gen.conv1.weight", np.zeros((16, 3, 2, 2)), id="conv1-even-kernel"),
            pytest.param("gen.head.weight", np.zeros((3, 16, 3, 3)), id="head-band-count"),
            pytest.param("gen.conv2.weight", np.zeros((16, 16, 5, 5)), id="conv2-kernel-5"),
            pytest.param("gen.conv1.weight", np.zeros((8, 3, 3, 3)), id="conv1-8-wide"),
        ],
    )
    def test_bad_generator_checkpoint_exits_2(self, tmp_path, capsys, name, value):
        out = tmp_path / "run"
        run(synth_args(out, size=16, ratio=2, bands=2))
        params = ParameterSet()
        for key, p in GeneratorSpec(bands=2).init_params(np.random.default_rng(0)).items():
            if key != name:
                params.add(key, p.data)
            elif value is not None:
                params.add(key, value)
        save_checkpoint(params, tmp_path / "bad.pfck")
        capsys.readouterr()
        argv = ["fuse", "--method", "gan", "--checkpoint", str(tmp_path / "bad.pfck")]
        assert run(argv + ["--out", str(out)]) == 2  # an escaping exception fails the call
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and repr(name) in err

    def test_non_finite_checkpoint_exits_3_and_names_the_tile(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(synth_args(out, size=16, ratio=2, bands=2))
        params = GeneratorSpec(bands=2).init_params(np.random.default_rng(0))
        params["gen.conv1.bias"].data[0] = np.nan
        save_checkpoint(params, tmp_path / "nan.pfck")
        capsys.readouterr()
        argv = ["fuse", "--method", "gan", "--checkpoint", str(tmp_path / "nan.pfck")]
        assert run(argv + ["--out", str(out)]) == 3
        assert "in PAN rows 0-15\n" in capsys.readouterr().err

_REDUCED_KV = QualityReport(
    "reduced", {"SAM": 0.0, "CC": 1.0, "UIQI": 1.0, "Q4": 1.0, "ERGAS": 0.0}
).to_kv()


def _edit_meta(out, old, new):
    meta = out / "scene.meta"
    meta.write_bytes(meta.read_bytes().replace(old, new))


class TestInterrupts:
    """SIGINT and SIGTERM end a stage with one line, 130 and 143, and no output moves."""

    def test_interrupt_exits_130_with_one_line(self, tmp_path, capsys, monkeypatch):
        def interrupted(cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr("panfuse.cli.cmd_synth", interrupted)
        out = tmp_path / "run"
        assert run(synth_args(out, size=16, ratio=2)) == 130
        assert capsys.readouterr().err == "panfuse: interrupted in synth\n"
        assert not out.exists()

    def test_interrupt_between_two_writes_keeps_every_output(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert run(synth_args(out, size=16, ratio=2)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        write_one = panfuse.cli.save_raster

        def interrupt(*args):
            raise KeyboardInterrupt

        def write_once(image, path):
            # the first output is written, the second is interrupted
            monkeypatch.setattr("panfuse.cli.save_raster", interrupt)
            write_one(image, path)

        monkeypatch.setattr("panfuse.cli.save_raster", write_once)
        capsys.readouterr()
        # another seed, whose outputs would differ from every old byte
        assert run(synth_args(out, size=16, ratio=2, seed=8)) == 130
        assert capsys.readouterr().err == "panfuse: interrupted in synth\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_sigterm_exits_143_and_restores_the_handler(self, tmp_path, capsys, monkeypatch):
        def terminated(cfg):
            os.kill(os.getpid(), signal.SIGTERM)
            raise AssertionError("SIGTERM did not end the stage")

        def callers_handler(signum, frame):
            raise AssertionError("the handler of main's caller ran")

        previous = signal.signal(signal.SIGTERM, callers_handler)
        try:
            monkeypatch.setattr("panfuse.cli.cmd_synth", terminated)
            out = tmp_path / "run"
            assert run(synth_args(out, size=16, ratio=2)) == 143
            assert capsys.readouterr().err == "panfuse: interrupted in synth\n"
            assert not out.exists()
            assert signal.getsignal(signal.SIGTERM) is callers_handler
            monkeypatch.undo()
            assert run(synth_args(out, size=16, ratio=2)) == 0
            assert signal.getsignal(signal.SIGTERM) is callers_handler
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_a_stage_runs_outside_the_main_thread(self, tmp_path):
        # only the main thread may set a signal handler; elsewhere main sets none
        codes = []
        worker = threading.Thread(target=lambda: codes.append(run(synth_args(tmp_path, size=16))))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and codes == [0]


class TestMalformedText:
    """Malformed `key = value` files exit 2 with a one-line message, never a traceback."""

    @pytest.mark.parametrize(
        "kv", [_REDUCED_KV.replace("mode = reduced\n", ""),
               _REDUCED_KV.replace("window = 32\n", "window = x\n")],
        ids=["no_mode", "window_x"],
    )
    def test_report_over_bad_eval_kv(self, tmp_path, capsys, kv):
        (tmp_path / "eval_reduced_exp.kv").write_text(kv)
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and "eval_reduced_exp.kv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "old,new", [(b"ratio = 2", b"ratio = four"), (b"seed = 7", b"seed = \xff")],
        ids=["ratio_four", "non_utf8"],
    )
    def test_fuse_with_bad_scene_meta(self, tmp_path, capsys, old, new):
        out = tmp_path / "run"
        run(synth_args(out, size=16, ratio=2, bands=2))
        _edit_meta(out, old, new)
        capsys.readouterr()
        assert run(["fuse", "--method", "exp", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and "scene.meta" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ratio", [b"0", b"-2"])
    @pytest.mark.parametrize(
        "stage", [["degrade"], ["fuse", "--method", "exp"], ["eval", "--mode", "reduced"]],
        ids=["degrade", "fuse", "eval"],
    )
    def test_scene_meta_ratio_below_one(self, tmp_path, capsys, stage, ratio):
        out = tmp_path / "run"
        run(synth_args(out, size=16, ratio=2, bands=2))
        run(["fuse", "--method", "exp", "--out", str(out)])
        _edit_meta(out, b"ratio = 2", b"ratio = " + ratio)
        capsys.readouterr()
        assert run([*stage, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and "scene.meta" in err and "'ratio'" in err
        assert "Traceback" not in err

    # the learning rates and loss weights are constants of panfuse.gan, not config keys
    @pytest.mark.parametrize(
        "key", ["lr_g", "lr_d", "lambda_spec", "lambda_spat", "lambda_adv_spec", "lambda_adv_spat"]
    )
    def test_removed_setting_exits_2(self, tmp_path, capsys, key):
        out = tmp_path / "run"
        run(synth_args(out, size=32, ratio=2, bands=2))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0.01\niterations = 3\n")
        capsys.readouterr()
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and len(err.splitlines()) == 1
        assert f"unknown config key {key!r}" in err and "Traceback" not in err
        assert not (out / "checkpoint.pfck").exists()

    @pytest.mark.parametrize(
        "case", [("SAM = 0.0", "SAM = nan", "'SAM'"), ("mode = reduced", "mode = bogus", "mode"),
                 ("window = 32", "window = 1", "window"),
                 ("mode = reduced", "mode = full", "full report"),
                 ("ratio = 1/4", "ratio = 1e400", "ratio")],
        ids=["nan", "bogus_mode", "window_1", "wrong_mode", "ratio_beyond_float"],
    )
    def test_report_names_the_eval_kv_of_a_bad_value(self, tmp_path, capsys, case):
        old, new, named = case
        (tmp_path / "eval_reduced_exp.kv").write_text(_REDUCED_KV.replace(old, new))
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"panfuse: {tmp_path / 'eval_reduced_exp.kv'}: ")
        assert named in err and len(err.splitlines()) == 1 and "Traceback" not in err

    # each key names a path or a file name part, which can hold no NUL
    @pytest.mark.parametrize("key, stage", [
        ("out", ["synth"]), ("ms", ["degrade"]), ("pan", ["degrade"]),
        ("fused", ["eval", "--mode", "reduced"]), ("checkpoint", ["fuse", "--method", "gan"]),
        ("label", ["eval", "--mode", "reduced"]),
    ])
    def test_nul_in_a_config_value_exits_2_naming_the_line(self, tmp_path, capsys, key, stage):
        out = tmp_path / "run"
        run(synth_args(out, size=16, ratio=2, bands=2))
        run(["fuse", "--method", "exp", "--out", str(out)])
        cfg = tmp_path / "nul.cfg"
        cfg.write_bytes(b"window = 4\nstride = 4\n" + key.encode() + b" = w\x00x\n")
        capsys.readouterr()
        assert run([*stage, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"panfuse: {cfg}:3: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_synth_with_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n# caf\xe9\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and "bad.cfg" in err and "UTF-8" in err
        assert not (tmp_path / "o").exists()


    # a command-line byte that is not UTF-8 decodes to a lone surrogate, which
    # no text output can encode; eval echoes --label and --out as config.*
    @pytest.mark.parametrize("flag", ["label", "out"])
    def test_eval_with_a_non_utf8_argument_exits_2(self, tmp_path, capsys, flag):
        scene = tmp_path / "run"
        run(synth_args(scene, size=16, ratio=2))
        run(["fuse", "--method", "exp", "--out", str(scene)])
        bad = "a" + os.fsdecode(b"\xff") + "b"
        out = tmp_path / bad if flag == "out" else scene
        argv = ["eval", "--mode", "reduced", "--config", str(_window_cfg(tmp_path, 8)),
                "--ratio", "2", "--fused", str(scene / "fused_exp.pfr"),
                "--gt", str(scene / "gt.pfr"), "--out", str(out), "--label", "exp"]
        if flag == "label":
            argv[-1] = bad
        before = sorted(p.name for p in tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    def test_report_over_a_non_utf8_label_exits_2(self, tmp_path, capsys):
        (tmp_path / ("eval_reduced_a" + os.fsdecode(b"\xff") + "b.kv")).write_text(_REDUCED_KV)
        before = sorted(os.listdir(tmp_path))
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err and sorted(os.listdir(tmp_path)) == before


def _png(ihdr: bytes, idat: bytes) -> bytes:
    def chunk(ctype, data):
        crc = zlib.crc32(ctype + data) & 0xFFFFFFFF
        return struct.pack(">I", len(data)) + ctype + data + struct.pack(">I", crc)

    body = chunk(b"IHDR", ihdr) + (chunk(b"IDAT", idat) if idat else b"")
    return b"\x89PNG\r\n\x1a\n" + body + chunk(b"IEND", b"")


MALFORMED_INPUTS = {
    "pfck_non_utf8_name": b"PFCK" + struct.pack("<IH", 1, 2) + b"w\xff" + b"\x00",
    "pfck_name_past_end": b"PFCK" + struct.pack("<IH", 1, 500) + b"abc",
    "pfck_dims_overflow": b"PFCK" + struct.pack("<IHsB4I", 1, 1, b"w", 4, *[2**16] * 4),
    "png_short_ihdr": _png(struct.pack(">IIBBBB", 2, 2, 8, 0, 0, 0), b""),
    "png_inflate_past_ihdr": _png(
        struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0), zlib.compress(b"\x00" * 2**20)
    ),
}


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_exit_2_and_message_names_offset(self, tmp_path, capsys, case):
        out = tmp_path / "run"
        run(synth_args(out, size=16, ratio=2, bands=2))
        capsys.readouterr()
        kind = case.split("_")[0]
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(MALFORMED_INPUTS[case])
        if kind == "pfck":
            argv = ["fuse", "--method", "gan", "--checkpoint", str(bad), "--out", str(out)]
        else:
            argv = ["fuse", "--method", "exp", "--pan", str(bad), "--out", str(out)]
        assert run(argv) == 2  # an escaping exception would fail the call itself
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and re.search(r"byte \d+", err)

    def test_signalling_nan_pfr_exits_2_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(synth_args(out, size=16, ratio=2, bands=2))
        capsys.readouterr()
        bad = tmp_path / "snan.pfr"
        bad.write_bytes(struct.pack("<4sIII2I", b"PFR1", 2, 1, 1, 0x7F800001, 0x3F800000))
        argv = ["fuse", "--method", "exp", "--pan", str(bad), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err == (f"panfuse: {bad}: payload at byte 16: non-finite samples, the first in "
                       "band 0, row 0, column 0\n")

    def test_fuse_with_truncated_pan_names_it(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(synth_args(out, size=16, ratio=2, bands=2))
        pan = out / "pan.pfr"
        pan.write_bytes(pan.read_bytes()[:-1])
        capsys.readouterr()
        assert run(["fuse", "--method", "exp", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"panfuse: {pan}: ") and len(err.splitlines()) == 1


    def test_fused_beyond_float32_range_exits_3_without_output(self, tmp_path, capsys):
        argv = overflow_fuse_args(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert re.fullmatch(r"panfuse: [^\n]*band 0 [^\n]*float32 range[^\n]*\n", err), err
        assert not (tmp_path / "big" / "fused_exp.pfr").exists()


class TestSubprocess:
    """The CLI run as its own process, which prints every warning to stderr."""

    def cli(self, *argv):
        src = str(Path(panfuse.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run([sys.executable, "-W", "default", "-m", "panfuse.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=300)

    def test_stages_exit_0_with_empty_stderr(self, tmp_path):
        out = str(tmp_path / "run")
        for argv in (synth_args(out, size=32), ["degrade", "--out", out],
                     ["fuse", "--method", "exp", "--out", out]):
            proc = self.cli(*argv)
            assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert (tmp_path / "run" / "fused_exp.pfr").exists()

    def test_fused_beyond_float32_range_exits_3_with_one_line(self, tmp_path):
        proc = self.cli(*overflow_fuse_args(tmp_path))
        assert proc.returncode == 3
        assert re.fullmatch(r"panfuse: [^\n]*\n", proc.stderr), proc.stderr
        assert not (tmp_path / "big" / "fused_exp.pfr").exists()


class TestDeterminism:
    def test_pipeline_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(synth_args(out))
            run(["degrade", "--out", str(out)])
            run(["fuse", "--method", "cs", "--out", str(out)])
            run(["eval", "--mode", "reduced", "--out", str(out),
                 "--config", str(_window_cfg(tmp_path, 8))])
            outs.append(out)
        a, b = outs
        for name in (
            "gt.pfr", "ms.pfr", "pan.pfr", "scene.meta",
            "ms_lo.pfr", "pan_lo.pfr", "reference.pfr",
            "fused_cs.pfr", "eval_reduced_cs.csv",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_idempotent_overwrite(self, tmp_path):
        out = tmp_path / "run"
        run(synth_args(out))
        first = (out / "ms.pfr").read_bytes()
        run(synth_args(out))
        assert (out / "ms.pfr").read_bytes() == first


def _temp_name(name, pid=None):
    """The name a stage writes ``name`` under before it puts it in place."""
    return f".{name}.{os.getpid() if pid is None else pid}.tmp"


def _scene(tmp_path):
    """A 16 x 16, 4-band, ratio-2 scene under tmp_path/scene, with an eval report."""
    scene = tmp_path / "scene"
    assert run(synth_args(scene, size=16, ratio=2)) == 0
    assert run(["eval", "--mode", "reduced", "--fused", str(scene / "gt.pfr"), "--label", "self",
                "--config", str(_window_cfg(tmp_path, 8)), "--out", str(scene)]) == 0
    return scene


# each multi-output stage: its arguments beyond --out, given a scene from _scene,
# and its outputs in the order they are put in place
ATOMIC_STAGES = {
    "synth": (lambda sc, tmp: ["synth", "--size", "16", "--ratio", "2", "--bands", "2"],
              ["gt.pfr", "ms.pfr", "pan.pfr", "scene.meta"]),
    "degrade": (lambda sc, tmp: ["degrade", "--ms", str(sc / "ms.pfr"), "--pan", str(sc / "pan.pfr"),
                                 "--ratio", "2"],
                ["ms_lo.pfr", "pan_lo.pfr", "reference.pfr"]),
    "train": (lambda sc, tmp: ["train", "--ms", str(sc / "ms.pfr"), "--pan", str(sc / "pan.pfr"),
                               "--ratio", "2", "--iterations", "1"],
              ["checkpoint.pfck", "train_log.csv"]),
    "eval": (lambda sc, tmp: ["eval", "--mode", "reduced", "--fused", str(sc / "gt.pfr"),
                              "--gt", str(sc / "gt.pfr"), "--label", "self", "--ratio", "2",
                              "--config", str(_window_cfg(tmp, 8))],
             ["eval_reduced_self.csv", "eval_reduced_self.kv"]),
    "report": (lambda sc, tmp: ["report"], ["report_reduced.csv", "report.txt"]),
}


class TestAtomicOutputs:
    """A stage writes all its outputs or none: a failed write leaves every output as it was."""

    @staticmethod
    def workspace(tmp_path, stage, scene):
        # report reads its eval reports from --out, the other stages read the scene
        out = tmp_path / "out"
        out.mkdir()
        if stage == "report":
            (out / "eval_reduced_self.kv").write_bytes((scene / "eval_reduced_self.kv").read_bytes())
        return out

    @pytest.mark.parametrize("stage", sorted(ATOMIC_STAGES))
    def test_failed_second_write_keeps_every_output(self, tmp_path, capsys, stage):
        scene = _scene(tmp_path)
        out = self.workspace(tmp_path, stage, scene)
        argv, names = ATOMIC_STAGES[stage]
        argv = [*argv(scene, tmp_path), "--out", str(out)]
        assert run(argv) == 0
        for name in names:  # marks, so that a rewrite in place of the same bytes shows
            (out / name).write_bytes(b"previous " + name.encode())
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / _temp_name(names[1])).mkdir()
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and len(err.splitlines()) == 1
        (out / _temp_name(names[1])).rmdir()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("stage", sorted(ATOMIC_STAGES))
    def test_failed_second_write_on_a_fresh_out_leaves_no_output(self, tmp_path, stage):
        scene = _scene(tmp_path)
        out = self.workspace(tmp_path, stage, scene)
        before = sorted(p.name for p in out.iterdir())
        argv, names = ATOMIC_STAGES[stage]
        (out / _temp_name(names[1])).mkdir()
        assert run([*argv(scene, tmp_path), "--out", str(out)]) == 2
        (out / _temp_name(names[1])).rmdir()
        assert sorted(p.name for p in out.iterdir()) == before

    def test_checkpoint_path_is_not_under_out(self, tmp_path, monkeypatch):
        # --checkpoint names a path of its own; only the log goes under --out
        monkeypatch.chdir(tmp_path)
        assert run(synth_args("sub", size=16, ratio=2, bands=2)) == 0
        train = ["train", "--iterations", "1", "--out", "sub"]
        assert run([*train, "--checkpoint", "ck.pfck"]) == 0
        assert (tmp_path / "ck.pfck").is_file() and (tmp_path / "sub" / "train_log.csv").is_file()
        assert not (tmp_path / "sub" / "ck.pfck").exists()
        before = {p.name: p.read_bytes() for p in (tmp_path / "sub").iterdir()}
        train[2] = "2"  # a run that would write another log
        assert run([*train, "--checkpoint", "missing/ck.pfck"]) == 2
        assert {p.name: p.read_bytes() for p in (tmp_path / "sub").iterdir()} == before
        assert not (tmp_path / "missing").exists()

    def test_checkpoint_onto_the_log_exits_2(self, tmp_path, capsys, monkeypatch):
        # two outputs of one file would leave one of them, not both or none
        monkeypatch.chdir(tmp_path)
        assert run(synth_args("sub", size=16, ratio=2, bands=2)) == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "sub").iterdir()}
        capsys.readouterr()
        for ckpt in ("sub/train_log.csv", str(tmp_path / "sub" / "train_log.csv")):
            assert run(["train", "--iterations", "1", "--checkpoint", ckpt, "--out", "sub"]) == 2
            assert "'checkpoint'" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (tmp_path / "sub").iterdir()} == before

    def test_leftover_temporaries_are_ignored(self, tmp_path):
        # a killed stage leaves its temporaries; no search of --out may take them
        out = tmp_path / "run"
        run(synth_args(out, size=16, ratio=2))
        run(["fuse", "--method", "exp", "--out", str(out)])
        (out / _temp_name("fused_x.pfr", pid=1)).write_bytes((out / "fused_exp.pfr").read_bytes())
        (out / _temp_name("eval_reduced_x.kv", pid=1)).write_text(_REDUCED_KV)
        # a temporary of this process's own name, as if its pid were reused
        (out / _temp_name("eval_reduced_exp.kv")).write_text("stale")
        evaluate = ["eval", "--mode", "reduced", "--config", str(_window_cfg(tmp_path, 8)),
                    "--out", str(out)]
        for _ in range(2):
            assert run(evaluate) == 0
            assert not (out / _temp_name("eval_reduced_exp.kv")).exists()
            assert run(["report", "--out", str(out)]) == 0
            table = parse_results_table((out / "report_reduced.csv").read_text(), "reduced")
            assert list(table) == ["exp", "Ideal"]
