import re
import struct
import zlib

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from panfuse.autodiff import ParameterSet, save_checkpoint
from panfuse.cli import main, parse_kv_file
from panfuse.errors import ConfigError
from panfuse.gan import GeneratorSpec
from panfuse.metrics import QualityReport
from panfuse.raster import kv_format, kv_parse, load_raster


def run(args) -> int:
    return main(args)


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
        path.write_text("window = 8   # tile size\nstride = 8\nlr_g = 0.002\n\nseed = 5\n")
        values = parse_kv_file(path)
        assert values == {"window": 8, "stride": 8, "lr_g": 0.002, "seed": 5}

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("wibble = 3\n")
        with pytest.raises(ConfigError, match="wibble"):
            parse_kv_file(path)

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


# a key or value kv_parse reads back unchanged: no `#`, no line break, no
# surrounding whitespace; keys are non-empty and hold no `=`
_KV_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).filter(
    lambda t: "#" not in t and t == t.strip() and len(t.splitlines()) <= 1
)


class TestKeyValueFormat:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(_KV_TEXT.filter(lambda k: k and "=" not in k), _KV_TEXT, max_size=8))
    def test_written_pairs_read_back(self, pairs):
        text = kv_format(pairs.items())
        assert list(kv_parse(text, "t").items()) == list(pairs.items())
        assert kv_parse(text.encode("utf-8"), "t") == pairs

    @pytest.mark.parametrize("key,value", [("a=b", 1), ("", 1), ("a", "x # y"), ("a", "x\ny"), ("a", " x")])
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

    def test_eval_echoes_every_config_key(self, tmp_path):
        # every setting at its default; the keys that default to None are set, so
        # that all 27 keys are echoed
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
            given, alpha=1.0, bands=4, beta=1.0, iterations=500, lambda_adv_spat=0.01,
            lambda_adv_spec=0.01, lambda_spat=1.0, lambda_spec=1.0, lr_d=0.001, lr_g=0.005,
            mode="reduced", nyquist_gain=0.3, out=out, p=1, q=1, ratio=4, seed=0, size=256,
            stride=32, window=32,
        )
        assert len(echo) == 27
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
        assert "tile at (0, 0)" in capsys.readouterr().err

_REDUCED_KV = QualityReport(
    "reduced", {"SAM": 0.0, "CC": 1.0, "UIQI": 1.0, "Q4": 1.0, "ERGAS": 0.0}
).to_kv()


def _edit_meta(out, old, new):
    meta = out / "scene.meta"
    meta.write_bytes(meta.read_bytes().replace(old, new))


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

    @pytest.mark.parametrize(
        "stage,key,value",
        [(["train"], "lr_g", "nan"), (["train"], "lambda_spec", "inf"),
         (["eval", "--mode", "full"], "alpha", "nan")],
        ids=["lr_g_nan", "lambda_spec_inf", "alpha_nan"],
    )
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, stage, key, value):
        out = tmp_path / "run"
        run(synth_args(out, size=32, ratio=2, bands=2))
        run(["fuse", "--method", "exp", "--out", str(out)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\niterations = 3\nwindow = 4\nstride = 4\n")
        capsys.readouterr()
        assert run([*stage, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and key in err
        assert "Traceback" not in err

    def test_synth_with_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n# caf\xe9\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("panfuse: ") and "bad.cfg" in err and "UTF-8" in err
        assert not (tmp_path / "o").exists()


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
