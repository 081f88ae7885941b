"""Byte mutations of small valid text files of every kind panfuse reads, and
the labels ``eval`` writes into file names and report tables.

Each mutation either parses or raises a PanfuseError whose message names the
file (for a CSV table, the kind of table) and a line, a key or a byte offset.
"""

import argparse
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from panfuse import cli
from panfuse.errors import PanfuseError
from panfuse.gan import TrainingLog
from panfuse.harness import ExperimentResult, parse_results_table, results_table_csv
from panfuse.metrics import FULL_METRICS, REDUCED_METRICS, MetricConfig, QualityReport
from panfuse.raster import parse_csv_table

# the bytes the formats give a meaning, NEL (U+0085, a line break to
# str.splitlines) and its lone second byte, which is not UTF-8, or any byte
_PIECES = st.sampled_from([b"\x00", b"#", b"=", b",", b" ", b"\n", b"\r", b"\x85",
                           "\x85".encode()]) | st.binary(min_size=1, max_size=1)


@st.composite
def mutations(draw, valid: bytes) -> bytes:
    """``valid`` with one to four bytes inserted, replaced or deleted, or cut short."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("insert", "replace", "delete", "truncate")))
        if edit == "truncate":
            del data[at:]
        elif edit == "delete":
            del data[at : at + 1]
        else:
            data[at : at + (edit == "replace")] = draw(_PIECES)
    return bytes(data)


def parses_or_names_a_place(parse, source: str, keys=()) -> None:
    """``parse()`` returns, or raises a PanfuseError whose message names
    ``source`` and a line, a byte offset or one of ``keys``."""
    try:
        parse()
    except PanfuseError as exc:
        message = str(exc)
        assert source in message, message
        place = re.search(r":\d+:|\bline \d+|\bbyte \d+|\bkey ['\"]", message)
        assert place or any(key in message for key in keys), message


FUZZ = settings(max_examples=500, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_CONFIG = (b"# a run\nwindow = 8\nstride = 4\nseed = 7\niterations = 3\n"
           b"label = exp\nout = run  # workspace\n")
_REPORT = (QualityReport("full", {"D_lambda": 0.0125, "D_s": 3.5e-05, "QNR": 0.98746},
                         MetricConfig(window=8, stride=4, ratio=Fraction(1, 4))).to_kv()
           + "config.out = run\nconfig.window = 8\n").encode()
_LOG = TrainingLog([(1, 0.5, 0.25, 0.7, 0.69, 1.38, 1.39, 0.9),
                    (2, 0.4, 0.2, 0.71, 0.7, 1.37, 1.38, 8.5e-05)]).to_csv().encode()
_REPORTS = [ExperimentResult(method, "reduced", QualityReport(
    "reduced", {"SAM": 2.5, "CC": 0.9, "UIQI": 0.8, "Q4": 0.75, "ERGAS": 3.25}), 0.0)
    for method in ("cs", "exp")]
_TABLE = results_table_csv(_REPORTS, "reduced").encode()


@FUZZ
@given(data=mutations(_CONFIG))
def test_config_file(tmp_path, data):
    path = tmp_path / "run.cfg"
    path.write_bytes(data)
    parses_or_names_a_place(lambda: cli.parse_kv_file(path), str(path))


@pytest.fixture(scope="module")
def scene_meta():
    args = argparse.Namespace(size=16, ratio=2, bands=2, seed=7, out=".")
    outputs, _ = cli.cmd_synth(cli.RunConfig(args))
    return outputs["scene.meta"].encode()


@FUZZ
@given(data=st.data())
def test_scene_meta(tmp_path, scene_meta, data):
    # the ratio is the one key a stage reads of scene.meta
    (tmp_path / "scene.meta").write_bytes(data.draw(mutations(scene_meta)))
    cfg = cli.RunConfig(argparse.Namespace(out=str(tmp_path)))
    parses_or_names_a_place(lambda: cli._resolve_ratio(cfg), str(tmp_path / "scene.meta"))


@FUZZ
@given(data=mutations(_REPORT))
def test_eval_kv(data):
    keys = ("mode", "window", "stride", "ratio", *REDUCED_METRICS, *FULL_METRICS)
    parses_or_names_a_place(lambda: QualityReport.parse_kv(data, "eval_full_x.kv"),
                            "eval_full_x.kv", keys)


# the CSV readers take text; a byte that is not UTF-8 reads as U+FFFD.  A table's
# header is its first non-blank line, and a message about it names that line, or
# says that the text has none
@FUZZ
@given(data=mutations(_LOG))
def test_training_log(data):
    text = data.decode("utf-8", "replace")
    parses_or_names_a_place(lambda: TrainingLog.parse_csv(text), "training-log",
                            ("no header line",))


@FUZZ
@given(data=mutations(_TABLE))
def test_results_table(data):
    text = data.decode("utf-8", "replace")
    parses_or_names_a_place(lambda: parse_results_table(text, "reduced"), "reduced table",
                            ("no header line",))


@pytest.fixture(scope="module")
def fused_scene(tmp_path_factory):
    """A 16 x 16 scene under a directory of its own, fused by ``exp``, and the
    config and flags that ``eval`` reads it with."""
    scene = tmp_path_factory.mktemp("scene")
    assert cli.main(["synth", "--size", "16", "--ratio", "2", "--bands", "4",
                     "--out", str(scene)]) == 0
    assert cli.main(["fuse", "--method", "exp", "--out", str(scene)]) == 0
    (scene / "win.cfg").write_text("window = 8\nstride = 8\n")
    return ["--mode", "reduced", "--config", str(scene / "win.cfg"), "--ratio", "2",
            "--fused", str(scene / "fused_exp.pfr"), "--gt", str(scene / "gt.pfr")]


# the separators of the file name, the `key = value` echo and the report table,
# line breaks, NUL, a lone surrogate (a command-line byte that is not UTF-8
# decodes to one), any character, and a name longer than a file name may be.  An
# empty --label is no label: eval takes the fused file's stem instead
_LABELS = st.text(st.sampled_from([",", "/", "#", "=", "_", " ", "\r", "\n", "\x85",
                                   "\x00", "\udcff"]) | st.characters(),
                  min_size=1, max_size=8) | st.just("l" * 300)


@FUZZ
@given(label=_LABELS)
@example(label="a=b_c d").via("a label that reaches the report")
def test_eval_label(tmp_path, capsys, fused_scene, label):
    out = tempfile.mkdtemp(dir=tmp_path)
    capsys.readouterr()
    code = cli.main(["eval", *fused_scene, "--out", out, "--label", label])
    if code == 0:
        assert cli.main(["report", "--out", out]) == 0
        table = Path(out, "report_reduced.csv").read_text(encoding="utf-8")
        rows = parse_csv_table(table, ("method", *REDUCED_METRICS), "table", text_columns=1)
        assert [row[0] for row in rows] == [label, "Ideal"]
    else:
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (2, 1) and err.startswith("panfuse: "), err
        assert "Traceback" not in err and os.listdir(out) == []


def test_the_seeds_parse(tmp_path, scene_meta):
    (tmp_path / "run.cfg").write_bytes(_CONFIG)
    assert cli.parse_kv_file(tmp_path / "run.cfg")["out"] == "run"
    (tmp_path / "scene.meta").write_bytes(scene_meta)
    assert cli._resolve_ratio(cli.RunConfig(argparse.Namespace(out=str(tmp_path)))) == 2
    assert QualityReport.parse_kv(_REPORT).entries["D_s"] == 3.5e-05
    assert len(TrainingLog.parse_csv(_LOG.decode()).rows) == 2
    assert set(parse_results_table(_TABLE.decode(), "reduced")) == {"cs", "exp", "Ideal"}
