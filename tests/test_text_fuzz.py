"""Byte mutations of small valid text files of every kind panfuse reads.

Each mutation either parses or raises a PanfuseError whose message names the
file (for a CSV table, the kind of table) and a line, a key or a byte offset.
"""

import argparse
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from panfuse import cli
from panfuse.errors import PanfuseError
from panfuse.gan import TrainingLog
from panfuse.harness import ExperimentResult, parse_results_table, results_table_csv
from panfuse.metrics import FULL_METRICS, REDUCED_METRICS, MetricConfig, QualityReport

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
# header is its first line, and a message about it names it
@FUZZ
@given(data=mutations(_LOG))
def test_training_log(data):
    text = data.decode("utf-8", "replace")
    parses_or_names_a_place(lambda: TrainingLog.parse_csv(text), "training-log", ("header",))


@FUZZ
@given(data=mutations(_TABLE))
def test_results_table(data):
    text = data.decode("utf-8", "replace")
    parses_or_names_a_place(lambda: parse_results_table(text, "reduced"), "reduced table",
                            ("header",))


def test_the_seeds_parse(tmp_path, scene_meta):
    (tmp_path / "run.cfg").write_bytes(_CONFIG)
    assert cli.parse_kv_file(tmp_path / "run.cfg")["out"] == "run"
    (tmp_path / "scene.meta").write_bytes(scene_meta)
    assert cli._resolve_ratio(cli.RunConfig(argparse.Namespace(out=str(tmp_path)))) == 2
    assert QualityReport.parse_kv(_REPORT).entries["D_s"] == 3.5e-05
    assert len(TrainingLog.parse_csv(_LOG.decode()).rows) == 2
    assert set(parse_results_table(_TABLE.decode(), "reduced")) == {"cs", "exp", "Ideal"}
