"""Source checks that need no linter: only the standard library's ``ast``."""

import argparse
import ast
from pathlib import Path

import pytest

from panfuse.cli import build_parser

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "panfuse"


def imported_names(tree: ast.Module) -> set:
    """The names an ``import`` or ``from ... import`` binds in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def exported_names(tree: ast.Module) -> set:
    """The strings of a module-level ``__all__ = [...]``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported_names(tree) - used - exported_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def module_definitions(tree: ast.Module) -> set:
    """The names the module binds at module level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def private_definitions(tree: ast.Module) -> set:
    """The module-level names the module defines with one leading underscore."""
    return {n for n in module_definitions(tree) if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_read():
    # a private helper or constant that nothing under src/ reads is dead code
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(
        f"{name}.{n}" for name, tree in trees.items() for n in private_definitions(tree) - read
    )
    assert not unread, f"defined under src/panfuse and never read: {unread}"


def test_only_raster_sizes_blocks():
    # raster._BAND_ELEMENTS is the one budget of every blocked loop, and
    # raster.row_bands cuts the rows from it; no module keeps a size of its own
    sizes = sorted(
        f"{path.name}:{name}"
        for path in PACKAGE.glob("*.py") if path.name != "raster.py"
        for name in module_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name.endswith(("_ROWS", "_BLOCK", "_TILE", "_ELEMENTS"))
    )
    assert not sizes, f"block sizes outside raster: {sizes}"


def test_only_the_reader_unpacks():
    # raster.ByteReader parses every binary field: it checks each length before
    # it slices, and a failure names the file, the byte offset and the field
    unpackers = sorted({
        f"{path.name}:{getattr(node, 'name', '<module>')}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if getattr(node, "name", None) != "ByteReader"
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr in ("unpack", "unpack_from")
        and isinstance(sub.value, ast.Name) and sub.value.id == "struct"
    })
    assert not unpackers, f"struct.unpack outside raster.ByteReader: {unpackers}"


def test_metrics_has_no_per_window_loop():
    # every window takes the one path of metrics._window_tables; a loop over
    # the windows that numpy finds (argwhere, nonzero, ndindex) is a second path
    tree = ast.parse((PACKAGE / "metrics.py").read_text(encoding="utf-8"))
    calls = sorted({
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))
        and (node.attr if isinstance(node, ast.Attribute) else node.id)
        in ("argwhere", "nonzero", "ndindex")
    })
    assert not calls, f"metrics.py calls {calls}"


def test_metrics_has_one_flat_test():
    # a window is flat when its sum of squares about its mean is zero; a max
    # or min reduction in metrics.py would be a second flat path
    tree = ast.parse((PACKAGE / "metrics.py").read_text(encoding="utf-8"))
    extremes = ("maximum", "minimum", "ptp", "amax", "amin")
    named = sorted({
        f"{getattr(top, 'name', '<module>')}:{name}"
        for top in tree.body for node in ast.walk(top)
        for name in (getattr(node, "attr", None), getattr(node, "id", None))
        if name in extremes
    })
    assert not named, f"metrics.py names {named}"


COMMON_FLAGS = ["--config", "--seed", "--ratio", "--out"]
STAGE_FLAGS = {
    "synth": COMMON_FLAGS + ["--size", "--bands"],
    "degrade": COMMON_FLAGS + ["--ms", "--pan"],
    "fuse": COMMON_FLAGS + ["--method", "--checkpoint", "--ms", "--pan"],
    "train": COMMON_FLAGS + ["--ms", "--pan", "--iterations", "--checkpoint"],
    "eval": COMMON_FLAGS + ["--mode", "--fused", "--gt", "--ms", "--pan", "--label"],
    "report": COMMON_FLAGS,
}


def test_cli_stages_write_no_file():
    # the runner in cli.main puts every output in place; a stage only returns them
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    writers = {"save_raster", "save_checkpoint", "write_text", "write_bytes", "open", "makedirs"}
    calls = {
        (fn.name, node.func.id if isinstance(node.func, ast.Name) else node.func.attr)
        for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert {call for call in calls if call[1] in writers} == set()
    assert {name for name, _ in calls} == {f"cmd_{stage}" for stage in STAGE_FLAGS}


def test_each_stage_takes_its_flags():
    parser = build_parser()
    (stages,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    taken = {
        stage: [a.option_strings[0] for a in sub._actions if a.option_strings != ["-h", "--help"]]
        for stage, sub in stages.choices.items()
    }
    assert taken == STAGE_FLAGS
