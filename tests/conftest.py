import re

import pytest

from panfuse.errors import FormatError
from panfuse.harness import SyntheticScene, synth_scene


@pytest.fixture(scope="session")
def fixture_scene() -> SyntheticScene:
    """The seed-7 scene used for frozen regression values: 64x64 MS, 256x256 PAN."""
    return synth_scene(seed=7, width=256, height=256, bands=4, ratio=4)


@pytest.fixture(scope="session")
def small_scene() -> SyntheticScene:
    """A fast scene for structural tests: 16x16 MS, 64x64 PAN."""
    return synth_scene(seed=3, width=64, height=64, bands=4, ratio=4)


@pytest.fixture
def every_prefix_fails(tmp_path):
    """``check(name, blob, load)``: every proper prefix of the valid file ``blob``,
    written as ``name``, makes ``load`` raise a FormatError whose message starts
    with the file's path and names a byte offset inside the prefix."""

    def check(name, blob, load):
        path = tmp_path / name
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError) as err:
                load(path)
            message = str(err.value)
            offset = re.search(r"at byte (\d+)", message)
            assert message.startswith(f"{path}: ") and offset, message
            assert int(offset.group(1)) <= cut, message

    return check
