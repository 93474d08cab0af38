"""tools/make_fixtures.py rewrites the committed Hamming base-cover fixtures byte for byte."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "src", "isopath", "fixtures")


def test_tool_rewrites_every_fixture_byte_identically(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(ROOT, "tools", "make_fixtures.py")
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.FIXTURE_DIR = tmp_path
    assert tool.main() == 0
    capsys.readouterr()
    names = sorted(os.listdir(FIXTURES))
    assert len(names) == 13
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        with open(os.path.join(FIXTURES, name), "rb") as handle:
            assert (tmp_path / name).read_bytes() == handle.read(), name
