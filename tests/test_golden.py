"""Every CLI command's outputs against the committed golden fixture, byte for
byte: each CSV, the stdout lines and ``resolved_config.yaml``.  A change
that moves an answer on purpose regenerates the fixture with
``tests/golden/make_golden.py`` and says so in CHANGES.md."""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _script():
    spec = importlib.util.spec_from_file_location("_make_golden", GOLDEN / "make_golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


make_golden = _script()


@pytest.mark.parametrize("name", sorted(make_golden.CASES))
def test_cli_outputs_match_the_golden_fixture(tmp_path, name):
    out = tmp_path / "out"
    result = make_golden.run_case(name, out)
    assert result.exit_code == 0, result.output
    (out / "stdout.txt").write_text(result.stdout)
    expected = GOLDEN / name
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for file in names:
        assert (out / file).read_bytes() == (expected / file).read_bytes(), file
