"""The `report` JSON and the `check`, `filters` and
`spectrum --kind hull|dual|patch` output of every catalog algebra, compared
byte for byte with the committed fixtures in tests/golden/. A change to any of
them is a change to the package's answers; regenerate a fixture only when
that change is intended, with

    PYTHONPATH=src python -m reslat.cli report NAME > tests/golden/NAME.report.json
    PYTHONPATH=src python -m reslat.cli COMMAND NAME > tests/golden/NAME.COMMAND.txt
    PYTHONPATH=src python -m reslat.cli spectrum --kind KIND NAME \\
        > tests/golden/NAME.spectrum-KIND.txt
"""

from pathlib import Path

import pytest

from reslat import catalog, cli

from oracles import run_cli

GOLDEN = Path(__file__).parent / "golden"

CASES = [(name, ["report", name], f"{name}.report.json")
         for name in catalog.catalog_names()]
CASES += [(name, [command, name], f"{name}.{command}.txt")
          for name in catalog.catalog_names() for command in ("check", "filters")]
CASES += [(name, ["spectrum", "--kind", kind, name], f"{name}.spectrum-{kind}.txt")
          for name in catalog.catalog_names() for kind in ("hull", "dual", "patch")]


def test_every_fixture_is_compared():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(f for _, _, f in CASES)


@pytest.mark.parametrize("name,argv,fixture", CASES, ids=[f for _, _, f in CASES])
def test_output_matches_the_fixture(name, argv, fixture):
    code, out, _ = run_cli(argv)
    assert code == cli.EX_OK
    assert out.encode("utf-8") == (GOLDEN / fixture).read_bytes()
