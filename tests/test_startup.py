"""Start-up: `import reslat` is lazy, and a CLI process imports only the
modules its command runs.

pytest has already imported every reslat module, so an in-process check
cannot see what a command imports: each command runs in a fresh
`python -X importtime -m reslat.cli` process, whose stderr lists every module
the process imported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import reslat
from reslat import catalog, cli

SRC = str(Path(reslat.__file__).parent.parent)
# The modules of the Gelfand criteria, the law suites, the JSON report and
# the model search.
HEAVY = {"reslat.gelfand", "reslat.laws", "reslat.report", "reslat.modelgen"}


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("RESLAT_MAX_SIZE", None)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def imports_of(proc):
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def imported_by(*argv):
    """(exit code, the modules a fresh process imported) for one command."""
    proc = run_python("-X", "importtime", "-m", "reslat.cli", *argv)
    names = imports_of(proc)
    assert "reslat.core" in names, proc.stderr
    return proc.returncode, names


@pytest.fixture(scope="module")
def malformed(tmp_path_factory):
    text = reslat.serialize(catalog.get("chain3")).replace("\nmul\n0 0 0\n", "\nmul\n0 0\n")
    path = tmp_path_factory.mktemp("startup") / "malformed.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


LIGHT_COMMANDS = {
    "check": (["check", "A8"], 0),
    "filters": (["filters", "A8"], 0),
    "export-dot": (["export-dot", "A8"], 0),
    "export-dot spec": (["export-dot", "--kind", "spec", "A8"], 0),
    "absent file": (["check", "no/such/file.txt"], 74),
}


@pytest.mark.parametrize("name", sorted(LIGHT_COMMANDS))
def test_short_commands_load_no_criteria_laws_report_or_search(name):
    argv, code = LIGHT_COMMANDS[name]
    got, names = imported_by(*argv)
    assert got == code
    assert names & HEAVY == set()
    assert "dataclasses" not in names
    if argv[0] == "check":
        # an absent file stops before the filter analysis is imported
        assert ("reslat.filters" in names) == (code == 0)


ALGEBRA_COMMANDS = ("check", "filters", "spectrum", "gelfand", "pure", "soft", "report",
                    "export-dot")


@pytest.mark.parametrize("command", ALGEBRA_COMMANDS)
def test_a_rejected_input_loads_only_what_resolves_it(command, malformed):
    """`main` resolves the algebra before the command imports anything, and
    the handlers of its refusals import nothing (not even `traceback`)."""
    code, names = imported_by(command, malformed)
    assert code == 1
    assert {n for n in names if n.partition(".")[0] == "reslat"} == {
        "reslat", "reslat.core", "reslat.errors", "reslat.catalog", "reslat.fileformat",
    }
    assert "traceback" not in names and "dataclasses" not in names


def test_report_loads_no_model_search():
    code, names = imported_by("report", "A8")
    assert code == 0
    assert {"reslat.gelfand", "reslat.laws", "reslat.report"} <= names
    assert "reslat.modelgen" not in names and "dataclasses" not in names


@pytest.mark.parametrize("argv", [
    ["spectrum", "A8"], ["gelfand", "A8"], ["pure", "A8"], ["soft", "A8"],
    ["catalog"], ["search", "3"],
])
def test_no_command_loads_dataclasses(argv):
    code, names = imported_by(*argv)
    assert code in (0, 1)
    assert "dataclasses" not in names
    assert ("reslat.modelgen" in names) == (argv[0] == "search")


def test_search_loads_the_law_suites_only_when_deep():
    code, names = imported_by("search", "3")
    assert code == 0
    assert names & {"reslat.report", "reslat.laws", "reslat.catalog", "reslat.fileformat"} == set()
    code, names = imported_by("search", "3", "--deep")
    assert code == 0
    assert "reslat.laws" in names and "reslat.report" not in names


# One command line per command that runs it to the end.
EVERY_COMMAND = {
    "check": ["A8"], "filters": ["A8"], "spectrum": ["A8", "--kind", "patch"],
    "gelfand": ["A8"], "pure": ["A8"], "soft": ["A8"], "search": ["3", "--deep"],
    "report": ["A8"], "export-dot": ["--kind", "spec", "A8"], "catalog": [],
}


@pytest.fixture(scope="module")
def interpreter_imports():
    """What a bare interpreter imports, `site` and its hooks included."""
    return imports_of(run_python("-X", "importtime", "-c", "pass"))


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_parsing_the_command_line_imports_no_stdlib_module(command, interpreter_imports):
    """COMMANDS is read by hand, so no command loads argparse or what it
    pulls in (gettext, locale), and the search names its elements without
    `string`. Only what the bare interpreter did not import counts."""
    assert set(EVERY_COMMAND) == set(cli.COMMANDS)
    code, names = imported_by(command, *EVERY_COMMAND[command])
    assert code in (0, 1)
    added = names - interpreter_imports
    assert added & {"argparse", "gettext", "locale", "string"} == set()


def test_import_reslat_loads_no_module_until_a_name_is_read():
    probe = (
        "import sys, reslat\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('reslat.'))\n"
        "print(loaded())\n"
        "reslat.validate\n"
        "print(loaded())\n"
        "print(reslat.topology.__name__, loaded())\n"
        "try:\n"
        "    reslat.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "['reslat.core', 'reslat.errors']",
        "reslat.topology ['reslat.core', 'reslat.errors', 'reslat.filters', 'reslat.topology']",
        "module 'reslat' has no attribute 'no_such_name'",
    ]


def test_every_export_is_its_home_modules_object():
    for module, names in reslat._EXPORTS.items():
        home = getattr(reslat, module)
        assert home.__name__ == f"reslat.{module}"
        for name in names.split():
            assert getattr(reslat, name) is getattr(home, name), name
    assert reslat.__all__ == sorted(reslat._HOME)
    assert len(reslat.__all__) == sum(len(n.split()) for n in reslat._EXPORTS.values())


def test_star_import_binds_every_export():
    scope = {}
    exec("from reslat import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == reslat.__all__
    assert all(scope[name] is getattr(reslat, name) for name in reslat.__all__)


def test_submodules_and_unknown_names():
    import reslat.core

    assert reslat.core is sys.modules["reslat.core"]
    assert reslat.ResiduatedLattice is reslat.core.ResiduatedLattice
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        reslat.no_such_name
    assert not hasattr(reslat, "no_such_name")
