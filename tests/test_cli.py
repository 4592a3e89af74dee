"""Command line interface: output text, exit codes, report determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reslat

from reslat import catalog, cli, fileformat as ff, modelgen, report
import reslat.filters as flt

from oracles import run_cli


def test_check_valid_algebra():
    code, out, _ = run_cli(["check", "A6"])
    assert code == cli.EX_OK
    assert out == (
        "A6: valid residuated lattice on 6 elements\n"
        "filters=5 maximal=2 prime=3\n"
    )


def test_check_reads_files(tmp_path):
    p = tmp_path / "alg.txt"
    p.write_text(ff.serialize(catalog.get("MV3")))
    code, out, _ = run_cli(["check", str(p)])
    assert code == cli.EX_OK and "3 elements" in out


def test_check_invalid_algebra_exits_one(tmp_path):
    text = ff.serialize(catalog.get("A6")).splitlines()
    row = text.index("mul") + 2
    text[row] = "0 a a d a a"  # a*c := d while c*a stays 0
    p = tmp_path / "broken.txt"
    p.write_text("\n".join(text) + "\n")
    code, out, err = run_cli(["check", str(p)])
    assert code == cli.EX_FALSE
    assert "not commutative at a,c" in out + err


CHAIN3 = json.loads(ff.to_json(catalog.get("chain3")))
MALFORMED_JSON = {
    "res_is_a_number": dict(CHAIN3, res=5),
    "res_lacks_rows": dict(CHAIN3, res=CHAIN3["res"][:2]),
    "res_rows_too_short": dict(CHAIN3, res=[r[:2] for r in CHAIN3["res"]]),
    "elements_is_a_number": dict(CHAIN3, elements=5),
    "elements_is_a_string": dict(CHAIN3, elements="0a1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_fields_are_reported_not_raised(case, tmp_path):
    """Run as a process, so an uncaught exception would show as a traceback
    (and also exit 1) instead of failing inside the test."""
    p = tmp_path / f"{case}.json"
    p.write_text(json.dumps(MALFORMED_JSON[case]))
    env = dict(os.environ, PYTHONPATH=str(Path(reslat.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "reslat.cli", "check", str(p)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == cli.EX_FALSE
    assert proc.stdout == ""
    assert proc.stderr.startswith("invalid algebra: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("form", (ff.serialize, ff.to_json))
def test_a_byte_order_mark_is_skipped(form, tmp_path):
    p = tmp_path / "bom.txt"
    p.write_bytes(b"\xef\xbb\xbf" + form(catalog.get("MV3")).encode())
    code, out, err = run_cli(["check", str(p)])
    assert (code, err) == (cli.EX_OK, "")
    assert out.startswith("MV3: valid residuated lattice on 3 elements")


def test_a_file_that_is_not_utf8_is_an_invalid_algebra(tmp_path):
    text = ff.serialize(catalog.get("MV3")).encode()
    p = tmp_path / "latin.txt"
    p.write_bytes(text.replace(b"name MV3", b"name MV\xff3"))
    code, out, err = run_cli(["check", str(p)])
    assert (code, out) == (cli.EX_FALSE, "")
    assert err == "invalid algebra: line 1: not UTF-8: invalid start byte 0xff\n"


@pytest.mark.parametrize("kind", ["fifo", "device", "directory"])
def test_a_path_that_is_not_a_regular_file_is_refused_unopened(kind, tmp_path, monkeypatch):
    """A FIFO with no writer would block `open`, and /dev/zero would be read
    until the byte bound; neither is opened."""
    paths = {"fifo": tmp_path / "fifo", "device": "/dev/zero", "directory": tmp_path}
    path = str(paths[kind])
    if kind == "fifo":
        os.mkfifo(path)

    def refuse(*args, **kwargs):
        raise AssertionError("opened")

    monkeypatch.setattr(ff, "open", refuse, raising=False)
    assert run_cli(["check", path]) == (
        cli.EX_IO, "", f"io error: {path!r} is not a regular file\n"
    )


def test_a_file_past_the_byte_bound_is_refused(tmp_path, monkeypatch):
    """RESLAT_MAX_SIZE=2 admits files of 256 * 2 * 2 bytes: one of exactly
    that size parses, one a byte longer is refused, and neither is read
    past the bound plus one byte."""
    monkeypatch.setenv("RESLAT_MAX_SIZE", "2")
    text = ff.serialize(catalog.get("chain2"))
    fits, over = tmp_path / "fits.txt", tmp_path / "over.txt"
    fits.write_text(text + "#" * (1024 - len(text)))
    over.write_text(text + "#" * (1025 - len(text) + 4096))
    reads = []

    class Reader:
        def __init__(self, path, mode):
            self.fh = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, *size):
            reads.append(size)
            return self.fh.read(*size)

    monkeypatch.setattr(ff, "open", Reader, raising=False)
    code, out, err = run_cli(["check", str(fits)])
    assert (code, err) == (cli.EX_OK, "")
    assert out.startswith("chain2: valid residuated lattice on 2 elements")
    assert run_cli(["check", str(over)]) == (
        cli.EX_FALSE, "", "invalid algebra: file exceeds 1024 bytes, the bound for 2 elements\n"
    )
    assert reads == [(1025,), (1025,)]


def test_an_unexpected_exception_exits_70_with_its_traceback(monkeypatch):
    def filter_generators(a):
        raise RuntimeError("injected")

    monkeypatch.setattr(flt, "filter_generators", filter_generators)
    code, out, err = run_cli(["check", "A6"])
    assert (code, out) == (cli.EX_SOFTWARE, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: injected\n")


def test_filters_listing():
    code, out, _ = run_cli(["filters", "A6"])
    assert code == cli.EX_OK
    assert out == (
        "{1} generator=1 prime,pure\n"
        "{d,1} generator=d\n"
        "{c,d,1} generator=c maximal,prime\n"
        "{a,b,d,1} generator=a maximal,prime\n"
        "{0,a,b,c,d,1} generator=0 improper,pure\n"
    )


def test_spectrum_listing():
    code, out, _ = run_cli(["spectrum", "A6"])
    assert code == cli.EX_OK
    assert out == (
        "{1}\n"
        "{c,d,1} maximal\n"
        "{a,b,d,1} maximal\n"
        "3 points, 5 closed sets\n"
        "compact=yes discrete=no hausdorff=no normal=no t1=no\n"
    )


def test_spectrum_patch_kind():
    code, out, _ = run_cli(["spectrum", "A6", "--kind", "patch"])
    assert code == cli.EX_OK
    assert "3 points, 8 closed sets" in out
    assert "discrete=yes" in out


def test_gelfand_no_with_witnesses():
    code, out, _ = run_cli(["gelfand", "A6"])
    assert code == cli.EX_FALSE
    assert out == (
        "Gelfand: no (0/14 criteria)\n"
        "witness[contessa]: a*c = 0 but no powers have negations joining to 1\n"
        "witness[unique_maximal]: prime {1} lies under {c,d,1} and {a,b,d,1}\n"
    )


def test_gelfand_yes():
    code, out, _ = run_cli(["gelfand", "A8"])
    assert code == cli.EX_OK
    assert out == "Gelfand: yes (14/14 criteria)\n"


def test_pure_exit_tracks_the_homeomorphism():
    code, out, _ = run_cli(["pure", "A8"])
    assert code == cli.EX_OK
    assert "pure spectrum homeomorphic to maximal spectrum: yes" in out
    code, out, _ = run_cli(["pure", "A6"])
    assert code == cli.EX_FALSE
    assert "pure spectrum homeomorphic to maximal spectrum: no" in out


def test_soft_battery_output():
    code, out, _ = run_cli(["soft", "cube2"])
    assert code == cli.EX_OK
    assert out == (
        "gelfand_and_trivial_radical: yes\n"
        "max_hausdorff_and_dense: yes\n"
        "semisimple_with_unique_maximals_over_radical: yes\n"
        "soft: yes\n"
    )
    code, out, _ = run_cli(["soft", "A6"])
    assert code == cli.EX_FALSE
    assert out.endswith("soft: no\n")


def test_catalog_listing():
    code, out, _ = run_cli(["catalog"])
    assert code == cli.EX_OK
    assert out.splitlines()[0] == "A6: 6 elements"
    assert len(out.splitlines()) == 11


def test_search_summary():
    code, out, _ = run_cli(["search", "3"])
    assert code == cli.EX_OK
    assert out == (
        "n=1: lattices=1 structures=1 gelfand=1 soft=1 local=0 semisimple=1"
        " rickart=1 baer=1 prelinear=1\n"
        "n=2: lattices=1 structures=1 gelfand=1 soft=1 local=1 semisimple=1"
        " rickart=1 baer=1 prelinear=1\n"
        "n=3: lattices=1 structures=2 gelfand=2 soft=1 local=2 semisimple=1"
        " rickart=2 baer=2 prelinear=2\n"
    )


def test_search_chains_only():
    code, out, _ = run_cli(["search", "4", "--chains"])
    assert code == cli.EX_OK
    assert "n=4: lattices=1 structures=6" in out


# size -> (RESLAT_MAX_SIZE, exit code, stderr)
SEARCH_REFUSALS = {
    "9": (None, cli.EX_USAGE, "usage error: search is limited to 8 elements, got 9\n"),
    "64": (None, cli.EX_USAGE, "usage error: search is limited to 8 elements, got 64\n"),
    "0": (None, cli.EX_USAGE, "usage error: search needs a positive size, got 0\n"),
    "-2": (None, cli.EX_USAGE, "usage error: search needs a positive size, got -2\n"),
    "5": ("3", cli.EX_FALSE, "invalid algebra: carrier size 5 exceeds bound 3\n"),
}


@pytest.mark.parametrize("size", list(SEARCH_REFUSALS))
def test_search_refuses_sizes_above_seven_before_enumerating(monkeypatch, size):
    """Sizes above eight, below one or above RESLAT_MAX_SIZE are refused
    before the first size is classified, so nothing is printed."""
    def classify_all(*args, **kwargs):
        raise AssertionError("the search started")

    bound, code, err = SEARCH_REFUSALS[size]
    monkeypatch.setattr(modelgen, "classify_all", classify_all)
    if bound is not None:
        monkeypatch.setenv("RESLAT_MAX_SIZE", bound)
    assert run_cli(["search", size]) == (code, "", err)


def test_report_is_deterministic_and_valid_json(tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(["report", "A8", "-o", str(f1)])[0] == cli.EX_OK
    assert run_cli(["report", "A8", "-o", str(f2)])[0] == cli.EX_OK
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["name"] == "A8" and doc["gelfand"]["verdict"] is True
    assert b1.decode() == report.render_json(report.build_report(catalog.get("A8")))


def test_export_dot_to_file(tmp_path):
    p = tmp_path / "a6.dot"
    code, out, _ = run_cli(["export-dot", "A6", "-o", str(p)])
    assert code == cli.EX_OK and out == ""
    assert p.read_text() == ff.export_dot(catalog.get("A6"))
    code, out, _ = run_cli(["export-dot", "A8", "--kind", "spec"])
    assert code == cli.EX_OK and out == ff.export_dot(catalog.get("A8"), kind="spec")


def test_usage_errors_exit_64():
    assert run_cli(["nope"])[0] == cli.EX_USAGE
    assert run_cli(["gelfand"])[0] == cli.EX_USAGE
    assert run_cli([])[0] == cli.EX_USAGE


def test_a_size_bound_below_one_is_a_usage_error(monkeypatch):
    monkeypatch.setattr(catalog, "_built", {})
    monkeypatch.setenv("RESLAT_MAX_SIZE", "-1")
    assert run_cli(["check", "A6"]) == (
        cli.EX_USAGE, "", "usage error: RESLAT_MAX_SIZE must be a positive integer, got '-1'\n"
    )


def test_missing_input_exits_74():
    code, _, err = run_cli(["check", "nosuchthing"])
    assert code == cli.EX_IO
    assert "nosuchthing" in err


def test_equivalence_violation_exits_2(monkeypatch):
    monkeypatch.setattr(catalog, "_built", {})
    monkeypatch.setattr(flt, "radical_total", lambda a, f: 1 << a.one)
    code, out, err = run_cli(["gelfand", "A8"])
    assert code == cli.EX_VIOLATION
    assert "equivalence violation" in err
    assert "detail:" in err


# Command lines that are refused before any command runs.
REFUSED_COMMAND_LINES = {
    "no command": [],
    "an unknown command": ["nope", "A8"],
    "a missing algebra": ["gelfand"],
    "a missing size": ["search", "--deep"],
    "an extra operand": ["check", "A8", "A6"],
    "an operand for catalog": ["catalog", "A8"],
    "an unknown option": ["check", "A8", "--kind", "hull"],
    "an unknown short option": ["report", "A8", "-x"],
    "--kind without a value": ["spectrum", "A8", "--kind"],
    "--kind followed by an option": ["export-dot", "--kind", "--output", "F", "A8"],
    "--kind with another command's choice": ["spectrum", "A8", "--kind", "spec"],
    "--kind with no command's choice": ["export-dot", "A8", "--kind=png"],
    "a switch with a value": ["search", "3", "--deep=yes"],
    "an option of another command": ["search", "3", "-o", "F"],
    "a size that is not an integer": ["search", "x"],
    "an option before the command": ["--kind", "patch", "spectrum", "A8"],
}


@pytest.mark.parametrize("case", sorted(REFUSED_COMMAND_LINES))
def test_a_refused_command_line_is_a_usage_error(case):
    code, out, err = run_cli(REFUSED_COMMAND_LINES[case])
    assert (code, out) == (cli.EX_USAGE, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_the_refusals_name_what_is_wrong():
    assert run_cli(["spectrum", "A8", "--kind", "spec"])[2] == (
        "usage error: --kind must be one of hull, dual, patch, got 'spec'\n"
    )
    assert run_cli(["search", "x"])[2] == "usage error: N must be an integer, got 'x'\n"
    assert run_cli(["gelfand"])[2] == "usage error: missing operand: reslat gelfand ALG\n"
    assert run_cli(["check", "A8", "A6", "-q"])[2] == (
        "usage error: unrecognized arguments: A6 -q\n"
    )
    assert "choose from " + ", ".join(cli.COMMANDS) in run_cli(["nope"])[2]


def test_a_negative_number_is_an_operand_not_an_option():
    """So `search -2` reaches the search's own refusal (SEARCH_REFUSALS), and
    `check -2` looks for an algebra named -2."""
    assert run_cli(["check", "-2"]) == (
        cli.EX_IO, "", "io error: no catalog entry or file named '-2'\n"
    )


@pytest.mark.parametrize("argv, same", [
    (["spectrum", "A8", "--kind=patch"], ["spectrum", "A8", "--kind", "patch"]),
    (["spectrum", "--kind", "patch", "A8"], ["spectrum", "A8", "--kind", "patch"]),
    (["export-dot", "--kind", "spec", "A8"], ["export-dot", "A8", "--kind", "spec"]),
    (["export-dot", "A8", "--k", "spec"], ["export-dot", "A8", "--kind", "spec"]),
    (["spectrum", "A8", "--ki=dual"], ["spectrum", "A8", "--kind", "dual"]),
    (["search", "--ch", "4", "--d"], ["search", "4", "--chains", "--deep"]),
    (["check", "--", "A8"], ["check", "A8"]),
])
def test_options_match_by_form_position_and_unique_prefix(argv, same):
    got = run_cli(argv)
    assert got == run_cli(same) and got[0] == cli.EX_OK


@pytest.mark.parametrize("given", [
    ["-o", "{}"], ["-o{}"], ["-o={}"], ["--output", "{}"], ["--output={}"], ["--out", "{}"],
])
def test_report_writes_where_the_output_option_says(given, tmp_path):
    p = tmp_path / "r.json"
    assert run_cli(["report", "A8", *(g.format(p) for g in given)]) == (cli.EX_OK, "", "")
    assert p.read_text() == report.render_json(report.build_report(catalog.get("A8")))


HELP_COMMAND_LINES = [
    ["--help"], ["-h"], ["--he"], ["-h", "nope"], ["check", "-h"], ["search", "--help"],
    ["export-dot", "A8", "--bogus", "-h"],
]


def test_help_exits_zero():
    """-h/--help is read in order, at the top or after a command, and lists
    every command with its options."""
    for argv in HELP_COMMAND_LINES:
        code, out, err = run_cli(argv)
        assert (code, err) == (cli.EX_OK, ""), argv
        assert out.startswith("usage: reslat ")
        # a command's line is indented two spaces, its options' lines six
        listed = [line.split()[0] for line in out.splitlines()
                  if line[:2] == "  " and line[2] != " "]
        assert listed == list(cli.COMMANDS)
        for options in (spec[3] for spec in cli.COMMANDS.values()):
            assert all(flag in out for flag in options)


def test_help_after_a_refusal_is_not_reached():
    assert run_cli(["nope", "-h"])[0] == cli.EX_USAGE
    assert run_cli(["spectrum", "--kind", "png", "-h"])[0] == cli.EX_USAGE
