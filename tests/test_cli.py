"""Command line interface: output text, exit codes, report determinism."""

import io
import json
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reslat

from reslat import catalog, cli, fileformat as ff, report
import reslat.filters as flt


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def test_check_valid_algebra():
    code, out, _ = run(["check", "A6"])
    assert code == cli.EX_OK
    assert out == (
        "A6: valid residuated lattice on 6 elements\n"
        "filters=5 maximal=2 prime=3\n"
    )


def test_check_reads_files(tmp_path):
    p = tmp_path / "alg.txt"
    p.write_text(ff.serialize(catalog.get("MV3")))
    code, out, _ = run(["check", str(p)])
    assert code == cli.EX_OK and "3 elements" in out


def test_check_invalid_algebra_exits_one(tmp_path):
    text = ff.serialize(catalog.get("A6")).splitlines()
    row = text.index("mul") + 2
    text[row] = "0 a a d a a"  # a*c := d while c*a stays 0
    p = tmp_path / "broken.txt"
    p.write_text("\n".join(text) + "\n")
    code, out, err = run(["check", str(p)])
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
    code, out, err = run(["check", str(p)])
    assert (code, err) == (cli.EX_OK, "")
    assert out.startswith("MV3: valid residuated lattice on 3 elements")


def test_a_file_that_is_not_utf8_is_an_invalid_algebra(tmp_path):
    text = ff.serialize(catalog.get("MV3")).encode()
    p = tmp_path / "latin.txt"
    p.write_bytes(text.replace(b"name MV3", b"name MV\xff3"))
    code, out, err = run(["check", str(p)])
    assert (code, out) == (cli.EX_FALSE, "")
    assert err == "invalid algebra: line 1: not UTF-8: invalid start byte 0xff\n"


def test_filters_listing():
    code, out, _ = run(["filters", "A6"])
    assert code == cli.EX_OK
    assert out == (
        "{1} generator=1 prime,pure\n"
        "{d,1} generator=d\n"
        "{c,d,1} generator=c maximal,prime\n"
        "{a,b,d,1} generator=a maximal,prime\n"
        "{0,a,b,c,d,1} generator=0 improper,pure\n"
    )


def test_spectrum_listing():
    code, out, _ = run(["spectrum", "A6"])
    assert code == cli.EX_OK
    assert out == (
        "{1}\n"
        "{c,d,1} maximal\n"
        "{a,b,d,1} maximal\n"
        "3 points, 5 closed sets\n"
        "compact=yes discrete=no hausdorff=no normal=no t1=no\n"
    )


def test_spectrum_patch_kind():
    code, out, _ = run(["spectrum", "A6", "--kind", "patch"])
    assert code == cli.EX_OK
    assert "3 points, 8 closed sets" in out
    assert "discrete=yes" in out


def test_gelfand_no_with_witnesses():
    code, out, _ = run(["gelfand", "A6"])
    assert code == cli.EX_FALSE
    assert out == (
        "Gelfand: no (0/14 criteria)\n"
        "witness[contessa]: a*c = 0 but no powers have negations joining to 1\n"
        "witness[unique_maximal]: prime {1} lies under {c,d,1} and {a,b,d,1}\n"
    )


def test_gelfand_yes():
    code, out, _ = run(["gelfand", "A8"])
    assert code == cli.EX_OK
    assert out == "Gelfand: yes (14/14 criteria)\n"


def test_pure_exit_tracks_the_homeomorphism():
    code, out, _ = run(["pure", "A8"])
    assert code == cli.EX_OK
    assert "pure spectrum homeomorphic to maximal spectrum: yes" in out
    code, out, _ = run(["pure", "A6"])
    assert code == cli.EX_FALSE
    assert "pure spectrum homeomorphic to maximal spectrum: no" in out


def test_soft_battery_output():
    code, out, _ = run(["soft", "cube2"])
    assert code == cli.EX_OK
    assert out == (
        "gelfand_and_trivial_radical: yes\n"
        "max_hausdorff_and_dense: yes\n"
        "semisimple_with_unique_maximals_over_radical: yes\n"
        "soft: yes\n"
    )
    code, out, _ = run(["soft", "A6"])
    assert code == cli.EX_FALSE
    assert out.endswith("soft: no\n")


def test_catalog_listing():
    code, out, _ = run(["catalog"])
    assert code == cli.EX_OK
    assert out.splitlines()[0] == "A6: 6 elements"
    assert len(out.splitlines()) == 11


def test_search_summary():
    code, out, _ = run(["search", "3"])
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
    code, out, _ = run(["search", "4", "--chains"])
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
    monkeypatch.setattr(cli.modelgen, "classify_all", classify_all)
    if bound is not None:
        monkeypatch.setenv("RESLAT_MAX_SIZE", bound)
    assert run(["search", size]) == (code, "", err)


def test_report_is_deterministic_and_valid_json(tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["report", "A8", "-o", str(f1)])[0] == cli.EX_OK
    assert run(["report", "A8", "-o", str(f2)])[0] == cli.EX_OK
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["name"] == "A8" and doc["gelfand"]["verdict"] is True
    assert b1.decode() == report.render_json(report.build_report(catalog.get("A8")))


def test_export_dot_to_file(tmp_path):
    p = tmp_path / "a6.dot"
    code, out, _ = run(["export-dot", "A6", "-o", str(p)])
    assert code == cli.EX_OK and out == ""
    assert p.read_text() == ff.export_dot(catalog.get("A6"))
    code, out, _ = run(["export-dot", "A8", "--kind", "spec"])
    assert code == cli.EX_OK and out == ff.export_dot(catalog.get("A8"), kind="spec")


def test_usage_errors_exit_64():
    assert run(["nope"])[0] == cli.EX_USAGE
    assert run(["gelfand"])[0] == cli.EX_USAGE
    assert run([])[0] == cli.EX_USAGE


def test_a_size_bound_below_one_is_a_usage_error(monkeypatch):
    monkeypatch.setattr(catalog, "_built", {})
    monkeypatch.setenv("RESLAT_MAX_SIZE", "-1")
    assert run(["check", "A6"]) == (
        cli.EX_USAGE, "", "usage error: RESLAT_MAX_SIZE must be a positive integer, got '-1'\n"
    )


def test_missing_input_exits_74():
    code, _, err = run(["check", "nosuchthing"])
    assert code == cli.EX_IO
    assert "nosuchthing" in err


def test_equivalence_violation_exits_2(monkeypatch):
    monkeypatch.setattr(flt, "radical_total", lambda a, f: 1 << a.one)
    code, out, err = run(["gelfand", "A8"])
    assert code == cli.EX_VIOLATION
    assert "equivalence violation" in err
    assert "detail:" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit):
        # argparse prints help and exits; main() converts that to a return code
        cli.build_parser().parse_args(["--help"])
    assert run(["--help"])[0] == cli.EX_OK
