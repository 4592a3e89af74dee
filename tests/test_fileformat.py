"""Text and JSON algebra descriptions: byte-stable round trips, positioned
parse errors, DOT export."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from reslat import catalog, cli, core, fileformat as ff, filters as flt, modelgen as mg
from reslat.errors import FormatError, ReslatError, ResiduumMismatch

from oracles import goedel, is_isomorphic, run_cli

A6_TEXT = """\
name A6
elements 0 a b c d 1
covers 0<a 0<c a<b b<d c<d d<1
mul
0 0 0 0 0 0
0 a a 0 a a
0 a a 0 a b
0 0 0 c c c
0 a a c d d
0 a b c d 1
res
1 1 1 1 1 1
c 1 1 c 1 1
c d 1 c 1 1
b b b 1 1 1
0 b b c 1 1
0 a b c d 1
"""

A6_HASSE_DOT = """\
digraph A6 {
  rankdir=BT;
  "0";
  "a";
  "b";
  "c";
  "d";
  "1";
  "0" -> "a";
  "0" -> "c";
  "a" -> "b";
  "b" -> "d";
  "c" -> "d";
  "d" -> "1";
}
"""

A8_SPEC_DOT = """\
digraph A8 {
  rankdir=BT;
  "{f,1}";
  "{c,e,1}";
  "{a,c,d,e,f,1}";
  "{f,1}" -> "{a,c,d,e,f,1}";
  "{c,e,1}" -> "{a,c,d,e,f,1}";
}
"""

CATALOG = (
    "A6", "A8", "chain2", "chain3", "chain4", "chain5", "chain6",
    "cube1", "cube2", "cube3", "MV3",
)


def test_serialize_a6_is_byte_frozen():
    assert ff.serialize(catalog.get("A6")) == A6_TEXT


def test_parse_text_reads_the_frozen_form():
    a = ff.parse_text(A6_TEXT)
    ref = catalog.get("A6")
    assert a.label == "A6" and a.names == ref.names
    assert a.mul == ref.mul and a.res == ref.res and a.up == ref.up


@pytest.mark.parametrize("name", CATALOG)
def test_text_round_trip_is_byte_exact(name):
    a = catalog.get(name)
    text = ff.serialize(a)
    assert ff.serialize(ff.parse_text(text)) == text


@pytest.mark.parametrize("name", CATALOG)
def test_json_round_trip_is_byte_exact(name):
    a = catalog.get(name)
    doc = ff.to_json(a)
    assert ff.to_json(ff.parse_json_text(doc)) == doc
    json.loads(doc)  # stays plain JSON


def test_parse_sniffs_the_format():
    a = catalog.get("A6")
    assert ff.parse(ff.to_json(a)).label == "A6"
    assert ff.parse(ff.serialize(a)).label == "A6"


def test_load_reads_files(tmp_path):
    p = tmp_path / "a6.txt"
    p.write_text(A6_TEXT)
    assert ff.load(str(p)).label == "A6"
    q = tmp_path / "a6.json"
    q.write_text(ff.to_json(catalog.get("A6")))
    assert ff.load(str(q)).label == "A6"


def test_row_with_wrong_arity_reports_its_line():
    lines = A6_TEXT.splitlines()
    lines[lines.index("mul") + 2] = "0 a a 0 a"
    with pytest.raises(FormatError, match=r"line 6: expected 6 entries"):
        ff.parse_text("\n".join(lines) + "\n")


def test_duplicate_blocks_are_rejected():
    with pytest.raises(FormatError, match="duplicate covers line"):
        ff.parse_text(A6_TEXT + "covers 0<a\n")
    with pytest.raises(FormatError, match="duplicate mul block"):
        ff.parse_text(A6_TEXT + "mul\n" + "0 0 0 0 0 0\n" * 6)
    with pytest.raises(FormatError, match="^line 2: duplicate name line$"):
        ff.parse_text("name first\n" + ff.serialize(catalog.get("chain2")))


def test_truncated_table_reports_the_block_start():
    with pytest.raises(FormatError, match=r"line 2: table starting here is missing 1 rows"):
        ff.parse_text("elements 0 1\nmul\n0 0\n")


def test_unknown_directive_and_unknown_element():
    with pytest.raises(FormatError, match="unknown directive"):
        ff.parse_text("elements 0 1\nbogus x\n")
    with pytest.raises(FormatError, match="unknown element 'q'"):
        ff.parse_text("elements 0 1\ncovers 0<q\n")


def test_order_block_is_mandatory_and_unique():
    with pytest.raises(FormatError, match="exactly one of covers or leq"):
        ff.parse_text("elements 0 1\nmul\n0 0\n0 1\n")
    base = "elements 0 1\ncovers 0<1\nmul\n0 0\n0 1\nleq\n1 1\n0 1\n"
    with pytest.raises(FormatError, match="exactly one of covers or leq"):
        ff.parse_text(base)
    chain2 = {"elements": ["0", "1"], "mul": [["0", "0"], ["0", "1"]]}
    for order in ({}, {"covers": [["0", "1"]], "leq": [[1, 1], [0, 1]]}):
        with pytest.raises(FormatError, match="^need exactly one of covers or leq$"):
            ff.parse_json_text(json.dumps({**chain2, **order}))


CHAIN2_JSON = '"elements": ["0", "1"], "covers": [["0", "1"]], "mul": [["0", "0"], ["0", "1"]]'


@pytest.mark.parametrize("parse,text,message,line", [
    pytest.param(ff.parse_text, "mul\n", "mul before elements", 1, id="before-elements"),
    pytest.param(ff.parse_text, "elements 0 1\n\nres 1\n", "res takes no arguments", 3,
                 id="block-arguments"),
    pytest.param(ff.parse_text, "name x\nelements\n", "elements line lists no elements", 2,
                 id="no-elements-listed"),
    pytest.param(ff.parse_text, "elements 0 a 0\n", "duplicate element names", 1,
                 id="duplicate-names"),
    pytest.param(ff.parse_text, "elements 0 1\ncovers 0<1 1\n", "malformed cover '1'", 2,
                 id="malformed-cover"),
    pytest.param(ff.parse_text, "name x\n", "no elements line", None, id="no-elements"),
    pytest.param(ff.parse_text, "elements 0 1\ncovers 0<1\n", "no mul table", None,
                 id="no-mul"),
    pytest.param(ff.parse_json_text, '{\n  "elements": ["0", "1"],\n  covers\n}',
                 "bad JSON: Expecting property name enclosed in double quotes", 3,
                 id="json-syntax"),
    pytest.param(ff.parse_json_text, '{"elements": ' + "[" * 100_000,
                 "bad JSON: nested too deeply", None, id="json-nesting"),
    pytest.param(ff.parse_json_text, '["0", "1"]', "top level must be an object", None,
                 id="json-top-level"),
    pytest.param(ff.parse_json_text, '{"covers": []}', "no elements line", None,
                 id="json-no-elements"),
    pytest.param(ff.parse_json_text, '{"elements": ["0", "1"], "mul": []}',
                 "need exactly one of covers or leq", None, id="json-no-order"),
    pytest.param(ff.parse_json_text, '{"elements": ["0"], "covers": [["0", "q"]]}',
                 "unknown element 'q'", None, id="json-unknown-element"),
    pytest.param(ff.parse_json_text, '{"elements": ["0", "1"], "covers": [["0", "1"]]}',
                 "no mul table", None, id="json-missing-field"),
    pytest.param(ff.parse_json_text, '{"elements": ["0", "1"], "covers": [["0"]]}',
                 "malformed cover ['0']", None, id="json-malformed-covers"),
    pytest.param(ff.parse_json_text, '{%s, "res": [["1", "1"], ["0", "q"]]}' % CHAIN2_JSON,
                 "unknown element 'q'", None, id="json-unknown-in-res"),
    pytest.param(ff.parse_json_text, '{%s, "ress": [["0", "0"], ["0", "0"]]}' % CHAIN2_JSON,
                 "unknown directive 'ress'", None, id="json-unknown-key"),
    pytest.param(ff.parse_json_text, '{"name": ["x"], %s}' % CHAIN2_JSON,
                 "name must be a string", None, id="json-name-not-a-string"),
    pytest.param(ff.parse_json_text, '{"name": "x", %s, "name": "other"}' % CHAIN2_JSON,
                 "duplicate name line", None, id="json-duplicate-name"),
    pytest.param(ff.parse_json_text, '{%s, "covers": []}' % CHAIN2_JSON,
                 "duplicate covers line", None, id="json-duplicate-covers"),
    pytest.param(ff.parse_json_text, '{%s, "mul": [["0", "0"], ["0", "0"]]}' % CHAIN2_JSON,
                 "duplicate mul block", None, id="json-duplicate-mul"),
    pytest.param(ff.parse_json_text, '{"name": "x", "bogus": 1, "name": "y"}',
                 "unknown directive 'bogus'", None, id="json-unknown-before-duplicate"),
])
def test_each_parser_refusal_names_its_cause_and_line(parse, text, message, line):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


CHAIN2_TEXT = "elements 0 1\ncovers 0<1\nmul\n0 0\n0 1\n"
CHAIN2 = {"elements": ["0", "1"], "covers": [["0", "1"]], "mul": [["0", "0"], ["0", "1"]]}
CHAIN2_LEQ = {"elements": ["0", "1"], "leq": [[1, 1], [0, 1]], "mul": CHAIN2["mul"]}


@pytest.mark.parametrize("text,line,data,message", [
    pytest.param("name x\n", None, {"name": "x"}, "no elements line", id="no-elements"),
    pytest.param("name x\nelements\n", 2, {"name": "x", "elements": []},
                 "elements line lists no elements", id="no-elements-listed"),
    pytest.param("elements 0 a 0\n", 1, {"elements": ["0", "a", "0"]},
                 "duplicate element names", id="duplicate-names"),
    pytest.param("elements 0 1\nbogus x\n", 2, {"elements": ["0", "1"], "bogus": "x"},
                 "unknown directive 'bogus'", id="unknown-directive"),
    pytest.param("elements 0 1\ncovers 0<1 1\n", 2,
                 {"elements": ["0", "1"], "covers": [["0", "1"], "1"]},
                 "malformed cover '1'", id="malformed-cover"),
    pytest.param("elements 0 1\ncovers 0<q\n", 2,
                 {"elements": ["0", "1"], "covers": [["0", "q"]]},
                 "unknown element 'q'", id="unknown-in-covers"),
    pytest.param(CHAIN2_TEXT.replace("0 0\n0 1", "0 0\n0"), 5, {**CHAIN2, "mul": [["0", "0"], ["0"]]},
                 "expected 2 entries in table row", id="row-length"),
    pytest.param(CHAIN2_TEXT.replace("0 0\n0 1", "0 0\n0 q"), 5,
                 {**CHAIN2, "mul": [["0", "0"], ["0", "q"]]},
                 "unknown element 'q'", id="unknown-in-mul"),
    pytest.param(CHAIN2_TEXT + "res\n1 1\n0 q\n", 8,
                 {**CHAIN2, "res": [["1", "1"], ["0", "q"]]},
                 "unknown element 'q'", id="unknown-in-res"),
    pytest.param("elements 0 1\nleq\n1 2\n0 1\nmul\n0 0\n0 1\n", 3,
                 {**CHAIN2_LEQ, "leq": [[1, 2], [0, 1]]},
                 "leq rows must contain 0 or 1", id="leq-entry"),
    pytest.param("elements 0 1\nmul\n0 0\n0 1\n", None,
                 {"elements": ["0", "1"], "mul": CHAIN2["mul"]},
                 "need exactly one of covers or leq", id="no-order"),
    pytest.param(CHAIN2_TEXT + "leq\n1 1\n0 1\n", None, {**CHAIN2_LEQ, **CHAIN2},
                 "need exactly one of covers or leq", id="both-orders"),
    pytest.param("elements 0 1\ncovers 0<1\n", None,
                 {"elements": ["0", "1"], "covers": [["0", "1"]]}, "no mul table", id="no-mul"),
])
def test_both_readers_refuse_a_fault_alike(text, line, data, message):
    """A fault the text and JSON forms can both carry is refused with one
    message; the text names its line, JSON none."""
    with pytest.raises(FormatError) as in_text:
        ff.parse_text(text)
    with pytest.raises(FormatError) as in_json:
        ff.parse_json_text(json.dumps(data))
    assert (in_text.value.line, in_json.value.line) == (line, None)
    assert str(in_text.value) == (message if line is None else f"line {line}: {message}")
    assert str(in_json.value) == message


def _names_as(values):
    """CHAIN2 with its names 0 and 1 written as the given JSON values."""
    zero, one = values
    return {"elements": [zero, one], "covers": [[zero, one]],
            "mul": [[zero, zero], [zero, one]]}


@pytest.mark.parametrize("data,message", [
    pytest.param(_names_as([0, 1]), "elements must be a list of strings", id="integer-names"),
    pytest.param(_names_as([False, True]), "elements must be a list of strings",
                 id="boolean-names"),
    pytest.param(_names_as([["z"], "1"]), "elements must be a list of strings", id="list-names"),
    pytest.param({**CHAIN2, "mul": [[0, 0], [0, 1]]}, "unknown element 0",
                 id="integer-entries"),
    pytest.param({**CHAIN2, "mul": [["0", "0"], ["0", True]]}, "unknown element True",
                 id="boolean-entries"),
    pytest.param({**CHAIN2, "mul": [["0", "0"], ["0", ["1"]]]}, "unknown element ['1']",
                 id="list-entries"),
    pytest.param({**CHAIN2, "covers": [[0, "1"]]}, "unknown element 0", id="integer-cover"),
    pytest.param({**CHAIN2, "mul": None}, "mul must be a list", id="null-mul"),
    pytest.param({**CHAIN2, "res": None}, "res must be a list", id="null-res"),
    pytest.param({**CHAIN2, "covers": None}, "covers must be a list", id="null-covers"),
    pytest.param({**CHAIN2_LEQ, "leq": None}, "leq must be a list", id="null-leq"),
    pytest.param({**CHAIN2, "mul": [["0", "0"], None]}, "expected 2 entries in table row",
                 id="null-row"),
])
def test_each_json_probe_exits_1_as_an_invalid_algebra(tmp_path, data, message):
    """Names and table entries must be strings that name an element, as in
    the text form, and each table a list: no value is converted to a name,
    and no message names a Python type."""
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(data))
    assert run_cli(["check", str(path)]) == (cli.EX_FALSE, "", f"invalid algebra: {message}\n")


def test_comments_and_blank_lines_are_skipped():
    lines = A6_TEXT.splitlines()
    lines[1] += "  # the running example"
    lines[3:3] = ["", "# the monoid, row by row", "   "]
    a = ff.parse_text("# A6 of the paper\n\n" + "\n".join(lines) + "\n\n# end\n")
    assert a == catalog.get("A6") and a.label == "A6"


def _chain2_json(leq):
    return json.dumps({"elements": ["0", "1"], "leq": leq, "mul": [["0", "0"], ["0", "1"]]})


@pytest.mark.parametrize("text", [
    pytest.param("elements 0 1\nleq\n1 2\n0 1\nmul\n0 0\n0 1\n", id="text"),
    pytest.param(_chain2_json([[1, 7], [0, 1]]), id="json"),
    pytest.param(_chain2_json([[1, "1"], [0, 1]]), id="json-string"),
    pytest.param(_chain2_json([[1, True], [0, 1]]), id="json-bool"),
])
def test_leq_rows_must_be_binary(text):
    with pytest.raises(FormatError, match="leq rows must contain 0 or 1"):
        ff.parse(text)


@pytest.mark.parametrize("label", ["x#y", "x\ny", "a\rb", "x\x85y", " padded ", "end\t"])
def test_serialize_refuses_labels_the_text_form_cannot_hold(label):
    a = catalog.get("chain3")
    b = core.validate(a.names, a.mul, covers=ff.cover_pairs(a), label=label)
    with pytest.raises(FormatError, match=f"label {re.escape(repr(label))}"):
        ff.serialize(b)
    assert ff.parse_json_text(ff.to_json(b)).label == label


def test_labels_the_text_form_can_hold_round_trip():
    a = catalog.get("chain3")
    for label in ["x y", "a<b", "chain3 x A6"]:
        b = core.validate(a.names, a.mul, covers=ff.cover_pairs(a), label=label)
        assert ff.parse_text(ff.serialize(b)).label == label


def test_supplied_residuum_is_checked_against_the_derived_one():
    lines = A6_TEXT.splitlines()
    lines[lines.index("res") + 1] = "0 1 1 1 1 1"
    with pytest.raises(ResiduumMismatch, match=r"residuum at \(0,0\) is 0, derived 1"):
        ff.parse_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", ["", "a b", "x\ny", "\x85", "a#", "p<q"])
def test_serialize_refuses_names_the_text_form_cannot_hold(name):
    a = catalog.get("chain3")
    leq = [[a.leq(x, y) for y in range(3)] for x in range(3)]
    b = core.validate(("0", name, "1"), a.mul, leq=leq)
    with pytest.raises(FormatError, match=f"element name {re.escape(repr(name))}"):
        ff.serialize(b)
    assert ff.parse_json_text(ff.to_json(b)).names == b.names


def test_serialize_refuses_the_39_element_letter_chain():
    """Letters from 'a' reach chr(0x85), which str.split and str.splitlines
    read as a line break."""
    with pytest.raises(FormatError, match=r"element name '\\x85'"):
        ff.serialize(goedel(39))


def test_cover_pairs_of_a6():
    a = catalog.get("A6")
    pairs = ff.cover_pairs(a)
    assert pairs == ((0, 1), (0, 3), (1, 2), (2, 4), (3, 4), (4, 5))
    assert len(pairs) == 6


def test_export_dot_hasse_is_byte_frozen():
    assert ff.export_dot(catalog.get("A6")) == A6_HASSE_DOT


def test_export_dot_spec_is_byte_frozen():
    assert ff.export_dot(catalog.get("A8"), kind="spec") == A8_SPEC_DOT


DOT_ID = r'"((?:[^"\\]|\\.)*)"'
DOT_STATEMENT = re.compile(rf"  {DOT_ID}(?: -> {DOT_ID})?;")


@pytest.mark.parametrize("kind", ["hasse", "spec"])
def test_export_dot_escapes_quotes_and_backslashes(tmp_path, kind):
    """Every node line of a JSON algebra named with a quote and a backslash
    is one well-formed DOT statement, and unescaping its IDs gives back the
    element names (hasse) or the prime filters (spec)."""
    names = ["0", 'a"b', "c\\", "1"]
    covers = [(0, 1), (1, 2), (2, 3)]
    chain = core.validate(names, goedel(4).mul, covers=covers, label="q")
    path = tmp_path / "quoted.json"
    path.write_text(ff.to_json(chain))
    a = ff.load(str(path))
    lines = ff.export_dot(a, kind).splitlines()
    assert lines[:2] == ["digraph q {", "  rankdir=BT;"] and lines[-1] == "}"
    ids = []
    for line in lines[2:-1]:
        m = DOT_STATEMENT.fullmatch(line)
        assert m, line
        ids += [re.sub(r"\\(.)", r"\1", x) for x in m.groups() if x is not None]
    if kind == "hasse":
        assert set(ids) == set(names)
    else:
        assert set(ids) == {a.set_repr(p) for p in flt.prime_filters(a)}


@pytest.mark.parametrize("kind", ["hasse", "spec"])
def test_export_dot_graph_name_never_starts_with_a_digit(kind):
    """An unquoted DOT ID is letters, digits and underscores, not starting
    with a digit; a file named 2chain is exported as graph _2chain."""
    text = ff.serialize(catalog.get("chain2")).replace("name chain2", "name 2chain")
    a = ff.parse_text(text)
    assert a.label == "2chain"
    head = ff.export_dot(a, kind).splitlines()[0]
    assert head == "digraph _2chain {"


def test_export_dot_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ff.export_dot(catalog.get("A6"), kind="nope")


MODELS = [a for n in (2, 3, 4, 5) for a in mg.residuated_structures(n)]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_relabelings_survive_the_round_trip(data):
    """Serialize-parse recovers any permuted presentation up to isomorphism."""
    a = data.draw(st.sampled_from(MODELS))
    perm = data.draw(st.permutations(range(a.n)))
    names = tuple(f"x{i}" for i in range(a.n))
    mul = [[0] * a.n for _ in range(a.n)]
    for x in range(a.n):
        for y in range(a.n):
            mul[perm[x]][perm[y]] = perm[a.mul[x][y]]
    covers = [(perm[lo], perm[hi]) for lo, hi in ff.cover_pairs(a)]
    b = core.validate(names, mul, covers=covers, label="permuted")
    c = ff.parse_text(ff.serialize(b))
    assert c.mul == b.mul and c.up == b.up
    assert is_isomorphic(c, a)


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_edited_files_raise_nothing_but_package_errors(data):
    """Up to four random splices into the text or JSON form of a catalog
    algebra either parse or raise a ReslatError, which the CLI reports as
    an invalid algebra; nothing else escapes the parsers."""
    form = data.draw(st.sampled_from([ff.serialize, ff.to_json]))
    text = form(catalog.get(data.draw(st.sampled_from(CATALOG))))
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 6)))
        text = text[:i] + data.draw(st.text('01abcd{}[]",:<# \n', max_size=4)) + text[j:]
    try:
        ff.parse(text)
    except ReslatError:
        pass


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_json_and_text_agree_on_random_models(data):
    a = data.draw(st.sampled_from(MODELS))
    via_text = ff.parse_text(ff.serialize(a))
    via_json = ff.parse_json_text(ff.to_json(a))
    assert via_text.mul == via_json.mul
    assert via_text.up == via_json.up
    assert via_text.res == via_json.res
