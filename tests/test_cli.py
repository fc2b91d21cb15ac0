import contextlib
import copy
import hashlib
import io
import json
from fractions import Fraction
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monofilt import cli, gluing, monodromy
from monofilt.gluing import j_intermediate, j_lower_shriek, j_lower_star
from monofilt.cli import (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION,
                          EXIT_VERIFICATION, ModelDocument, ParseError,
                          ValidationError, parse, serialize)
from monofilt.monodromy import JordanStringModel, NilpotentModel
from monofilt.qlinalg import QMatrix, inverse
from monofilt.report import CheckResult, Report
from monofilt.theorems import DiskModel, generate_model, generate_scrambled
from monofilt.weights import LabeledGrading, TwistedLabel, WeightedSpace

from reference import ref_is_strict, ref_null


def run(argv):
    out = io.StringIO()
    rc = cli.run(argv, out)
    return rc, out.getvalue()


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(serialize(doc))
    return str(p)


class TestRoundTrip:
    def test_pure_strings(self):
        doc = ModelDocument("pure_strings", generate_model(1, 3, 4, 1, ["L"]))
        assert parse(serialize(doc)) == doc
        assert serialize(parse(serialize(doc))) == serialize(doc)

    def test_nilpotent(self):
        m = generate_scrambled(generate_model(2, 3, 3, 1, ["L", "P"]), 5)
        doc = ModelDocument("nilpotent", m)
        assert parse(serialize(doc)) == doc

    def test_gluing(self):
        from monofilt.gluing import j_intermediate
        m = JordanStringModel((("L", 2),), 1).to_nilpotent()
        doc = ModelDocument("gluing", j_intermediate(m.space, m.N))
        assert parse(serialize(doc)) == doc

    def test_disk(self):
        m = JordanStringModel((("L", 2),), 1).to_nilpotent()
        doc = ModelDocument("disk", DiskModel(m, WeightedSpace.pure(1, 1, "P")))
        assert parse(serialize(doc)) == doc

    def test_impure_disk_keeps_point_weight(self):
        m = JordanStringModel((("L", 2),), 1).to_nilpotent()
        doc = ModelDocument("disk", DiskModel(m, WeightedSpace.pure(2, 5, "P"),
                                              pure=False, extension="shriek"))
        assert json.loads(serialize(doc))["point"]["weight"] == 5
        assert parse(serialize(doc)) == doc

    def test_zero_point_writes_open_weight(self):
        m = JordanStringModel((("L", 2),), 3).to_nilpotent()
        doc = ModelDocument("disk", DiskModel(m, WeightedSpace.zero()))
        assert json.loads(serialize(doc))["point"] == {"weight": 3, "labels": []}
        assert parse(serialize(doc)) == doc

    def test_zero_dim_nilpotent(self):
        """A dim-0 model is written with "matrix": [], the 0 x 0 matrix, and
        read back: alone and as the open part of a disk on no strings."""
        m = JordanStringModel((), 1).to_nilpotent()
        for doc in (ModelDocument("nilpotent", m),
                    parse(json.dumps({"kind": "disk", "open": {"n": 1, "strings": []}}))):
            text = serialize(doc)
            assert parse(text) == doc and serialize(parse(text)) == text
        assert json.loads(serialize(ModelDocument("nilpotent", m)))["matrix"] == []

    def test_rational_entries(self):
        text = json.dumps({
            "kind": "nilpotent", "n": 1,
            "matrix": [["0", "1/2"], ["0", "0"]]})
        doc = parse(text)
        from fractions import Fraction
        assert doc.model.N.matrix.entries[0][1] == Fraction(1, 2)


def test_rational_document_check_output_is_unchanged(tmp_path):
    """A scrambled nilpotent document conjugated by diag(1, 2, ...), so its
    matrix and filtration have p/q entries: its text and its `check --format
    json` output are byte for byte what the Fraction-built boundary wrote,
    less the two Prop 2.3 lines that compared induced filtrations, and less
    the reports a model's construction fixes: the extension round-trips,
    Prop 2.3 and the four exactness lines of sequence 2."""
    m = generate_scrambled(generate_model(7, 3, 4, 1, ["L", "P"]), 8)
    d = m.space.dim
    scale = QMatrix.from_rows([[i + 1 if i == j else 0 for j in range(d)] for i in range(d)])
    doc = ModelDocument("nilpotent", NilpotentModel.on_monodromy_filtration(
        scale @ m.N.matrix @ inverse(scale), m.n, m.space.grading))
    text = serialize(doc)
    assert "/" in json.dumps(json.loads(text)["matrix"])
    rc, out = run(["check", write_doc(tmp_path, "r.json", doc), "--format", "json"])
    assert rc == EXIT_OK and parse(text) == doc
    digest = [hashlib.sha256(t.encode()).hexdigest() for t in (text, out)]
    assert digest == [
        "acc155ca26055e7bd251b9a4589331c6b0794122c960969cb9b4b18856dd8477",
        "4e0bca2bd4c30ea81035061fe3c3b37867eed72dbe49bec892222c15ce44fce2"]


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse("{not json")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse(json.dumps({"kind": "mystery"}))

    def test_float_rejected(self):
        with pytest.raises(ParseError):
            parse(json.dumps({"kind": "nilpotent", "n": 1,
                              "matrix": [[0.5, 0], [0, 0]]}))

    def test_nesting_too_deep_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("[" * 100000)

    def test_non_nilpotent_rejected(self):
        with pytest.raises(ValidationError):
            parse(json.dumps({"kind": "nilpotent", "n": 1,
                              "matrix": [["1", "0"], ["0", "1"]]}))

    def test_non_nested_filtration_rejected(self):
        with pytest.raises(ValidationError):
            parse(json.dumps({
                "kind": "nilpotent", "n": 1,
                "matrix": [["0", "1"], ["0", "0"]],
                "filtration": {"-1": [["0", "1"]],
                               "1": [["1", "0"], ["0", "1"]]}}))


# text json.dumps escapes: non-ASCII, control characters and lone surrogates
_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    ["\x00", "\x1f", "\x7f", "\ud800", "\udfff", "\u00e9", "\u2014", "\u2028",
     '"', "\\", "/"]))
_PAYLOADS = st.recursive(
    st.booleans() | st.integers(-3, 3) | st.integers(-10**50, 10**50) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24)


class TestDocumentText:
    """The one JSON writer and the memo of rational strings behind parse."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(payload=_PAYLOADS)
    @example(payload={"b": [], "a": {}, "": [[], {}]})
    def test_writer_is_json_dumps(self, payload):
        assert cli._dumps(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "x", "", "1/-2", "1" * 5000])
    def test_a_refused_string_is_refused_each_time(self, bad):
        errors = []
        for _ in range(2):
            with pytest.raises(ParseError) as e:
                cli._parse_rat(bad)
            errors.append(str(e.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("value", [True, False, 1.0, 0.5, None, ["1"], {"1": 1}])
    def test_values_that_are_not_rationals_are_refused(self, value):
        cli._parse_rat("1")  # 1 in the memo does not let True through
        with pytest.raises(ParseError, match="^rationals must be strings or integers"):
            cli._parse_rat(value)

    def test_p_over_q_is_a_fraction_and_p_an_int(self):
        assert type(cli._parse_rat("2/1")) is Fraction and cli._parse_rat("2/1") == 2
        assert type(cli._parse_rat("-2")) is int and cli._parse_rat(7) == 7

    def test_the_memo_is_bounded(self):
        assert cli._parse_rat_text.cache_info().maxsize == 256

    def test_more_distinct_entries_than_the_memo_holds(self):
        d = 24  # 276 distinct entries above the diagonal of a nilpotent matrix
        rows = [[Fraction(i * d + j, 7) if j > i else 0 for j in range(d)] for i in range(d)]
        text = json.dumps({"kind": "nilpotent", "n": 1,
                           "matrix": [[str(x) for x in row] for row in rows]})
        assert len({x for row in rows for x in row}) > cli._parse_rat_text.cache_info().maxsize
        want = QMatrix.from_rows(rows)
        for _ in range(2):
            assert parse(text).model.N.matrix == want


J2_DOC = {"kind": "nilpotent", "n": 1, "matrix": [["0", "1"], ["0", "0"]],
          "filtration": {"-1": [["1", "0"]], "1": [["1", "0"], ["0", "1"]]},
          "grading": {"-1": [["L", 0, 1]], "1": [["L", -1, 1]]}}
OVER = cli.MAX_DIM + 1  # one past the size cap
PT_SPACE = {"dim": 1, "filtration": {"1": [["1"]]}, "grading": {"1": [["pt", 0, 1]]}}
# the filtration of J2_DOC is M(N, 0), not M(N, 1), so this model is impure
IMPURE_J2 = {**J2_DOC, "n": 2}


# a JSON integer literal of 5000 digits, past the interpreter's int() digit
# limit; json.dumps cannot write one, so _dumps puts it in place of this token
BIG_INT = "<5000-digit integer>"
BIG_DIGITS = "1" * 5000


def _dumps(doc) -> str:
    return json.dumps(doc).replace(json.dumps(BIG_INT), BIG_DIGITS)


def _doc(kind, **fields):
    base = {"nilpotent": J2_DOC,
            "pure_strings": {"kind": "pure_strings", "n": 1,
                             "strings": [{"label": "L", "length": 2}]},
            "gluing": {"kind": "gluing", "psi": PT_SPACE, "phi": PT_SPACE,
                       "can": [["0"]], "var": [["0"]]},
            "disk": {"kind": "disk", "open": J2_DOC, "pure": True,
                     "extension": "intermediate",
                     "point": {"weight": 1, "labels": [["P", 1]]}}}[kind]
    return {**base, **fields}


class TestDocumentBoundary:
    """Ill-typed fields and empty matrices end in a parse error (exit 2)."""

    CASES = {
        "n_string": _doc("nilpotent", n="x"),
        "n_float": _doc("nilpotent", n=1.7),
        "n_bool": _doc("nilpotent", n=True),
        "matrix_empty": _doc("nilpotent", matrix=[]),
        "strings_n_string": _doc("pure_strings", n="1.5"),
        "length_float": _doc("pure_strings", strings=[{"label": "L", "length": 2.0}]),
        "length_string": _doc("pure_strings", strings=[{"label": "L", "length": "two"}]),
        "twist_string": _doc("nilpotent", grading={"-1": [["L", "x", 1]],
                                                   "1": [["L", -1, 1]]}),
        "mult_float": _doc("nilpotent", grading={"-1": [["L", 0, 1.5]],
                                                 "1": [["L", -1, 1]]}),
        "dim_float": _doc("gluing", psi={**PT_SPACE, "dim": 1.7}),
        "dim_bool": _doc("gluing", phi={**PT_SPACE, "dim": True}),
        "point_weight_string": _doc("disk", point={"weight": "x", "labels": [["P", 1]]}),
        "point_mult_float": _doc("disk", point={"weight": 1, "labels": [["P", 1.5]]}),
        "strings_not_list": _doc("pure_strings", strings=5),
        "point_label_not_pair": _doc("disk", point={"weight": 1, "labels": ["P"]}),
        "point_label_null": _doc("disk", point={"weight": 1, "labels": [[None, 1]]}),
        "string_label_null": _doc("pure_strings", strings=[{"label": None, "length": 2}]),
        "grading_label_list": _doc("nilpotent", grading={"-1": [[["L"], 0, 1]],
                                                         "1": [["L", -1, 1]]}),
        "point_labels_not_list": _doc("disk", point={"weight": 1, "labels": 5}),
        "point_not_object": _doc("disk", point=[1]),
        "pure_string": _doc("disk", pure="no"),
        "extension_list": _doc("disk", extension=[]),
        "filtration_step_not_rows": _doc("nilpotent", filtration={"-1": 5, "1": [[1, 0]]}),
        "grading_terms_not_list": _doc("nilpotent", grading={"-1": 5, "1": [["L", -1, 1]]}),
        "rational_decimal": _doc("nilpotent", matrix=[["0", "1.5"], ["0", "0"]]),
        "rational_exponent": _doc("nilpotent", matrix=[["0", "1e3"], ["0", "0"]]),
        "rational_decimal_integer": _doc("nilpotent", matrix=[["0", "1.0"], ["0", "0"]]),
        "rational_decimal_in_filtration": _doc(
            "nilpotent", filtration={"-1": [["1", "0.0"]], "1": [["1", "0"], ["0", "1"]]}),
        "rational_exponent_in_gluing_map": _doc("gluing", can=[["0e0"]]),
        "kind_list": {"kind": []},
        "length_padded": _doc("pure_strings", strings=[{"label": "L", "length": " 2"}]),
        "length_underscored": _doc("pure_strings",
                                   strings=[{"label": "L", "length": "1_0"}]),
        "filtration_weight_underscored": _doc(
            "nilpotent", filtration={"-1_0": [["1", "0"]], "1": [["1", "0"], ["0", "1"]]}),
        "grading_weight_padded": _doc("nilpotent", grading={" -1": [["L", 0, 1]],
                                                            "1": [["L", -1, 1]]}),
        "n_digits_json": _doc("nilpotent", n=BIG_INT),
        "entry_digits_json": _doc("nilpotent", matrix=[[0, BIG_INT], [0, 0]]),
        "n_digits_string": _doc("nilpotent", n=BIG_DIGITS),
        "length_digits_string": _doc("pure_strings",
                                     strings=[{"label": "L", "length": BIG_DIGITS}]),
        "entry_digits_string": _doc("nilpotent", matrix=[["0", BIG_DIGITS], ["0", "0"]]),
        "denominator_digits_string": _doc("nilpotent",
                                          matrix=[["0", "1/" + BIG_DIGITS], ["0", "0"]]),
        # a zero-dimensional space has its payload read like any other
        "zero_dim_filtration_not_object": _doc(
            "gluing", psi={"dim": 0, "filtration": "junk"}, phi={"dim": 0}, can=[], var=[]),
        "zero_dim_filtration_row_too_long": _doc(
            "gluing", psi={"dim": 0, "filtration": {"0": [["1", "2"]]}}, phi={"dim": 0},
            can=[], var=[]),
    }

    VALIDATION_CASES = {
        "point_mult_negative": _doc("disk", point={"weight": 1, "labels": [["P", -1]]}),
        "point_mults_sum_to_zero": _doc(
            "disk", point={"weight": 1, "labels": [["P", 2], ["Q", -2]]}),
        "point_label_repeated": _doc(
            "disk", point={"weight": 1, "labels": [["P", 1], ["P", 2]]}),
        # read last-wins, the -1 would hide behind the later term
        "grading_term_repeated": _doc(
            "nilpotent", grading={"-1": [["L", 0, -1], ["L", 0, 1]], "1": [["L", -1, 1]]}),
        "grading_term_repeated_across_keys": _doc(
            "nilpotent", grading={"-1": [["L", 0, 1]], "1": [["L", -1, 1]],
                                  "+1": [["L", -1, 1]]}),
        "zero_dim_grading_not_empty": _doc(
            "gluing", psi={"dim": 0, "grading": {"0": [["L", 0, 5]]}}, phi={"dim": 0},
            can=[], var=[]),
        # var . can = 1 is not nilpotent; var does not lower the weight by 2
        "gluing_var_can_not_nilpotent": _doc("gluing", can=[["1"]], var=[["1"]]),
        "dim_negative": _doc("gluing", psi={"dim": -1, "filtration": {}}),
        "dim_negative_without_filtration": _doc("gluing", psi={"dim": -2}),
        "disk_open_part_not_pure": _doc("disk", open=IMPURE_J2),
    }

    # one past the size cap (cli.MAX_DIM); parse refuses each before building its model
    SIZE_CASES = {
        "string_length": _doc("pure_strings", strings=[{"label": "L", "length": OVER}]),
        "total_string_length": _doc("pure_strings", strings=[
            {"label": "L", "length": OVER - 29}, {"label": "P", "length": 29}]),
        "disk_open_strings": _doc("disk", pure=False, extension="shriek", open={
            "n": 1, "strings": [{"label": "L", "length": OVER - OVER // 2},
                                {"label": "P", "length": OVER // 2}]}),
        "space_dim": _doc("gluing", psi={**PT_SPACE, "dim": OVER}),
        "matrix_dimension": {"kind": "nilpotent", "n": 1, "matrix": [[0] * OVER] * OVER},
        "point_multiplicity": _doc("disk", point={"weight": 1, "labels": [["P", OVER]]}),
        "point_multiplicity_sum": _doc(
            "disk", point={"weight": 1, "labels": [["P", OVER - 29], ["Q", 29]]}),
        "filtration_weight": {"kind": "nilpotent", "n": 1, "matrix": [[0, 0], [0, 0]],
                              "filtration": {str(-OVER): [[1, 0]], "1": [[1, 0], [0, 1]]}},
        "center": _doc("nilpotent", n=OVER + 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_parse_error_exit(self, case, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(_dumps(self.CASES[case]))
        rc, _ = run(["check", str(p)])
        err = capsys.readouterr().err
        assert rc == EXIT_PARSE
        assert err.startswith("parse error:") and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
    def test_validation_error_exit(self, case, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(self.VALIDATION_CASES[case]))
        rc, _ = run(["check", str(p)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "Traceback" not in err

    @pytest.mark.parametrize("space", [{"dim": -1, "filtration": {}}, {"dim": -2}])
    def test_negative_dim_is_named(self, space):
        with pytest.raises(ValidationError, match=rf"^dim is {space['dim']}, below 0$"):
            parse(json.dumps(_doc("gluing", psi=space)))

    @pytest.mark.parametrize("space", [{"dim": 0}, {"dim": "0", "filtration": {}},
                                       {"dim": 0, "filtration": {"3": []}, "grading": {}}])
    def test_zero_dim_space_parses_to_the_zero_space(self, space):
        doc = parse(json.dumps(_doc("gluing", psi=space, phi={"dim": 0}, can=[], var=[])))
        assert doc.model.psi == doc.model.phi == WeightedSpace.zero()

    @pytest.mark.parametrize("case", sorted(SIZE_CASES))
    def test_size_cap(self, case):
        with pytest.raises(ValidationError, match=f"above the size cap {cli.MAX_DIM}$"):
            parse(json.dumps(self.SIZE_CASES[case]))

    @pytest.mark.parametrize("flags", [
        ["--strings", "0"], ["--maxlen", "0"], ["--strings", str(OVER)], ["--maxlen", str(OVER)],
        ["--strings", str(cli.MAX_DIM), "--maxlen", str(cli.MAX_DIM)]])  # a model far above the cap
    def test_gen_size_cap(self, flags, capsys):
        rc, out = run(["gen", "--seed", "1", *flags])
        assert rc == EXIT_VALIDATION and out == ""
        assert capsys.readouterr().err.startswith("validation error:")

    def test_valid_bases_parse(self):
        for kind in ("nilpotent", "pure_strings", "gluing", "disk"):
            assert parse(json.dumps(_doc(kind))).kind == kind

    def test_integer_strings_accepted(self):
        doc = parse(json.dumps(_doc("nilpotent", n="1")))
        assert doc.model.n == 1
        assert parse(json.dumps(_doc("nilpotent", n="-1"))).model.n == -1

    def test_rational_strings_accepted(self):
        doc = parse(json.dumps(_doc("nilpotent", matrix=[["0", "-3/4"], [0, "+0"]])))
        assert doc.model.N.matrix.entries[0][1] == Fraction(-3, 4)


# JSON values a mutated field may take; the large integers meet the size cap
# and the 5000-digit ones the int() digit limit
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.integers(-10**9, 10**9)
    | st.floats(-2, 2)
    | st.sampled_from(["", "x", "0", "1", "-1", "+2", "1/2", "1/0", "1_0", " 1",
                       "1.0", "1e3", "nilpotent", "disk", "shriek", BIG_INT, BIG_DIGITS]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["-1", "0", "1", "dim", "x"]), inner, max_size=3),
    max_leaves=6)


def _field_paths(node, path=()):
    """The path of every dict value and list item below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


class TestBoundaryFuzz:
    """One mutated field of a valid document ends in a defined exit code under
    every command that reads a document."""

    COMMANDS = [["check"], ["lic"], ["lic", "--k", "0"], ["kclass"], ["monodromy"],
                ["monodromy", "--center", "2"]]

    @settings(max_examples=1000, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_document_exits_cleanly(self, data, tmp_path):
        doc = copy.deepcopy(_doc(data.draw(st.sampled_from(
            ["nilpotent", "pure_strings", "gluing", "disk"]))))
        *parents, last = data.draw(st.sampled_from(list(_field_paths(doc))))
        node = doc
        for key in parents:
            node = node[key]
        if data.draw(st.booleans()):
            del node[last]
        else:
            node[last] = data.draw(_JSON_VALUES)
        p = tmp_path / "fuzz.json"
        p.write_text(_dumps(doc))
        command, *flags = data.draw(st.sampled_from(self.COMMANDS))
        rc, _ = run([command, str(p), *flags])
        assert rc in (EXIT_OK, EXIT_VERIFICATION, EXIT_PARSE, EXIT_VALIDATION)


# the whole-document fuzz draws only integers that keep every model small or
# that lie far past the size cap, so no drawn document takes long to check
_DOC_KEYS = ["kind", "n", "matrix", "filtration", "grading", "strings", "label", "length",
             "psi", "phi", "can", "var", "dim", "open", "point", "weight", "labels",
             "pure", "extension", "-1", "0", "1"]
_DOC_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.sampled_from([-10**9, 10**9])
    | st.floats(-2, 2)
    | st.sampled_from(["", "x", "0", "1", "-1", "+2", "1/2", "1/0", "1.0", "L", "pt",
                       "nilpotent", "pure_strings", "gluing", "disk", "intermediate",
                       "shriek", "star", BIG_DIGITS]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_DOC_KEYS), inner, max_size=4),
    max_leaves=12)
_KINDS = ["nilpotent", "pure_strings", "gluing", "disk"]
# leaves of the same JSON type as the base documents' own: a string here is a
# rational and also a label, an integer fits every integer field
_LIKE_LEAVES = {str: ["0", "1", "-1", "2", "1/2"], int: list(range(-3, 5)),
                bool: [True, False]}
# a whole JSON document: any value, or an object of any fields with a known kind
_WHOLE_DOCUMENTS = _DOC_VALUES | st.builds(
    lambda rest, kind: {**rest, "kind": kind},
    st.dictionaries(st.sampled_from(_DOC_KEYS), _DOC_VALUES, max_size=6),
    st.sampled_from(_KINDS))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _fuzz_documents(draw):
    """A whole JSON document (one time in four), or a base document with one
    to four fields, at any depth, deleted or replaced; most replace a leaf by
    another of its type, so that more of the documents stay valid.  The
    choices are uniform: hypothesis's own would mostly pick the first field,
    the kind."""
    rng = draw(st.randoms(use_true_random=True))
    if rng.random() < 0.25:
        return draw(_WHOLE_DOCUMENTS)
    doc = copy.deepcopy(_doc(rng.choice(_KINDS)))
    for _ in range(rng.randint(1, 4)):
        action = rng.choice(["leaf"] * 6 + ["value", "delete"])
        paths = [p for p in _field_paths(doc)
                 if action != "leaf" or type(_node(doc, p)) in _LIKE_LEAVES]
        if not paths:
            break
        *parents, last = rng.choice(paths)
        node = _node(doc, parents)
        if action == "delete":
            del node[last]
        else:
            node[last] = (rng.choice(_LIKE_LEAVES[type(node[last])]) if action == "leaf"
                          else draw(_DOC_VALUES))
    return doc


class TestDocumentFuzz:
    """Every document, under every command that reads one, ends in exit 0 or 1
    with nothing on stderr, or in exit 2 or 3 with one error line.  A
    `--format json` output that ends in exit 0 or 1 is one JSON document."""

    COMMANDS = [["check"], ["check", "--format", "json"], ["lic"],
                ["lic", "--k", "-1", "--format", "json"], ["lic", "--k", "0"], ["kclass"],
                ["monodromy"], ["monodromy", "--center", "2"]]
    PREFIX = {EXIT_OK: "", EXIT_VERIFICATION: "", EXIT_PARSE: "parse error: ",
              EXIT_VALIDATION: "validation error: "}

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_fuzz_documents())
    def test_document_exits_cleanly(self, doc, tmp_path):
        path = write_json(tmp_path, "fuzz.json", doc)
        base = write_json(tmp_path, "base.json", _doc("pure_strings"))
        argvs = [[command, path, *flags] for command, *flags in self.COMMANDS]
        argvs += [["independence", path, path], ["independence", path, base],
                  ["independence", base, path]]
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc, out = run(argv)
            assert rc in self.PREFIX, argv
            prefix, err = self.PREFIX[rc], err.getvalue()
            assert err.startswith(prefix) and err.count("\n") == bool(prefix), (argv, err)
            if "json" in argv and not prefix:
                assert json.loads(out)["passed"] == (rc == EXIT_OK), argv


class TestCommands:
    def test_check_pure_model(self, tmp_path):
        doc = ModelDocument("pure_strings", generate_model(7, 3, 3, 1, ["L"]))
        rc, out = run(["check", write_doc(tmp_path, "m.json", doc)])
        assert rc == EXIT_OK
        assert out.strip().endswith("PASS")

    def test_check_json_format(self, tmp_path):
        doc = ModelDocument("pure_strings", generate_model(7, 3, 3, 1, ["L"]))
        rc, out = run(["check", write_doc(tmp_path, "m.json", doc),
                       "--format", "json"])
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(r["passed"] for r in payload["reports"])

    def test_check_parse_error_exit(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        rc, _ = run(["check", str(p)])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("data, message", [
        (b'\xff\xfe{"kind":1}', "parse error: cannot read "),  # not UTF-8
        (b"[" * 100000, "parse error: invalid JSON: nested too deeply"),
    ], ids=["not_utf8", "too_deep"])
    def test_unreadable_document_is_a_parse_error(self, data, message, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(data)
        rc, out = run(["check", str(p)])
        assert (rc, out) == (EXIT_PARSE, "")
        assert capsys.readouterr().err.startswith(message)

    def test_check_validation_error_exit(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "nilpotent", "n": 1,
                                 "matrix": [["1"]]}))
        rc, _ = run(["check", str(p)])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("first", [[], [["0", "1"]]])
    def test_repeated_filtration_weight_is_refused(self, first, tmp_path, capsys):
        """The keys "-1" and "-01" name one weight; the document is refused
        whether or not the step at "-1" is empty."""
        doc = {"kind": "nilpotent", "n": 1, "matrix": [["0", "0"], ["0", "0"]],
               "filtration": {"-1": first, "-01": [["1", "0"]],
                              "1": [["1", "0"], ["0", "1"]]}}
        assert run(["check", write_json(tmp_path, "d.json", doc)]) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err == "validation error: repeated weight\n"

    @pytest.mark.parametrize("text, key", [
        ('{"kind":"nilpotent","n":1,"n":1,"matrix":[["0","1"],["0","0"]],'
         '"matrix":[["0","0"],["0","0"]]}', "n"),
        ('{"kind":"nilpotent","n":1,"matrix":[["0","1"],["0","0"]],'
         '"filtration":{"-1":[["1","0"]],"-1":[["1","0"]],"1":[["1","0"],["0","1"]]}}', "-1"),
        ('{"kind":"nilpotent","n":1,"matrix":[["0","1"],["0","0"]],'
         '"grading":{"-1":[["L",0,1]],"1":[["L",-1,1]],"1":[["L",-1,1]]}}', "1"),
    ], ids=["top_level", "filtration_weight", "grading_weight"])
    def test_repeated_key_is_a_parse_error(self, text, key, tmp_path, capsys):
        """A key named twice in one object is refused, not read last-wins."""
        p = tmp_path / "d.json"
        p.write_text(text)
        assert run(["check", str(p)]) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == f"parse error: invalid JSON: repeated key {key!r}\n"

    def test_kernel_labels_fall_back_to_pt(self, tmp_path):
        """No twist-0 label at the kernel's weight -1, so the kernel grading
        is read as pt there and the class identity fails."""
        data = {**README_EXAMPLE, "grading": {"-1": [["L", -1, 1]], "1": [["L", 0, 1]]}}
        rc, out = run(["check", write_json(tmp_path, "m.json", data)])
        assert rc == EXIT_VERIFICATION
        assert "FAIL class of the space equals class assembled from ker N — " \
            "L(0) + L(-1) vs pt(0) + pt(-1)" in out

    def test_kclass_j2(self, tmp_path):
        doc = ModelDocument("pure_strings", JordanStringModel((("L", 2),), 1))
        rc, out = run(["kclass", write_doc(tmp_path, "m.json", doc)])
        assert rc == EXIT_OK
        assert out.strip() == "L(0) + L(-1)"

    def test_monodromy_output(self, tmp_path):
        doc = ModelDocument("pure_strings", JordanStringModel((("L", 3),), 1))
        rc, out = run(["monodromy", write_doc(tmp_path, "m.json", doc),
                       "--center", "0"])
        assert rc == EXIT_OK
        assert "W_-2: dim 1" in out and "W_2: dim 3" in out

    def test_gen_deterministic(self):
        rc1, out1 = run(["gen", "--seed", "9", "--strings", "3",
                         "--maxlen", "4", "--weight", "1"])
        rc2, out2 = run(["gen", "--seed", "9", "--strings", "3",
                         "--maxlen", "4", "--weight", "1"])
        assert rc1 == rc2 == EXIT_OK and out1 == out2

    def test_independence_pair(self, tmp_path):
        m = generate_model(11, 3, 3, 1, ["L", "P"])
        a = write_doc(tmp_path, "a.json", ModelDocument("pure_strings", m))
        b = write_doc(tmp_path, "b.json",
                      ModelDocument("nilpotent", generate_scrambled(m, 12)))
        rc, out = run(["independence", a, b])
        assert rc == EXIT_OK
        assert "kernel gradings agree" in out

    def test_independence_json_is_shaped_like_check(self, tmp_path):
        """`independence --format json` writes one document with the title,
        verdict and reports of `check --format json`."""
        m = generate_model(11, 3, 3, 1, ["L", "P"])
        a = write_doc(tmp_path, "a.json", ModelDocument("pure_strings", m))
        rc, out = run(["independence", a, a, "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["title"] == "independence" and doc["passed"] is True
        assert doc["reports"][0]["title"] == "class independence of the defining equation"

    @pytest.mark.parametrize("docs, reason", [
        ((_doc("pure_strings"), _doc("pure_strings", n=2)),
         "models have different purity weights"),
        ((IMPURE_J2, IMPURE_J2), "first model is not pure")])
    def test_independence_refuses_impure_or_unequal_weights(self, docs, reason, tmp_path,
                                                             capsys):
        paths = [write_json(tmp_path, f"{i}.json", d) for i, d in enumerate(docs)]
        assert run(["independence", *paths]) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err == f"validation error: {reason}\n"

    def test_lic_pure(self, tmp_path):
        m = JordanStringModel((("L", 2),), 1).to_nilpotent()
        doc = ModelDocument("disk", DiskModel(m, WeightedSpace.zero()))
        rc, out = run(["lic", write_doc(tmp_path, "d.json", doc)])
        assert rc == EXIT_OK

    def test_lic_impure_counterexample(self, tmp_path):
        m = JordanStringModel((("L", 1),), 1).to_nilpotent()
        doc = ModelDocument("disk", DiskModel(m, WeightedSpace.zero(),
                                              pure=False, extension="shriek"))
        rc, out = run(["lic", write_doc(tmp_path, "d.json", doc)])
        assert rc == EXIT_VERIFICATION
        assert "surjective_on_low_weights" in out

    def test_lic_json_is_one_document(self, tmp_path):
        """`lic --format json` writes one document shaped like `check`'s,
        whose reports are those `lic` prints as text, two for each k."""
        m = JordanStringModel((("L", 1),), 1).to_nilpotent()
        for pure, extension, rc_want in ((True, "intermediate", EXIT_OK),
                                         (False, "shriek", EXIT_VERIFICATION)):
            doc = ModelDocument("disk", DiskModel(m, WeightedSpace.zero(),
                                                  pure=pure, extension=extension))
            path = write_doc(tmp_path, "d.json", doc)
            rc, out = run(["lic", path, "--format", "json"])
            payload = json.loads(out)
            assert rc == rc_want and payload["passed"] == (rc == EXIT_OK)
            assert payload["title"] == "lic disk" and len(payload["reports"]) == 4
            reports = [Report(r["title"], tuple(CheckResult(c["name"], c["passed"], c["detail"])
                                                for c in r["checks"]), tuple(r["notes"]))
                       for r in payload["reports"]]
            assert run(["lic", path]) == (rc, "".join(r.to_text() + "\n" for r in reports))

    def test_check_disk_exit_matches_reports(self, tmp_path):
        m = JordanStringModel((("L", 2),), 1).to_nilpotent()
        good = ModelDocument("disk", DiskModel(m, WeightedSpace.zero()))
        rc, _ = run(["check", write_doc(tmp_path, "g.json", good)])
        assert rc == EXIT_OK
        bad = ModelDocument("disk", DiskModel(m, WeightedSpace.zero(),
                                              pure=False, extension="shriek"))
        rc, _ = run(["check", write_doc(tmp_path, "b.json", bad)])
        assert rc == EXIT_VERIFICATION

    def test_check_reports_a_failing_hard_lefschetz(self, tmp_path):
        """An impure model's hard Lefschetz report is shown and fails the
        check; the primitive decomposition and class identity, which need
        a pure model, are left out."""
        path = write_json(tmp_path, "impure.json", IMPURE_J2)
        rc, out = run(["check", path])
        assert rc == EXIT_VERIFICATION
        assert "[FAIL] hard Lefschetz (center 1)" in out
        assert "FAIL N^2: Gr_3 -> Gr_-1" in out
        rc, out = run(["check", path, "--format", "json"])
        assert rc == EXIT_VERIFICATION
        reports = {r["title"]: r for r in json.loads(out)["reports"]}
        assert reports["hard Lefschetz (center 1)"]["passed"] is False
        assert "primitive decomposition (center 1)" not in reports


README_EXAMPLE = {"kind": "nilpotent", "n": 1, "matrix": [["0", "1"], ["0", "0"]]}
# N sends e_3 to e_1 across a gap of 4 weights: N is not strict, and its hard
# Lefschetz fails at N^2
NON_STRICT = {"kind": "nilpotent", "n": 3,
              "matrix": [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
              "filtration": {"0": [["1", "0", "0"]], "2": [["1", "0", "0"], ["0", "1", "0"]],
                             "4": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}}
SEQUENCE_2 = "exact sequence around N"


def write_json(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


class TestDefaultGrading:
    """An omitted nilpotent grading is read as Lefschetz strings when it can be."""

    def test_readme_example_passes(self, tmp_path):
        rc, out = run(["check", write_json(tmp_path, "m.json", README_EXAMPLE)])
        assert rc == EXIT_OK
        assert "pt(0) + pt(-1) vs pt(0) + pt(-1)" in out

    def test_omitted_grading_is_the_string_grading(self):
        for seed in range(8):
            m = generate_model(seed, 3, 4, seed % 3 - 1, ["pt"])
            data = json.loads(serialize(ModelDocument(
                "nilpotent", generate_scrambled(m, seed + 50))))
            del data["grading"]
            want = m.to_nilpotent().space.grading
            assert parse(json.dumps(data)).model.space.grading == want
            del data["filtration"]
            assert parse(json.dumps(data)).model.space.grading == want

    def test_off_center_filtration_keeps_twist_zero(self, tmp_path):
        data = {**README_EXAMPLE,
                "filtration": {"-2": [["1", "0"]], "1": [["1", "0"], ["0", "1"]]}}
        model = parse(json.dumps(data)).model
        assert model.space.grading == LabeledGrading.from_dict(
            {-2: {TwistedLabel("pt"): 1}, 1: {TwistedLabel("pt"): 1}})
        rc, out = run(["check", write_json(tmp_path, "m.json", data)])
        # hard Lefschetz fails, so the class identity is not checked
        assert rc == EXIT_VERIFICATION and "class identity" not in out


@pytest.fixture
def builds(monkeypatch):
    """Counts of extension builds by kind, checked GluingDatum.of constructions
    ("datum") and monodromy filtrations ("filtration")."""
    counts = Counter()
    for kind, build in list(gluing.EXTENSIONS.items()):
        def counting(model, kind=kind, build=build):
            counts[kind] += 1
            return build(model)
        monkeypatch.setitem(gluing.EXTENSIONS, kind, counting)
    checked = gluing.GluingDatum.of

    def counting_of(*args):
        counts["datum"] += 1
        return checked(*args)

    monkeypatch.setattr(gluing.GluingDatum, "of", staticmethod(counting_of))
    filtration = monodromy.monodromy_filtration

    def counting_filtration(n_op, center, *args, **kwargs):
        counts["filtration"] += 1
        return filtration(n_op, center, *args, **kwargs)

    # the cli builds filtrations only through monodromy
    monkeypatch.setattr(monodromy, "monodromy_filtration", counting_filtration)
    return counts


def _nilpotent_doc(omit=()):
    m = generate_scrambled(generate_model(3, 3, 4, 1, ["L", "P"]), 8)
    data = json.loads(serialize(ModelDocument("nilpotent", m)))
    return {k: v for k, v in data.items() if k not in omit}


def _disk_doc(open_data, pure=True):
    return {"kind": "disk", "open": open_data, "pure": pure,
            "extension": "intermediate" if pure else "shriek",
            "point": {"weight": open_data["n"], "labels": [["P", 1]]}}


class TestExtensionContext:
    """A model's check builds no extension, a disk's builds its one, and a
    monodromy filtration is built only for a model whose hard Lefschetz
    fails or that was built on it: a passing hard Lefschetz on a document's
    own filtration builds none."""

    def test_model_check_builds_no_extension(self, builds, tmp_path):
        """var . can = N and the identities of j_!* hold for every extension
        built from a model's own N, so its check builds none of them."""
        strings = json.loads(serialize(ModelDocument(
            "pure_strings", generate_model(5, 3, 4, 1, ["L", "P"]))))
        # a pure_strings model writes M(N) off its strings: no filtration is
        # built; the non-strict model's failing hard Lefschetz builds M(N)
        for data, rc_want, filtrations in (
                (strings, EXIT_OK, 0), (_nilpotent_doc(), EXIT_OK, 0),
                (_nilpotent_doc(("grading",)), EXIT_OK, 0),
                (_nilpotent_doc(("filtration",)), EXIT_OK, 1),
                (NON_STRICT, EXIT_VERIFICATION, 1)):
            path = write_json(tmp_path, "m.json", data)
            builds.clear()
            rc, _ = run(["check", path])
            assert rc == rc_want
            assert builds == Counter(datum=0, filtration=filtrations)
            model = cli._doc_model(cli._load(path))
            cli._model_reports(model)
            assert model.extensions == {}

    def test_disk_check_builds_datum_and_filtration_once(self, builds, tmp_path):
        for data in (_disk_doc(_nilpotent_doc()),
                     _disk_doc(_nilpotent_doc(("filtration", "grading"))),
                     _disk_doc(_nilpotent_doc(), pure=False)):
            builds.clear()
            rc, _ = run(["check", write_json(tmp_path, "d.json", data)])
            assert rc == (EXIT_OK if data["pure"] else EXIT_VERIFICATION)
            assert builds[data["extension"]] == 1 and builds["datum"] == 0
            assert builds["filtration"] == ("filtration" not in data["open"])

    def test_filtrationless_nilpotent_builds_one_filtration(self, builds, tmp_path):
        path = write_json(tmp_path, "m.json", _nilpotent_doc(("filtration",)))
        builds.clear()  # the document's own model was built on its filtration
        rc, _ = run(["check", path])
        assert rc == EXIT_OK and builds["filtration"] == 1
        builds.clear()
        rc, _ = run(["monodromy", path])
        assert rc == EXIT_OK and builds["filtration"] == 1
        builds.clear()
        # another center shifts the model's filtration rather than building one
        rc, _ = run(["monodromy", path, "--center", "7"])
        assert rc == EXIT_OK and builds["filtration"] == 1

    def test_gluing_check_builds_only_the_datum(self, builds, tmp_path):
        """`check` of a gluing document reads the document's own can and var:
        it builds the checked datum and no extension of psi_u."""
        path = write_json(tmp_path, "j3.json", J3_INTERMEDIATE)
        builds.clear()
        rc, _ = run(["check", path])
        assert rc == EXIT_OK and builds == Counter(datum=1)

    def test_disk_datum_is_the_open_models_extension(self):
        open_model = JordanStringModel((("L", 3), ("P", 1)), 1).to_nilpotent()
        dm = DiskModel(open_model, WeightedSpace.zero())
        assert dm.datum() is dm.datum() is gluing.extension(open_model, "intermediate")
        assert dm.datum().monodromy_matrix() is dm.datum().monodromy_matrix()



class TestModelCheckReports:
    """A model's check runs sequence 2, then hard Lefschetz and, when it
    passes, the primitive decomposition and the class identity: no report
    that the model's construction fixes."""

    def test_passing_check_lists_exactly_its_reports(self, tmp_path):
        strings = json.loads(serialize(ModelDocument(
            "pure_strings", generate_model(5, 3, 4, 1, ["L", "P"]))))
        for data in (README_EXAMPLE, strings, _nilpotent_doc(),
                     _nilpotent_doc(("filtration", "grading"))):
            rc, reports = _check_json(tmp_path, data)
            c = cli._doc_model(parse(json.dumps(data))).center
            assert rc == EXIT_OK
            assert [r["title"] for r in reports] == [
                SEQUENCE_2, f"hard Lefschetz (center {c})",
                f"primitive decomposition (center {c})",
                "class identity from the kernel grading"]

    def test_sequence_2_has_its_dims_and_strictness_lines_only(self, tmp_path):
        """The inclusion of ker N and the projection onto coker N are exact
        by construction; the two lines left compare computations, and the
        strictness line still fails, with exit 1, where N is not strict."""
        for data, strict in ((README_EXAMPLE, True), (_nilpotent_doc(), True),
                             (J3_INTERMEDIATE, True), (NON_STRICT, False)):
            rc, reports = _check_json(tmp_path, data)
            seq, = (r for r in reports if r["title"] == SEQUENCE_2)
            assert [(c["name"], c["passed"]) for c in seq["checks"]] == [
                ("dims: dim ker N + rank N = dim", True),
                ("all structural maps are strict", strict)]
            assert rc == (EXIT_OK if strict else EXIT_VERIFICATION)

# the j_!* datum of J_3 at n = 0: psi = Q^3 with M(N), phi = im N, can = N
# corestricted and var the inclusion
J3_INTERMEDIATE = {
    "kind": "gluing",
    "psi": {"dim": 3, "filtration": {"-2": [["1", "0", "0"]],
                                     "0": [["1", "0", "0"], ["0", "1", "0"]],
                                     "2": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}},
    "phi": {"dim": 2, "filtration": {"0": [["1", "0"]], "2": [["1", "0"], ["0", "1"]]}},
    "can": [["0", "1", "0"], ["0", "0", "1"]], "var": [["1", "0"], ["0", "1"], ["0", "0"]]}
# filtered but not strict, the other map zero: can = id from psi, pure of weight 2,
# onto phi, pure of weight 0, so can(W_0 psi) = 0 while im can n W_0 phi = phi;
# var = id from phi, pure of weight 2, onto psi(-1), pure of weight 0, likewise
CAN_NOT_STRICT = {"kind": "gluing", "psi": {"dim": 1, "filtration": {"2": [["1"]]}},
                  "phi": {"dim": 1, "filtration": {"0": [["1"]]}},
                  "can": [["1"]], "var": [["0"]]}
VAR_NOT_STRICT = {"kind": "gluing", "psi": {"dim": 1, "filtration": {"-2": [["1"]]}},
                  "phi": {"dim": 1, "filtration": {"2": [["1"]]}},
                  "can": [["0"]], "var": [["1"]]}
PROP_2_3 = "intermediate-extension kernel/cokernel identities"


def _oracle_datum_lines(data) -> list:
    """[(name, strict, detail)] of can and var of a gluing document, read off
    its JSON by the Fraction oracle: strictness by its definition
    (ref_is_strict; var lowers weights by 2) and ker, rank by ref_null."""
    def rows(m):
        return [[Fraction(x) for x in r] for r in m]

    def steps(space):
        return [(int(w), rows(vs)) for w, vs in space.get("filtration", {}).items()]

    psi, phi = data["psi"], data["phi"]
    out = []
    for name, m, dom, cod, shift in (("can is strict", data["can"], psi, phi, 0),
                                     ("var is strict", data["var"], phi, psi, -2)):
        ker = len(ref_null(rows(m), dom["dim"]))
        strict = ref_is_strict(rows(m), dom["dim"], cod["dim"], steps(dom), steps(cod), shift)
        out.append((name, strict, f"ker {ker}, rank {dom['dim'] - ker}"))
    return out


def _check_json(tmp_path, data):
    rc, out = run(["check", "--format", "json", write_json(tmp_path, "g.json", data)])
    return rc, json.loads(out)["reports"]


def _extension_documents(model) -> list:
    return [json.loads(serialize(ModelDocument("gluing", build(model.space, model.N))))
            for build in (j_lower_shriek, j_lower_star, j_intermediate)]


class TestGluingCheck:
    """`check` of a gluing document reports whether the document's own can and
    var are strict, each with its ker and rank, then sequence 2 on psi_u; it
    runs no Prop 2.3 on a rebuilt j_!*."""

    def test_extensions_of_seeded_models_match_the_oracle(self, tmp_path):
        # N = 0 on V = L(0) + P(0): j_!, j_* and j_!* are (V, V, id, 0),
        # (V, V(-1), 0, id) and (V, 0, 0, 0)
        zero = _extension_documents(JordanStringModel((("L", 1), ("P", 1)), 1).to_nilpotent())
        assert [(d["phi"]["dim"], d["can"], d["var"]) for d in zero] == [
            (2, [["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]),
            (2, [["0", "0"], ["0", "0"]], [["1", "0"], ["0", "1"]]),
            (0, [], [[], []])]
        docs = list(zero)
        for seed in range(30):
            strings = generate_model(seed, 3, 4, seed % 3, ["L", "P"])
            docs += _extension_documents(strings.to_nilpotent())
            docs += _extension_documents(generate_scrambled(strings, seed))
        for data in docs:
            rc, reports = _check_json(tmp_path, data)
            assert rc == EXIT_OK
            assert [r["title"] for r in reports] == ["gluing datum invariants", SEQUENCE_2]
            got = [(c["name"], c["passed"], c["detail"]) for c in reports[0]["checks"]]
            assert got == _oracle_datum_lines(data)

    def test_verdicts_match_the_oracle_when_n_is_not_strict(self, tmp_path):
        """The extensions of the non-strict model N e_3 = e_1 on W_0 = <e_1> in
        W_2 = <e_1, e_2> in W_4: var of j_! and j_!* and can of j_* are not strict."""
        m = parse(json.dumps(NON_STRICT)).model
        verdicts = []
        for data in _extension_documents(m):
            rc, reports = _check_json(tmp_path, data)
            got = [(c["name"], c["passed"], c["detail"]) for c in reports[0]["checks"]]
            assert got == _oracle_datum_lines(data) and rc == EXIT_VERIFICATION
            verdicts.append([passed for _, passed, _ in got])
        assert verdicts == [[True, False], [False, True], [True, False]]

    @pytest.mark.parametrize("data, fail", [
        (CAN_NOT_STRICT, "  FAIL can is strict — ker 0, rank 1"),
        (VAR_NOT_STRICT, "  FAIL var is strict — ker 0, rank 1"),
    ], ids=["can", "var"])
    def test_filtered_map_that_is_not_strict_fails(self, data, fail, tmp_path):
        rc, out = run(["check", write_json(tmp_path, "g.json", data)])
        assert rc == EXIT_VERIFICATION
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            "[FAIL] gluing datum invariants", fail, "FAIL"]
        assert [f"  FAIL {name} — {detail}"
                for name, strict, detail in _oracle_datum_lines(data) if not strict] == [fail]
        assert PROP_2_3 not in out

    def test_j3_datum_lines_and_no_prop_2_3(self, tmp_path):
        rc, out = run(["check", write_json(tmp_path, "j3.json", J3_INTERMEDIATE)])
        assert rc == EXIT_OK
        assert out.splitlines()[:3] == ["[PASS] gluing datum invariants",
                                        "  ok   can is strict — ker 1, rank 2",
                                        "  ok   var is strict — ker 0, rank 2"]
        assert PROP_2_3 not in out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_monodromy_center_prints_the_filtration_at_that_center(seed, tmp_path):
    """`monodromy --center c` prints what monodromy_filtration(N, c), built
    afresh, gives, whatever the model's own center."""
    m = generate_scrambled(generate_model(seed, 3, 4, seed - 2, ["L", "P"]), seed + 10)
    data = json.loads(serialize(ModelDocument("nilpotent", m)))
    for omit in ((), ("filtration",)):
        path = write_json(tmp_path, "m.json", {k: v for k, v in data.items() if k not in omit})
        for c in range(-3, 4):
            filt = monodromy.monodromy_filtration(m.N.matrix, c)
            want = [f"monodromy filtration centered at {c}"]
            for w, s in filt.steps:
                want.append(f"  W_{w}: dim {s.dim}, graded dim {filt.graded_dim(w)}")
                want += ["    [" + ", ".join(map(str, row)) + "]" for row in s.basis.entries]
            assert run(["monodromy", path, "--center", str(c)]) == \
                (EXIT_OK, "\n".join(want) + "\n")


def _child_env() -> dict:
    """The environment of a `python -m monofilt` child that imports this
    checkout's monofilt."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestProcess:
    def test_parser_built_once(self, monkeypatch):
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        for _ in range(3):
            assert run(["gen", "--seed", "1"])[0] == EXIT_OK
        assert len(calls) == 1

    def test_python_m_monofilt(self, tmp_path):
        env = _child_env()
        proc = subprocess.run(
            [sys.executable, "-m", "monofilt", "check",
             write_json(tmp_path, "m.json", README_EXAMPLE)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip().endswith("PASS")

    def test_closed_stdout_is_not_a_failed_check(self, tmp_path):
        """A reader that has gone away (`monofilt check DOC | head -1`) ends
        the run without a traceback, and never with the failed-check code."""
        env = _child_env()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "monofilt", "check",
                 write_json(tmp_path, "m.json", README_EXAMPLE)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode != EXIT_VERIFICATION
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_is_an_output_error(self, tmp_path):
        """A stdout that cannot be written (`monofilt check DOC > /dev/full`)
        ends in exit 4 and one `output error:` line, not in a traceback or
        the failed-check code."""
        env = _child_env()
        path = write_json(tmp_path, "m.json", README_EXAMPLE)
        for argv in (["check", path], ["check", path, "--format", "json"],
                     ["kclass", path], ["monodromy", path]):
            with open("/dev/full", "w") as full:
                proc = subprocess.run([sys.executable, "-m", "monofilt", *argv], stdout=full,
                                      stderr=subprocess.PIPE, text=True, env=env, timeout=120)
            assert proc.returncode == 4, (argv, proc.stderr)
            assert proc.stderr.startswith("output error: "), argv
            assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
