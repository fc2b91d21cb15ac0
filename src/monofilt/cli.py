"""Model documents and the command-line surface.

One JSON document describes one model.  Rationals are serialized as
strings ("p/q" or "p"), never floats; serialization is canonical (sorted
keys, fixed field order) so parse . serialize is the identity; all JSON output
goes through one writer, `_dumps`, byte-equal to json.dumps(sort_keys=True,
indent=2).  Rational strings are memoized; a key named twice is a parse error.

Exit codes: 0 all checks pass, 1 verification failure, 2 parse error,
3 validation error, 4 output error (`main` only: stdout could not be
written, say on a full disk); `main` lets a closed stdout end the process by
SIGPIPE where the platform has one.  A document whose model would exceed
MAX_DIM (in dimension, total string length or weight spread) is a
validation error, raised before anything of that size is built.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import signal
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Callable, NamedTuple

from . import kgroup, monodromy, theorems, weights
from .monodromy import (JordanStringModel, NilpotentModel, graded_kernel,
                        primitive_decomposition, verify_hard_lefschetz)
from .gluing import GluingDatum, psi_u, verify_sequence_2
from .qlinalg import QMatrix, Subspace
from .report import ReportBuilder
from .theorems import DiskModel, verify_local_invariant_cycles, verify_weight_mechanics
from .weights import (LabeledGrading, TwistedLabel, WeightFiltration,
                      WeightedSpace)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_OUTPUT = 4

# the largest dimension, total string length, point multiplicity or distance
# of a weight from the center that a document or `gen` may ask for: the
# checks grow faster than d^3, and some loops run over the whole weight range
MAX_DIM = 128


class ParseError(ValueError):
    """Malformed document text or missing/ill-typed fields."""


class ValidationError(ValueError):
    """Well-formed document whose payload violates a model invariant."""


def _capped(size: int, what: str) -> int:
    """size, or a validation error if it is negative or exceeds MAX_DIM."""
    if size < 0:
        raise ValidationError(f"{what} is {size}, below 0")
    if size > MAX_DIM:
        raise ValidationError(f"{what} is {size}, above the size cap {MAX_DIM}")
    return size


@dataclass(frozen=True)
class ModelDocument:
    kind: str
    model: object  # NilpotentModel | JordanStringModel | GluingDatum | DiskModel


# ---------------------------------------------------------------------------
# serialization helpers

_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(rf"({_INTEGER.pattern})(?:/([0-9]+))?")


def _parse_rat(s) -> int | Fraction:
    """A rational field: a JSON integer, or a string "p" or "p/q" of decimal
    integers; decimal points and exponents are refused.  Only "p/q" is a Fraction."""
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    if not isinstance(s, str):
        raise ParseError(f"rationals must be strings or integers, got {s!r}")
    return _parse_rat_text(s)


@functools.lru_cache(maxsize=256)  # a refusal raises, so it is never kept
def _parse_rat_text(s: str) -> int | Fraction:
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise ParseError(f"bad rational {s!r}: not an integer or p/q")
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except ZeroDivisionError as e:
        raise ParseError(f"bad rational {s!r}: {e}") from None
    except ValueError as e:  # more digits than int() converts
        raise ParseError(f"bad rational: {e}") from None


def _parse_int(x, what: str) -> int:
    """An integer field: a JSON integer or a string of decimal digits with an
    optional sign; bools, floats, padding and underscores fail."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _INTEGER.fullmatch(x):
        try:
            return int(x)
        except ValueError as e:  # more digits than int() converts
            raise ParseError(f"{what}: {e}") from None
    raise ParseError(f"{what} must be an integer, got {x!r}")


def _parse_label(x) -> str:
    """A label: a JSON string, kept as written."""
    if not isinstance(x, str):
        raise ParseError(f"label must be a string, got {x!r}")
    return x


def _matrix_to_json(m: QMatrix) -> list:
    rows, den = m._ints  # each entry x / den written as str(Fraction) writes it
    return [[str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}"
             for x in row] for row in rows]


def _matrix_from_json(data, cols=None) -> QMatrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise ParseError("matrix must be a list of rows")
    entries = [[_parse_rat(x) for x in row] for row in data]
    try:
        return QMatrix.from_rows(entries, cols=cols if not data else None)
    except ValueError as e:
        raise ParseError(f"bad matrix: {e}") from None


def _filtration_to_json(f: WeightFiltration) -> dict:
    return {str(w): _matrix_to_json(s.basis) for w, s in f.steps}


def _filtration_from_json(data, dim: int) -> WeightFiltration:
    if not isinstance(data, dict):
        raise ParseError("filtration must be an object mapping weight to rows")
    steps = []
    for w_str, rows in data.items():
        w = _parse_int(w_str, "filtration weight")
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise ParseError(f"filtration step at weight {w} must be a list of rows")
        vecs = [[_parse_rat(x) for x in row] for row in rows]
        try:
            steps.append((w, Subspace.from_vectors(dim, vecs)))
        except Exception as e:
            raise ParseError(f"bad filtration step at weight {w}: {e}") from None
    return WeightFiltration.from_spaces(dim, steps)


def _grading_to_json(g: LabeledGrading) -> dict:
    return {str(w): [[lbl.label, lbl.twist, m] for lbl, m in terms]
            for w, terms in g.entries}


def _grading_from_json(data) -> LabeledGrading:
    if not isinstance(data, dict):
        raise ParseError("grading must be an object mapping weight to entries")
    d = {}
    for w_str, terms in data.items():
        w = _parse_int(w_str, "grading weight")
        if not isinstance(terms, list) or any(
                not isinstance(t, list) or len(t) != 3 for t in terms):
            raise ParseError("grading entries must be [label, twist, mult]")
        entry = d.setdefault(w, {})  # keys such as "1" and "+1" name one weight
        count = len(entry) + len(terms)
        for label, twist, mult in terms:
            entry[TwistedLabel(_parse_label(label), _parse_int(twist, "twist"))] = \
                _parse_int(mult, "mult")
        if len(entry) != count:
            raise ValidationError(f"grading terms must be distinct at weight {w}")
    return LabeledGrading.from_dict(d)


def _space_to_json(ws: WeightedSpace) -> dict:
    return {"dim": ws.dim,
            "filtration": _filtration_to_json(ws.filtration),
            "grading": _grading_to_json(ws.grading)}


def _space_from_json(data) -> WeightedSpace:
    if not isinstance(data, dict) or "dim" not in data:
        raise ParseError("space payload must be an object with a dim field")
    dim = _capped(_parse_int(data["dim"], "dim"), "dim")
    if dim and "filtration" not in data:
        raise ParseError("space payload missing filtration")
    filt = _filtration_from_json(data.get("filtration", {}), dim)
    grading = (_grading_from_json(data["grading"]) if "grading" in data
               else weights.default_grading(filt))
    return WeightedSpace(dim, filt, grading)


def _nilpotent_to_json(m: NilpotentModel) -> dict:
    return {"n": m.n,
            "matrix": _matrix_to_json(m.N.matrix),
            "filtration": _filtration_to_json(m.space.filtration),
            "grading": _grading_to_json(m.space.grading)}


def _nilpotent_from_json(data) -> NilpotentModel:
    if "matrix" not in data or "n" not in data:
        raise ParseError("nilpotent payload needs matrix and n")
    mat = _matrix_from_json(data["matrix"], cols=0)  # [] is the 0 x 0 matrix
    if mat.rows != mat.cols:
        raise ValidationError("nilpotent matrix must be square")
    n = _parse_int(data["n"], "n")
    dim = _capped(mat.rows, "matrix dimension")
    filt = (_filtration_from_json(data["filtration"], dim)
            if "filtration" in data else None)
    grading = (_grading_from_json(data["grading"]) if "grading" in data
               else None)
    # hard Lefschetz and the default grading loop over every weight from the center
    for w in (filt.weights if filt else ()) + (grading.weights if grading else ()):
        _capped(abs(w - (n - 1)), f"the distance of weight {w} from the center {n - 1}")
    if filt is None:
        return NilpotentModel.on_monodromy_filtration(mat, n, grading)
    if grading is None:
        grading = weights.default_grading(filt, center=n - 1)
    return NilpotentModel.of(WeightedSpace(dim, filt, grading), n, mat)


def _strings_from_json(data) -> JordanStringModel:
    if "strings" not in data or "n" not in data:
        raise ParseError("pure_strings payload needs strings and n")
    if not isinstance(data["strings"], list):
        raise ParseError("strings must be a list")
    strings = []
    for s in data["strings"]:
        if not isinstance(s, dict) or "label" not in s or "length" not in s:
            raise ParseError("each string needs label and length")
        strings.append((_parse_label(s["label"]), _parse_int(s["length"], "length")))
    model = JordanStringModel(tuple(strings), _parse_int(data["n"], "n"))
    _capped(model.dim, "total string length")
    return model


def _strings_to_json(m: JordanStringModel) -> dict:
    return {"n": m.n,
            "strings": [{"label": lbl, "length": ln} for lbl, ln in m.strings]}


def _gluing_from_json(data) -> GluingDatum:
    for field in ("psi", "phi", "can", "var"):
        if field not in data:
            raise ParseError(f"gluing payload missing {field}")
    psi = _space_from_json(data["psi"])
    phi = _space_from_json(data["phi"])
    can = _matrix_from_json(data["can"], cols=psi.dim)
    var = _matrix_from_json(data["var"], cols=phi.dim)
    return GluingDatum.of(psi, phi, can, var)


def _gluing_to_json(g: GluingDatum) -> dict:
    return {"psi": _space_to_json(g.psi), "phi": _space_to_json(g.phi),
            "can": _matrix_to_json(g.can.matrix),
            "var": _matrix_to_json(g.var.matrix)}


def _disk_from_json(data) -> DiskModel:
    if "open" not in data:
        raise ParseError("disk payload missing open part")
    open_data = data["open"]
    if not isinstance(open_data, dict):
        raise ParseError("open part must be an object")
    if "strings" in open_data:
        open_model = _strings_from_json(open_data).to_nilpotent()
    else:
        open_model = _nilpotent_from_json(open_data)
    point_data = data.get("point", {"weight": open_model.n, "labels": []})
    if not isinstance(point_data, dict):
        raise ParseError("point must be an object")
    pairs = point_data.get("labels", [])
    if not isinstance(pairs, list) or any(
            not isinstance(t, list) or len(t) != 2 for t in pairs):
        raise ParseError("point labels must be [label, mult] pairs")
    pw = _parse_int(point_data.get("weight", open_model.n), "weight")
    labels = {TwistedLabel(_parse_label(lbl)): _parse_int(m, "mult") for lbl, m in pairs}
    if len(labels) != len(pairs):
        raise ValidationError("point labels must be distinct")
    grading = LabeledGrading.from_dict({pw: labels})  # refuses a negative multiplicity
    _capped(sum(labels.values()), "the sum of point multiplicities")
    point = WeightedSpace.pure(grading.total_at(pw), pw, grading=grading)
    pure = data.get("pure", True)
    if not isinstance(pure, bool):
        raise ParseError(f"pure must be a boolean, got {pure!r}")
    extension = data.get("extension", "intermediate" if pure else "shriek")
    if not isinstance(extension, str):
        raise ParseError(f"extension must be a string, got {extension!r}")
    return DiskModel(open_model, point, pure, extension)


def _disk_to_json(dm: DiskModel) -> dict:
    labels = []
    for w, terms in dm.point_part.grading.entries:
        labels.extend([lbl.label, m] for lbl, m in terms)
    # the zero point space carries no weight of its own
    weight = dm.point_part.filtration.weights[0] if dm.point_part.dim else dm.n
    return {"open": _nilpotent_to_json(dm.open_part),
            "point": {"weight": weight, "labels": labels},
            "pure": dm.pure,
            "extension": dm.extension}


def _write(x, out: list, indent: str) -> None:
    """Appends to out the text json.dumps(x, sort_keys=True, indent=2) gives x at indent."""
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, dict):  # keys are strings
        inner = indent + "  "
        for i, k in enumerate(sorted(x)):
            out += (",\n" if i else "{\n", inner, encode_basestring_ascii(k), ": ")
            _write(x[k], out, inner)
        out.append("\n" + indent + "}" if x else "{}")
    elif isinstance(x, list):
        inner = indent + "  "
        for i, v in enumerate(x):
            out += (",\n" if i else "[\n", inner)
            _write(v, out, inner)
        out.append("\n" + indent + "]" if x else "[]")
    else:
        raise TypeError(f"cannot write {type(x).__name__} as JSON")


def _dumps(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) + "\n", byte for byte."""
    _write(payload, out := [], "")
    return "".join(out) + "\n"


def serialize(doc: ModelDocument) -> str:
    return _dumps({**_KINDS[doc.kind].to_json(doc.model), "kind": doc.kind})


def _unique_keys(pairs: list) -> dict:
    """The JSON object of pairs; a key named twice is an error."""
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise ValueError(f"repeated key {k!r}")
        obj[k] = v
    return obj


def parse(text: str) -> ModelDocument:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") \
            from None
    except ValueError as e:  # a repeated key, or more digits than int() converts
        raise ParseError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("document must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError(f"unknown or missing kind {kind!r}")
    try:
        model = _KINDS[kind].from_json(data)
    except (ParseError, ValidationError):
        raise
    except ValueError as e:  # a model invariant the payload violates
        raise ValidationError(str(e)) from None
    return ModelDocument(kind, model)


# ---------------------------------------------------------------------------
# verifier dispatch

def _model_reports(model: NilpotentModel) -> list:
    # no extension: on a model's own N the round-trips and Prop 2.3 hold by construction
    reports = [verify_sequence_2(model)]
    hl = verify_hard_lefschetz(model)
    if not hl.passed:  # the diagnosis: a passing hl is the axioms on W = M(N)
        reports.append(monodromy.check_monodromy_axioms(
            model.monodromy_filtration, model.N.matrix, model.center))
    reports.append(hl)
    if hl.passed:
        reports.append(primitive_decomposition(model))
        gk = graded_kernel(model)
        rb = ReportBuilder("class identity from the kernel grading")
        ks = kgroup.kclass_of_space(model.space)
        kk = kgroup.kclass_psi_from_kernel(gk.grading, model.n)
        rb.check("class of the space equals class assembled from ker N",
                 ks == kk, f"{ks} vs {kk}")
        reports.append(rb.build())
    return reports


def _gluing_reports(g: GluingDatum) -> list:
    rb = ReportBuilder("gluing datum invariants")  # can and var are filtered (GluingDatum.of)
    for name, cx in (("can is strict", g.i_upper_star), ("var is strict", g.i_upper_shriek)):
        k = cx.ker.dim
        rb.check(name, cx.strict, f"ker {k}, rank {cx.d.matrix.cols - k}")
    return [rb.build(), verify_sequence_2(psi_u(g))]


def _disk_reports(dm: DiskModel, ks=(-1, 0)) -> list:
    reports = []
    for k in ks:
        reports.append(verify_local_invariant_cycles(dm, k))
        reports.append(verify_weight_mechanics(dm, k))
    return reports


class _Kind(NamedTuple):
    from_json: Callable
    to_json: Callable
    model: Callable | None  # the document's NilpotentModel, for kinds that have one
    reports: Callable  # the verifiers of `check`, given that model or else the document's


_KINDS = {
    "nilpotent": _Kind(_nilpotent_from_json, _nilpotent_to_json, lambda m: m,
                       _model_reports),
    "pure_strings": _Kind(_strings_from_json, _strings_to_json,
                          lambda m: m.to_nilpotent(), _model_reports),
    "gluing": _Kind(_gluing_from_json, _gluing_to_json, None, _gluing_reports),
    "disk": _Kind(_disk_from_json, _disk_to_json, None, _disk_reports),
}


def _doc_model(doc: ModelDocument) -> NilpotentModel:
    to_model = _KINDS[doc.kind].model
    if to_model is None:
        raise ValidationError(f"command needs a nilpotent or pure_strings document, "
                              f"got {doc.kind!r}")
    return to_model(doc.model)


def _reports_for(doc: ModelDocument) -> list:
    kind = _KINDS[doc.kind]
    return kind.reports(doc.model if kind.model is None else kind.model(doc.model))


# ---------------------------------------------------------------------------
# commands

def _emit_all(title: str, reports: list, fmt: str, out) -> bool:
    """Writes the reports, as one JSON document in json format; returns
    whether they all passed."""
    passed = all(r.passed for r in reports)
    if fmt == "json":
        out.write(_dumps({"title": title, "passed": passed,
                          "reports": [r.to_dict() for r in reports]}))
    else:
        for r in reports:
            out.write(r.to_text() + "\n")
    return passed


def _load(path: str) -> ModelDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    return parse(text)


def cmd_check(args, out) -> int:
    doc = _load(args.file)
    passed = _emit_all(f"check {doc.kind}", _reports_for(doc), args.format, out)
    if args.format == "text":
        out.write(("PASS" if passed else "FAIL") + "\n")
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_monodromy(args, out) -> int:
    doc = _load(args.file)
    model = _doc_model(doc)
    center = args.center if args.center is not None else model.center
    # M(N, c) is the model's M(N, c0) with every weight moved by c - c0
    filt, delta = model.monodromy_filtration, center - model.center
    out.write(f"monodromy filtration centered at {center}\n")
    for w, s in filt.steps:
        out.write(f"  W_{w + delta}: dim {s.dim}, graded dim {filt.graded_dim(w)}\n")
        for row in _matrix_to_json(s.basis):
            out.write("    [" + ", ".join(row) + "]\n")
    return EXIT_OK


def cmd_kclass(args, out) -> int:
    doc = _load(args.file)
    model = _doc_model(doc)
    cls = kgroup.kclass_of_space(model.space)
    out.write(str(cls) + "\n")
    return EXIT_OK


def cmd_gen(args, out) -> int:
    for flag, value in (("--strings", args.strings), ("--maxlen", args.maxlen)):
        if not 1 <= value <= MAX_DIM:
            raise ValidationError(f"{flag} must be between 1 and {MAX_DIM}, got {value}")
    labels = args.labels.split(",") if args.labels else ["L"]
    model = theorems.generate_model(args.seed, args.strings, args.maxlen,
                                    args.weight, labels)
    _capped(model.dim, "the generated model's dimension")
    if args.scramble:
        doc = ModelDocument("nilpotent",
                            theorems.generate_scrambled(model, args.seed + 1))
    else:
        doc = ModelDocument("pure_strings", model)
    out.write(serialize(doc))
    return EXIT_OK


def cmd_independence(args, out) -> int:
    a = _doc_model(_load(args.file_a))
    b = _doc_model(_load(args.file_b))
    try:
        report = theorems.verify_kclass_independence(a, b)
    except monodromy.NotPure as e:  # an impure model, or two weights n
        raise ValidationError(str(e)) from None
    passed = _emit_all("independence", [report], args.format, out)
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_lic(args, out) -> int:
    doc = _load(args.file)
    if doc.kind != "disk":
        raise ValidationError("lic needs a disk document")
    reports = _disk_reports(doc.model, [args.k] if args.k is not None else (-1, 0))
    passed = _emit_all(f"lic {doc.kind}", reports, args.format, out)
    return EXIT_OK if passed else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="monofilt",
        description="exact verification of monodromy-weight identities on disk models")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run every verifier applicable to a document")
    c.add_argument("file")
    c.add_argument("--format", choices=["text", "json"], default="text")

    c = sub.add_parser("monodromy", help="print the monodromy filtration")
    c.add_argument("file")
    c.add_argument("--center", type=int, default=None)

    c = sub.add_parser("kclass", help="print the Grothendieck class")
    c.add_argument("file")

    c = sub.add_parser("gen", help="emit a pseudorandom model document")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--strings", type=int, default=3)
    c.add_argument("--maxlen", type=int, default=4)
    c.add_argument("--weight", type=int, default=1)
    c.add_argument("--labels", type=str, default="L")
    c.add_argument("--scramble", action="store_true")

    c = sub.add_parser("independence", help="compare classes of two pure models")
    c.add_argument("file_a")
    c.add_argument("file_b")
    c.add_argument("--format", choices=["text", "json"], default="text")

    c = sub.add_parser("lic", help="local invariant cycles and weight mechanics")
    c.add_argument("file")
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--format", choices=["text", "json"], default="text")
    return p


# the function each subcommand runs, looked up on every run rather than kept
# as a default of the parser, which is built once
_COMMANDS = {"check": cmd_check, "monodromy": cmd_monodromy, "kclass": cmd_kclass,
             "gen": cmd_gen, "independence": cmd_independence, "lic": cmd_lic}
_parser: argparse.ArgumentParser | None = None  # built on the first run


def run(argv=None, out=None) -> int:
    global _parser
    out = out if out is not None else sys.stdout
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the process, as it ends cat
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        code = run()
        sys.stdout.flush()
    except OSError as e:  # _load reports a document it cannot read, so this is stdout
        # the flush at exit would fail again and make the status 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: {e.strerror}", file=sys.stderr)
        code = EXIT_OUTPUT
    sys.exit(code)
