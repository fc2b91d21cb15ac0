"""The output manifest: a seeded corpus of documents and the digest of every
output the CLI gives on it.

Each entry is one (document, command, format): its exit code and the SHA-256
of its stdout, stderr and exit code together.  The corpus is built here from
seeds, with no download and no import of ``bench/``:

- ``gen`` documents, plain and ``--scramble``, and the ``gen`` runs that
  write them;
- the j_!, j_* and j_!* gluing documents of ``gen`` models;
- pure and impure disks, with the open part in either form and optional
  fields left out;
- ``nilpotent`` documents with ``p/q`` entries, with rationals written in
  non-canonical forms, and with the filtration or grading left out;
- the edge documents that CI checks, and documents that are refused.

``test_output_manifest.py`` recomputes the manifest and names every entry that
changed.  A change that declares an output change regenerates it with

    PYTHONPATH=src python tests/output_manifest.py

and the diff of ``output_manifest.txt`` is the declared change.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from monofilt import cli, gluing
from monofilt.monodromy import NilpotentModel
from monofilt.qlinalg import QMatrix, inverse
from monofilt.theorems import DiskModel, generate_model, generate_scrambled
from monofilt.weights import WeightedSpace

MANIFEST = Path(__file__).with_name("output_manifest.txt")

# (id suffix, argv) of every command run on every document, whose path follows argv[0]
COMMANDS = (("check text", ["check"]), ("check json", ["check", "--format", "json"]),
            ("lic text", ["lic"]), ("lic json", ["lic", "--format", "json"]),
            ("kclass", ["kclass"]), ("monodromy", ["monodromy"]))

# the documents of .github/workflows/tests.yml, and their near relatives
J3_INTERMEDIATE = (
    '{"kind":"gluing","psi":{"dim":3,"filtration":{"-2":[["1","0","0"]],'
    '"0":[["1","0","0"],["0","1","0"]],"2":[["1","0","0"],["0","1","0"],["0","0","1"]]}},'
    '"phi":{"dim":2,"filtration":{"0":[["1","0"]],"2":[["1","0"],["0","1"]]}},'
    '"can":[["0","1","0"],["0","0","1"]],"var":[["1","0"],["0","1"],["0","0"]]}')
DISK_OPEN = ('"open":{"n":1,"strings":[{"label":"L","length":3},{"label":"P","length":1}]},'
             '"point":{"weight":1,"labels":[["P",1]]}')
EDGE = {
    "readme": '{"kind":"nilpotent","n":1,"matrix":[["0","1"],["0","0"]]}',
    "dim0": '{"kind":"nilpotent","n":1,"matrix":[]}',
    "dim120": '{"kind":"pure_strings","n":1,"strings":[{"label":"L","length":80},'
              '{"label":"L","length":40}]}',
    "oversized": '{"kind":"pure_strings","n":1,"strings":[{"label":"L","length":100000}]}',
    "invertible-identity": '{"kind":"nilpotent","n":1,"matrix":[["1","0"],["0","1"]]}',
    "invertible-swap": '{"kind":"nilpotent","n":1,"matrix":[["0","1"],["1","0"]]}',
    "not-nilpotent-gluing": '{"kind":"gluing","psi":{"dim":1,"filtration":{"1":[["1"]]}},'
                            '"phi":{"dim":1,"filtration":{"1":[["1"]]}},'
                            '"can":[["1"]],"var":[["1"]]}',
    "j3-intermediate": J3_INTERMEDIATE,
    "can-not-strict": '{"kind":"gluing","psi":{"dim":1,"filtration":{"2":[["1"]]}},'
                      '"phi":{"dim":1,"filtration":{"0":[["1"]]}},"can":[["1"]],"var":[["0"]]}',
    "var-not-strict": '{"kind":"gluing","psi":{"dim":1,"filtration":{"-2":[["1"]]}},'
                      '"phi":{"dim":1,"filtration":{"2":[["1"]]}},"can":[["0"]],"var":[["1"]]}',
    "can-not-filtered": '{"kind":"gluing","psi":{"dim":1,"filtration":{"0":[["1"]]}},'
                        '"phi":{"dim":1,"filtration":{"2":[["1"]]}},"can":[["1"]],"var":[["0"]]}',
    "var-shape": '{"kind":"gluing","psi":{"dim":1,"filtration":{"0":[["1"]]}},'
                 '"phi":{"dim":1,"filtration":{"0":[["1"]]}},"can":[["0"]],"var":[["0"],["0"]]}',
    "can-shape": '{"kind":"gluing","psi":{"dim":2,"filtration":{"0":[["1","0"],["0","1"]]}},'
                 '"phi":{"dim":1,"filtration":{"0":[["1"]]}},"can":[["0","0"],["0","0"]],'
                 '"var":[["0"],["0"]]}',
    "disk-pure": '{"kind":"disk",' + DISK_OPEN + ',"pure":true,"extension":"intermediate"}',
    "disk-shriek": '{"kind":"disk",' + DISK_OPEN + ',"pure":false,"extension":"shriek"}',
    "disk-star": '{"kind":"disk",' + DISK_OPEN + ',"pure":false,"extension":"star"}',
    "disk-impure-intermediate":
        '{"kind":"disk","open":{"n":1,"matrix":[["0","1"],["0","0"]]},'
        '"pure":false,"extension":"intermediate"}',
    "disk-defaults": '{"kind":"disk","open":{"n":2,"strings":[{"label":"L","length":2}]}}',
    "disk-zero-open": '{"kind":"disk","open":{"n":1,"strings":[]}}',
    "kclass-strings": '{"kind":"pure_strings","n":1,"strings":[{"label":"L","length":3},'
                      '{"label":"P","length":1}]}',
    "kclass-nilpotent": '{"kind":"nilpotent","n":3,"matrix":[["0","1","0","0"],'
                        '["0","0","1","0"],["0","0","0","0"],["0","0","0","0"]]}',
    "l4p2l1p1": '{"kind":"pure_strings","n":1,"strings":[{"label":"L","length":4},'
                '{"label":"P","length":2},{"label":"L","length":1},{"label":"P","length":1}]}',
    "impure-j2": '{"kind":"nilpotent","n":2,"matrix":[["0","1"],["0","0"]],'
                 '"filtration":{"-1":[["1","0"]],"1":[["1","0"],["0","1"]]},'
                 '"grading":{"-1":[["L",0,1]],"1":[["L",-1,1]]}}',
    "non-strict": '{"kind":"nilpotent","n":3,"matrix":[["0","0","1"],["0","0","0"],'
                  '["0","0","0"]],"filtration":{"0":[["1","0","0"]],'
                  '"2":[["1","0","0"],["0","1","0"]],"4":[["1","0","0"],["0","1","0"],'
                  '["0","0","1"]]}}',
    "off-center-kernel-labels": '{"kind":"nilpotent","n":1,"matrix":[["0","0"],["0","0"]],'
                                '"filtration":{"-1":[["1","0"]],"1":[["1","0"],["0","1"]]}}',
    # rationals in every form the reader takes, canonical or not
    "rational-forms": '{"kind":"nilpotent","n":"+1","matrix":[["-0","2/4","+3/6"],'
                      '["0","000","4/2"],[0,"0/7","-0/1"]]}',
    "rational-gluing": '{"kind":"gluing","psi":{"dim":"1","filtration":{"+0":[["3/3"]]}},'
                       '"phi":{"dim":1,"filtration":{"-2":[["-5/2"]]}},'
                       '"can":[["0/9"]],"var":[[0]]}',
    # refused documents
    "refused-float": '{"kind":"nilpotent","n":1,"matrix":[["0",1.5],["0","0"]]}',
    "refused-bool": '{"kind":"nilpotent","n":true,"matrix":[["0","1"],["0","0"]]}',
    "refused-null-entry": '{"kind":"nilpotent","n":1,"matrix":[["0",null],["0","0"]]}',
    "refused-decimal": '{"kind":"nilpotent","n":1,"matrix":[["0","1.0"],["0","0"]]}',
    "refused-zero-denominator": '{"kind":"nilpotent","n":1,"matrix":[["0","1/0"],["0","0"]]}',
    "refused-kind": '{"kind":"nilpotents","n":1,"matrix":[]}',
    "refused-weight-spellings": '{"kind":"nilpotent","n":1,"matrix":[["0","0"],["0","0"]],'
                                '"filtration":{"-1":[],"-01":[["1","0"]],'
                                '"1":[["1","0"],["0","1"]]}}',
    # a key named twice: the reader keeps no silent choice between the two
    "repeated-top-level-key": '{"kind":"nilpotent","n":1,"n":1,"matrix":[["0","1"],["0","0"]],'
                              '"matrix":[["0","0"],["0","0"]]}',
    "repeated-filtration-weight": '{"kind":"nilpotent","n":1,"matrix":[["0","1"],["0","0"]],'
                                  '"filtration":{"-1":[["1","0"]],"-1":[["1","0"]],'
                                  '"1":[["1","0"],["0","1"]]}}',
    "repeated-grading-weight": '{"kind":"nilpotent","n":1,"matrix":[["0","1"],["0","0"]],'
                               '"grading":{"-1":[["L",0,1]],"1":[["L",-1,1]],'
                               '"1":[["L",-1,1]]}}',
    "repeated-disk-point-key": '{"kind":"disk","open":{"n":1,"strings":[]},'
                               '"point":{"weight":1,"weight":1,"labels":[]}}',
}


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _scaled(model: NilpotentModel) -> NilpotentModel:
    """model conjugated by diag(1, 2, ..., d), so its entries are p/q."""
    d = model.space.dim
    scale = QMatrix.from_rows([[i + 1 if i == j else 0 for j in range(d)] for i in range(d)])
    return NilpotentModel.on_monodromy_filtration(
        scale @ model.N.matrix @ inverse(scale), model.n, model.space.grading)


def gen_runs() -> dict:
    """{id: argv} of the `gen` runs: seeds 1..12, plain and scrambled, over a
    spread of sizes, weights and labels, and the dense dim-34 document."""
    runs = {}
    for seed in range(1, 13):
        flags = ["--seed", str(seed), "--strings", str(1 + seed % 4),
                 "--maxlen", str(2 + seed % 4), "--weight", str(seed % 5 - 1),
                 "--labels", ("L", "L,P", "L,P,Q")[seed % 3]]
        runs[f"gen-{seed}"] = ["gen", *flags]
        runs[f"gen-{seed}-scramble"] = ["gen", *flags, "--scramble"]
    runs["gen-34-scramble"] = ["gen", "--seed", "3", "--strings", "8", "--maxlen", "10",
                               "--scramble"]
    return runs


def documents(gen_texts: dict) -> dict:
    """{id: text} of every document of the corpus; gen_texts holds the
    output of each of gen_runs()."""
    docs = dict(EDGE)
    docs.update(gen_texts)
    for seed in range(1, 5):
        for tag, flavor in (("strings", False), ("scrambled", True)):
            model = generate_model(seed, 3, 3, seed % 3, ["L", "P"])
            nm = generate_scrambled(model, seed + 1) if flavor else model.to_nilpotent()
            for name, ctor in (("shriek", gluing.j_lower_shriek),
                               ("star", gluing.j_lower_star),
                               ("intermediate", gluing.j_intermediate)):
                docs[f"gluing-{name}-{seed}-{tag}"] = cli.serialize(
                    cli.ModelDocument("gluing", ctor(nm.space, nm.N)))
            for name, point, pure, ext in (
                    ("pure", WeightedSpace.pure(seed % 3, model.n, "P"), True, "intermediate"),
                    ("shriek", WeightedSpace.pure(2, model.n + seed, "Q"), False, "shriek"),
                    ("star", WeightedSpace.zero(), False, "star")):
                docs[f"disk-{name}-{seed}-{tag}"] = cli.serialize(
                    cli.ModelDocument("disk", DiskModel(nm, point, pure, ext)))
            payload = json.loads(cli.serialize(cli.ModelDocument("nilpotent", nm)))
            for omitted in (("filtration",), ("grading",), ("filtration", "grading")):
                docs[f"nilpotent-{seed}-{tag}-no-{'-'.join(omitted)}"] = _dumps(
                    {k: v for k, v in payload.items() if k not in omitted})
        scaled = _scaled(generate_scrambled(generate_model(seed + 6, 3, 4, 1, ["L", "P"]),
                                            seed + 7))
        docs[f"rational-{seed}"] = cli.serialize(cli.ModelDocument("nilpotent", scaled))
        text = json.loads(docs[f"disk-pure-{seed}-strings"])
        text["open"] = {"n": model.n, "strings": [
            {"label": lbl, "length": ln} for lbl, ln in model.strings]}
        if seed % 2:
            del text["extension"]
        docs[f"disk-strings-open-{seed}"] = json.dumps(text)
    return docs


def _digest(rc: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([rc, out, err]).encode()).hexdigest()


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.run(argv, out)
    return rc, out.getvalue(), err.getvalue()


def _round_trip(text: str) -> tuple:
    """serialize(parse(text)) as a command: exit 0 and its text, or the
    exit code and message `run` gives a refused document."""
    try:
        return cli.EXIT_OK, cli.serialize(cli.parse(text)), ""
    except cli.ParseError as e:
        return cli.EXIT_PARSE, "", f"parse error: {e}\n"
    except cli.ValidationError as e:
        return cli.EXIT_VALIDATION, "", f"validation error: {e}\n"


def compute(workdir: Path) -> dict:
    """{"<document> <command> [<format>]": "<exit> <sha256>"} over the corpus;
    documents are written under workdir."""
    entries, gen_texts = {}, {}
    for name, argv in gen_runs().items():
        rc, out, err = _run(argv)
        entries[f"{name} gen"] = f"{rc} {_digest(rc, out, err)}"
        gen_texts[name] = out
    for name, text in documents(gen_texts).items():
        path = workdir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        for command, argv in COMMANDS:
            rc, out, err = _run([argv[0], str(path), *argv[1:]])
            entries[f"{name} {command}"] = f"{rc} {_digest(rc, out, err)}"
        rc, out, err = _round_trip(text)
        entries[f"{name} serialize-parse"] = f"{rc} {_digest(rc, out, err)}"
    return entries


def read() -> dict:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return dict(line.rsplit("\t", 1) for line in lines)


def write(entries: dict) -> None:
    MANIFEST.write_text("".join(f"{k}\t{entries[k]}\n" for k in sorted(entries)),
                    encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = compute(Path(tmp))
    write(manifest)
    print(f"wrote {len(manifest)} entries to {MANIFEST}", file=sys.stderr)
