"""The benchmark's own writer for ``monofilt`` JSON documents.

It writes the documented format (README, "Document format") from the
values the benchmark chose, without calling ``monofilt.cli``, so the
text a user would hold is not produced by the code under test.  The
canonical form is what ``cli.serialize`` must give back: sorted keys,
two-space indent, a final newline, rationals as ``"p/q"`` strings and
every optional field present.
"""
from __future__ import annotations

import json


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def matrix(m) -> list:
    return [[str(x) for x in row] for row in m.entries]


def filtration(f) -> dict:
    return {str(w): matrix(s.basis) for w, s in f.steps}


def grading(g) -> dict:
    return {str(w): [[lbl.label, lbl.twist, mult] for lbl, mult in terms]
            for w, terms in g.entries}


def space(ws) -> dict:
    return {"dim": ws.dim, "filtration": filtration(ws.filtration),
            "grading": grading(ws.grading)}


def nilpotent(model, with_filtration=True, with_grading=True) -> dict:
    out = {"n": model.n, "matrix": matrix(model.N.matrix)}
    if with_filtration:
        out["filtration"] = filtration(model.space.filtration)
    if with_grading:
        out["grading"] = grading(model.space.grading)
    return out


def strings(model) -> dict:
    return {"n": model.n,
            "strings": [{"label": lbl, "length": ln} for lbl, ln in model.strings]}


def gluing(datum) -> dict:
    return {"psi": space(datum.psi), "phi": space(datum.phi),
            "can": matrix(datum.can.matrix), "var": matrix(datum.var.matrix)}


def disk(open_payload: dict, weight: int, labels: list, pure: bool,
         extension: str | None) -> dict:
    """``labels`` is a list of ``[label, multiplicity]`` sorted by label."""
    out = {"open": open_payload, "point": {"weight": weight, "labels": labels},
           "pure": pure}
    if extension is not None:
        out["extension"] = extension
    return out


def document(kind: str, payload: dict) -> str:
    return dumps({**payload, "kind": kind})
