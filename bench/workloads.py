"""Seeded workloads: corpus generation, known answers and one verdict per item.

A workload turns a seed into a fixed corpus of items.  Each item carries
the verdict it must get, derived from how it was built: every pure
construction passes, an impure shriek disk fails with exit 1, and every
document comes back from ``serialize(parse(text))`` as its canonical text.

The corpus is a stratified sample of the generator, so that every seed
gets the same spread of sizes while the content of each item (entries,
labels, weights, optional fields) still comes from the seed.  Scrambled
operators take the same number of draws of each dimension.  String models
come from a seeded pool of ``POOL`` draws per item, sorted by the cost
estimate dim^3 * (longest string), keeping the draw at each quantile
``(j + 1/2) / n``.
"""
from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass

import docs

WORKLOADS = ("scrambled_operators", "pure_strings", "cli_mixed")

# Verdicts per second of wall time at the commit that introduced the
# benchmark (2-core x86 box, Python 3.11).  Only used to size the corpus,
# so that one pass there fills the measuring window; a faster program makes
# more passes over the same corpus.
RATE = {"scrambled_operators": 18.0, "pure_strings": 2.6, "cli_mixed": 3.5}
POOL = 40
WARMUP = 3

# cli_mixed document mix per block of 12 documents.
CLI_MIX = (("pure_strings", 3), ("nilpotent", 3), ("gluing:intermediate", 1),
           ("gluing:star", 1), ("gluing:shriek", 1), ("disk:pure", 2),
           ("disk:impure", 1))
CLI_BLOCK = sum(k for _, k in CLI_MIX)

# Defects of the program that the cli_mixed corpus is known to hit.  A
# mismatch with exactly this signature is counted in `failed` and listed
# under this id; any other mismatch makes the run incorrect.
KNOWN_DEFECTS = {
    "default-grading": "an omitted nilpotent grading defaults to twist 0 on "
                       "every graded piece, so the class identity fails",
    "disk-point-weight": "the disk serializer writes the point weight as the "
                         "open part's n",
}
CLASS_IDENTITY = "class identity from the kernel grading"


@dataclass
class Item:
    id: int
    kind: str
    args: tuple = ()
    expect_rc: int = 0
    text: str = ""
    canonical: str | None = None  # None: only byte stability is checked
    path: str = ""
    point_weight: int | None = None
    omitted: tuple = ()


@dataclass
class Failure:
    item: int
    kind: str
    reasons: list
    known: list  # defect id per reason, None where unexplained

    @property
    def explained(self) -> bool:
        return all(k is not None for k in self.known)

    def to_dict(self) -> dict:
        return {"item": self.item, "kind": self.kind, "reasons": self.reasons,
                "known_defects": self.known}


def corpus_size(workload: str, seconds: float) -> int:
    n = round(seconds * RATE[workload])
    block = {"scrambled_operators": 8, "cli_mixed": CLI_BLOCK}.get(workload, 1)
    return max(WARMUP, round(n / block)) * block


def stratify(pool: list, key, n: int) -> list:
    """The pool element at each quantile (j + 1/2) / n of the key order."""
    order = sorted(range(len(pool)), key=lambda i: (key(pool[i]), i))
    return [pool[order[(2 * j + 1) * len(pool) // (2 * n)]] for j in range(n)]


def _cost(model) -> tuple:
    """Sort key: the cost estimate, then the string shape to break ties."""
    lengths = sorted((ln for _, ln in model.strings), reverse=True)
    return (model.dim ** 3 * lengths[0], model.dim, lengths)


def per_dimension(rng: random.Random, n: int, max_dim: int) -> list:
    """n // max_dim seeds for each dimension 1..max_dim of random_nilpotent,
    whose first draw is the dimension."""
    want = n // max_dim
    buckets: dict[int, list] = {d: [] for d in range(1, max_dim + 1)}
    while any(len(b) < want for b in buckets.values()):
        s = rng.getrandbits(64)
        b = buckets[random.Random(s).randint(1, max_dim)]
        if len(b) < want:
            b.append(s)
    return [s for d in sorted(buckets) for s in buckets[d]]


def build(workload: str, seed: int, n: int, mf, workdir=None):
    """The corpus for a seed, in timed order, and the items to warm up on."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "scrambled_operators":
        items = [_scrambled_item(mf, s) for s in per_dimension(rng, n, 8)]
    elif workload == "pure_strings":
        pool = [mf.theorems.generate_model(rng.getrandbits(64), 4, 5,
                                           rng.randint(-1, 3), ["L", "P"])
                for _ in range(POOL * n)]
        items = [Item(0, "pure_strings", (m,)) for m in stratify(pool, _cost, n)]
    elif workload == "cli_mixed":
        items = []
        for kind, per_block in CLI_MIX:
            count = per_block * n // CLI_BLOCK
            pool = [(rng.getrandbits(64), rng.randint(-1, 3)) for _ in range(POOL * count)]
            models = {s: mf.theorems.generate_model(s, 3, 4, w, ["L", "P", "Q"])
                      for s, w in pool}
            chosen = stratify(pool, lambda p: _cost(models[p[0]]), count)
            items.extend(_cli_item(mf, kind, models[s], s, rank)
                         for rank, (s, _) in enumerate(chosen))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    warmup = items[:WARMUP]
    rng.shuffle(items)
    for i, item in enumerate(items):
        item.id = i
        if workdir is not None and item.text:
            item.path = str(workdir / f"{i:05d}.json")
            with open(item.path, "w", encoding="utf-8") as fh:
                fh.write(item.text)
    return items, warmup


def _scrambled_item(mf, s: int) -> Item:
    r = random.Random(s)
    mat = mf.theorems.random_nilpotent(r, max_dim=8)
    return Item(0, "nilpotent", (mat, r.randint(-3, 3)))


NILPOTENT_OMITS = ((), ("filtration",), ("grading",), ("filtration", "grading"))


def _cli_item(mf, kind: str, model, s: int, rank: int) -> Item:
    """A document of one kind built from a string model.  The choices that
    change the cost (scrambled or not, which optional fields are left out)
    take turns by the item's rank within its kind, so every seed has each
    in the same share; the seed draws the rest."""
    th = mf.theorems
    r = random.Random(f"fields/{s}")

    def open_model():
        if rank % 2:
            return th.generate_scrambled(model, r.getrandbits(32)), True
        return model.to_nilpotent(), False

    if kind == "pure_strings":
        text = docs.document(kind, docs.strings(model))
        return Item(0, kind, text=text, canonical=text)
    if kind == "nilpotent":
        nm = th.generate_scrambled(model, r.getrandbits(32))
        omitted = NILPOTENT_OMITS[rank % len(NILPOTENT_OMITS)]
        text = docs.document(kind, docs.nilpotent(
            nm, "filtration" not in omitted, "grading" not in omitted))
        canonical = (None if "grading" in omitted
                     else docs.document(kind, docs.nilpotent(nm)))
        return Item(0, kind, text=text, canonical=canonical, omitted=omitted)
    if kind.startswith("gluing:"):
        ctor = {"intermediate": mf.gluing.j_intermediate,
                "star": mf.gluing.j_lower_star,
                "shriek": mf.gluing.j_lower_shriek}[kind.split(":")[1]]
        base, _ = open_model()
        text = docs.document("gluing", docs.gluing(ctor(base.space, base.N)))
        return Item(0, kind, text=text, canonical=text)
    # disk:pure / disk:impure
    pure = kind == "disk:pure"
    base, scrambled = open_model()
    open_canonical = docs.nilpotent(base)
    open_in = (docs.strings(model) if not scrambled and rank % 4 == 0
               else open_canonical)
    labels = [[lbl, r.randint(1, 2)]
              for lbl in sorted(r.sample(["P", "Q", "pt"], r.randint(0, 2)))]
    weight_in = model.n if pure else model.n + r.randint(-4, 4)
    # a point without labels is the zero space, which carries no weight
    weight = weight_in if labels else model.n
    extension = "intermediate" if pure else "shriek"
    omitted = ("extension",) if r.random() < 0.25 else ()
    text = docs.document("disk", docs.disk(
        open_in, weight_in, labels, pure, None if omitted else extension))
    canonical = docs.document("disk", docs.disk(
        open_canonical, weight, labels, pure, extension))
    return Item(0, kind, expect_rc=0 if pure else 1, text=text,
                canonical=canonical, point_weight=weight, omitted=omitted)


# -- verdicts ---------------------------------------------------------------
# Each returns (verdict, reasons, known): the verdict is a hashable summary
# compared across passes and runs; reasons lists every mismatch with the
# known answer, and known gives the defect id explaining each (or None).

def verdict_scrambled(mf, item: Item):
    mat, center = item.args
    filt = mf.monodromy.monodromy_filtration(mat, center)
    if mf.monodromy.check_monodromy_axioms(filt, mat, center).passed:
        return True, [], []
    return False, ["monodromy axioms failed"], [None]


def verdict_pure(mf, item: Item):
    mono, kg = mf.monodromy, mf.kgroup
    nm = item.args[0].to_nilpotent()
    failed = []
    if not mono.verify_hard_lefschetz(nm).passed:
        failed.append("hard Lefschetz failed")
    if not mono.primitive_decomposition(nm).passed:
        failed.append("primitive decomposition failed")
    gk = mono.graded_kernel(nm)
    if kg.kclass_of_space(nm.space) != kg.kclass_psi_from_kernel(gk.grading, nm.n):
        failed.append("class identity failed")
    return not failed, failed, [None] * len(failed)


def verdict_cli(mf, item: Item):
    cli = mf.cli
    out = io.StringIO()
    rc = cli.run(["check", item.path, "--format", "json"], out)
    failing = []
    reasons, known = [], []
    if rc in (0, 1):
        payload = json.loads(out.getvalue())
        failing = [r["title"] for r in payload["reports"] if not r["passed"]]
        if payload["passed"] != (rc == 0):
            reasons.append(f"exit {rc} disagrees with passed={payload['passed']}")
            known.append(None)
    doc = cli.parse(item.text)
    text1 = cli.serialize(doc)
    if item.canonical is not None:
        round_trip = text1 == item.canonical
    else:
        doc1 = cli.parse(text1)
        round_trip = doc1 == doc and cli.serialize(doc1) == text1
    if rc != item.expect_rc:
        reasons.append(f"exit {rc}, expected {item.expect_rc}; failing: "
                       f"{', '.join(failing) or 'none'}")
        known.append("default-grading" if (
            item.kind == "nilpotent" and "grading" in item.omitted and rc == 1
            and failing == [CLASS_IDENTITY]) else None)
    if not round_trip:
        reasons.append("serialize(parse(text)) is not the canonical text"
                       + _first_difference(text1, item.canonical))
        known.append("disk-point-weight" if _only_point_weight_differs(
            item, text1) else None)
    return (rc, round_trip), reasons, known


def _first_difference(got: str, want: str | None) -> str:
    if want is None:
        return " (not byte-stable)"
    for a, b in zip(got.splitlines(), want.splitlines()):
        if a != b:
            return f": got {a.strip()!r}, want {b.strip()!r}"
    return ": lengths differ"


def _only_point_weight_differs(item: Item, text1: str) -> bool:
    if not item.kind.startswith("disk") or item.canonical is None:
        return False
    got = json.loads(text1)
    if not isinstance(got.get("point"), dict):
        return False
    got["point"]["weight"] = item.point_weight
    return docs.dumps(got) == item.canonical


VERDICT = {"scrambled_operators": verdict_scrambled,
           "pure_strings": verdict_pure,
           "cli_mixed": verdict_cli}


def judge(workload: str, mf, item: Item):
    """One verdict on one item; exceptions are reported, never raised."""
    try:
        verdict, reasons, known = VERDICT[workload](mf, item)
    except Exception as e:  # noqa: BLE001 - the loop must keep going
        return ("exception", type(e).__name__), Failure(
            item.id, item.kind, [f"{type(e).__name__}: {e}"], [None])
    if not reasons:
        return verdict, None
    return verdict, Failure(item.id, item.kind, reasons, known)
