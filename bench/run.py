#!/usr/bin/env python3
"""The monofilt benchmark: time to a verdict on seeded workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload scrambled_operators --seed 1 \
        --seconds 30 --trace 0

One client in one process runs a closed loop: the next item starts only
when the last verdict is in.  The timed span of an item starts from what a
user holds (an operator, a string model, the text of a document) and ends
at its pass/fail result, which is checked against the known answer.

``--trace 0`` makes whole passes over the corpus for at most ``--seconds``
(at least one) and reports the end-to-end metrics.  ``--trace 1`` makes
one untraced pass, then one pass with every ``monofilt`` layer wrapped
(see tracer.py), and reports the per-layer metrics.  Times are scaled to a
nominal speed of the shared box (see speed.py); the raw wall-clock values
are printed beside them.  Human-readable lines come first; the last line of standard output is the JSON result.  Details
(run stamp, per-item failures, verdicts, spans) go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import speed
import stats
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
PROBES_PER_SETUP = 3
PROBE_EVERY_S = 0.5
# Tail percentiles in tenths of a percent; the highest one that leaves at
# least TAIL_BEYOND items of one pass above it is reported.
TAIL_LADDER = (999, 995, 990, 975, 950, 900, 800, 750, 500)
TAIL_BEYOND = 10

# Metric names and units, end to end and per layer, as BENCHMARK.json lists
# them.  error_rate is printed too, and the result line carries it as
# failed / attempted, but it is not listed there: it reads 0 on the library
# workloads, and a listed metric must never read 0.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS["error_rate"] = "ratio"


class NoProgram(RuntimeError):
    """The checkout has no monofilt sources next to the benchmark."""


def import_monofilt() -> SimpleNamespace:
    """A fresh import of every monofilt layer from this checkout's src/."""
    if not (SRC / "monofilt" / "__init__.py").is_file():
        raise NoProgram(f"no monofilt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "monofilt" or m.startswith("monofilt.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"monofilt.{layer}")
            for layer in tracer.LAYERS}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "monofilt":
        raise NoProgram("monofilt was imported from outside this checkout")
    return SimpleNamespace(**mods)


@dataclass
class Setup:
    seconds: float
    mf: SimpleNamespace
    items: list
    workdir: Path | None
    probes: list  # reference seconds, taken right after the set-up

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * speed.factor(self.probes)


def setup(workload: str, seed: int, n: int) -> Setup:
    """Import, generate the corpus, write its files and warm up."""
    t0 = time.perf_counter()
    mf = import_monofilt()
    workdir = None
    if workload == "cli_mixed":
        workdir = Path(tempfile.mkdtemp(prefix="docs-", dir=OUT))
    items, warmup = workloads.build(workload, seed, n, mf, workdir)
    for item in warmup:
        workloads.judge(workload, mf, item)
    seconds = time.perf_counter() - t0
    probes = [speed.reference_seconds() for _ in range(PROBES_PER_SETUP)]
    return Setup(seconds, mf, items, workdir, probes)


@dataclass
class Pass:
    elapsed: float = 0.0
    latencies: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # of the first pass
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    stable: bool = True  # every pass gave the same verdicts
    probes: list = field(default_factory=list)  # reference seconds

    @property
    def rate(self) -> float:
        """Verdicts per second of wall time, unscaled."""
        return len(self.latencies) / self.elapsed

    @property
    def factor(self) -> float:
        """The speed factor from this pass's reference samples."""
        return speed.factor(self.probes)


def measure(workload: str, s: Setup, seconds: float | None,
            tr: tracer.Tracer | None = None) -> Pass:
    """Whole passes over the corpus: one if seconds is None, else as many
    as fit in the window by the pace so far (at least one).  Between items,
    every PROBE_EVERY_S, the box speed is sampled; that time is left out."""
    out = Pass()
    judge = workloads.judge
    clock = time.perf_counter
    gc.collect()
    out.probes.append(speed.reference_seconds())
    start = clock()
    paused = 0.0
    next_probe = start + PROBE_EVERY_S
    while True:
        verdicts = []
        for item in s.items:
            t0 = clock()
            if tr is None:
                verdict, failure = judge(workload, s.mf, item)
            else:
                verdict, failure = tr.span(item.id, judge, workload, s.mf, item)
            t1 = clock()
            out.latencies.append(t1 - t0)
            if t1 >= next_probe:
                out.probes.append(speed.reference_seconds())
                next_probe = clock()
                paused += next_probe - t1
                next_probe += PROBE_EVERY_S
            verdicts.append(verdict)
            out.attempted += 1
            if failure is not None:
                out.failed += 1
                if out.passes == 0:
                    out.failures.append(failure)
        out.passes += 1
        if out.passes == 1:
            out.verdicts = verdicts
        elif verdicts != out.verdicts:
            out.stable = False
        out.elapsed = clock() - start - paused
        if seconds is None or out.elapsed * (out.passes + 1) / out.passes > seconds:
            return out


def tail_percentile(n_items: int) -> float:
    """The highest ladder percentile that leaves at least TAIL_BEYOND items
    of one pass above it."""
    return next((q for q in TAIL_LADDER if n_items * (1000 - q) >= TAIL_BEYOND * 1000),
                TAIL_LADDER[-1]) / 10


def end_to_end(p: Pass, setups: list, n_items: int) -> tuple[dict, dict]:
    """The metrics with times scaled to the nominal box speed, and notes
    that keep the raw wall-clock values."""
    pct = tail_percentile(n_items)
    raw = {
        "verdicts_per_s": p.rate,
        "verdict_p50_ms": 1000 * stats.quantile(p.latencies, 0.5),
        "verdict_tail_ms": 1000 * stats.quantile(p.latencies, pct / 100),
        "setup_s": statistics.median(x.seconds for x in setups),
    }
    f = p.factor
    values = {
        "verdicts_per_s": raw["verdicts_per_s"] / f,
        "verdict_p50_ms": raw["verdict_p50_ms"] * f,
        "verdict_tail_ms": raw["verdict_tail_ms"] * f,
        "error_rate": p.failed / p.attempted,
        "setup_s": statistics.median(x.scaled_seconds for x in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"tail_percentile": pct, "samples": len(p.latencies),
             "passes": p.passes, "raw": raw, "speed_factor": f,
             "reference_ms": 1000 * statistics.median(p.probes),
             "setup_samples_s": [x.seconds for x in setups]}
    return values, notes


def per_layer(summary: dict, items: list, untraced: Pass, traced: Pass) -> dict:
    calls, incl, self_s = summary["calls"], summary["inclusive_s"], summary["self_s"]
    verdicts = len(traced.latencies)
    f = traced.factor  # times are scaled to the nominal box speed

    def per_verdict(*names):
        return sum(calls.get(n, 0) for n in names) / verdicts

    def ms_per_call(name):
        return 1000 * f * incl.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    m = {f"{layer}.self_ms_per_verdict": 1000 * f * self_s[layer] / verdicts
         for layer in tracer.LAYERS}
    m.update({
        "qlinalg.share": self_s["qlinalg"] / summary["verdict_s"],
        "qlinalg.matmul_per_verdict": per_verdict("qlinalg.QMatrix.__matmul__"),
        "qlinalg.subspace_builds_per_verdict": per_verdict("qlinalg.Subspace.from_vectors"),
        "qlinalg.kernel_per_verdict": per_verdict("qlinalg.kernel"),
        "qlinalg.intersect_per_verdict": per_verdict("qlinalg.intersect"),
        "qlinalg.rank_per_verdict": per_verdict("qlinalg.rank"),
        "qlinalg.induced_map_per_verdict": per_verdict("qlinalg.induced_map_on_quotient"),
        "monodromy.filtrations_per_verdict": per_verdict("monodromy.monodromy_filtration"),
        "monodromy.nilpotency_per_verdict": per_verdict("monodromy.nilpotency_index"),
        "monodromy.hl_per_verdict": per_verdict("monodromy.verify_hard_lefschetz"),
        "monodromy.graded_kernel_per_verdict": per_verdict("monodromy.graded_kernel"),
        "weights.filtration_builds_per_verdict":
            per_verdict("weights.WeightFiltration.from_spaces"),
        "weights.space_at_per_verdict": per_verdict("weights.WeightFiltration.space_at"),
        "weights.strict_checks_per_verdict": per_verdict("weights.check_strict"),
        "weights.filtered_checks_per_verdict": per_verdict("weights.check_filtered"),
        "gluing.extensions_per_verdict": per_verdict(
            "gluing.j_intermediate", "gluing.j_lower_star", "gluing.j_lower_shriek"),
        "theorems.verifiers_per_verdict": per_verdict(
            "theorems.verify_kclass_independence",
            "theorems.verify_local_invariant_cycles",
            "theorems.verify_weight_mechanics"),
        "cli.parse_ms_per_doc": ms_per_call("cli.parse"),
        "cli.serialize_ms_per_doc": ms_per_call("cli.serialize"),
        "cli.doc_bytes": (statistics.fmean(len(i.text.encode()) for i in items)
                          if items[0].text else 0.0),
        "trace.overhead_ratio": (traced.rate / traced.factor)
                                / (untraced.rate / untraced.factor),
    })
    return m


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_start = os.getloadavg()
    n = workloads.corpus_size(workload, seconds)
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            setups.append(setup(workload, seed, n))
        s = setups[-1]
        if not trace:
            p = measure(workload, s, seconds)
            printed, notes = end_to_end(p, setups, n)
            metrics = {m["name"]: printed[m["name"]] for m in SPEC["end_to_end"]}
            result_pass, consistent = p, p.stable
        else:
            untraced = measure(workload, s, None)
            tr = tracer.Tracer(vars(s.mf))
            tr.install()
            try:
                traced = measure(workload, s, None, tr)
            finally:
                tr.uninstall()
            summary = tracer.summarize(tr)
            printed = per_layer(summary, s.items, untraced, traced)
            metrics = {m["name"]: printed[m["name"]] for m in SPEC["per_layer"]}
            notes = {"spans": summary["spans"], "calls": summary["calls"]}
            tr.write(OUT / f"spans-{workload}-seed{seed}.tsv.gz")
            result_pass = traced
            consistent = traced.verdicts == untraced.verdicts
    finally:
        for x in setups:
            if x.workdir is not None:
                shutil.rmtree(x.workdir, ignore_errors=True)
    failures = result_pass.failures
    stamp = {"git_sha": git_sha(), "python": platform.python_version(),
             "nproc": len(os.sched_getaffinity(0)),
             "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
             "workload": workload, "seed": seed, "items": n, "trace": int(trace)}
    return {
        "stamp": stamp,
        "notes": notes,
        "printed": printed,
        "failures": [f.to_dict() for f in failures],
        "verdicts": result_pass.verdicts,
        "result": {
            "correct": consistent and all(f.explained for f in failures),
            "attempted": result_pass.attempted,
            "failed": result_pass.failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        },
    }


def report(r: dict) -> None:
    st = r["stamp"]
    print(f"monofilt benchmark: {st['workload']} seed {st['seed']}, "
          f"{st['items']} items, trace {st['trace']}")
    print("stamp: " + json.dumps(st))
    notes = r["notes"]
    if "tail_percentile" in notes:
        print(f"verdict_tail_ms is p{notes['tail_percentile']:g} over "
              f"{notes['samples']} samples ({notes['passes']} passes)")
        print(f"box speed: reference {notes['reference_ms']:.2f} ms, times scaled by "
              f"{notes['speed_factor']:.4f}; raw wall values: "
              + ", ".join(f"{k} {v:.6g}" for k, v in notes["raw"].items()))
    for name, value in r["printed"].items():
        print(f"  {name:40s} {value:14.6f} {UNITS[name]}")
    for f in r["failures"]:
        known = [k or "UNEXPLAINED" for k in f["known_defects"]]
        print(f"  failure item {f['item']} ({f['kind']}): "
              + "; ".join(f"{why} [{k}]" for why, k in zip(f["reasons"], known)))
    for defect in sorted({k for f in r["failures"] for k in f["known_defects"] if k}):
        print(f"  known defect {defect}: {workloads.KNOWN_DEFECTS[defect]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        r = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoProgram as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    report(r)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(r, fh, indent=1)
    print(json.dumps(r["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
