#!/usr/bin/env python3
"""Determinism self-test of the traced benchmark runs.

    python3 bench/selftest.py

For every workload, two traced runs on the first seed must give identical
call counts and identical verdict lists, and a run on the held-out second
seed must give different call counts (so the seed is used).  On the two
library workloads the held-out seed must also give the same error_rate.
Each run is its own ``run.py --trace 1`` process, so a count that
depended on string hashing or on state left in the process would show.
Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
LIBRARY = ("scrambled_operators", "pure_strings")
SEED, HELD_OUT = 1, 2
SECONDS = 3  # small corpora: the counts, not the timings, are compared


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                   check=True, stdout=subprocess.DEVNULL, timeout=600)
    with open(HERE / "out" / f"{workload}-seed{seed}-trace1.json", encoding="utf-8") as fh:
        return json.load(fh)


def error_rate(r: dict) -> float:
    return r["result"]["failed"] / r["result"]["attempted"]


def main() -> int:
    ok = True

    def check(name: str, passed: bool) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}", flush=True)

    for wl in workloads.WORKLOADS:
        a1 = traced_run(wl, SEED, SECONDS)
        a2 = traced_run(wl, SEED, SECONDS)
        b = traced_run(wl, HELD_OUT, SECONDS)
        check(f"{wl}: same call counts on seed {SEED}",
              a1["notes"]["calls"] == a2["notes"]["calls"])
        check(f"{wl}: same verdicts on seed {SEED}", a1["verdicts"] == a2["verdicts"])
        check(f"{wl}: seed {HELD_OUT} gives other call counts",
              a1["notes"]["calls"] != b["notes"]["calls"])
        if wl in LIBRARY:
            check(f"{wl}: same error_rate on seed {HELD_OUT} "
                  f"({error_rate(a1)} vs {error_rate(b)})",
                  error_rate(a1) == error_rate(b))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
