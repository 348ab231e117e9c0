#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, untraced and
traced, must emit every metric BENCHMARK.json names, with its unit, evaluate
and pass every gate, and fail cleanly in a directory without the program.

    python3 perfbench/selftest.py

Exits 0 when every check holds; otherwise prints each failed check and
exits 1.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GATES = ("oracle", "kernel", "finite")
TIMEOUT = 300


def _run(cwd, args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{w['name']} trace {trace}"
            proc = _run(ROOT, ["--workload", w["name"], "--seed", "3", "--seconds", "1",
                               "--trace", str(trace), "--tiny"])
            check(proc.returncode == 0, f"{what}: exit 0")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
                continue
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{what}: result keys")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            check(got == want, f"{what}: every {key} metric with its unit")
            check(res["attempted"] >= 1 and res["failed"] == 0, f"{what}: operations")
            check(res["correct"] is True, f"{what}: correct")
            gates = json.loads(next(x for x in lines if x.startswith("gates "))[6:])
            check(all(gates.get(g) is True for g in GATES), f"{what}: gates {GATES} pass")
            prov = json.loads(next(x for x in lines if x.startswith("provenance "))[11:])
            check(prov["src_lines"] > 0 and prov["seed"] == 3, f"{what}: provenance")

    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, ["--workload", "train", "--seed", "0", "--seconds", "1",
                           "--trace", "0"])
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without src/: non-zero exit and no result")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
