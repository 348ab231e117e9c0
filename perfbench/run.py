#!/usr/bin/env python3
"""The fastweight benchmark.

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the root of a checkout. It builds nothing: it imports the package
from ``src/`` of the checkout. ``--trace 0`` reports the end-to-end metrics
of one workload, ``--trace 1`` the per-layer metrics from a separate traced
run, and ``--workload all`` runs every workload untraced, one process each,
and prints each metric under a name that says its workload and pass
(train_full_tok_s, gen_token_ms_p50, ...). Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("train", "eval", "dyneval", "generate")
# One BLAS thread (at most nproc): the matrices are small and the machine
# may be shared, and one thread keeps run-to-run spread low.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Each workload's metrics under names that say the workload and the pass.
LONG_NAMES = {
    "train": {"tok_s": "train_full_tok_s", "ref_tok_s": "train_slow_tok_s",
              "op_ms_p50": "train_step_ms_p50", "op_ms_p90": "train_step_ms_p90",
              "nll": "train_loss", "ref_nll": "train_slow_loss"},
    "eval": {"tok_s": "score_fwl_tok_s", "ref_tok_s": "score_baseline_tok_s",
             "op_ms_p50": "score_doc_ms_p50", "op_ms_p90": "score_doc_ms_p90",
             "nll": "dev_nll_fwl", "ref_nll": "dev_nll_baseline"},
    "dyneval": {"tok_s": "dyneval_tok_s", "ref_tok_s": "dyneval_step0_tok_s",
                "op_ms_p50": "dyneval_doc_ms_p50", "op_ms_p90": "dyneval_doc_ms_p90",
                "nll": "dev_nll_dyneval", "ref_nll": "dev_nll_dyneval_step0"},
    "generate": {"tok_s": "gen_tok_s", "ref_tok_s": "gen_baseline_tok_s",
                 "op_ms_p50": "gen_token_ms_p50", "op_ms_p90": "gen_token_ms_p90",
                 "nll": "gen_sample_nll", "ref_nll": "gen_baseline_sample_nll"},
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-test only")
    return p.parse_args(argv)


def provenance(seed: int) -> dict:
    import numpy as np

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # never look above the checkout
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    lines = 0
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    data = fh.read()
                digest.update(f.encode() + b"\0" + data)
                lines += data.count(b"\n")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "seed": seed,
    }


def _print_metrics(metrics: dict, aliases: dict | None = None):
    for name, m in metrics.items():
        alias = f"  ({aliases[name]})" if aliases and name in aliases else ""
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}{alias}")


def run_one(args) -> int:
    import workloads as wl

    os.makedirs(OUT, exist_ok=True)
    sizes = wl.TINY if args.tiny else wl.Sizes()
    res = wl.run(args.workload, args.seed, args.seconds, bool(args.trace), sizes, OUT)
    attempted, failed = wl.counts(res)
    metrics = wl.per_layer(res) if args.trace else wl.end_to_end(res)
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    if args.trace:
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        t0 = min((s[1] for s in res.setup_spans + res.timed_spans), default=0.0)
        wl.spans.write(path, {"setup": res.setup_spans, "timed": res.timed_spans}, t0)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        flops = wl.harness.flop_report(res.setup.ckpt.model)
        flops.pop("attention_kernel")  # fixed sizes, not this model's
        print("computed flops per token " + json.dumps(flops))
    correct = failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(res.rounds)}")
    _print_metrics(metrics, {k: "computed" for k in metrics if ".gflop" in k}
                   if args.trace else LONG_NAMES[args.workload])
    if not args.trace:
        extra = {k: {"value": float(v), "unit": u} for k, (v, u) in wl.unbounded(res).items()}
        print("  not bounded:")
        _print_metrics(extra, LONG_NAMES[args.workload])
        print("unbounded " + json.dumps(extra))
    print(f"  operations attempted {attempted}  failed {failed}  "
          f"ops_failed_share {failed / max(attempted, 1):g}")
    print("gates " + json.dumps(res.gates))
    print("provenance " + json.dumps(provenance(args.seed)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced, one process each, under the long names."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {w} exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        extra = json.loads(next(x for x in lines if x.startswith("unbounded "))[10:])
        for name, m in {**res["metrics"], **extra}.items():
            merged[LONG_NAMES[w].get(name, f"{w}_{name}")] = m
    merged["ops_failed_share"] = {"value": failed / max(attempted, 1), "unit": "fraction"}
    print("all workloads")
    _print_metrics(merged)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "fastweight", "__init__.py")):
        print(f"perfbench: no fastweight package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
