"""Determinism check for the benchmark.

    python3 perfbench/determinism.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (default: all three) it runs the benchmark twice with
seed N and once with seed N+1. The virtual metrics and the allocation
metrics (alloc_words_per_txn, peak_heap_mb) must be identical across the
two runs with the same seed, and the latency metrics must change with the
seed, which shows the seed reaches the inputs. Exits 1 on any mismatch.
"""

import json
import subprocess
import sys

WORKLOADS = ["paper-minimal", "closed-groupcommit", "open-hotspot"]
REPEAT = ["commit_p50_ms", "commit_p99_ms", "committed_tps", "committed_pct",
          "alloc_words_per_txn", "peak_heap_mb"]
SEED_SENSITIVE = ["commit_p50_ms", "commit_p99_ms"]


def run(workload, seed, seconds):
    out = subprocess.run(
        ["sh", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv):
    seed, seconds, workloads = 1, 1, []
    args = iter(argv)
    for a in args:
        if a == "--seed":
            seed = int(next(args))
        elif a == "--seconds":
            seconds = int(next(args))
        elif a in WORKLOADS:
            workloads.append(a)
        else:
            sys.exit(f"unknown argument {a!r}")
    ok = True
    for w in workloads or WORKLOADS:
        a, b, other = run(w, seed, seconds), run(w, seed, seconds), run(w, seed + 1, seconds)
        for m in REPEAT:
            same = a[m] == b[m]
            ok &= same
            print(f"{w:20s} {m:22s} seed {seed} twice: {a[m]!r} {b[m]!r} {'same' if same else 'DIFFERENT'}")
        for m in SEED_SENSITIVE:
            moved = a[m] != other[m]
            ok &= moved
            print(f"{w:20s} {m:22s} seed {seed + 1}: {other[m]!r} {'changed' if moved else 'UNCHANGED'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main(sys.argv[1:])
