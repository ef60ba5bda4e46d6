"""Benchmark the hot kernels with numba against the pure-Python fallback.

Run directly; with numba installed it re-executes itself with
SYNCPRIM_NO_NUMBA=1 to time the fallback path and prints both columns.
Without numba it prints the fallback column alone.

    python3 benchmarks/bench_kernels.py [--degree N] [--repeat R]
"""

import argparse
import json
import os
import subprocess
import sys
import time


def run_benchmarks(degree: int, repeat: int) -> dict:
    import numpy as np

    from syncprim import _kernels
    from syncprim.automaton import cerny_automaton

    A = cerny_automaton(degree)
    letters = A.letter_array()
    results = {"numba": _kernels.USE_NUMBA}

    def best(func):
        func()  # warm-up (includes jit compilation when enabled)
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            func()
            times.append(time.perf_counter() - start)
        return min(times)

    results["subset_reach"] = best(lambda: _kernels.subset_reach(letters, degree))
    results["reset_word_bfs"] = best(lambda: _kernels.reset_word_bfs(letters, degree))
    results["pair_merge_table"] = best(lambda: _kernels.pair_merge_table(letters, degree))

    states, trans = _kernels.subset_reach(letters, degree)
    init = np.array([0 if s & (s - 1) else 1 for s in states], dtype=np.int64)
    results["moore_refine"] = best(lambda: _kernels.moore_refine(trans, init))
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--degree", type=int, default=14)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", action="store_true", help="emit raw results (used by the parent run)")
    args = parser.parse_args()

    results = run_benchmarks(args.degree, args.repeat)
    if args.json:
        print(json.dumps(results))
        return

    keys = ("subset_reach", "reset_word_bfs", "pair_merge_table", "moore_refine")
    print(f"degree {args.degree} (Cerny automaton, {1 << args.degree} subsets), best of {args.repeat}")
    if not results["numba"]:
        print("numba unavailable: timing the pure-Python fallback only")
        print(f"{'kernel':<18} {'pure-python':>12}")
        for key in keys:
            print(f"{key:<18} {results[key] * 1e3:>10.2f}ms")
        return

    env = dict(os.environ, SYNCPRIM_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, __file__, "--degree", str(args.degree), "--repeat", str(args.repeat), "--json"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    fallback = json.loads(out.stdout)

    print(f"{'kernel':<18} {'numba':>12} {'pure-python':>12} {'speedup':>9}")
    for key in keys:
        a, b = results[key], fallback[key]
        print(f"{key:<18} {a * 1e3:>10.2f}ms {b * 1e3:>10.2f}ms {b / a:>8.1f}x")


if __name__ == "__main__":
    main()
