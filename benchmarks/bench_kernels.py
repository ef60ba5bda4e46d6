"""Benchmark the hot kernels on the Černý automaton.

Prints the best of R runs of each kernel, in milliseconds.

    python3 benchmarks/bench_kernels.py [--degree N] [--repeat R]
"""

import argparse
import time


def run_benchmarks(degree: int, repeat: int) -> dict:
    import numpy as np

    from syncprim import _kernels
    from syncprim.automaton import _merged_syn_dfa, cerny_automaton

    A = cerny_automaton(degree)
    letters = A.letter_array()

    def best(func):
        func()  # warm-up
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            func()
            times.append(time.perf_counter() - start)
        return min(times)

    results = {
        "subset_reach": best(lambda: _kernels.subset_reach(letters, degree)),
        "reset_word_bfs": best(lambda: _kernels.reset_word_bfs(letters, degree)),
        "pair_merge_table": best(lambda: _kernels.pair_merge_table(letters, degree)),
    }

    # the table minimal_syn_dfa refines: the subset automaton with its
    # singletons merged into one accepting sink
    merged, acc = _merged_syn_dfa(*_kernels.subset_reach(letters, degree))
    init = np.zeros(len(merged), dtype=np.int64)
    init[acc] = 1
    results["moore_refine"] = best(lambda: _kernels.moore_refine(merged, init))
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--degree", type=int, default=14)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    results = run_benchmarks(args.degree, args.repeat)
    rows = {
        "subset_reach": "subset_reach",
        "reset_word_bfs": "reset_word_bfs",
        "pair_merge_table": "pair_merge_table",
        "moore_refine": "moore_refine (Hopcroft refinement)",
    }
    print(f"degree {args.degree} (Cerny automaton, {1 << args.degree} subsets), best of {args.repeat}")
    print(f"{'kernel':<36} {'time':>12}")
    for key, label in rows.items():
        print(f"{label:<36} {results[key] * 1e3:>10.2f}ms")


if __name__ == "__main__":
    main()
