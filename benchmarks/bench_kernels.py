"""Benchmark the hot kernels on the Černý automaton, and partition
refinement on two merged Syn-DFA tables: the Černý automaton's and that
of the first random 3-letter automaton SplitMix64(2021) draws at n = 16.
Each table is refined by moore_refine and by both of its paths.

Prints the best of R runs of each kernel, in milliseconds.

    python3 benchmarks/bench_kernels.py [--degree N] [--repeat R]
"""

import argparse
import time

RANDOM_SEED = 2021
RANDOM_DEGREE = 16


def run_benchmarks(degree: int, repeat: int) -> list[tuple[str, float]]:
    import numpy as np

    from syncprim import _kernels
    from syncprim.automaton import _merged_syn_dfa, cerny_automaton
    from syncprim.harness import random_automaton
    from syncprim.rng import SplitMix64

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

    results = [
        ("subset_reach", best(lambda: _kernels.subset_reach(letters, degree))),
        ("reset_word_bfs", best(lambda: _kernels.reset_word_bfs(letters, degree))),
        ("pair_merge_table", best(lambda: _kernels.pair_merge_table(letters, degree))),
    ]

    # the tables minimal_syn_dfa refines: the subset automaton with its
    # singletons merged into one accepting sink
    R = random_automaton(SplitMix64(RANDOM_SEED), RANDOM_DEGREE, 3)
    for name, B in (("Cerny", A), (f"random n={RANDOM_DEGREE}", R)):
        merged, acc = _merged_syn_dfa(*_kernels.subset_reach(B.letter_array(), B.degree))
        init = np.zeros(len(merged), dtype=np.int64)
        if acc is not None:
            init[acc] = 1
        results.append((f"moore_refine, {name} ({len(merged)} rows)", best(lambda: _kernels.moore_refine(merged, init))))
        for path in ("_refine_rounds", "_refine_loop"):
            refine = getattr(_kernels, path)
            results.append((f"  {path}", best(lambda: refine(merged, init))))
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--degree", type=int, default=14)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"degree {args.degree} (Cerny automaton, {1 << args.degree} subsets), best of {args.repeat}")
    print(f"{'kernel':<44} {'time':>12}")
    for label, seconds in run_benchmarks(args.degree, args.repeat):
        print(f"{label:<44} {seconds * 1e3:>10.2f}ms")


if __name__ == "__main__":
    main()
