"""Benchmark the hot kernels on two automata: the Černý automaton and
the first random 3-letter automaton SplitMix64(2021) draws at n = 16.
On each, the power-set walk (subset_reach) runs as dispatched and in
both of its forms, the reset word (reset_word_bfs) is timed, and the
merged Syn-DFA table is refined by moore_refine and by both of its paths.
The pair table is timed on the Černý automaton, and condition 3's check
(the 2-subset collapse table, its refinement and the witness) on S_n and
C_n plus the idempotent 1 1 2 ... at n = 5 and 8 and on the Černý
automaton at the degree cap, 64.  The loop forms of the walk and of
refinement are also timed at sizes production sends them: the merged
Syn-DFA of S8 plus the map 1 1 2 ... (255 masks) and of the Černý
automaton at n = 10 (1 014 rows).  One more row builds and labels the
degree-7 strong scan family (the 818 496 maps of rank 2..6) by orbit
under S7 and under C7 one rank at a time, as is_strongly_sync_maximal
does before checking one map per orbit of a rank.

Prints the best of R runs of each kernel, in microseconds.  A kernel
whose best run is under a millisecond is run again until its runs add up
to MIN_TOTAL_S, so its best is taken over enough runs to be stable.

    python3 benchmarks/bench_kernels.py [--degree N] [--repeat R]
"""

import argparse
import time

RANDOM_SEED = 2021
RANDOM_DEGREE = 16
MIN_TOTAL_S = 0.2


def run_benchmarks(degree: int, repeat: int) -> list[tuple[str, float]]:
    import numpy as np

    from syncprim import _kernels, catalog
    from syncprim import classify as cl
    from syncprim.automaton import _merged_syn_dfa, all_2subsets_distinguishable, build_group_automaton, cerny_automaton
    from syncprim.harness import random_automaton
    from syncprim.perm import DEGREE_CAP, Transformation
    from syncprim.rng import SplitMix64

    A = cerny_automaton(degree)
    letters = A.letter_array()

    def best(func):
        func()  # warm-up
        times = []
        while len(times) < repeat or (min(times) < 1e-3 and sum(times) < MIN_TOTAL_S):
            start = time.perf_counter()
            func()
            times.append(time.perf_counter() - start)
        return min(times)

    def syn_dfa_table(B_letters, n):
        # the table minimal_syn_dfa refines: the subset automaton with its
        # singletons merged into one accepting sink
        states, trans = _kernels.subset_reach(B_letters, n)
        merged, acc = _merged_syn_dfa(states, trans)
        init = np.zeros(len(merged), dtype=np.int64)
        if acc is not None:
            init[acc] = 1
        return states, merged, init

    results = [("pair_merge_table, Cerny", best(lambda: _kernels.pair_merge_table(letters, degree)))]
    pair_cases = [
        (f"{name}{n} + 1 1 2 ...", build_group_automaton(group(n), Transformation((1, 1) + tuple(range(2, n)))))
        for n in (5, 8)
        for name, group in (("S", catalog.symmetric), ("C", catalog.cyclic))
    ]
    pair_cases.append((f"Cerny {DEGREE_CAP}", cerny_automaton(DEGREE_CAP)))
    for label, B in pair_cases:
        results.append((f"condition 3, {label}", best(lambda: all_2subsets_distinguishable(B))))
    R = random_automaton(SplitMix64(RANDOM_SEED), RANDOM_DEGREE, 3)
    for name, B in (("Cerny", A), (f"random n={RANDOM_DEGREE}", R)):
        B_letters, n = B.letter_array(), B.degree
        states, merged, init = syn_dfa_table(B_letters, n)
        walks = [
            (f"subset_reach, {name} ({len(states)} states)", "subset_reach"),
            ("  _reach_batched", "_reach_batched"),
            ("  _reach_loop", "_reach_loop"),
            (f"reset_word_bfs, {name}", "reset_word_bfs"),
        ]
        for label, func in walks:
            walk = getattr(_kernels, func)
            results.append((label, best(lambda: walk(B_letters, n))))
        results.append((f"moore_refine, {name} ({len(merged)} rows)", best(lambda: _kernels.moore_refine(merged, init))))
        for path in ("_refine_rounds", "_refine_loop"):
            refine = getattr(_kernels, path)
            results.append((f"  {path}", best(lambda: refine(merged, init))))

    small_cases = [
        ("S8 + 1 1 2 ...", build_group_automaton(catalog.symmetric(8), Transformation((1, 1) + tuple(range(2, 8))))),
        ("Cerny 10", cerny_automaton(10)),
    ]
    for name, B in small_cases:
        B_letters, n = B.letter_array(), B.degree
        states, merged, init = syn_dfa_table(B_letters, n)
        results.append((f"_reach_loop, {name} ({len(states)} states)", best(lambda: _kernels._reach_loop(B_letters, n))))
        results.append((f"_refine_loop, {name} ({len(merged)} rows)", best(lambda: _kernels._refine_loop(merged, init))))

    def strong_representatives():
        for G in (catalog.symmetric(7), catalog.cyclic(7)):
            for rank in range(2, 7):
                size, _, moves = cl._map_family(G, rank)
                cl._orbit_labels(size, moves)

    results.append(("strong-family orbit labels by rank, S7 and C7", best(strong_representatives)))
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--degree", type=int, default=14)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"degree {args.degree} (Cerny automaton, {1 << args.degree} subsets), best of {args.repeat}")
    print(f"{'kernel':<46} {'time':>12}")
    for label, seconds in run_benchmarks(args.degree, args.repeat):
        print(f"{label:<46} {seconds * 1e6:>10.1f}us")


if __name__ == "__main__":
    main()
