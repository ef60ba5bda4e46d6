"""Benchmark the hot kernels on two automata: the Černý automaton and
the first random 3-letter automaton SplitMix64(2021) draws at n = 16.
On each, the power-set walk (subset_reach) runs as dispatched and in
both of its forms.  Three rows time `syn-dfa`'s calls: both of them,
minimal_syn_dfa and then shortest_reset_word, which takes the word the
first call read off its walk; shortest_reset_word alone, which walks on
its own; and minimal_syn_dfa alone, its walk, refinement and read-off of
the word.  Their Syn-DFA tables, and condition 5's table of D13 plus the
map 1 1 2 ... (every nonempty subset, labelled by its size), are refined by
moore_refine and by its parts: the hashed Moore rounds (_hashed_start)
alone, _refine_rounds from their partition and from the initial labels,
_refine_loop, and the rounds path's start (_initial_partition: the block
sizes and each letter's preimage CSR).  _refine_rounds and
_initial_partition are handed compact int32 labels, as moore_refine hands
them, and _refine_rounds a fresh copy per run, since it refines its labels
in place.
On the random table and condition 5's, the finish moore_refine gives a
start that leaves fewer than half the states live is timed as well:
_refine_live from the hashed start, its compaction included.  moore_refine
alone is timed on the Syn-DFA table of A14 plus 1 1 2 ..., whose start runs
to its round cap yet leaves most states live, so that moore_refine hands
_refine_rounds the start's compact labels.
Every refined table is the one the tree's own check hands moore_refine,
caught by a spy on that call, so two trees that build their tables
differently are each timed on their own.  _refine_rounds is also timed on
the Syn-DFA table of the Černý automaton at n = 18 (262 143 rows, about
290 rounds), a deep large table on which a pass over every state in each
round would show.
The pair table is timed on the Černý automaton, and condition 3's check
(the 2-subset collapse table, its refinement and the witness) on S_n and
C_n plus the idempotent 1 1 2 ... at n = 5 and 8, on C7 plus 1 1 2 ...
and on the Černý automaton at the degree cap, 64.  moore_refine alone is
timed on the collapse tables condition 3 refines for S5 (11 rows) and C7
(22 rows) plus 1 1 2 ..., the fixed cost per call of the per-map checks.
The loop forms of the walk and of refinement are also timed at sizes
production sends them: the Syn-DFA tables of S8 plus the map 1 1 2 ...
(255 rows) and of the Černý automaton at n = 10 (1 023 rows).  One more row builds and labels the
degree-7 strong scan family (the 818 496 maps of rank 2..6) by orbit
under S7 and under C7 one rank at a time, as is_strongly_sync_maximal
does before checking one map per orbit of a rank.  The last row builds
the idempotent scan, one map per orbital, of every group classify-idem
runs: the catalog groups of degree 5-8 and the subgroups of S4.

Prints the best of R runs of each kernel, in microseconds.  Every kernel
is run again until its runs add up to MIN_TOTAL_S, so a short one is
timed over many runs; with --against, until the runs of the slower tree
do, both trees running as often.  Row labels hold no sizes of the tables
a tree builds, since they can differ between two trees.

With --against PATH, the syncprim of a second checkout at PATH is loaded
into the same process under another package name, and every row is timed
on both trees, their runs alternating, with the ratio of the two bests.
Rows time differently from one process to the next, so only rows timed
side by side in one process compare two trees.  Both trees must have the
private kernels the rows call: _hashed_start, _compact, _refine_live,
_refine_rounds and _initial_partition.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--degree N] [--repeat R] [--against PATH]
"""

import argparse
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

RANDOM_SEED = 2021
RANDOM_DEGREE = 16
DEEP_DEGREE = 18
FAR_DEGREE = 14
MIN_TOTAL_S = 0.2


def load_tree(root: str, name: str):
    """The syncprim package of the checkout at root, imported under name;
    the package imports its modules relatively, so they load from there."""
    src = Path(root) / "src" / "syncprim"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def best(funcs, repeat: int) -> list[float]:
    """The best time of each function, over at least repeat runs.  The
    functions run in turn, the first of them alternating, until each has
    repeat runs and the runs of the slowest add up to MIN_TOTAL_S: a row
    whose kernel one tree lacks takes next to no time there."""
    for func in funcs:
        func()  # warm-up
    times = [[] for _ in funcs]
    while len(times[0]) < repeat or max(map(sum, times)) < MIN_TOTAL_S:
        order = list(range(len(funcs)))
        if len(times[0]) % 2:
            order.reverse()
        for i in order:
            start = time.perf_counter()
            funcs[i]()
            times[i].append(time.perf_counter() - start)
    return [min(t) for t in times]


def compact(labels):
    """labels ranked among their sorted distinct values, as np.unique
    numbers them, as int32: the labels _refine_rounds takes."""
    return np.unique(labels, return_inverse=True)[1].reshape(-1).astype(np.int32)


def benchmark_rows(lib, degree: int) -> list[tuple[str, object]]:
    """(label, function) for every row, on the syncprim package lib."""
    _kernels, catalog, cl, am, harness, perm, rng = (
        importlib.import_module(f"{lib.__name__}.{name}")
        for name in ("_kernels", "catalog", "classify", "automaton", "harness", "perm", "rng")
    )
    all_2subsets_distinguishable, minimal_syn_dfa = am.all_2subsets_distinguishable, am.minimal_syn_dfa
    shortest_reset_word = am.shortest_reset_word
    build_group_automaton, cerny_automaton = am.build_group_automaton, am.cerny_automaton
    DEGREE_CAP, Transformation = perm.DEGREE_CAP, perm.Transformation

    A = cerny_automaton(degree)
    letters = A.letter_array()

    def refined_table(check, B):
        # the table check refines, as moore_refine receives it
        tables = []
        refine = am.moore_refine
        am.moore_refine = lambda trans, init: tables.append((trans, init)) or refine(trans, init)
        try:
            check(B)
        finally:
            am.moore_refine = refine
        return tables[0]

    def group_plus_112(group, n):
        return build_group_automaton(group(n), Transformation((1, 1) + tuple(range(2, n))))

    rows = [("pair_merge_table, Cerny", lambda: _kernels.pair_merge_table(letters, degree))]
    pair_cases = [
        (f"{name}{n} + 1 1 2 ...", group_plus_112(group, n))
        for n in (5, 8)
        for name, group in (("S", catalog.symmetric), ("C", catalog.cyclic))
    ]
    pair_cases.append(("C7 + 1 1 2 ...", group_plus_112(catalog.cyclic, 7)))
    pair_cases.append((f"Cerny {DEGREE_CAP}", cerny_automaton(DEGREE_CAP)))
    for label, B in pair_cases:
        rows.append((f"condition 3, {label}", lambda B=B: all_2subsets_distinguishable(B)))
    for name, group, n in (("S5", catalog.symmetric, 5), ("C7", catalog.cyclic, 7)):
        trans, init = refined_table(all_2subsets_distinguishable, group_plus_112(group, n))
        label = f"moore_refine, {name} + 1 1 2 ... collapse"
        rows.append((label, lambda trans=trans, init=init: _kernels.moore_refine(trans, init)))

    def refinement_rows(label, trans, init, live=False):
        start = _kernels._hashed_start(trans, init)[0]
        start_labels, init_labels = _kernels._compact(start)[0], compact(init)
        rows.extend([
            (f"moore_refine, {label}", lambda: _kernels.moore_refine(trans, init)),
            ("  _hashed_start", lambda: _kernels._hashed_start(trans, init)),
            ("  _refine_rounds from the hashed start", lambda: _kernels._refine_rounds(trans, start_labels.copy())),
        ])
        if live:
            finish = lambda: _kernels._refine_live(trans, *_kernels._compact(start))  # noqa: E731
            rows.append(("  _refine_live from the hashed start", finish))
        rows.extend([
            ("  _refine_rounds from the initial labels", lambda: _kernels._refine_rounds(trans, init_labels.copy())),
            ("  _refine_loop", lambda: _kernels._refine_loop(trans, init)),
            ("  _initial_partition", lambda: _kernels._initial_partition(trans, init_labels)),
        ])

    R = harness.random_automaton(rng.SplitMix64(RANDOM_SEED), RANDOM_DEGREE, 3)
    for name, B in (("Cerny", A), (f"random n={RANDOM_DEGREE}", R)):
        B_letters, n = B.letter_array(), B.degree
        walks = [
            (f"subset_reach, {name}", "subset_reach"),
            ("  _reach_batched", "_reach_batched"),
            ("  _reach_loop", "_reach_loop"),
        ]
        for label, func in walks:
            walk = getattr(_kernels, func)
            rows.append((label, lambda walk=walk, B_letters=B_letters, n=n: walk(B_letters, n)))
        rows.append((f"syn-dfa calls, {name}", lambda B=B: (minimal_syn_dfa(B), shortest_reset_word(B))))
        rows.append((f"shortest_reset_word alone, {name}", lambda B=B: shortest_reset_word(B)))
        rows.append((f"minimal_syn_dfa alone, {name}", lambda B=B: minimal_syn_dfa(B)))
        refinement_rows(f"{name} Syn-DFA", *refined_table(minimal_syn_dfa, B), live=B is R)
    D13 = group_plus_112(catalog.dihedral, 13)
    condition_5 = refined_table(am.different_cardinality_reachable_witness, D13)
    refinement_rows("D13 + 1 1 2 ... condition 5", *condition_5, live=True)
    trans, init = refined_table(minimal_syn_dfa, group_plus_112(catalog.alternating, FAR_DEGREE))
    label = f"moore_refine, A{FAR_DEGREE} + 1 1 2 ... Syn-DFA"
    rows.append((label, lambda trans=trans, init=init: _kernels.moore_refine(trans, init)))

    trans, init = refined_table(minimal_syn_dfa, cerny_automaton(DEEP_DEGREE))
    label = f"_refine_rounds, Cerny {DEEP_DEGREE} Syn-DFA"
    rows.append((label, lambda trans=trans, labels=compact(init): _kernels._refine_rounds(trans, labels.copy())))

    for name, B in (("S8 + 1 1 2 ...", group_plus_112(catalog.symmetric, 8)), ("Cerny 10", cerny_automaton(10))):
        B_letters, n = B.letter_array(), B.degree
        trans, init = refined_table(minimal_syn_dfa, B)
        reach = lambda B_letters=B_letters, n=n: _kernels._reach_loop(B_letters, n)  # noqa: E731
        rows.append((f"_reach_loop, {name}", reach))
        refine = lambda trans=trans, init=init: _kernels._refine_loop(trans, init)  # noqa: E731
        rows.append((f"_refine_loop, {name} Syn-DFA", refine))

    def strong_scans():
        for G in (catalog.symmetric(7), catalog.cyclic(7)):
            for rank in range(2, 7):
                cl._map_family(G, rank)

    rows.append(("strong-family orbit labels by rank, S7 and C7", strong_scans))
    entries = [e for e in catalog.builtin_catalog(8) if e.degree >= 5] + catalog.subgroup_census_s4()
    idempotent_groups = [e.group for e in entries]

    def idempotent_scans():
        for G in idempotent_groups:
            cl._idempotent_family(G)

    label = f"idempotent scans, catalog 5-8 and S4 census ({len(idempotent_groups)})"
    rows.append((label, idempotent_scans))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--degree", type=int, default=14)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--against", metavar="PATH", help="also time the syncprim of the checkout at PATH")
    args = parser.parse_args()

    import syncprim

    trees = [benchmark_rows(syncprim, args.degree)]
    if args.against:
        trees.append(benchmark_rows(load_tree(args.against, "syncprim_against"), args.degree))
        if [label for label, _ in trees[0]] != [label for label, _ in trees[1]]:
            sys.exit("error: the two trees give different rows")
    print(f"degree {args.degree} (Cerny automaton, {1 << args.degree} subsets), best of {args.repeat}")
    if args.against:
        print(f"{'kernel':<56} {'this tree':>12} {'--against':>12} {'ratio':>7}")
    else:
        print(f"{'kernel':<56} {'time':>12}")
    for i, (label, _) in enumerate(trees[0]):
        seconds = best([rows[i][1] for rows in trees], args.repeat)
        line = f"{label:<56}" + "".join(f" {t * 1e6:>10.1f}us" for t in seconds)
        if args.against:
            line += f" {seconds[0] / seconds[1]:>7.3f}"
        print(line, flush=True)


if __name__ == "__main__":
    main()
