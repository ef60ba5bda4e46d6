"""Acceptance gate: one test per shipped criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on passing runs as well.
"""

import itertools
import json
import time

from syncprim import automaton as am, catalog, classify as cl, group as gr, harness, perm
from syncprim.classify import MODE_ALL, MODE_IDEMPOTENTS
from test_automaton import pairwise_state_count

SEED_LARGE = 20260824
SEED_SMALL = 7


def _report(num, failures, detail):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num}: {status} ({detail})")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _main_scope():
    """Catalog groups at degrees 3..6 plus the full degree-4 subgroup census."""
    entries = [e for e in catalog.builtin_catalog(6) if 3 <= e.degree <= 6]
    census = catalog.subgroup_census_s4()
    assert len(census) == 30
    return entries + census


def _brute_synchronizing(A):
    """Independent oracle: subset BFS from the full state set, frozensets only."""
    full = frozenset(range(A.degree))
    seen = {full}
    frontier = [full]
    while frontier:
        S = frontier.pop()
        if len(S) == 1:
            return True
        for f in A.letters:
            T = f.apply_set(S)
            if T not in seen:
                seen.add(T)
                frontier.append(T)
    return False


def _group_automata(entries, mode):
    maps = {
        MODE_IDEMPOTENTS: perm.enumerate_idempotents_rank_n_minus_1,
        MODE_ALL: perm.enumerate_rank_n_minus_1,
    }[mode]
    for entry in entries:
        for f in maps(entry.group.degree):
            yield entry.name, am.build_group_automaton(entry.group, f)


def test_criterion_01_sync_maximal_equals_primitive():
    failures = []
    checked = 0
    for entry in _main_scope():
        prim = gr.is_primitive(entry.group)[0]
        modes = [MODE_IDEMPOTENTS] + ([MODE_ALL] if entry.degree <= 5 else [])
        for mode in modes:
            checked += 1
            got = cl.is_sync_maximal(entry.group, mode).value
            if got != prim:
                failures.append((entry.name, mode, prim, got))
    _report(1, failures, f"{checked} group/mode checks, zero exceptions required")


def test_criterion_02_complete_reachability_equals_primitive():
    failures = []
    checked = 0
    for entry in _main_scope():
        prim = gr.is_primitive(entry.group)[0]
        modes = [MODE_IDEMPOTENTS] + ([MODE_ALL] if entry.degree <= 5 else [])
        for mode in modes:
            checked += 1
            got = cl.condition(entry.group, 2, mode).value
            if got != prim:
                failures.append((entry.name, mode, prim, got))
    _report(2, failures, f"{checked} group/mode checks, zero exceptions required")


def test_criterion_03_pair_criterion_vs_subset_bfs():
    failures = []
    count = 10_000
    for i, A in enumerate(harness.random_instances(SEED_LARGE, count, max_n=8)):
        if am.is_synchronizing_pairs(A) != _brute_synchronizing(A):
            failures.append(i)
    _report(3, failures, f"{count} seeded random automata, n <= 8, 2-4 letters")


def _catalog_entries():
    return [e for e in catalog.builtin_catalog(6) if 3 <= e.degree <= 6]


def _catalog_automata():
    yield from _group_automata(_catalog_entries(), MODE_IDEMPOTENTS)


def _revalidate_2subset_disagreement(A):
    """Independent route for an automaton whose 2-subsets are all pairwise
    distinguishable while some two non-singleton subsets are not: product
    BFS finds no word for the reported pair, the pair is not two 2-subsets,
    and it finds a word for every two distinct 2-subsets."""
    _, witness = am.all_nonsingleton_distinguishable_witness(A)
    if witness is None:
        return ["no witness pair reported"]
    problems = []
    S, T = witness
    if am.distinguish_witness(A, S, T) is not None:
        problems.append("witness pair is distinguishable")
    if max(len(S), len(T)) < 3:
        problems.append("witness pair has no set of 3 or more points")
    two_subsets = [frozenset(P) for P in itertools.combinations(range(A.degree), 2)]
    for P, Q in itertools.combinations(two_subsets, 2):
        if am.distinguish_witness(A, P, Q) is None:
            problems.append(("2-subsets not distinguishable", P, Q))
            break
    return problems


def test_criterion_04_2subset_reduction():
    # Distinguishability of all non-singleton subsets implies that of all
    # 2-subsets, but not conversely for an arbitrary automaton: with
    # letters (0 1 2)(3) and 0 1 3 3 (group fix3_C3, intransitive) all
    # 2-subsets are pairwise distinguishable, yet {0,1} and {0,1,3} are
    # not, since point 3 is fixed by both letters and every collapse
    # funnels into {3}. Neither complete reachability (random_614) nor a
    # transitive group with a map of lower rank (random_257) rescues the
    # converse. So the criterion asserts the implication everywhere,
    # equality on the catalog automata whose group is transitive, and
    # re-checks every disagreement by product BFS.
    failures = []
    checked = 0
    transitive_checked = 0
    disagreements = 0
    transitive = {e.name for e in _catalog_entries() if gr.is_transitive(e.group)}
    instances = itertools.chain(
        _catalog_automata(),
        (
            (f"random_{i}", A)
            for i, A in enumerate(harness.random_instances(SEED_SMALL, 1000, max_n=6))
        ),
    )
    for name, A in instances:
        checked += 1
        full = am.all_nonsingleton_distinguishable_witness(A)[0]
        pairs = am.all_2subsets_distinguishable(A)[0]
        if full and not pairs:
            failures.append((name, "non-singletons distinguishable but 2-subsets not"))
            continue
        if name in transitive:
            transitive_checked += 1
            if full != pairs:
                failures.append((name, "transitive group", full, pairs))
        if full != pairs:
            disagreements += 1
            failures.extend((name, p) for p in _revalidate_2subset_disagreement(A))
    _report(
        4,
        failures,
        f"{checked} automata (catalog + 1000 random n <= 6), "
        f"{transitive_checked} with transitive group, "
        f"{disagreements} disagreements re-validated by product BFS",
    )


def test_criterion_05_minimization_oracle_equivalence():
    failures = []
    checked = 0
    scope_entries = _main_scope()
    all_maps_entries = [e for e in scope_entries if e.degree <= 5]
    instances = itertools.chain(
        _group_automata(scope_entries, MODE_IDEMPOTENTS),
        _group_automata(all_maps_entries, MODE_ALL),
        _catalog_automata(),
        (
            (f"random_small_{i}", A)
            for i, A in enumerate(harness.random_instances(SEED_SMALL, 1000, max_n=6))
        ),
        (
            (f"random_large_{i}", A)
            for i, A in enumerate(harness.random_instances(SEED_LARGE, 10_000, max_n=8))
        ),
    )
    for name, A in instances:
        checked += 1
        refine = am.minimal_syn_dfa(A).state_count
        pairwise = pairwise_state_count(A)
        if refine != pairwise:
            failures.append((name, refine, pairwise))
    _report(5, failures, f"{checked} instances, exact state-count match required")


def test_criterion_06_degree_4_divergence_is_expected(tmp_path):
    failures = []
    G = gr.from_cycles(4, "(0 1 2)(3)")
    if cl.condition(G, 6).value is not True:
        failures.append("condition 6 not true")
    if gr.is_primitive(G)[0] is not False:
        failures.append("group unexpectedly primitive")
    from syncprim import cli

    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--max-degree", "4", "--out", str(out)])
    if code != 0:
        failures.append(f"verify exit code {code}")
    doc = json.loads(out.read_text())
    if not any(
        d["group"] == "fix3_C3" and d["condition"] == 6
        for d in doc["expected_divergences"]
    ):
        failures.append("divergence not recorded as expected")
    _report(6, failures, "condition 6 true on an imprimitive degree-4 group, exit 0")


def test_criterion_07_separator_exists():
    failures = []
    checked = 0
    for entry in catalog.builtin_catalog(7):
        G = entry.group
        n = G.degree
        if n > 7 or not gr.is_transitive(G):
            continue
        for a in range(1, n):
            for b in range(1, n):
                if a * b >= n:
                    continue
                for A in itertools.combinations(range(n), a):
                    for B in itertools.combinations(range(n), b):
                        checked += 1
                        if gr.find_separator(G, frozenset(A), frozenset(B)) is None:
                            failures.append((entry.name, A, B))
    _report(7, failures, f"{checked} (group, A, B) triples with |A||B| < n")


def _strong_witness_holds(G, witness):
    """Product BFS finds no word telling the witness pair apart in <G, f>."""
    f = perm.parse_image(witness["f"])
    A = am.build_group_automaton(G, f)
    S, T = (am.parse_set(s, G.degree) for s in witness["pair"])
    return am.distinguish_witness(A, S, T) is None


def test_criterion_08_strongly_sync_maximal():
    failures = []
    details = []

    # S4 is 4-transitive yet not strongly sync-maximal: under the rank-2
    # map 0 0 1 1 the images of the complementary pair {0,1},{2,3} stay
    # complementary, equal, or both singletons under every word, never
    # exactly one singleton. The argument holds for every group of
    # degree 4, so the criterion expects this witness and re-checks it.
    s4 = cl.is_strongly_sync_maximal(catalog.symmetric(4))
    if s4.value is not False or s4.witness is None:
        failures.append(("S4", "expected a failing witness", s4.value))
    elif s4.witness != {"f": "0 0 1 1", "pair": ["{0,1}", "{2,3}"]}:
        failures.append(("S4", "unexpected witness", s4.witness))
    elif not _strong_witness_holds(catalog.symmetric(4), s4.witness):
        failures.append(("S4", "witness pair is actually distinguishable"))

    for rec in harness.search_strongly_sync_maximal(range(3, 6)):
        if rec.report.predicates["strongly_sync_maximal"].value is True:
            if rec.report.predicates["primitive"].value is not True:
                failures.append((rec.name, "strongly true but not primitive"))

    c4 = cl.is_strongly_sync_maximal(catalog.cyclic(4))
    if c4.value is not False or c4.witness is None:
        failures.append(("C4", "expected a failing witness"))
    elif not _strong_witness_holds(catalog.cyclic(4), c4.witness):
        failures.append(("C4", "witness pair is actually distinguishable"))

    start = time.perf_counter()
    s5 = cl.is_strongly_sync_maximal(catalog.symmetric(5))
    elapsed = time.perf_counter() - start
    if s5.value is not True:
        failures.append(("S5", "expected strongly_sync_maximal true", s5.witness))
    if s5.scanned != 3000:
        failures.append(("S5", "full scan expected 3000 maps", s5.scanned))
    if elapsed >= 60:
        failures.append(("S5", f"scan took {elapsed:.1f}s, limit 60s"))
    details.append("S4 false with witness 0 0 1 1 on {0,1},{2,3}")
    details.append(f"S5 full scan {s5.scanned} maps in {elapsed:.1f}s")

    _report(8, failures, "; ".join(details))


def test_criterion_09_slowly_synchronizing_family():
    failures = []
    for n in range(3, 9):
        word = am.shortest_reset_word(am.cerny_automaton(n))
        if word is None or len(word) != (n - 1) ** 2:
            failures.append((n, "reset length", None if word is None else len(word)))
    worst = 0.0
    for n in range(3, 11):
        start = time.perf_counter()
        A = am.cerny_automaton(n)
        count = am.minimal_syn_dfa(A).state_count
        if count != 2 ** n - n:
            failures.append((n, "state count", count))
        # independent route: maximal size needs exactly complete
        # reachability plus distinguishable non-singleton subsets
        if not am.is_completely_reachable(A):
            failures.append((n, "not completely reachable"))
        if not am.all_nonsingleton_distinguishable_witness(A)[0]:
            failures.append((n, "indistinguishable subsets"))
        worst = max(worst, time.perf_counter() - start)
        if worst >= 10:
            failures.append((n, f"case took {worst:.1f}s, limit 10s"))
    _report(9, failures, f"lengths (n-1)^2 for n=3..8, sizes 2^n-n for n=3..10, worst case {worst:.2f}s")


def test_criterion_10_determinism():
    failures = []

    def classify_bytes(G, with_strong=False):
        rep = cl.classify(G, name="g", with_strong=with_strong)
        return json.dumps(rep.to_dict(), sort_keys=True)

    for G, with_strong, label in (
        (catalog.cyclic(5), False, "classification"),
        (catalog.symmetric(4), True, "strongly-scan"),
    ):
        if len({classify_bytes(G, with_strong) for _ in range(4)}) != 1:
            failures.append((label, "reports differ across runs"))

    def syn_doc():
        A = am.cerny_automaton(6)
        word = am.shortest_reset_word(A)
        return json.dumps(
            {
                "state_count": am.minimal_syn_dfa(A).state_count,
                "reset_word": am.word_to_str(word),
            },
            sort_keys=True,
        )

    if len({syn_doc() for _ in range(3)}) != 1:
        failures.append(("syn-dfa", "reports differ across runs"))
    _report(10, failures, "byte-identical reports, repeated runs")
