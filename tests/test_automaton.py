from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncprim import _kernels, automaton as am, catalog, group as gr, perm
from syncprim.automaton import SemiAutomaton
from syncprim.perm import Transformation


def t(*image):
    return Transformation(tuple(image))


def brute_force_synchronizing(A):
    """Independent oracle: plain frozenset BFS from the full state set."""
    start = frozenset(range(A.degree))
    seen = {start}
    queue = deque([start])
    while queue:
        S = queue.popleft()
        if len(S) == 1:
            return True
        for letter in A.letters:
            img = letter.apply_set(S)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return False


def moore_oracle(trans, init_labels):
    """Independent oracle for partition refinement: Moore's algorithm, one
    np.unique round per step until the class count stops growing."""
    labels = np.unique(np.asarray(init_labels), return_inverse=True)[1].reshape(-1)
    n_classes = int(labels.max()) + 1
    while True:
        sig = np.column_stack([labels] + [labels[trans[:, l]] for l in range(trans.shape[1])])
        labels = np.unique(sig, axis=0, return_inverse=True)[1].reshape(-1)
        if int(labels.max()) + 1 == n_classes:
            return labels
        n_classes = int(labels.max()) + 1


def partition(labels):
    """The partition a labelling induces, independent of the label values."""
    blocks = {}
    for state, label in enumerate(labels.tolist()):
        blocks.setdefault(label, []).append(state)
    return sorted(blocks.values())


def brute_force_reachable(A):
    start = frozenset(range(A.degree))
    seen = {start}
    queue = deque([start])
    while queue:
        S = queue.popleft()
        for letter in A.letters:
            img = letter.apply_set(S)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return seen


class TestBuildGroupAutomaton:
    def test_letters_order(self):
        G = catalog.cyclic(5)
        f = t(1, 1, 2, 3, 4)
        A = am.build_group_automaton(G, f)
        assert A.degree == 5
        assert A.letters == G.generators + (f,)

    def test_letter_count(self):
        G = gr.from_cycles(4, "(0 1)", "(0 1 2 3)")
        A = am.build_group_automaton(G, t(0, 0, 2, 3))
        assert len(A.letters) == 3

    def test_degree_mismatch(self):
        with pytest.raises(perm.DegreeMismatchError):
            am.build_group_automaton(catalog.cyclic(5), t(0, 0, 2))

    def test_idempotent_reduction_stays_in_monoid(self):
        # idempotent_power(g o f) lies in the monoid generated by G and f
        G = catalog.cyclic(5)
        f = t(1, 1, 2, 3, 4)
        g = G.generators[0]
        h = perm.idempotent_power(perm.compose(g, f))
        assert perm.is_idempotent(h)
        # brute-force monoid closure
        monoid = {perm.identity(5)}
        frontier = [perm.identity(5)]
        gens = [g, f]
        while frontier:
            x = frontier.pop()
            for y in gens:
                z = perm.compose(y, x)
                if z not in monoid:
                    monoid.add(z)
                    frontier.append(z)
        assert h in monoid


class TestSynchronizationTests:
    def test_cerny_4_synchronizing(self):
        assert am.is_synchronizing_pairs(am.cerny_automaton(4))

    def test_identity_only_not(self):
        A = SemiAutomaton(3, (perm.identity(3),))
        assert not am.is_synchronizing_pairs(A)

    def test_constant_letter(self):
        A = SemiAutomaton(3, (t(1, 1, 1),))
        assert am.is_synchronizing_pairs(A)

    def test_single_state(self):
        A = SemiAutomaton(1, (perm.identity(1),))
        assert am.is_synchronizing_pairs(A)
        assert am.shortest_reset_word(A) == []


class TestShortestResetWord:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cerny_lengths(self, n):
        word = am.shortest_reset_word(am.cerny_automaton(n))
        assert len(word) == (n - 1) ** 2

    def test_constant_letter_length_one(self):
        A = SemiAutomaton(3, (perm.identity(3), t(2, 2, 2)))
        assert am.shortest_reset_word(A) == [1]

    def test_not_synchronizing(self):
        A = SemiAutomaton(3, (perm.parse_cycles("(0 1 2)", 3),))
        assert am.shortest_reset_word(A) is None

    def test_word_actually_resets(self):
        A = am.cerny_automaton(4)
        word = am.shortest_reset_word(A)
        final = A.apply_word_mask(0b1111, word)
        assert final & (final - 1) == 0

    def test_lexicographic_tie_break(self):
        # two constant letters: both words of length 1 work, pick letter 0
        A = SemiAutomaton(3, (t(1, 1, 1), t(2, 2, 2)))
        assert am.shortest_reset_word(A) == [0]

    def test_letter_index_above_int8(self):
        # 199 identity letters, then the one merging letter
        A = SemiAutomaton(2, (perm.identity(2),) * 199 + (t(0, 0),))
        assert am.shortest_reset_word(A) == [199]


class TestSubsetAutomaton:
    def test_permutations_only(self):
        G = catalog.symmetric(3)
        A = SemiAutomaton(3, G.generators)
        sub = am.build_subset_automaton(A)
        assert sub.states == (0b111,)

    def test_cerny_4_fully_reachable(self):
        sub = am.build_subset_automaton(am.cerny_automaton(4))
        assert len(sub.states) == 15
        assert set(sub.states) == set(range(1, 16))
        assert sub.states[0] == 0b1111

    def test_matches_brute_force(self):
        A = am.cerny_automaton(5)
        sub = am.build_subset_automaton(A)
        brute = brute_force_reachable(A)
        assert {am.mask_to_set(s) for s in sub.states} == brute

    def test_transitions_consistent(self):
        A = am.cerny_automaton(4)
        sub = am.build_subset_automaton(A)
        for i, s in enumerate(sub.states):
            for l, letter in enumerate(A.letters):
                assert sub.states[sub.transitions[i][l]] == letter.apply_mask(s)

    def test_cardinality_never_increases(self):
        A = am.cerny_automaton(5)
        sub = am.build_subset_automaton(A)
        for i, s in enumerate(sub.states):
            for j in sub.transitions[i]:
                assert bin(sub.states[j]).count("1") <= bin(s).count("1")

    def test_constant_letter_reaches_singleton(self):
        A = SemiAutomaton(3, (t(0, 0, 0),))
        sub = am.build_subset_automaton(A)
        assert 0b001 in sub.states

    def test_degree_cap(self):
        with pytest.raises(am.DegreeCapError):
            am.build_subset_automaton(SemiAutomaton(30, (perm.identity(30),)))


class TestCompletelyReachable:
    def test_cerny_is(self):
        assert am.is_completely_reachable(am.cerny_automaton(4))

    def test_primitive_plus_rank4(self):
        A = am.build_group_automaton(catalog.cyclic(5), t(1, 1, 2, 3, 4))
        assert am.is_completely_reachable(A)

    def test_permutation_only_is_not(self):
        A = SemiAutomaton(3, catalog.symmetric(3).generators)
        assert not am.is_completely_reachable(A)

    def test_imprimitive_has_failing_f(self):
        # guaranteed by the complete-reachability characterization
        G = catalog.cyclic(4)
        failing = [
            f
            for f in perm.enumerate_rank_n_minus_1(4)
            if not am.is_completely_reachable(am.build_group_automaton(G, f))
        ]
        assert failing


class TestMinimalSynDfa:
    def test_c5_maximal(self):
        A = am.build_group_automaton(catalog.cyclic(5), t(1, 1, 2, 3, 4))
        assert am.minimal_syn_dfa(A).state_count == 2 ** 5 - 5

    def test_empty_language_single_dead_state(self):
        A = SemiAutomaton(3, (perm.parse_cycles("(0 1 2)", 3),))
        summary = am.minimal_syn_dfa(A)
        assert summary.state_count == 1
        assert summary.accepting_count == 0

    def test_imprimitive_c4_has_small_f(self):
        G = catalog.cyclic(4)
        counts = [
            am.minimal_syn_dfa(am.build_group_automaton(G, f)).state_count
            for f in perm.enumerate_rank_n_minus_1(4)
        ]
        assert len(counts) == 144
        assert min(counts) < 12

    def test_upper_bound(self):
        for f in perm.enumerate_idempotents_rank_n_minus_1(4):
            A = am.build_group_automaton(catalog.symmetric(4), f)
            assert am.minimal_syn_dfa(A).state_count <= 2 ** 4 - 4

    def test_refine_agrees_with_pairwise(self):
        for A in (
            am.cerny_automaton(4),
            am.cerny_automaton(5),
            am.build_group_automaton(catalog.cyclic(5), t(1, 1, 2, 3, 4)),
            am.build_group_automaton(catalog.cyclic(4), t(1, 1, 2, 3)),
            SemiAutomaton(3, (perm.parse_cycles("(0 1 2)", 3),)),
        ):
            assert (
                am.minimal_syn_dfa(A, method="refine").state_count
                == am.minimal_syn_dfa(A, method="pairwise").state_count
            )

    def test_maximality_three_way_consistency(self):
        # count = 2^n - n iff all size>=2 subsets plus a singleton reachable
        # and all non-singletons distinguishable
        cases = [
            am.build_group_automaton(catalog.cyclic(5), t(1, 1, 2, 3, 4)),
            am.build_group_automaton(catalog.cyclic(4), t(1, 1, 2, 3)),
            am.build_group_automaton(catalog.symmetric(4), t(1, 1, 2, 3)),
            am.cerny_automaton(5),
        ]
        for A in cases:
            n = A.degree
            maximal = am.minimal_syn_dfa(A).state_count == 2 ** n - n
            sub = am.build_subset_automaton(A)
            big = {m for m in range(1, 1 << n) if bin(m).count("1") >= 2}
            reach_ok = big <= set(sub.states) and any(
                s & (s - 1) == 0 for s in sub.states
            )
            assert maximal == (reach_ok and am.all_nonsingleton_distinguishable(A))


class TestPartitionRefinement:
    """moore_refine (Hopcroft) against the Moore and pairwise-marking oracles."""

    @staticmethod
    def check(trans, init):
        trans = np.asarray(trans, dtype=np.int32)
        init = np.asarray(init, dtype=np.int64)
        labels = _kernels.moore_refine(trans, init)
        assert labels.shape == init.shape
        assert sorted(set(labels.tolist())) == list(range(int(labels.max()) + 1))
        want = partition(moore_oracle(trans, init))
        assert partition(labels) == want
        assert partition(am._pairwise_classes(trans, init)) == want
        return labels

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_complete_dfas(self, data):
        S = data.draw(st.integers(1, 40), label="states")
        L = data.draw(st.integers(1, 3), label="letters")
        K = data.draw(st.integers(1, 4), label="initial labels")
        state = st.integers(0, S - 1)
        trans = data.draw(st.lists(st.lists(state, min_size=L, max_size=L), min_size=S, max_size=S))
        init = data.draw(st.lists(st.integers(0, K - 1), min_size=S, max_size=S))
        self.check(trans, init)

    def test_splitter_that_is_its_own_preimage(self):
        # the letter swaps 1 and 2: marking the preimages of block {1, 2}
        # reorders that block while it is the splitter
        labels = self.check([[0], [2], [1], [0]], [0, 1, 1, 0])
        assert partition(labels) == [[0, 3], [1, 2]]

    def test_one_state(self):
        assert self.check([[0, 0]], [7]).tolist() == [0]

    def test_one_initial_class_stays_one_class(self):
        trans = [[(i + 1) % 9, i // 2] for i in range(9)]
        assert set(self.check(trans, [3] * 9).tolist()) == {0}

    def test_all_singletons_stay_apart(self):
        trans = [[0, 0]] * 6
        assert len(set(self.check(trans, [5, 4, 3, 2, 1, 0]).tolist())) == 6

    def test_one_letter_cycle_and_chain(self):
        # a 12-cycle with one marked state splits into 12 classes
        labels = self.check([[(i + 1) % 12] for i in range(12)], [1] + [0] * 11)
        assert len(set(labels.tolist())) == 12
        # a 6-cycle with every other state marked has two classes
        labels = self.check([[(i + 1) % 6] for i in range(6)], [1, 0] * 3)
        assert len(set(labels.tolist())) == 2
        # a chain into an absorbing marked state: every distance differs
        labels = self.check([[min(i + 1, 9)] for i in range(10)], [0] * 9 + [1])
        assert len(set(labels.tolist())) == 10

    def test_merged_syn_dfa_tables_match_moore(self):
        for A in [am.cerny_automaton(n) for n in (3, 6, 9)] + [
            am.build_group_automaton(catalog.cyclic(6), t(1, 1, 2, 3, 4, 5)),
            am.build_group_automaton(catalog.dihedral(6), t(0, 0, 2, 3, 4, 5)),
        ]:
            states, trans = _kernels.subset_reach(A.letter_array(), A.degree)
            merged, acc = am._merged_syn_dfa(states, trans)
            init = np.zeros(len(merged), dtype=np.int64)
            init[acc] = 1
            assert partition(_kernels.moore_refine(merged, init)) == partition(moore_oracle(merged, init))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cerny_syn_dfa_is_maximal(self, n):
        assert am.minimal_syn_dfa(am.cerny_automaton(n)).state_count == 2 ** n - n

    def test_merged_syn_dfa_collapses_exactly_the_singletons(self):
        A = am.build_group_automaton(catalog.cyclic(5), t(1, 1, 2, 3, 4))
        sub = am.build_subset_automaton(A)
        states, trans = _kernels.subset_reach(A.letter_array(), A.degree)
        merged, acc = am._merged_syn_dfa(states, trans)
        kept = [i for i, s in enumerate(sub.states) if s & (s - 1)]
        new = {old: i for i, old in enumerate(kept)}
        assert acc == len(kept) and merged.shape == (len(kept) + 1, len(A.letters))
        for old, i in new.items():
            assert merged[i].tolist() == [new.get(j, acc) for j in sub.transitions[old]]
        assert merged[acc].tolist() == [acc] * len(A.letters)


class TestDistinguishability:
    def test_c5_automaton_2subsets(self):
        A = am.build_group_automaton(catalog.cyclic(5), t(1, 1, 2, 3, 4))
        ok, witness = am.all_2subsets_distinguishable(A)
        assert ok and witness is None

    def test_permutation_only_nothing_collapses(self):
        A = SemiAutomaton(4, catalog.cyclic(4).generators)
        ok, witness = am.all_2subsets_distinguishable(A)
        assert not ok
        assert witness == (frozenset({0, 1}), frozenset({0, 2}))

    def test_fix3_group_disjoint_pairs(self):
        G = gr.from_cycles(4, "(0 1 2)(3)")
        for f in perm.enumerate_maps_of_rank(4, 3):
            ok, _ = am.disjoint_2subsets_distinguishable(am.build_group_automaton(G, f))
            assert ok

    def test_nonsingleton_permutation_only(self):
        A = SemiAutomaton(3, catalog.symmetric(3).generators)
        assert not am.all_nonsingleton_distinguishable(A)

    def test_2subsets_imply_nonsingleton(self):
        # the two notions coincide on these group automata
        for G, f in [
            (catalog.cyclic(5), t(1, 1, 2, 3, 4)),
            (catalog.symmetric(4), t(1, 1, 2, 3)),
            (catalog.cyclic(4), t(1, 1, 2, 3)),
        ]:
            A = am.build_group_automaton(G, f)
            two, _ = am.all_2subsets_distinguishable(A)
            assert two == am.all_nonsingleton_distinguishable(A)

    def test_2subsets_do_not_imply_nonsingleton_in_general(self):
        # point 3 is fixed by both letters and the only collision funnels
        # into it, so any word collapsing {0,1} yields {3} and then
        # {0,1,3} collapses too; yet all 2-subsets are distinguishable
        A = SemiAutomaton(4, (t(1, 2, 0, 3), t(0, 1, 3, 3)))
        assert am.all_2subsets_distinguishable(A)[0]
        ok, wit = am.all_nonsingleton_distinguishable_witness(A)
        assert not ok
        S, T = wit
        assert am.distinguish_witness(A, S, T) is None

    def test_different_cardinality(self):
        A = am.build_group_automaton(catalog.cyclic(5), t(1, 1, 2, 3, 4))
        assert am.different_cardinality_reachable(A)
        B = SemiAutomaton(4, catalog.cyclic(4).generators)
        ok, pair = am.different_cardinality_reachable_witness(B)
        assert not ok and pair is not None


class TestDistinguishWitness:
    def test_cerny_pair(self):
        A = am.cerny_automaton(4)
        S, T = frozenset({0, 1}), frozenset({2, 3})
        word = am.distinguish_witness(A, S, T)
        assert word is not None
        imgS = A.apply_word_mask(0b0011, word)
        imgT = A.apply_word_mask(0b1100, word)
        assert (imgS & (imgS - 1) == 0) != (imgT & (imgT - 1) == 0)

    def test_no_collapse_no_witness(self):
        A = SemiAutomaton(4, catalog.cyclic(4).generators)
        assert am.distinguish_witness(A, frozenset({0, 1}), frozenset({0, 2})) is None

    def test_nested_sets(self):
        A = am.build_group_automaton(catalog.cyclic(5), t(1, 1, 2, 3, 4))
        word = am.distinguish_witness(A, frozenset({0, 1}), frozenset({0, 1, 2}))
        assert word is not None

    def test_witness_is_shortest(self):
        # breadth-first enumeration oracle over all words
        A = am.cerny_automaton(4)
        S, T = frozenset({0, 1}), frozenset({1, 2})
        word = am.distinguish_witness(A, S, T)
        ms, mt = 0b0011, 0b0110

        def ok(w):
            s = A.apply_word_mask(ms, w)
            tt = A.apply_word_mask(mt, w)
            return (s & (s - 1) == 0) != (tt & (tt - 1) == 0)

        assert ok(word)
        from itertools import product
        for length in range(len(word)):
            for w in product(range(len(A.letters)), repeat=length):
                assert not ok(list(w))

    def test_rejects_small_sets(self):
        A = am.cerny_automaton(4)
        with pytest.raises(ValueError):
            am.distinguish_witness(A, frozenset({0}), frozenset({1, 2}))


class TestPairCriterionAgainstBruteForce:
    def test_small_exhaustive_families(self):
        # every 2-letter automaton on [3] built from one permutation and one map
        perms = list(perm.enumerate_maps_of_rank(3, 3))
        maps = [f for r in (1, 2, 3) for f in perm.enumerate_maps_of_rank(3, r)]
        for g in perms:
            for f in maps:
                A = SemiAutomaton(3, (g, f))
                assert am.is_synchronizing_pairs(A) == brute_force_synchronizing(A)
                assert (am.shortest_reset_word(A) is not None) == brute_force_synchronizing(A)


class TestSerialization:
    def test_mask_roundtrip(self):
        assert am.mask_to_str(0b101) == "{0,2}"
        assert am.parse_set("{0,2}", 3) == frozenset({0, 2})
        assert am.parse_set("{}", 3) == frozenset()

    def test_parse_set_errors(self):
        with pytest.raises(perm.ParseError):
            am.parse_set("0,2", 3)
        with pytest.raises(perm.ParseError):
            am.parse_set("{0,9}", 3)

    def test_word_format(self):
        assert am.word_to_str([1, 0, 2]) == "1 0 2"

    def test_automaton_file(self):
        A = am.parse_automaton_file("degree 4\n1 2 3 0\n1 1 2 3\n")
        assert A.degree == 4
        assert len(A.letters) == 2

    def test_automaton_file_errors(self):
        with pytest.raises(perm.ParseError, match="line 2"):
            am.parse_automaton_file("degree 3\n0 1 5\n")
        with pytest.raises(perm.ParseError, match="no letters"):
            am.parse_automaton_file("degree 3\n")
