from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncprim import _kernels, automaton as am, catalog, group as gr, harness, perm
from syncprim.automaton import SemiAutomaton
from syncprim.perm import Transformation
from syncprim.rng import SplitMix64


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


def pairwise_classes(trans, init):
    """Independent oracle for partition refinement: equivalence classes by
    iterated pairwise marking (table filling).  A pair is marked when its
    initial labels differ, or when some letter sends it to a marked pair;
    rounds repeat until none marks a new pair."""
    S = trans.shape[0]
    marked = init[:, None] != init[None, :]
    count = np.count_nonzero(marked)
    while True:
        for t in trans.T:
            marked |= marked[t[:, None], t[None, :]]
        new_count = np.count_nonzero(marked)
        if new_count == count:
            break
        count = new_count
    labels = np.full(S, -1, dtype=np.int64)
    nxt = 0
    for p in range(S):
        if labels[p] < 0:
            labels[~marked[p] & (labels < 0)] = nxt
            nxt += 1
    return labels


def nonsingleton_masks(n):
    """The masks of the subsets of [n] with at least two points."""
    return [m for m in range(1, 1 << n) if m & (m - 1)]


def subset_reach_oracle(letters, n):
    """Independent oracle for _kernels.subset_reach: the same BFS, applying
    each letter to a mask bit by bit instead of through the image table."""
    L = letters.shape[0]
    size = 1 << n
    full = size - 1
    index = np.full(size, -1, np.int32)
    states = np.empty(size, np.int64)
    trans = np.empty((size, L), np.int32)
    states[0] = full
    index[full] = 0
    count = 1
    head = 0
    while head < count:
        s = states[head]
        for l in range(L):
            img = 0
            m = s
            i = 0
            while m:
                if m & 1:
                    img |= 1 << letters[l, i]
                m >>= 1
                i += 1
            t = index[img]
            if t < 0:
                t = count
                index[img] = t
                states[count] = img
                count += 1
            trans[head, l] = t
        head += 1
    return states[:count].copy(), trans[:count].copy()


def reset_word_oracle(letters, n):
    """Independent oracle for _kernels.reset_word_bfs: its own BFS with
    parent pointers, stopping at the first singleton it meets.  Returns the
    word as a list, or None when no singleton is reachable."""
    L = letters.shape[0]
    size = 1 << n
    full = size - 1
    if n == 1:
        return []
    prev = np.full(size, -1, np.int64)
    prev_letter = np.full(size, -1, np.int32)
    visited = np.zeros(size, np.uint8)
    queue = np.empty(size, np.int64)
    queue[0] = full
    visited[full] = 1
    count = 1
    head = 0
    goal = -1
    while head < count and goal < 0:
        s = queue[head]
        for l in range(L):
            img = 0
            m = s
            i = 0
            while m:
                if m & 1:
                    img |= 1 << letters[l, i]
                m >>= 1
                i += 1
            if visited[img] == 0:
                visited[img] = 1
                prev[img] = s
                prev_letter[img] = l
                if img & (img - 1) == 0:
                    goal = img
                    break
                queue[count] = img
                count += 1
        head += 1
    if goal < 0:
        return None
    word = []
    s = goal
    while s != full:
        word.append(int(prev_letter[s]))
        s = prev[s]
    return word[::-1]


def collapse_refinement_oracle(A, masks):
    """Independent oracle for the collapse DFAs of conditions 3 and 4: the
    refinement labels of the given non-singleton masks, with the table
    built mask by mask.  A letter's image leaving the mask list (becoming a
    singleton) enters one absorbing sink."""
    index = {m: i for i, m in enumerate(masks)}
    sink = len(masks)
    trans = np.empty((sink + 1, len(A.letters)), dtype=np.int32)
    for i, m in enumerate(masks):
        for l, letter in enumerate(A.letters):
            trans[i, l] = index.get(letter.apply_mask(m), sink)
    trans[sink] = sink
    return am._sink_refinement(trans, sink)


def pairwise_state_count(A):
    """minimal_syn_dfa's state count, with the classes counted by the
    pairwise-marking oracle instead of Hopcroft refinement."""
    trans, acc = am._merged_syn_dfa(*_kernels.subset_reach(A.letter_array(), A.degree))
    init = np.zeros(len(trans), dtype=np.int64)
    if acc is not None:
        init[acc] = 1
    return int(pairwise_classes(trans, init).max()) + 1


def nth_random_automaton(rng, n, letters, k):
    """The k-th automaton harness.random_automaton draws from rng."""
    for _ in range(k):
        A = harness.random_automaton(rng, n, letters)
    return A


def assert_same_arrays(got, want):
    """Equal dtype, shape and bytes, array by array."""
    for g, w in zip(got, want, strict=True):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


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
    """build_subset_automaton: subset_reach's arrays behind the power-set cap."""

    def test_is_subset_reach(self):
        A = am.build_group_automaton(catalog.cyclic(5), t(1, 1, 2, 3, 4))
        got = am.build_subset_automaton(A)
        assert_same_arrays(got, _kernels.subset_reach(A.letter_array(), A.degree))

    def test_permutations_only(self):
        G = catalog.symmetric(3)
        A = SemiAutomaton(3, G.generators)
        states, _ = am.build_subset_automaton(A)
        assert states.tolist() == [0b111]

    def test_cerny_4_fully_reachable(self):
        states, _ = am.build_subset_automaton(am.cerny_automaton(4))
        assert len(states) == 15
        assert set(states.tolist()) == set(range(1, 16))
        assert states[0] == 0b1111

    def test_matches_brute_force(self):
        A = am.cerny_automaton(5)
        states, _ = am.build_subset_automaton(A)
        brute = brute_force_reachable(A)
        assert {am.mask_to_set(s) for s in states.tolist()} == brute

    def test_transitions_consistent(self):
        A = am.cerny_automaton(4)
        states, trans = am.build_subset_automaton(A)
        for i, s in enumerate(states.tolist()):
            for l, letter in enumerate(A.letters):
                assert states[trans[i, l]] == letter.apply_mask(s)

    def test_cardinality_never_increases(self):
        A = am.cerny_automaton(5)
        states, trans = am.build_subset_automaton(A)
        for i, s in enumerate(states.tolist()):
            for j in trans[i].tolist():
                assert bin(int(states[j])).count("1") <= bin(s).count("1")

    def test_constant_letter_reaches_singleton(self):
        A = SemiAutomaton(3, (t(0, 0, 0),))
        states, _ = am.build_subset_automaton(A)
        assert 0b001 in states.tolist()

    def test_degree_cap(self):
        with pytest.raises(am.DegreeCapError):
            am.build_subset_automaton(SemiAutomaton(30, (perm.identity(30),)))


@st.composite
def automata(draw, max_states=10):
    """Automata with 1 to max_states states and 1-4 letters; a letter is
    the identity, a permutation or an arbitrary map, so identity-only and
    non-synchronizing automata come up often."""
    n = draw(st.integers(1, max_states), label="states")
    points = list(range(n))
    letter = st.one_of(
        st.just(points),
        st.permutations(points),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    )
    letters = draw(st.lists(letter, min_size=1, max_size=4), label="letters")
    return SemiAutomaton(n, tuple(Transformation(tuple(image)) for image in letters))


class TestPowerSetWalk:
    """The table-driven power-set walk against bit-loop oracles."""

    @settings(max_examples=300, deadline=None)
    @given(automata())
    def test_matches_bit_loop_oracles(self, A):
        n, letters = A.degree, A.letter_array()
        img = _kernels.image_table(letters, n)
        assert img.shape == (len(A.letters), 1 << n) and img.dtype == np.int32
        for l, letter in enumerate(A.letters):
            assert img[l].tolist() == [letter.apply_mask(m) for m in range(1 << n)]
        assert_same_arrays(_kernels.subset_reach(letters, n), subset_reach_oracle(letters, n))
        assert am.shortest_reset_word(A) == reset_word_oracle(letters, n)
        if n >= 3:
            # condition 4's collapse DFA, read off the image table, against
            # the mask-by-mask construction
            masks = nonsingleton_masks(n)
            trans, sink = am._merged_syn_dfa(np.arange(1, 1 << n), am._nonempty_subset_trans(A))
            assert partition(am._sink_refinement(trans, sink)) == partition(collapse_refinement_oracle(A, masks))

    @settings(max_examples=300, deadline=None)
    @given(automata())
    def test_pair_table_matches_the_mask_by_mask_oracle(self, A):
        # conditions 3 and 6's collapse DFA over the 2-subsets, read off the
        # letter array; n = 1 has no 2-subset and n = 2 has one
        n = A.degree
        masks = [(1 << x) | (1 << y) for x in range(n) for y in range(x + 1, n)]
        a, b, labels = am._2subset_labels(A)
        assert ((1 << a) | (1 << b)).tolist() == masks
        assert partition(labels) == partition(collapse_refinement_oracle(A, masks))

    def test_reset_word_takes_the_first_parent(self):
        # {0} is reached from {0,1,2} under letter 0, and later from {0,1};
        # the word must follow the first, row-major occurrence
        A = SemiAutomaton(3, (t(0, 0, 0), t(0, 0, 1)))
        assert am.shortest_reset_word(A) == [0]
        # {1,2} is reached from {0,1,2} under letters 0 and 1
        A = SemiAutomaton(3, (t(1, 1, 2), t(2, 1, 2), t(0, 1, 1)))
        assert am.shortest_reset_word(A) == reset_word_oracle(A.letter_array(), 3) == [0, 2]


# The eight automata perfbench's syn-dfa-random workload draws: reachable
# subsets and reset-word length (None: not synchronizing).  Their walks have
# levels of up to 12 136 subsets.
RANDOM_16_WALKS = [(58651, 11), (11756, 9), (10997, 9), (28712, 6), (460, 8), (22819, None), (337, 6), (1, None)]

WALK_FORMS = pytest.mark.parametrize(
    "reach", [_kernels._reach_batched, _kernels._reach_loop], ids=["batched", "loop"]
)


class TestWalkForms:
    """Both forms of the power-set walk on their own, since subset_reach
    sends tables below BATCHED_MIN_MASKS masks to the loop, the dispatch
    between them, and the reset word, which stops the numpy walk early."""

    @WALK_FORMS
    @settings(max_examples=300, deadline=None)
    @given(automata())
    def test_matches_bit_loop_oracles(self, reach, A):
        n, letters = A.degree, A.letter_array()
        assert_same_arrays(reach(letters, n), subset_reach_oracle(letters, n))

    @WALK_FORMS
    def test_two_singletons_in_one_level(self, reach):
        # level 1 is {0,1}, {2,3}; level 2 is {1}, {2} from {0,1} and then
        # {0}, {3} from {2,3}.  The word follows the first of them, {1},
        # not the smallest mask, {0}, which [1, 0] reaches.
        A = SemiAutomaton(4, (t(1, 1, 0, 0), t(2, 2, 3, 3)))
        letters = A.letter_array()
        states, _ = reach(letters, 4)
        assert states[3:7].tolist() == [0b0010, 0b0100, 0b0001, 0b1000]
        assert _kernels.reset_word_bfs(letters, 4) == reset_word_oracle(letters, 4) == [0, 0]

    @pytest.mark.parametrize("batch", [1, 2, 3, 5])
    def test_any_batch_size_gives_the_queue_order(self, batch, monkeypatch):
        # batches of a few states end inside a level or span two levels
        monkeypatch.setattr(_kernels, "WALK_BATCH", batch)
        rng = SplitMix64(batch)
        cases = [am.cerny_automaton(n) for n in (2, 5, 7)]
        cases += [harness.random_automaton(rng, 8, letters) for letters in (1, 2, 3, 3)]
        for A in cases:
            letters = A.letter_array()
            assert_same_arrays(
                _kernels._reach_batched(letters, A.degree), _kernels._reach_loop(letters, A.degree)
            )
            assert _kernels.reset_word_bfs(letters, A.degree) == reset_word_oracle(letters, A.degree)

    @pytest.mark.parametrize(
        "A, size, length",
        [(am.cerny_automaton(n), (1 << n) - 1, (n - 1) ** 2) for n in range(13, 17)]
        + [
            (nth_random_automaton(SplitMix64(2021), 16, 3, k + 1), size, length)
            for k, (size, length) in enumerate(RANDOM_16_WALKS)
        ],
        ids=[f"cerny-{n}" for n in range(13, 17)] + [f"random-16-{k}" for k in range(8)],
    )
    def test_forms_agree_on_large_tables(self, A, size, length):
        n, letters = A.degree, A.letter_array()
        states, trans = _kernels._reach_loop(letters, n)
        word = reset_word_oracle(letters, n)
        assert len(states) == size and (word if word is None else len(word)) == length
        assert_same_arrays(_kernels._reach_batched(letters, n), (states, trans))
        assert _kernels.reset_word_bfs(letters, n) == word

    @pytest.mark.parametrize("offset", [-1, 0], ids=["below", "at"])
    def test_dispatch_at_the_threshold(self, offset, monkeypatch):
        n = (_kernels.BATCHED_MIN_MASKS - 1).bit_length() + offset
        assert (1 << n >= _kernels.BATCHED_MIN_MASKS) == (offset == 0)
        called = []
        for name in ("_reach_batched", "_reach_loop"):
            def spy(letters, n, name=name, walk=getattr(_kernels, name)):
                called.append(name)
                return walk(letters, n)
            monkeypatch.setattr(_kernels, name, spy)
        states, _ = _kernels.subset_reach(am.cerny_automaton(n).letter_array(), n)
        assert called == ["_reach_loop" if offset < 0 else "_reach_batched"]
        assert len(states) == (1 << n) - 1


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
            assert am.minimal_syn_dfa(A).state_count == pairwise_state_count(A)

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
            states, _ = am.build_subset_automaton(A)
            big = {m for m in range(1, 1 << n) if bin(m).count("1") >= 2}
            reach_ok = big <= set(states.tolist()) and any(
                s & (s - 1) == 0 for s in states.tolist()
            )
            assert maximal == (reach_ok and am.all_nonsingleton_distinguishable_witness(A)[0])


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
        assert partition(pairwise_classes(trans, init)) == want
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
        states, trans = am.build_subset_automaton(A)
        merged, acc = am._merged_syn_dfa(states, trans)
        kept = [i for i, s in enumerate(states.tolist()) if s & (s - 1)]
        new = {old: i for i, old in enumerate(kept)}
        assert acc == len(kept) and merged.shape == (len(kept) + 1, len(A.letters))
        for old, i in new.items():
            assert merged[i].tolist() == [new.get(j, acc) for j in trans[old].tolist()]
        assert merged[acc].tolist() == [acc] * len(A.letters)


REFINE_PATHS = pytest.mark.parametrize(
    "refine", [_kernels._refine_rounds, _kernels._refine_loop], ids=["rounds", "loop"]
)


class TestRefinementPaths:
    """Both refinement paths on their own against the Moore oracle, since
    moore_refine keeps small tables off the rounds path, and the dispatch
    between them."""

    @staticmethod
    def check(refine, trans, init):
        trans = np.asarray(trans, dtype=np.int32)
        init = np.asarray(init, dtype=np.int64)
        labels = refine(trans, init)
        assert labels.shape == init.shape and labels.dtype == np.int64
        assert sorted(set(labels.tolist())) == list(range(int(labels.max()) + 1))
        assert partition(labels) == partition(moore_oracle(trans, init))
        return labels

    @REFINE_PATHS
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_complete_dfas(self, refine, data):
        S = data.draw(st.integers(1, 40), label="states")
        L = data.draw(st.integers(1, 3), label="letters")
        K = data.draw(st.integers(1, 4), label="initial labels")
        state = st.integers(0, S - 1)
        trans = data.draw(st.lists(st.lists(state, min_size=L, max_size=L), min_size=S, max_size=S))
        init = data.draw(st.lists(st.integers(0, K - 1), min_size=S, max_size=S))
        self.check(refine, trans, init)

    # the tables of TestPartitionRefinement's pinned cases
    @REFINE_PATHS
    @pytest.mark.parametrize(
        "trans, init",
        [
            ([[0], [2], [1], [0]], [0, 1, 1, 0]),
            ([[0, 0]], [7]),
            ([[(i + 1) % 9, i // 2] for i in range(9)], [3] * 9),
            ([[0, 0]] * 6, [5, 4, 3, 2, 1, 0]),
            ([[(i + 1) % 12] for i in range(12)], [1] + [0] * 11),
            ([[(i + 1) % 6] for i in range(6)], [1, 0] * 3),
            ([[min(i + 1, 9)] for i in range(10)], [0] * 9 + [1]),
        ],
        ids=["own-preimage", "one-state", "one-class", "singletons", "12-cycle", "6-cycle", "chain"],
    )
    def test_pinned_cases(self, refine, trans, init):
        self.check(refine, trans, init)

    @REFINE_PATHS
    def test_three_way_split_keeps_a_part_that_is_not_largest(self, refine):
        # One letter.  States 0-5 start in one block, 6 and 7 in blocks of
        # their own.  The first round splits {0..5} by successor into {0},
        # {1, 2, 3} and the untouched remainder {4, 5}, which keeps the
        # block id though {1, 2, 3} is larger; only the remainder, as a
        # splitter, separates 4 (into {1, 2, 3}) from 5 (a self-loop).
        trans = [[6], [7], [7], [7], [1], [5], [6], [7]]
        labels = self.check(refine, trans, [0, 0, 0, 0, 0, 0, 1, 2])
        assert partition(labels) == [[0], [1, 2, 3], [4], [5], [6], [7]]

    # inputs in forms the int32 tables of check never take
    @REFINE_PATHS
    @pytest.mark.parametrize(
        "trans, init, want",
        [
            (np.zeros((3, 0), np.int32), [2, 0, 2], [[0, 2], [1]]),
            (np.array([[1], [2], [3], [3]], np.int32), [7, -3, 7, 100], [[0], [1], [2], [3]]),
            (np.array([[1], [0], [3], [2]], np.int32), [7, -3, -3, 7], [[0, 3], [1, 2]]),
            (np.array([[1, 0], [2, 0], [0, 0]], np.int64), [0, 0, 1], [[0], [1], [2]]),
        ],
        ids=["no-letters", "negative-labels", "non-compact-labels", "int64-trans"],
    )
    def test_input_forms(self, refine, trans, init, want):
        init = np.array(init)
        labels = refine(trans, init)
        assert labels.dtype == np.int64 and labels.shape == (len(init),)
        assert partition(labels) == want == partition(moore_oracle(trans, init))
        assert sorted(set(labels.tolist())) == list(range(len(want)))

    @staticmethod
    def syn_dfa_table(A):
        merged, acc = am._merged_syn_dfa(*_kernels.subset_reach(A.letter_array(), A.degree))
        init = np.zeros(len(merged), dtype=np.int64)
        init[acc] = 1
        return merged, init

    @staticmethod
    def cardinality_table(A):
        # condition 5's table: every nonempty mask, labelled by its size
        return am._nonempty_subset_trans(A), am._popcounts(A.degree)[1:]

    # tables above the sizes hypothesis draws, on the loop's side of the
    # threshold: the Cerny automaton at n = 7-10 (121 to 1 014 rows), S_n
    # and D_n plus 1 1 2 ... at n = 8-10, and condition 5's 255 rows at n = 8
    @REFINE_PATHS
    @pytest.mark.parametrize(
        "table, A",
        [("syn-dfa", am.cerny_automaton(n)) for n in range(7, 11)]
        + [
            ("syn-dfa", am.build_group_automaton(group(n), t(1, 1, *range(2, n))))
            for n in range(8, 11)
            for group in (catalog.symmetric, catalog.dihedral)
        ]
        + [
            ("cardinality", am.build_group_automaton(group(8), t(1, 1, *range(2, 8))))
            for group in (catalog.symmetric, catalog.cyclic)
        ]
        + [("cardinality", am.cerny_automaton(8))],
        ids=[f"cerny-{n}" for n in range(7, 11)]
        + [f"{g}{n}" for n in range(8, 11) for g in "SD"]
        + ["cardinality-S8", "cardinality-C8", "cardinality-cerny-8"],
    )
    def test_tables_between_the_drawn_sizes_and_the_threshold(self, refine, table, A):
        trans, init = self.syn_dfa_table(A) if table == "syn-dfa" else self.cardinality_table(A)
        assert 40 < len(trans) < _kernels.ROUNDS_MIN_ROWS
        self.check(refine, trans, init)

    @pytest.mark.parametrize("offset", [-1, 0], ids=["below", "at"])
    def test_dispatch_at_the_threshold(self, offset, monkeypatch):
        rows = _kernels.ROUNDS_MIN_ROWS + offset
        rng = np.random.default_rng(rows)
        trans = rng.integers(0, rows, (rows, 2)).astype(np.int32)
        init = rng.integers(0, 3, rows)
        called = []
        for name in ("_refine_rounds", "_refine_loop"):
            def spy(trans, init, name=name, refine=getattr(_kernels, name)):
                called.append(name)
                return refine(trans, init)
            monkeypatch.setattr(_kernels, name, spy)
        labels = _kernels.moore_refine(trans, init)
        assert called == ["_refine_loop" if offset < 0 else "_refine_rounds"]
        assert partition(labels) == partition(moore_oracle(trans, init))

    @pytest.mark.parametrize(
        "A",
        [
            am.cerny_automaton(11),
            am.cerny_automaton(12),
            # 3 786 rows once its singletons are merged
            nth_random_automaton(SplitMix64(2021), 12, 3, 4),
        ],
        ids=["cerny-11", "cerny-12", "random-12"],
    )
    def test_merged_syn_dfa_tables_near_and_above_the_threshold(self, A):
        merged, init = self.syn_dfa_table(A)
        assert len(merged) > _kernels.ROUNDS_MIN_ROWS - 100
        want = partition(moore_oracle(merged, init))
        for refine in (_kernels._refine_rounds, _kernels._refine_loop, _kernels.moore_refine):
            assert partition(refine(merged, init)) == want


class TestWitnessHelpers:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=12))
    def test_first_repeat_matches_the_seen_dict_loop(self, labels):
        masks = np.arange(3, 3 + len(labels))
        seen, want = {}, (True, None)
        for i, lab in enumerate(labels):
            if lab in seen:
                want = (False, (am.mask_to_set(int(masks[seen[lab]])), am.mask_to_set(int(masks[i]))))
                break
            seen[lab] = i
        assert am._first_repeat(masks, np.array(labels, dtype=np.int64)) == want

    def test_popcounts(self):
        for n in range(11):
            assert am._popcounts(n).tolist() == [bin(m).count("1") for m in range(1 << n)]


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
        assert not am.all_nonsingleton_distinguishable_witness(A)[0]

    def test_2subsets_imply_nonsingleton(self):
        # the two notions coincide on these group automata
        for G, f in [
            (catalog.cyclic(5), t(1, 1, 2, 3, 4)),
            (catalog.symmetric(4), t(1, 1, 2, 3)),
            (catalog.cyclic(4), t(1, 1, 2, 3)),
        ]:
            A = am.build_group_automaton(G, f)
            two, _ = am.all_2subsets_distinguishable(A)
            assert two == am.all_nonsingleton_distinguishable_witness(A)[0]

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

    def test_at_the_degree_cap(self):
        # the pair table has no power-set cap: at n = 64 bit 63 is in play.
        # The Cerny automaton's Syn-DFA has 2^n - n states, so all its
        # non-singletons are distinguishable; a group alone collapses none.
        n = perm.DEGREE_CAP
        A = am.cerny_automaton(n)
        assert am.all_2subsets_distinguishable(A) == (True, None)
        assert am.disjoint_2subsets_distinguishable(A) == (True, None)
        B = SemiAutomaton(n, catalog.cyclic(n).generators)
        assert am.all_2subsets_distinguishable(B) == (False, (frozenset({0, 1}), frozenset({0, 2})))
        assert am.disjoint_2subsets_distinguishable(B) == (False, (frozenset({0, 1}), frozenset({2, 3})))

    @settings(max_examples=200, deadline=None)
    @given(automata(max_states=6))
    def test_witness_is_the_first_pair_the_product_bfs_cannot_split(self, A):
        # the pairs of 2-subsets in lexicographic order of their indices;
        # the first that no word distinguishes is condition 3's witness,
        # and the first disjoint one is condition 6's
        subsets = [frozenset((x, y)) for x in range(A.degree) for y in range(x + 1, A.degree)]
        pairs = [(S, T) for i, S in enumerate(subsets) for T in subsets[i + 1 :]]
        for check, candidates in (
            (am.all_2subsets_distinguishable, pairs),
            (am.disjoint_2subsets_distinguishable, [(S, T) for S, T in pairs if not S & T]),
        ):
            first = next((p for p in candidates if am.distinguish_witness(A, *p) is None), None)
            assert check(A) == (first is None, first)

    def test_different_cardinality(self):
        A = am.build_group_automaton(catalog.cyclic(5), t(1, 1, 2, 3, 4))
        assert am.different_cardinality_reachable_witness(A)[0]
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


def pair_mergeable(A, p, q):
    """Independent oracle for one entry of _kernels.pair_merge_table: a
    forward BFS over the pairs (x(p), x(q)) for words x, until a pair
    merges."""
    start = (p, q)
    seen = {start}
    queue = deque([start])
    while queue:
        a, b = queue.popleft()
        if a == b:
            return True
        for letter in A.letters:
            nxt = (letter(a), letter(b))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


class TestPairCriterionAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(automata(max_states=8))
    def test_pair_table_pair_by_pair(self, A):
        n = A.degree
        good = _kernels.pair_merge_table(A.letter_array(), n)
        assert (good.dtype, good.shape) == (np.dtype(bool), (n, n))
        assert good.tolist() == [[pair_mergeable(A, p, q) for q in range(n)] for p in range(n)]
        assert am.is_synchronizing_pairs(A) == brute_force_synchronizing(A)

    def test_at_the_degree_cap(self):
        # the pair criterion has no power-set cap: it must decide at n = 64
        n = perm.DEGREE_CAP
        assert am.is_synchronizing_pairs(am.cerny_automaton(n))
        shift = Transformation(tuple((i + 1) % n for i in range(n)))
        swap = Transformation((1, 0) + tuple(range(2, n)))
        assert not am.is_synchronizing_pairs(SemiAutomaton(n, (shift, swap)))

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
