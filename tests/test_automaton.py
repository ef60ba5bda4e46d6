import hashlib
import json
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncprim import _kernels, automaton as am, catalog, cli, group as gr, harness, perm
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
    states = np.empty(size, np.int32)
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
    built mask by mask and refined by moore_oracle.  A letter's image
    leaving the mask list (becoming a singleton) enters one absorbing
    sink, the only accepting state."""
    index = {m: i for i, m in enumerate(masks)}
    sink = len(masks)
    trans = np.empty((sink + 1, len(A.letters)), dtype=np.int32)
    for i, m in enumerate(masks):
        for l, letter in enumerate(A.letters):
            trans[i, l] = index.get(letter.apply_mask(m), sink)
    trans[sink] = sink
    return moore_oracle(trans, np.arange(sink + 1) == sink)[:sink]


def merge_singletons(states, trans):
    """The merged Syn-DFA table: a subset automaton with all its singleton
    states collapsed into one accepting sink, which every letter maps to
    itself, as a singleton's image is a singleton.  The other rows keep
    their order.  Returns the table and the initial labels: 1 on the sink,
    0 elsewhere, and all 0 when no state is a singleton."""
    single = (states & (states - 1)) == 0
    if not single.any():
        return trans, np.zeros(len(trans), np.int64)
    keep = ~single
    sink = int(np.count_nonzero(keep))
    remap = np.cumsum(keep, dtype=np.int32) - 1
    remap[single] = sink
    merged = np.empty((sink + 1, trans.shape[1]), dtype=np.int32)
    merged[:sink] = remap[trans[keep]]
    merged[sink] = sink
    init = np.zeros(sink + 1, np.int64)
    init[sink] = 1
    return merged, init


def first_repeat_oracle(masks, labels):
    """_first_repeat by a seen-dict loop: the first mask whose label
    already occurred, paired with the first mask of that label."""
    seen = {}
    for i, lab in enumerate(labels):
        if lab in seen:
            return False, (am.mask_to_set(int(masks[seen[lab]])), am.mask_to_set(int(masks[i])))
        seen[lab] = i
    return True, None


def pairwise_state_count(A):
    """minimal_syn_dfa's state count by the oracles alone: the reachable
    subsets of subset_reach_oracle with their singletons merged, and the
    classes counted by pairwise marking."""
    merged, init = merge_singletons(*subset_reach_oracle(A.letter_array(), A.degree))
    return int(pairwise_classes(merged, init).max()) + 1


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

    def test_int32_holds_the_cap(self):
        # the kernels return int32 masks, below 2^SUBSET_CAP, and int32
        # indices and labels, below the row count, at most 2^SUBSET_CAP
        top = np.iinfo(np.int32).max
        assert (1 << am.SUBSET_CAP) - 1 <= top and 2**am.SUBSET_CAP <= top


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
        word = reset_word_oracle(letters, n)
        assert am.shortest_reset_word(A) == word
        am.minimal_syn_dfa(A)  # the word minimal_syn_dfa read off its walk
        assert am.shortest_reset_word(A) == word
        if n >= 3:
            # condition 4's table, read off the image table and refined from
            # "is a singleton", against the mask-by-mask collapse DFA
            sizes = am._popcounts(n)[1:]
            labels = _kernels.moore_refine(am._nonempty_subset_trans(A), sizes == 1)
            assert partition(labels[sizes > 1]) == partition(collapse_refinement_oracle(A, nonsingleton_masks(n)))

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
    between them, and the reset word read off each form's arrays."""

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
        states, trans = reach(letters, 4)
        assert states[3:7].tolist() == [0b0010, 0b0100, 0b0001, 0b1000]
        assert _kernels.reset_word_bfs(states, trans) == reset_word_oracle(letters, 4) == [0, 0]

    @pytest.mark.parametrize("batch", [1, 2, 3, 5])
    def test_any_batch_size_gives_the_queue_order(self, batch, monkeypatch):
        # batches of a few states end inside a level or span two levels
        monkeypatch.setattr(_kernels, "WALK_BATCH", batch)
        rng = SplitMix64(batch)
        cases = [am.cerny_automaton(n) for n in (2, 5, 7)]
        cases += [harness.random_automaton(rng, 8, letters) for letters in (1, 2, 3, 3)]
        for A in cases:
            letters = A.letter_array()
            batched = _kernels._reach_batched(letters, A.degree)
            loop = _kernels._reach_loop(letters, A.degree)
            assert_same_arrays(batched, loop)
            word = reset_word_oracle(letters, A.degree)
            assert _kernels.reset_word_bfs(*batched) == _kernels.reset_word_bfs(*loop) == word

    @pytest.mark.parametrize(
        "A, size, length",
        # n = 17: masks past 2^16, so the walk's first-occurrence order
        # leaves the radix order; the random walk's batches repeat masks
        # that differ only above bit 15
        [(am.cerny_automaton(n), (1 << n) - 1, (n - 1) ** 2) for n in range(13, 18)]
        + [
            (nth_random_automaton(SplitMix64(2021), 16, 3, k + 1), size, length)
            for k, (size, length) in enumerate(RANDOM_16_WALKS)
        ]
        + [(nth_random_automaton(SplitMix64(17), 17, 3, 1), 121670, 10)],
        ids=[f"cerny-{n}" for n in range(13, 18)] + [f"random-16-{k}" for k in range(8)] + ["random-17"],
    )
    def test_forms_agree_on_large_tables(self, A, size, length):
        n, letters = A.degree, A.letter_array()
        states, trans = _kernels._reach_loop(letters, n)
        word = reset_word_oracle(letters, n)
        assert len(states) == size and (word if word is None else len(word)) == length
        batched = _kernels._reach_batched(letters, n)
        assert_same_arrays(batched, (states, trans))
        assert _kernels.reset_word_bfs(*batched) == _kernels.reset_word_bfs(states, trans) == word

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


class TestOneWalk:
    """minimal_syn_dfa reads the reset word off its own walk and keeps only
    the word; the shortest_reset_word call that follows on an equal
    automaton takes it, once, and any other call walks on its own."""

    @pytest.fixture
    def walks(self, monkeypatch):
        # the degree of every walk subset_reach makes, from an empty slot
        monkeypatch.setattr(am, "_last_word", None)
        degrees = []

        def spy(letters, n, walk=am.subset_reach):
            degrees.append(n)
            return walk(letters, n)

        monkeypatch.setattr(am, "subset_reach", spy)
        return degrees

    def test_syn_dfa_calls_walk_once(self, walks):
        A = am.cerny_automaton(6)
        word = reset_word_oracle(A.letter_array(), 6)
        assert am.minimal_syn_dfa(A).state_count == 2 ** 6 - 6
        assert am._last_word == (A, word)
        # an equal automaton, not the same object, finds the word
        assert am.shortest_reset_word(am.cerny_automaton(6)) == word
        assert walks == [6] and am._last_word is None

    def test_syn_dfa_command_walks_once(self, walks, capsys, tmp_path):
        A = am.cerny_automaton(7)
        path = tmp_path / "cerny7.aut"
        path.write_text("degree 7\n" + "".join(perm.format_image(f) + "\n" for f in A.letters))
        assert cli.main(["syn-dfa", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reset_word"] == am.word_to_str(reset_word_oracle(A.letter_array(), 7))
        assert walks == [7] and am._last_word is None

    def test_another_automaton_of_the_same_degree_walks_its_own(self, walks):
        A = am.cerny_automaton(6)
        B = SemiAutomaton(6, A.letters[::-1])
        am.minimal_syn_dfa(A)
        word = am.shortest_reset_word(B)
        assert word == reset_word_oracle(B.letter_array(), 6) != reset_word_oracle(A.letter_array(), 6)
        assert walks == [6, 6] and am._last_word is None

    def test_a_word_is_handed_out_once(self, walks):
        A = am.cerny_automaton(6)
        am.minimal_syn_dfa(A)
        word = am.shortest_reset_word(A)
        assert am.shortest_reset_word(A) == word == reset_word_oracle(A.letter_array(), 6)
        assert walks == [6, 6]

    def test_a_construction_in_between_costs_no_second_walk(self, walks):
        # condition 4 refines all nonempty subsets between the two calls;
        # the slot holds a word, no array of the power set
        A = am.cerny_automaton(6)
        am.minimal_syn_dfa(A)
        am.all_nonsingleton_distinguishable_witness(A)
        assert am.shortest_reset_word(A) == reset_word_oracle(A.letter_array(), 6)
        assert walks == [6] and am._last_word is None

    def test_not_synchronizing_through_the_walk(self, walks):
        A = nth_random_automaton(SplitMix64(2021), 16, 3, 6)  # random_16_5 of RANDOM_16_WALKS
        am.minimal_syn_dfa(A)
        assert am.shortest_reset_word(A) is None
        assert walks == [16] and am._last_word is None

    def test_degree_cap(self, walks):
        A = SemiAutomaton(25, (perm.identity(25),))
        for func in (am.minimal_syn_dfa, am.shortest_reset_word):
            with pytest.raises(am.DegreeCapError):
                func(A)
        assert walks == []

    @pytest.mark.parametrize(
        "make",
        [lambda: am.cerny_automaton(14), lambda: nth_random_automaton(SplitMix64(2021), 16, 3, 1)],
        ids=["cerny_14", "random_16_0"],
    )
    def test_no_array_of_the_walk_outlives_the_call(self, make, monkeypatch):
        # the walk of Cerny 14 is 192 KiB of int32 arrays; random_16_0's
        # arrays are views of buffers of 2^16 masks
        monkeypatch.setattr(am, "_last_word", None)
        A = make()
        am.minimal_syn_dfa(A)  # imports and caches of the first call
        monkeypatch.setattr(am, "_last_word", None)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            am.minimal_syn_dfa(A)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024


class TestStableOrder:
    """_stable_order, the order of the walk and of the refinement start
    (a radix order up to 16 bits), against numpy's stable argsort, on
    keys of either side of 16 bits."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_stable_argsort(self, data):
        bits = data.draw(st.integers(1, 32), label="bits")
        top = (1 << bits) - 1
        # few distinct values, so equal keys and keys equal in their low
        # 16 bits come up; 2^16 - 1 and 2^16 straddle the first digit
        value = st.one_of(st.integers(0, top), st.sampled_from([0, top, min(top, 0xFFFF), min(top, 1 << 16)]))
        values = data.draw(st.lists(value, min_size=1, max_size=6), label="values")
        low = data.draw(st.integers(0, 3), label="low digit")
        values += [v & ~0xFFFF | low for v in values]
        dtype = data.draw(st.sampled_from([np.int64] + [np.int32] * (bits < 32)), label="dtype")
        keys = np.array(data.draw(st.lists(st.sampled_from(values), max_size=200), label="keys"), dtype)
        order = _kernels._stable_order(keys, bits)
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()

    @pytest.mark.parametrize("bits", [16, 17, 24, 31])
    def test_large_arrays(self, bits):
        rng = np.random.default_rng(bits)
        keys = rng.integers(0, 1 << bits, 100_000).astype(np.int32)
        keys[::7] &= 0xFFFF  # high digit 0, low digits shared with larger keys
        order = _kernels._stable_order(keys, bits)
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()


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
            merged, init = merge_singletons(*_kernels.subset_reach(A.letter_array(), A.degree))
            assert partition(_kernels.moore_refine(merged, init)) == partition(moore_oracle(merged, init))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cerny_syn_dfa_is_maximal(self, n):
        assert am.minimal_syn_dfa(am.cerny_automaton(n)).state_count == 2 ** n - n

    @pytest.mark.parametrize(
        "A",
        [
            am.build_group_automaton(catalog.cyclic(5), t(1, 1, 2, 3, 4)),
            am.build_group_automaton(catalog.symmetric(4), t(1, 1, 2, 3)),
            SemiAutomaton(3, (t(0, 0, 0),)),
            am.cerny_automaton(6),
            am.cerny_automaton(12),
            nth_random_automaton(SplitMix64(2021), 16, 3, 1),
        ],
        ids=["C5", "S4", "constant", "cerny-6", "cerny-12", "random-16"],
    )
    def test_reachable_singletons_share_one_class(self, A, monkeypatch):
        # minimal_syn_dfa and condition 4 refine their subset tables with no
        # merge, from "is a singleton": the singletons must end in one
        # class, apart from every non-singleton
        refined = []

        def spy(trans, init, refine=am.moore_refine):
            labels = refine(trans, init)
            refined.append(labels)
            return labels

        monkeypatch.setattr(am, "moore_refine", spy)
        am.minimal_syn_dfa(A)
        am.all_nonsingleton_distinguishable_witness(A)
        n = A.degree
        reached, _ = _kernels.subset_reach(A.letter_array(), n)
        for masks, labels in zip((reached, np.arange(1, 1 << n)), refined, strict=True):
            single = (masks & (masks - 1)) == 0
            assert single.any() and len(set(labels[single].tolist())) == 1
            assert labels[single][0] not in labels[~single]


class TestMergedConstructionOracle:
    """minimal_syn_dfa and condition 4 refine the subset tables with no
    merge; the merged construction, every singleton collapsed into one
    accepting sink and refined by moore_oracle, is their oracle."""

    @staticmethod
    def check(A):
        merged, init = merge_singletons(*subset_reach_oracle(A.letter_array(), A.degree))
        summary = am.minimal_syn_dfa(A)
        assert summary.state_count == int(moore_oracle(merged, init).max()) + 1
        assert summary.accepting_count == int(init.any())
        masks = nonsingleton_masks(A.degree)
        labels = collapse_refinement_oracle(A, masks).tolist()
        assert am.all_nonsingleton_distinguishable_witness(A) == first_repeat_oracle(masks, labels)

    @settings(max_examples=300, deadline=None)
    @given(automata(max_states=8))
    def test_drawn_automata(self, A):
        self.check(A)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cerny(self, n):
        self.check(am.cerny_automaton(n))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_random_16(self, k):
        self.check(nth_random_automaton(SplitMix64(2021), 16, 3, k))


def refine_rounds(trans, init):
    """_refine_rounds from init made compact, ranked among its sorted
    distinct values as int32, the labels moore_refine hands it."""
    labels = np.unique(np.asarray(init), return_inverse=True)[1].reshape(-1)
    return _kernels._refine_rounds(np.asarray(trans), labels.astype(np.int32))


def refine_from_start(trans, init):
    """_refine_rounds from the hashed start, however few its rounds."""
    trans, init = np.asarray(trans), np.asarray(init)
    return refine_rounds(trans, _kernels._hashed_start(trans, init)[0])


def refine_live_from(trans, key):
    """_refine_live from the partition of key, its live states those whose
    key another state shares."""
    return _kernels._refine_live(np.asarray(trans), *_kernels._compact(key))


def refine_live_from_start(trans, init):
    """_refine_live from the hashed start, however few its rounds and
    however many states it leaves live."""
    trans, init = np.asarray(trans), np.asarray(init)
    return refine_live_from(trans, _kernels._hashed_start(trans, init)[0])


def is_compact_int32(labels):
    """Whether labels are int32 and take every value 0..k-1, the labels
    _refine_rounds takes."""
    return labels.dtype == np.int32 and np.array_equal(np.unique(labels), np.arange(labels.max() + 1))


REFINE_PATHS = pytest.mark.parametrize(
    "refine",
    [refine_rounds, refine_from_start, refine_live_from_start, _kernels._refine_loop],
    ids=["rounds", "start", "live", "loop"],
)


def spy_on_refinement(monkeypatch):
    """The calls moore_refine makes to _refine_loop, _refine_rounds and
    _refine_live, as (name, args, kwargs), the arrays copied before the
    call, which may refine them in place."""
    called = []
    for name in ("_refine_loop", "_refine_rounds", "_refine_live"):
        def spy(*args, name=name, refine=getattr(_kernels, name), **kwargs):
            called.append((name, tuple(np.copy(a) if isinstance(a, np.ndarray) else a for a in args), kwargs))
            return refine(*args, **kwargs)
        monkeypatch.setattr(_kernels, name, spy)
    return called


class TestRefinementPaths:
    """The refinement paths on their own against the Moore oracle, since
    moore_refine keeps small tables off the rounds and live paths and
    hands on the hashed start only when it took more than two rounds, to
    the live path only when it left fewer than half the states live; and
    the dispatch between them."""

    @staticmethod
    def check(refine, trans, init):
        trans = np.asarray(trans, dtype=np.int32)
        init = np.asarray(init, dtype=np.int64)
        labels = refine(trans, init)
        assert labels.shape == init.shape and labels.dtype == np.int32
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

    @REFINE_PATHS
    def test_a_queued_remainder_split_again_in_its_round(self, refine):
        # Two letters.  The first round splits by block {0, 5, 6, 8, 10}.
        # Letter 0 touches {0, 5, 6, 10} and {2, 3, 4, 7}, so the untouched
        # remainders {8} and {1, 9, 11} keep their block ids and, being the
        # smaller parts, are queued; letter 1 splits {1, 9, 11} again, into
        # {11} and the remainder {1, 9}, which stays queued.  No letter
        # touched 1, 8 or 9, so the rounds path finds the next round's
        # splitter states by a pass over the block labels.
        trans = [[0, 7], [3, 11], [5, 8], [6, 1], [5, 9], [8, 1], [8, 11], [6, 1], [9, 0], [9, 11], [10, 4], [2, 5]]
        init = [0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1]
        labels = self.check(refine, trans, init)
        assert partition(labels) == [[0], [1], [2], [3, 7], [4], [5], [6], [8], [9], [10], [11]]
        if refine is refine_rounds:
            # the ids follow the rounds' splits: key order, then the worklist
            assert labels.tolist() == [2, 1, 5, 9, 3, 7, 8, 9, 0, 6, 10, 4]

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
        assert labels.dtype == np.int32 and labels.shape == (len(init),)
        assert partition(labels) == want == partition(moore_oracle(trans, init))
        assert sorted(set(labels.tolist())) == list(range(len(want)))

    @staticmethod
    def syn_dfa_table(A):
        return merge_singletons(*_kernels.subset_reach(A.letter_array(), A.degree))

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
        # at the threshold the start splits every state of this table apart,
        # which leaves no live state, and _refine_live finishes at once
        rows = _kernels.ROUNDS_MIN_ROWS + offset
        rng = np.random.default_rng(rows)
        trans = rng.integers(0, rows, (rows, 2)).astype(np.int32)
        init = rng.integers(0, 3, rows)
        called = spy_on_refinement(monkeypatch)
        labels = _kernels.moore_refine(trans, init)
        assert [name for name, _, _ in called] == ["_refine_loop" if offset < 0 else "_refine_live"]
        assert partition(labels) == partition(moore_oracle(trans, init))

    @pytest.mark.parametrize("offset", [-1, 0], ids=["below", "at"])
    def test_one_label_skips_the_rounds_path(self, offset, monkeypatch):
        # the Syn-DFA table of a non-synchronizing automaton has no
        # accepting state: one initial label, and nothing to split
        rows = _kernels.ROUNDS_MIN_ROWS + offset
        rng = np.random.default_rng(rows)
        trans = rng.integers(0, rows, (rows, 3)).astype(np.int32)
        init = np.full(rows, 5)
        called = spy_on_refinement(monkeypatch)
        labels = _kernels.moore_refine(trans, init)
        assert [name for name, _, _ in called] == (["_refine_loop"] if offset < 0 else [])
        assert labels.dtype == np.int32 and labels.tolist() == [0] * rows

    @pytest.mark.parametrize(
        "table, A, route",
        [
            ("syn-dfa", am.cerny_automaton(10), ["_refine_loop"]),
            ("one-label", None, []),
            ("syn-dfa", am.cerny_automaton(12), ["_refine_rounds"]),
            ("syn-dfa", nth_random_automaton(SplitMix64(2021), 16, 3, 1), ["_refine_live"]),
            ("syn-dfa", am.build_group_automaton(catalog.alternating(12), t(1, 1, *range(2, 12))), ["_refine_rounds"]),
            ("cardinality", am.build_group_automaton(catalog.dihedral(13), t(1, 1, *range(2, 13))), ["_refine_live"]),
        ],
        ids=["below", "one-label", "cerny-12", "random-16", "far-A12", "cardinality-D13"],
    )
    def test_moore_refine_leaves_init_labels_unchanged(self, table, A, route, monkeypatch):
        # a bool init_labels is the hashed start's label, a view of it, and
        # _refine_rounds and _refine_live refine their labels in place and
        # return them: the labels must be a compact int32 array of their own
        if table == "syn-dfa":
            trans, init = TestHashedStart.syn_dfa_table(A)
        elif table == "cardinality":
            trans, init = self.cardinality_table(A)
        else:
            trans = np.random.default_rng(5).integers(0, 4096, (4096, 2)).astype(np.int32)
            init = np.zeros(len(trans), bool)
        given = init.copy()
        called = spy_on_refinement(monkeypatch)
        labels = _kernels.moore_refine(trans, init)
        assert [name for name, _, _ in called] == route
        assert init.dtype == given.dtype and np.array_equal(init, given)
        assert is_compact_int32(labels) and not np.shares_memory(labels, init)

    def test_start_and_paths_past_16_bits(self):
        # more than 2^16 rows: the preimage CSR orders targets of 17 bits
        rows = (1 << 16) + 4_000
        rng = np.random.default_rng(17)
        trans = rng.integers(0, rows, (rows, 2)).astype(np.int32)
        trans[::3, 0] &= 0xFFFF  # targets below 2^16 beside larger ones of the same low digit
        init = rng.integers(0, 3, rows)
        _, pre, off = _kernels._initial_partition(trans, init.astype(np.int32))
        for target, pre_l, off_l in zip(trans.T, pre, off):
            assert pre_l.dtype == off_l.dtype == np.int32
            assert pre_l.tolist() == np.argsort(target, kind="stable").tolist()
            assert off_l.tolist() == [0] + np.cumsum(np.bincount(target, minlength=rows)).tolist()
        labels = refine_rounds(trans, init)
        assert partition(labels) == partition(_kernels._refine_loop(trans, init))

    # The Cerny tables queue no untouched remainder, so every round after
    # the first takes its splitter states from the states the last round
    # touched; the random ones queue some, and 4 of the 13 rounds of the
    # n = 16 one, the first included, take them from a pass over the block
    # labels.  The digest pins the rounds path's labels, whose ids follow
    # the key order and the worklist rule.
    @pytest.mark.parametrize(
        "A, queues_remainders, digest",
        [
            (am.cerny_automaton(11), False, "ce10da4769f535592794e3656d779effdaebfcbe16a46dbab2afaffb68858188"),
            (am.cerny_automaton(12), False, "917f431cdb589b47c3b843efe7c78b2e94038df9a4b0a7f04c42cf373f86c863"),
            (am.cerny_automaton(13), False, "074036858d0236f541d8763e913c76c655c2a78937991604d4f3f95633aa4e5a"),
            (am.cerny_automaton(14), False, "d211ff0f5ea32776fa1befc920eea89c0feabcb28fa4e4163b2f749f68c4c328"),
            # 3 786 rows once its singletons are merged
            (
                nth_random_automaton(SplitMix64(2021), 12, 3, 4),
                True,
                "faabb515a1479c7992824a72e70fedf603c4813b384f5b40ee4b7fddbc1ec28a",
            ),
            (
                nth_random_automaton(SplitMix64(2021), 16, 3, 1),
                True,
                "e11e969d5b04960dd15d9791ccc18aaaaae5ed7bf2dd584b9f0c2ce8c6d3a43b",
            ),
        ],
        ids=["cerny-11", "cerny-12", "cerny-13", "cerny-14", "random-12", "random-16"],
    )
    def test_merged_syn_dfa_tables_near_and_above_the_threshold(self, A, queues_remainders, digest, monkeypatch):
        merged, init = self.syn_dfa_table(A)
        assert len(merged) > _kernels.ROUNDS_MIN_ROWS - 100
        queued = []

        def spy(*args, split=_kernels._split):
            count, queued_rest = split(*args)
            queued.append(queued_rest)
            return count, queued_rest

        monkeypatch.setattr(_kernels, "_split", spy)
        want = partition(moore_oracle(merged, init))
        rounds, loop, dispatched = (
            refine(merged, init) for refine in (refine_rounds, _kernels._refine_loop, _kernels.moore_refine)
        )
        assert partition(rounds) == partition(loop) == partition(dispatched) == want
        assert any(queued) == queues_remainders
        assert hashlib.sha256(rounds.astype("<i8").tobytes()).hexdigest() == digest


class TestHashedStart:
    """_hashed_start, the start moore_refine hands _refine_rounds: it must
    refine init_labels and split no class of the coarsest stable
    partition, whatever its hash does."""

    @staticmethod
    def syn_dfa_table(A):
        # the table minimal_syn_dfa refines: no merge, "is a singleton"
        states, trans = _kernels.subset_reach(A.letter_array(), A.degree)
        return trans, (states & (states - 1)) == 0

    @staticmethod
    def refines(labels, coarser):
        # every class of labels lies inside one class of coarser
        return all(len(set(coarser[block].tolist())) == 1 for block in partition(labels))

    @pytest.mark.parametrize(
        "table, A",
        [
            ("syn-dfa", nth_random_automaton(SplitMix64(2021), 12, 3, 4)),
            ("syn-dfa", nth_random_automaton(SplitMix64(2021), 14, 3, 2)),
            ("syn-dfa", am.cerny_automaton(12)),
            ("cardinality", am.build_group_automaton(catalog.symmetric(12), t(1, 1, *range(2, 12)))),
        ],
        ids=["random-12", "random-14", "cerny-12", "cardinality-S12"],
    )
    def test_every_state_colliding(self, table, A, monkeypatch):
        # a hash under which every state collides in every round: only the
        # pairing with the initial label keeps the initial classes apart
        if table == "syn-dfa":
            trans, init = self.syn_dfa_table(A)
        else:
            trans, init = TestRefinementPaths.cardinality_table(A)
        assert len(trans) >= _kernels.ROUNDS_MIN_ROWS
        want = partition(moore_oracle(trans, init))
        monkeypatch.setattr(_kernels, "_hash_round", lambda trans, label, h, out, step: out.fill(0))
        key, _, label = _kernels._hashed_start(trans, init)
        assert key.dtype == np.uint64 and partition(key) == partition(init)
        assert partition(refine_rounds(trans, key)) == want
        assert partition(refine_live_from(trans, key)) == want
        assert partition(_kernels.moore_refine(trans, init)) == want
        # the same start as if it had run to its round cap: most states are
        # live, and _refine_rounds starts from its compact labels
        cap = len(trans).bit_length()
        monkeypatch.setattr(_kernels, "_hashed_start", lambda trans, init: (key, cap, label))
        called = spy_on_refinement(monkeypatch)
        assert partition(_kernels.moore_refine(trans, init)) == want
        [(name, args, kwargs)] = called
        assert name == "_refine_rounds" and not kwargs
        assert is_compact_int32(args[1]) and partition(args[1]) == partition(init)

    # Cerny 3-12 and the eight random n = 16 automata of the benchmark
    @pytest.mark.parametrize(
        "A",
        [am.cerny_automaton(n) for n in range(3, 13)]
        + [nth_random_automaton(SplitMix64(2021), 16, 3, k) for k in range(1, 9)],
        ids=[f"cerny-{n}" for n in range(3, 13)] + [f"random-16-{k}" for k in range(1, 9)],
    )
    def test_constant_on_every_oracle_class(self, A):
        trans, init = self.syn_dfa_table(A)
        key = _kernels._hashed_start(trans, init)[0]
        assert self.refines(moore_oracle(trans, init), key) and self.refines(key, init)

    @pytest.mark.parametrize(
        "A, route",
        [(am.cerny_automaton(n), "init") for n in (12, 13)]
        + [(am.build_group_automaton(catalog.dihedral(12), t(1, 1, *range(2, 12))), "init")]
        + [(nth_random_automaton(SplitMix64(2021), 16, 3, k), "live") for k in (1, 2, 3, 4)]
        + [(am.build_group_automaton(catalog.alternating(n), t(1, 1, *range(2, n))), "compact") for n in (12, 14)],
        ids=["cerny-12", "cerny-13", "D12"] + [f"random-16-{k}" for k in (1, 2, 3, 4)] + ["A12", "A14"],
    )
    def test_moore_refine_hands_on_a_start_of_more_than_two_rounds(self, A, route, monkeypatch):
        # The Cerny tables gain one class a round, and so does the D12 table
        # in its first two: the start stops after the second, and
        # _refine_rounds starts from init_labels.  The random tables grow
        # geometrically, and the start leaves fewer than half their states
        # live: _refine_live finishes it.  A_n plus 1 1 2 ... gains classes
        # up to the round cap but ends far from the final partition, with
        # most states live: _refine_rounds starts from the compact start.
        trans, init = self.syn_dfa_table(A)
        key, rounds, _ = _kernels._hashed_start(trans, init)
        called = spy_on_refinement(monkeypatch)
        labels = _kernels.moore_refine(trans, init)
        [(name, args, kwargs)] = called
        assert (rounds > 2) == (route != "init")
        if route == "init":
            assert name == "_refine_rounds" and not kwargs
            assert is_compact_int32(args[1]) and (args[1] == init).all()
        elif route == "live":
            assert name == "_refine_live" and 2 * len(args[2]) < len(trans)
        else:
            assert name == "_refine_rounds" and not kwargs
            assert is_compact_int32(args[1]) and partition(args[1]) == partition(key)
        assert partition(labels) == partition(moore_oracle(trans, init))


class TestRefineLive:
    """_refine_live, the finish of a start that leaves few states live,
    against the Moore oracle: from the hashed start and from starts whose
    keys merge some classes of the oracle's partition, paired with the
    initial label in their low bits, as a colliding hash would."""

    @staticmethod
    def colliding_key(final, init, merged):
        # the oracle's classes merged modulo merged, apart by initial label
        label = np.unique(np.asarray(init), return_inverse=True)[1].reshape(-1)
        return (final % merged).astype(np.uint64) << np.uint64(16) | label.astype(np.uint64)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_complete_dfas_from_colliding_starts(self, data):
        S = data.draw(st.integers(1, 40), label="states")
        L = data.draw(st.integers(1, 3), label="letters")
        K = data.draw(st.integers(1, 4), label="initial labels")
        merged = data.draw(st.integers(1, 5), label="merged")
        state = st.integers(0, S - 1)
        trans = np.array(data.draw(st.lists(st.lists(state, min_size=L, max_size=L), min_size=S, max_size=S)), np.int32)
        init = np.array(data.draw(st.lists(st.integers(0, K - 1), min_size=S, max_size=S)))
        key = self.colliding_key(moore_oracle(trans, init), init, merged)
        TestRefinementPaths.check(lambda trans, init: refine_live_from(trans, key), trans, init)

    # the four random n = 16 tables of the benchmark that reach 2 048 rows,
    # on which moore_refine takes _refine_live, and condition 5's table of
    # D13 plus 1 1 2 ... (every nonempty subset, labelled by its size)
    @pytest.mark.parametrize(
        "table, A",
        [("syn-dfa", nth_random_automaton(SplitMix64(2021), 16, 3, k)) for k in (1, 2, 3, 4)]
        + [("cardinality", am.build_group_automaton(catalog.dihedral(13), t(1, 1, *range(2, 13))))],
        ids=[f"random-16-{k}" for k in (1, 2, 3, 4)] + ["cardinality-D13"],
    )
    def test_large_tables(self, table, A):
        if table == "syn-dfa":
            trans, init = TestHashedStart.syn_dfa_table(A)
        else:
            trans, init = TestRefinementPaths.cardinality_table(A)
        final = moore_oracle(trans, init)
        want = partition(final)
        starts = [_kernels._hashed_start(trans, init)[0]]
        starts += [self.colliding_key(final, init, merged) for merged in (1, 2, 7)]
        for key in starts:
            labels = refine_live_from(trans, key)
            assert labels.dtype == np.int32 and partition(labels) == want
            assert sorted(set(labels.tolist())) == list(range(len(want)))


class TestWitnessHelpers:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=12))
    def test_first_repeat_matches_the_seen_dict_loop(self, labels):
        masks = np.arange(3, 3 + len(labels))
        assert am._first_repeat(masks, np.array(labels, dtype=np.int64)) == first_repeat_oracle(masks, labels)

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
