"""Semi-automata on [n]: the power automaton, synchronization tests,
reset words, the minimal DFA of the synchronizing language, complete
reachability, and distinguishability of state subsets.

Subsets of states are n-bit masks.  A word is a list of letter indices,
read left to right: the first letter acts first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from . import perm
from ._kernels import image_table, moore_refine, pair_merge_table, reset_word_bfs, subset_reach
from .group import GroupSpec
from .perm import ParseError, Transformation

# Any construction touching the power set stays below one 2^n table.
SUBSET_CAP = 24


class DegreeCapError(ValueError):
    pass


@dataclass(frozen=True)
class SemiAutomaton:
    degree: int
    letters: tuple[Transformation, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("at least one letter required")
        for t in self.letters:
            if t.degree != self.degree:
                raise perm.DegreeMismatchError("degree mismatch")

    def letter_array(self) -> np.ndarray:
        return np.array([t.image for t in self.letters], dtype=np.int64)

    def apply_word_mask(self, mask: int, word) -> int:
        for x in word:
            mask = self.letters[x].apply_mask(mask)
        return mask


@dataclass(frozen=True)
class DfaSummary:
    state_count: int
    accepting_count: int


def build_group_automaton(G: GroupSpec, f: Transformation) -> SemiAutomaton:
    """Letters are the generators of G in order, then f."""
    if f.degree != G.degree:
        raise perm.DegreeMismatchError("degree mismatch")
    return SemiAutomaton(G.degree, G.generators + (f,))


# The reset word minimal_syn_dfa read off its walk, as (A, word), for the
# shortest_reset_word call that follows it on an equal automaton, as in
# `syncprim syn-dfa`.  shortest_reset_word takes it, so a word is handed
# out at most once; the walk itself dies with the minimal_syn_dfa call.
_last_word = None


def _check_cap(A: SemiAutomaton) -> None:
    if A.degree > SUBSET_CAP:
        raise DegreeCapError(
            f"degree {A.degree} exceeds power-set cap {SUBSET_CAP}"
        )


def build_subset_automaton(A: SemiAutomaton) -> tuple[np.ndarray, np.ndarray]:
    """The reachable part of the power automaton, as subset_reach gives it:
    the masks in BFS order, full set first, and the (S, L) successor
    indices.  Subject to the power-set cap."""
    _check_cap(A)
    return subset_reach(A.letter_array(), A.degree)


def is_completely_reachable(A: SemiAutomaton) -> bool:
    states, _ = build_subset_automaton(A)
    return len(states) == (1 << A.degree) - 1


def is_synchronizing_pairs(A: SemiAutomaton) -> bool:
    """Cerny pair criterion: every state pair can be merged by some word."""
    return bool(pair_merge_table(A.letter_array(), A.degree).all())


def shortest_reset_word(A: SemiAutomaton) -> Optional[list[int]]:
    """A minimum-length synchronizing word, lexicographically smallest
    among the minimal ones; None when the automaton is not synchronizing.

    The word the last minimal_syn_dfa call read off its walk, when that
    call was on an equal automaton and no shortest_reset_word call has
    taken the word since; else read off a walk of its own."""
    global _last_word
    kept, _last_word = _last_word, None
    if kept is not None and kept[0] == A:
        return kept[1]
    return reset_word_bfs(*build_subset_automaton(A))


def _syn_dfa(A: SemiAutomaton) -> tuple[DfaSummary, np.ndarray, np.ndarray]:
    """minimal_syn_dfa's summary, with the walk it refined: the states and
    transitions of build_subset_automaton."""
    states, trans = build_subset_automaton(A)
    single = (states & (states - 1)) == 0
    labels = moore_refine(trans, single)
    return DfaSummary(int(labels.max()) + 1, int(single.any())), states, trans


def minimal_syn_dfa(A: SemiAutomaton) -> DfaSummary:
    """Size of the minimal DFA of the synchronizing language of A.

    Hopcroft partition refinement of the reachable subset automaton, with
    "is a singleton" as the initial label.  A singleton only maps to
    singletons, so the reachable singletons stay one class: the one
    accepting state of the 2^n - n bound, with no table merged.  When the
    language is empty every state is equivalent and the count is 1 (the
    dead sink).  The reset word is read off the same walk and kept in
    _last_word for shortest_reset_word; no array of the walk is kept.
    """
    global _last_word
    summary, states, trans = _syn_dfa(A)
    _last_word = A, reset_word_bfs(states, trans)
    return summary


def _nonempty_subset_trans(A: SemiAutomaton) -> np.ndarray:
    """Transitions between all nonempty masks 1..2^n-1, where mask m is
    state m - 1; a letter's image of a nonempty mask is nonempty."""
    return image_table(A.letter_array(), A.degree)[:, 1:].T - 1


def _2subset_labels(A: SemiAutomaton) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2-subsets {a[i], b[i]} in lexicographic order and their
    refinement labels in the collapse DFA: one state per 2-subset plus an
    absorbing sink entered when an image becomes a singleton.  Never builds
    the power set."""
    n = A.degree
    a, b = np.array(list(combinations(range(n), 2)), np.intp).reshape(-1, 2).T
    sink = len(a)
    # index[x, y]: the state of {x, y}; the diagonal, a singleton, is the sink
    index = np.full((n, n), sink, np.int32)
    index[a, b] = index[b, a] = np.arange(sink, dtype=np.int32)
    letters = A.letter_array()
    trans = np.empty((sink + 1, len(letters)), np.int32)
    trans[:sink] = index[letters[:, a], letters[:, b]].T
    trans[sink] = sink
    return a, b, moore_refine(trans, np.arange(sink + 1) == sink)[:sink]


def _first_pair(
    a: np.ndarray, b: np.ndarray, candidates: np.ndarray
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int]]]]:
    """(True, None) when no two distinct 2-subsets are candidates.
    Otherwise False and the first candidate pair in lexicographic order.

    candidates is a symmetric boolean matrix over the 2-subsets; its
    diagonal is overwritten.  With a false diagonal, the first true entry
    in row-major order lies above the diagonal: an entry (i, j) with j < i
    would mirror a true entry in the earlier row j."""
    np.fill_diagonal(candidates, False)
    k = int(candidates.argmax())
    if not candidates.flat[k]:
        return True, None
    i, j = divmod(k, len(a))
    return False, (frozenset((int(a[i]), int(b[i]))), frozenset((int(a[j]), int(b[j]))))


def all_2subsets_distinguishable(
    A: SemiAutomaton,
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int]]]]:
    """Whether every two distinct 2-subsets are distinguishable, i.e. some
    word maps exactly one of them to a singleton.

    Works on the C(n,2)-state collapse DFA, so it never builds the power
    set.  The witness is the first indistinguishable pair in lexicographic
    order."""
    if A.degree < 3:
        return True, None
    a, b, labels = _2subset_labels(A)
    if np.bincount(labels).max() == 1:
        return True, None
    return _first_pair(a, b, labels[:, None] == labels)


def disjoint_2subsets_distinguishable(
    A: SemiAutomaton,
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int]]]]:
    """Variant quantified over disjoint 2-subsets only."""
    if A.degree < 3:
        return True, None
    a, b, labels = _2subset_labels(A)
    if np.bincount(labels).max() == 1:
        return True, None
    points = np.arange(A.degree)[:, None]
    on = (points == a) | (points == b)
    meets = on[a] | on[b]  # meets[i, j]: 2-subsets i and j share a point
    return _first_pair(a, b, (labels[:, None] == labels) & ~meets)


def _popcounts(n: int) -> np.ndarray:
    """The number of points in every mask below 2^n, filled by doubling on
    the top bit like image_table."""
    counts = np.zeros(1 << n, np.int8)
    for i in range(n):
        counts[1 << i : 2 << i] = counts[: 1 << i] + 1
    return counts


def _first_repeat(
    masks: np.ndarray, labels: np.ndarray
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int]]]]:
    """(True, None) when the masks' labels all differ.  Otherwise False and
    a pair of sets: the first mask whose label already occurred, after the
    first mask with that label."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    earlier = first[inverse.reshape(-1)]
    repeats = np.flatnonzero(earlier != np.arange(len(labels)))
    if not len(repeats):
        return True, None
    j = repeats[0]
    return False, (mask_to_set(int(masks[earlier[j]])), mask_to_set(int(masks[j])))


def _first_inseparable(
    A: SemiAutomaton, initial
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int]]]]:
    """Refine the table of all nonempty subsets from initial(sizes), labels
    computed from the subset sizes, and return _first_repeat over the
    subsets of size >= 2.  Subject to the power-set cap."""
    _check_cap(A)
    masks = np.arange(1, 1 << A.degree)
    sizes = _popcounts(A.degree)[1:]
    labels = moore_refine(_nonempty_subset_trans(A), initial(sizes))
    big = sizes > 1
    return _first_repeat(masks[big], labels[big])


def all_nonsingleton_distinguishable_witness(
    A: SemiAutomaton,
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int]]]]:
    """Whether every two distinct subsets of size >= 2 are distinguishable.

    Refines all 2^n - 1 nonempty subsets with "is a singleton" as the
    initial label, hence subject to the power-set cap; the singletons
    stay one class, as in minimal_syn_dfa.  The witness pairs the first
    subset, in mask order, that an earlier one cannot be told from with
    the first such earlier subset."""
    return _first_inseparable(A, lambda sizes: sizes == 1)


def different_cardinality_reachable_witness(
    A: SemiAutomaton,
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int]]]]:
    """Whether every two distinct non-singleton subsets can be mapped to
    images of different cardinality by some monoid element.

    Two subsets fail exactly when their image cardinalities agree under
    every word, i.e. when partition refinement with the cardinality as
    the initial label cannot separate them.  The witness is chosen as in
    all_nonsingleton_distinguishable_witness."""
    return _first_inseparable(A, lambda sizes: sizes)


def distinguish_witness(A: SemiAutomaton, S: frozenset[int], T: frozenset[int]) -> Optional[list[int]]:
    """A shortest word mapping exactly one of S, T to a singleton.

    BFS on the product of the two collapse runs, letters in order, so the
    returned word is lexicographically smallest among the shortest ones.
    Returns None when no such word exists."""
    n = A.degree
    for X in (S, T):
        if len(X) < 2:
            raise ValueError("sets must have size at least 2")
        for p in X:
            if not 0 <= p < n:
                raise ValueError(f"point {p} outside [0, {n})")
    if S == T:
        return None
    ms = _set_to_mask(S)
    mt = _set_to_mask(T)
    start = (ms, mt)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        a, b = state
        for l, t in enumerate(A.letters):
            ia = t.apply_mask(a)
            ib = t.apply_mask(b)
            sa = not ia & (ia - 1)
            sb = not ib & (ib - 1)
            nxt = (ia, ib)
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (state, l)
            if sa != sb:
                word = [l]
                cur = state
                while cur != start:
                    cur, lx = parent[cur]
                    word.append(lx)
                word.reverse()
                return word
            if sa and sb:
                continue  # both collapsed: dead
            if ia == ib:
                continue  # equal forever: dead
            queue.append(nxt)
    return None


def _set_to_mask(S) -> int:
    m = 0
    for p in S:
        m |= 1 << p
    return m


def mask_to_set(mask: int) -> frozenset[int]:
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def mask_to_str(mask: int) -> str:
    return set_to_str(mask_to_set(mask))


def set_to_str(S) -> str:
    return "{" + ",".join(str(p) for p in sorted(S)) + "}"


def parse_set(text: str, n: int) -> frozenset[int]:
    """Parse a point set like "{0,2}"."""
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ParseError(f"not a set: {text!r}")
    body = t[1:-1].strip()
    if not body:
        return frozenset()
    try:
        points = [int(tok) for tok in body.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad set {text!r}") from exc
    for p in points:
        if not 0 <= p < n:
            raise ParseError(f"point {p} outside [0, {n})")
    return frozenset(points)


def word_to_str(word) -> str:
    return " ".join(str(x) for x in word)


def parse_automaton_file(text: str) -> SemiAutomaton:
    """Parse the .aut format: "degree n" then one letter (image list) per line."""
    degree, body = perm.parse_degree_header(text)
    letters: list[Transformation] = []
    for lineno, line in body:
        try:
            letters.append(perm.parse_image(line, degree))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not letters:
        raise ParseError("no letters given")
    return SemiAutomaton(degree, tuple(letters))


def cerny_automaton(n: int) -> SemiAutomaton:
    """The classic slowly synchronizing family: a cyclic shift plus a letter
    merging 0 into 1; shortest reset word has length (n-1)^2."""
    if n < 2:
        raise ValueError("need n >= 2")
    shift = Transformation(tuple((i + 1) % n for i in range(n)))
    merge = Transformation((1,) + tuple(range(1, n)))
    return SemiAutomaton(n, (shift, merge))
