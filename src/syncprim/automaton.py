"""Semi-automata on [n]: the power automaton, synchronization tests,
reset words, the minimal DFA of the synchronizing language, complete
reachability, and distinguishability of state subsets.

Subsets of states are n-bit masks.  A word is a list of letter indices,
read left to right: the first letter acts first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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


def _check_subset_cap(A: SemiAutomaton):
    if A.degree > SUBSET_CAP:
        raise DegreeCapError(
            f"degree {A.degree} exceeds power-set cap {SUBSET_CAP}"
        )


def build_subset_automaton(A: SemiAutomaton) -> tuple[np.ndarray, np.ndarray]:
    """The reachable part of the power automaton, as subset_reach gives it:
    the masks in BFS order, full set first, as int64, and the (S, L) int32
    successor indices.  Subject to the power-set cap."""
    _check_subset_cap(A)
    return subset_reach(A.letter_array(), A.degree)


def is_completely_reachable(A: SemiAutomaton) -> bool:
    states, _ = build_subset_automaton(A)
    return len(states) == (1 << A.degree) - 1


def is_synchronizing_pairs(A: SemiAutomaton) -> bool:
    """Cerny pair criterion: every state pair can be merged by some word."""
    return bool(pair_merge_table(A.letter_array(), A.degree).all())


def shortest_reset_word(A: SemiAutomaton) -> Optional[list[int]]:
    """A minimum-length synchronizing word, lexicographically smallest
    among the minimal ones; None when the automaton is not synchronizing."""
    _check_subset_cap(A)
    return reset_word_bfs(A.letter_array(), A.degree)


def _merged_syn_dfa(states: np.ndarray, trans: np.ndarray):
    """Collapse all singleton subset states into one accepting sink.

    states, trans: the reachable subset automaton as subset_reach gives it.
    Returns (trans, accepting_index or None).  Sound because a singleton
    image stays a singleton under every letter.
    """
    single = (states & (states - 1)) == 0
    if not single.any():
        return trans, None
    keep = ~single
    acc = int(np.count_nonzero(keep))
    remap = np.cumsum(keep, dtype=np.int32) - 1
    remap[single] = acc
    merged = np.empty((acc + 1, trans.shape[1]), dtype=np.int32)
    merged[:acc] = remap[trans[keep]]
    merged[acc] = acc  # accepting sink: singletons only map to singletons
    return merged, acc


def minimal_syn_dfa(A: SemiAutomaton, method: str = "refine") -> DfaSummary:
    """Size of the minimal DFA of the synchronizing language of A.

    Built from the reachable subset automaton with all singleton states
    merged into one accepting state, then minimized.  method="refine" uses
    Hopcroft partition refinement; method="pairwise" counts classes through
    the independent pairwise-marking oracle.  When the language is empty
    every state is equivalent and the count is 1 (the dead sink).
    """
    _check_subset_cap(A)
    trans, acc = _merged_syn_dfa(*subset_reach(A.letter_array(), A.degree))
    init = np.zeros(trans.shape[0], dtype=np.int64)
    if acc is not None:
        init[acc] = 1
    if method == "refine":
        labels = moore_refine(trans, init)
    elif method == "pairwise":
        labels = _pairwise_classes(trans, init)
    else:
        raise ValueError(f"unknown method {method!r}")
    return DfaSummary(int(labels.max()) + 1, 0 if acc is None else 1)


def _pairwise_classes(trans: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Equivalence classes by iterated pairwise marking (table filling).

    Independent oracle for the partition refinement path: a pair is marked
    when its initial labels differ, or when some letter sends it to a
    marked pair; rounds repeat until none marks a new pair.
    """
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


def _collapse_refinement(A: SemiAutomaton, masks: list[int]) -> np.ndarray:
    """Refinement labels for the collapse DFA over the given non-singleton
    masks.

    States are the masks plus one absorbing sink entered when an image
    drops out of the mask list (i.e. becomes a singleton).  Returns the
    labels of the masks, aligned to `masks`.  Used on the C(n,2)
    2-subsets, so it never builds a 2^n table.
    """
    index = {m: i for i, m in enumerate(masks)}
    sink = len(masks)
    L = len(A.letters)
    trans = np.empty((sink + 1, L), dtype=np.int32)
    for i, m in enumerate(masks):
        for l, t in enumerate(A.letters):
            img = t.apply_mask(m)
            trans[i, l] = index.get(img, sink)
    trans[sink] = sink
    return _sink_refinement(trans, sink)


def _sink_refinement(trans: np.ndarray, sink: int) -> np.ndarray:
    """Refinement labels of a collapse DFA whose last state, sink, is the
    only accepting one; returns the labels of the states before it."""
    init = np.zeros(sink + 1, dtype=np.int64)
    init[sink] = 1
    return moore_refine(trans, init)[:sink]


def _nonempty_subset_trans(A: SemiAutomaton) -> np.ndarray:
    """Transitions between all nonempty masks 1..2^n-1, where mask m is
    state m - 1; a letter's image of a nonempty mask is nonempty."""
    return image_table(A.letter_array(), A.degree)[:, 1:].T - 1


def _all_2subset_masks(n: int) -> list[int]:
    return [(1 << a) | (1 << b) for a in range(n) for b in range(a + 1, n)]


def all_2subsets_distinguishable(
    A: SemiAutomaton,
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int]]]]:
    """Whether every two distinct 2-subsets are distinguishable, i.e. some
    word maps exactly one of them to a singleton.

    Works on the C(n,2)-state collapse DFA, so it never builds the power
    set.  The witness is the first indistinguishable pair in lexicographic
    order."""
    n = A.degree
    masks = _all_2subset_masks(n)
    if len(masks) < 2:
        return True, None
    labels = _collapse_refinement(A, masks)
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if labels[i] == labels[j]:
                return False, (mask_to_set(masks[i]), mask_to_set(masks[j]))
    return True, None


def disjoint_2subsets_distinguishable(
    A: SemiAutomaton,
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int]]]]:
    """Variant quantified over disjoint 2-subsets only."""
    masks = _all_2subset_masks(A.degree)
    if len(masks) < 2:
        return True, None
    labels = _collapse_refinement(A, masks)
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j]:
                continue
            if labels[i] == labels[j]:
                return False, (mask_to_set(masks[i]), mask_to_set(masks[j]))
    return True, None


def _nonsingleton_masks(n: int) -> list[int]:
    return [m for m in range(1, 1 << n) if m & (m - 1)]


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


def all_nonsingleton_distinguishable(A: SemiAutomaton) -> bool:
    ok, _ = all_nonsingleton_distinguishable_witness(A)
    return ok


def all_nonsingleton_distinguishable_witness(
    A: SemiAutomaton,
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int]]]]:
    """Whether every two distinct subsets of size >= 2 are distinguishable.

    Enumerates all 2^n - n - 1 non-singleton subsets, hence subject to the
    power-set cap.  The witness pairs the first subset, in mask order,
    that an earlier one cannot be told from with the first such earlier
    subset."""
    _check_subset_cap(A)
    masks = np.arange(1, 1 << A.degree)
    big = (masks & (masks - 1)) != 0
    # the collapse DFA over all non-singletons is the merged Syn-DFA of the
    # whole power set: kept rows in mask order, then the sink
    trans, sink = _merged_syn_dfa(masks, _nonempty_subset_trans(A))
    return _first_repeat(masks[big], _sink_refinement(trans, sink))


def different_cardinality_reachable(A: SemiAutomaton) -> bool:
    ok, _ = different_cardinality_reachable_witness(A)
    return ok


def different_cardinality_reachable_witness(
    A: SemiAutomaton,
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int]]]]:
    """Whether every two distinct non-singleton subsets can be mapped to
    images of different cardinality by some monoid element.

    Two subsets fail exactly when their image cardinalities agree under
    every word, i.e. when partition refinement with the cardinality as
    the initial label cannot separate them.  The witness is chosen as in
    all_nonsingleton_distinguishable_witness."""
    _check_subset_cap(A)
    masks = np.arange(1, 1 << A.degree)
    sizes = _popcounts(A.degree)[1:]
    labels = moore_refine(_nonempty_subset_trans(A), sizes)
    big = sizes > 1
    return _first_repeat(masks[big], labels[big])


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
