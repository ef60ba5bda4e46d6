"""Hot numeric kernels: the power-set walk, reset words, the pair table
and partition refinement, in plain Python and numpy.

image_table is the one place that knows how a letter acts on a subset
bitmask: it tabulates every letter's image of every mask, so the
breadth-first walk over the power set (subset_reach) is a table lookup
per transition, and the reset-word search reads its answer off that walk.
The pair table (pair_merge_table) is a backward BFS over state pairs that
never builds the power set.  Partition refinement (Hopcroft's algorithm,
moore_refine) runs over flat array('i') buffers.
benchmarks/bench_kernels.py times the kernels.
"""

from __future__ import annotations

from array import array

import numpy as np

# There is no compiled backend; the flag stays because perfbench/run.py
# reads it to name the backend in its environment record.
USE_NUMBA = False


def image_table(letters, n):
    """img[l, m], the image of subset mask m under letter l, for all 2^n
    masks, as an (L, 2^n) int32 array.

    letters: (L, n) int array of point images.  Filled by doubling on the
    top bit: the masks in [2^i, 2^(i+1)) are the masks below 2^i plus
    point i, so their images are those images plus the image of i.
    """
    letters = np.asarray(letters)
    img = np.zeros((letters.shape[0], 1 << n), np.int32)
    for i in range(n):
        img[:, 1 << i : 2 << i] = img[:, : 1 << i] | (1 << letters[:, i, None]).astype(np.int32)
    return img


def subset_reach(letters, n):
    """BFS over subset bitmasks from the full set.

    letters: (L, n) int array of point images.
    Returns (states, trans): masks in BFS order (full set first) as int64,
    and the (S, L) int32 per-state per-letter successor indices.
    """
    L = len(letters)
    tab = [memoryview(row) for row in image_table(letters, n)]
    full = (1 << n) - 1
    index = array("i", [-1]) * (1 << n)
    index[full] = 0
    states = array("i", [full])
    trans = array("i")
    for s in states:  # the array grows while it is iterated: a queue
        for row in tab:
            m = row[s]
            t = index[m]
            if t < 0:
                t = index[m] = len(states)
                states.append(m)
            trans.append(t)
    return np.frombuffer(states, np.int32).astype(np.int64), np.frombuffer(trans, np.int32).reshape(-1, L)


def reset_word_bfs(letters, n):
    """Shortest word collapsing the full set to a singleton.

    Read off subset_reach's BFS: the goal is the first singleton state, and
    a state's parent is its first occurrence in the row-major transition
    table (parent, then letter).  So the word is the lexicographically
    smallest among the minimum-length ones.  Returns an int32 letter array,
    or length-1 [-1] when not synchronizing.
    """
    states, trans = subset_reach(letters, n)
    single = np.flatnonzero((states & (states - 1)) == 0)
    if not len(single):
        return np.array([-1], np.int32)
    targets, first = np.unique(trans.ravel(), return_index=True)
    pos = np.empty(len(states), np.int64)
    pos[targets] = first
    word = []
    t = single[0]
    while t:
        t, letter = divmod(int(pos[t]), trans.shape[1])
        word.append(letter)
    return np.array(word[::-1], np.int32)


def pair_merge_table(letters, n):
    """For every unordered state pair, whether some word merges it.

    Backward BFS from the pairs some letter already collapses, through
    letter preimages.  Returns an (n, n) uint8 matrix (symmetric closure
    filled on the upper triangle, mirrored for convenience).
    """
    L = letters.shape[0]
    # preimage lists per letter, CSR layout
    counts = np.zeros((L, n), np.int32)
    for l in range(L):
        for i in range(n):
            counts[l, letters[l, i]] += 1
    offsets = np.zeros((L, n + 1), np.int32)
    for l in range(L):
        for x in range(n):
            offsets[l, x + 1] = offsets[l, x] + counts[l, x]
    pre = np.empty((L, n), np.int32)
    fill = np.zeros((L, n), np.int32)
    for l in range(L):
        for i in range(n):
            x = letters[l, i]
            pre[l, offsets[l, x] + fill[l, x]] = i
            fill[l, x] += 1

    good = np.zeros((n, n), np.uint8)
    queue = np.empty(n * n, np.int32)
    qt = 0
    # seed: pairs collapsed by a single letter
    for l in range(L):
        for x in range(n):
            for a in range(offsets[l, x], offsets[l, x + 1]):
                for b in range(a + 1, offsets[l, x + 1]):
                    p = pre[l, a]
                    q = pre[l, b]
                    if p > q:
                        p, q = q, p
                    if good[p, q] == 0:
                        good[p, q] = 1
                        good[q, p] = 1
                        queue[qt] = p * n + q
                        qt += 1
    qh = 0
    while qh < qt:
        pq = queue[qh]
        qh += 1
        r = pq // n
        s = pq % n
        for l in range(L):
            for a in range(offsets[l, r], offsets[l, r + 1]):
                for b in range(offsets[l, s], offsets[l, s + 1]):
                    p = pre[l, a]
                    q = pre[l, b]
                    if p == q:
                        continue
                    if p > q:
                        p, q = q, p
                    if good[p, q] == 0:
                        good[p, q] = 1
                        good[q, p] = 1
                        queue[qt] = p * n + q
                        qt += 1
    return good


def _buffer(values) -> array:
    """An array('i') holding the given integers."""
    out = array("i")
    out.frombytes(np.ascontiguousarray(values, dtype=np.int32).tobytes())
    return out


def moore_refine(trans: np.ndarray, init_labels: np.ndarray) -> np.ndarray:
    """The coarsest partition of a complete DFA's states that refines
    init_labels and is stable under every letter, by Hopcroft's
    O(m log n) algorithm.

    trans: (S, L) successor indices; init_labels: (S,) initial class labels.
    Returns one label per state.  Labels are compact ints 0..k-1 and
    deterministic for a given input, but otherwise opaque: callers compare
    them for equality and take their max.

    The partition is a flat refinable partition (Valmari & Lehtinen,
    "Efficient minimization of DFAs with partial transition functions",
    STACS 2008): elems lists the states block by block, loc[s] is the
    position of s in elems, sidx[s] its block, and block b occupies
    elems[first[b]:end[b]], of which elems[first[b]:mid[b]] is marked.
    A worklist holds splitter blocks.  Popping one marks, letter by
    letter, the preimages of its states and splits every touched block
    into its marked and unmarked part; the smaller part takes the new
    block index and is pushed.  A block that was still on the worklist
    keeps its index there, so both parts stay queued; one that was not
    needs only the smaller part, since stability under a block and under
    one of its parts gives stability under the other part.  The initial
    worklist is every initial block but a largest one, for the same
    reason: a complete DFA is trivially stable under the whole state set.

    The name predates the algorithm: perfbench traces the kernel under
    it, and the tests keep Moore's algorithm as an oracle.
    """
    trans = np.asarray(trans)
    labels = np.unique(np.asarray(init_labels), return_inverse=True)[1].reshape(-1)
    S, L = trans.shape
    if S == 0:
        return labels
    sizes = np.bincount(labels)
    k = len(sizes)
    order = np.argsort(labels, kind="stable")
    bounds = np.zeros(S + 1, np.int64)
    bounds[1 : k + 1] = np.cumsum(sizes)
    loc = np.empty(S, np.int64)
    loc[order] = np.arange(S)
    elems, loc, sidx = _buffer(order), _buffer(loc), _buffer(labels)
    first, end = _buffer(bounds[:S]), _buffer(bounds[1:])
    mid = array("i", first)
    # preimages per letter in CSR layout: pre[l][off[l][s]:off[l][s + 1]]
    # are the states that letter l sends to s
    pre, off = [], []
    for l in range(L):
        target = trans[:, l]
        pre.append(_buffer(np.argsort(target, kind="stable")))
        offsets = np.zeros(S + 1, np.int64)
        np.cumsum(np.bincount(target, minlength=S), out=offsets[1:])
        off.append(_buffer(offsets))
    largest = int(np.argmax(sizes))
    worklist = [b for b in range(k) if b != largest]
    count = k
    touched = []
    while worklist:
        c = worklist.pop()
        # a copy: marking swaps states inside c itself
        splitter = elems[first[c] : end[c]]
        for l in range(L):
            pre_l, off_l = pre[l], off[l]
            for s in splitter:
                for p in pre_l[off_l[s] : off_l[s + 1]]:
                    b = sidx[p]
                    m = mid[b]
                    i = loc[p]
                    if i >= m:
                        if m == first[b]:
                            touched.append(b)
                        q = elems[m]
                        elems[i] = q
                        loc[q] = i
                        elems[m] = p
                        loc[p] = m
                        mid[b] = m + 1
            for b in touched:
                f, m, e = first[b], mid[b], end[b]
                mid[b] = f
                if m == e:
                    continue
                if m - f <= e - m:
                    first[count], end[count] = f, m
                    first[b] = mid[b] = m
                else:
                    first[count], end[count] = m, e
                    end[b] = m
                mid[count] = first[count]
                for i in range(first[count], end[count]):
                    sidx[elems[i]] = count
                worklist.append(count)
                count += 1
            touched.clear()
    return np.frombuffer(sidx, dtype=np.int32).astype(np.int64)
