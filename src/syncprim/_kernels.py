"""Hot numeric kernels: the power-set walk, reset words, the pair table
and partition refinement, in plain Python and numpy.

image_table is the one place that knows how a letter acts on a subset
bitmask: it tabulates every letter's image of every mask, so the
breadth-first walk over the power set (subset_reach) is a table lookup
per transition, and the reset-word search (reset_word_bfs) reads its
answer, a list of letters or None, off that walk.  The pair table
(pair_merge_table) is a backward BFS from the diagonal over the letters'
preimage lists; it never builds the power set and returns a symmetric
bool matrix of the mergeable state pairs.  Partition refinement
(Hopcroft's algorithm, moore_refine) has two paths that give the same
partition: a Python loop over flat array('i') buffers for small tables,
and a numpy version that splits on a whole worklist per round for tables
of ROUNDS_MIN_ROWS rows or more, such as the Syn-DFA tables of the power
set.
benchmarks/bench_kernels.py times the kernels and both refinement paths.
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
    smallest among the minimum-length ones.  Returns the letters as a list,
    or None when not synchronizing.
    """
    states, trans = subset_reach(letters, n)
    single = np.flatnonzero((states & (states - 1)) == 0)
    if not len(single):
        return None
    targets, first = np.unique(trans.ravel(), return_index=True)
    pos = np.empty(len(states), np.int64)
    pos[targets] = first
    word = []
    t = single[0]
    while t:
        t, letter = divmod(int(pos[t]), trans.shape[1])
        word.append(letter)
    return word[::-1]


def pair_merge_table(letters, n):
    """For every state pair, whether some word merges it: an (n, n) bool
    matrix, symmetric, with a true diagonal (the empty word merges p, p).

    Backward BFS from the diagonal: a pair is mergeable when some letter
    sends it to a mergeable pair, so each found pair (r, s) adds the pairs
    of a letter's preimages of r and of s.
    """
    pre = [[[] for _ in range(n)] for _ in range(len(letters))]
    for pre_l, row in zip(pre, np.asarray(letters).tolist()):
        for i, x in enumerate(row):
            pre_l[x].append(i)
    good = np.eye(n, dtype=bool)
    queue = [(r, r) for r in range(n)]
    for r, s in queue:  # the list grows while it is iterated: a queue
        for pre_l in pre:
            for p in pre_l[r]:
                for q in pre_l[s]:
                    if not good[p, q]:
                        good[p, q] = good[q, p] = True
                        queue.append((p, q))
    return good


# Tables with at least this many rows are refined by _refine_rounds, smaller
# ones by _refine_loop.  A round of _refine_rounds costs a fixed few dozen
# numpy calls per letter, so it wins where the loop's per-preimage Python
# work outweighs that.  Measured crossovers: about 1 000 rows on the Syn-DFA
# tables of random automata and the cardinality tables of condition 5,
# about 2 000 on the Syn-DFA and collapse tables of S_n plus an idempotent,
# 4 000 to 8 000 on those of D_n and the Cerny automaton, which refine in
# many small rounds.
ROUNDS_MIN_ROWS = 2048


def moore_refine(trans: np.ndarray, init_labels: np.ndarray) -> np.ndarray:
    """The coarsest partition of a complete DFA's states that refines
    init_labels and is stable under every letter, by Hopcroft's
    O(m log n) algorithm.

    trans: (S, L) successor indices; init_labels: (S,) initial class labels.
    Returns one label per state.  Labels are compact ints 0..k-1 and
    deterministic for a given input, but otherwise opaque: callers compare
    them for equality and take their max.

    Tables of ROUNDS_MIN_ROWS rows or more go to _refine_rounds, smaller
    ones to _refine_loop; both give the same partition.  The name predates
    the algorithm: perfbench traces the kernel under it, and the tests keep
    Moore's algorithm as an oracle.
    """
    refine = _refine_rounds if len(trans) >= ROUNDS_MIN_ROWS else _refine_loop
    return refine(trans, init_labels)


def _initial_partition(trans, init_labels):
    """The start shared by both refinement paths.

    Returns the initial labels made compact (block ids 0..k-1), the size
    of each initial block, and as int32 arrays: elems, the states sorted
    by label; loc, the position of each state in elems; first and end,
    one entry per state, with block b at elems[first[b]:end[b]] and zeros
    past the initial blocks; and per letter l the preimages in CSR layout,
    pre[l][off[l][s]:off[l][s + 1]] being the states l sends to s.
    """
    trans = np.asarray(trans)
    labels = np.unique(np.asarray(init_labels), return_inverse=True)[1].reshape(-1).astype(np.int32)
    S = len(labels)
    sizes = np.bincount(labels, minlength=1)
    elems = np.argsort(labels, kind="stable").astype(np.int32)
    loc = np.empty(S, np.int32)
    loc[elems] = np.arange(S, dtype=np.int32)
    first = np.zeros(S, np.int32)
    end = np.zeros(S, np.int32)
    if S:
        np.cumsum(sizes, out=end[: len(sizes)])
        first[1 : len(sizes)] = end[: len(sizes) - 1]
    pre, off = [], []
    for target in trans.T:
        pre.append(np.argsort(target, kind="stable").astype(np.int32))
        offsets = np.zeros(S + 1, np.int32)
        np.cumsum(np.bincount(target, minlength=S), out=offsets[1:])
        off.append(offsets)
    return labels, sizes, elems, loc, first, end, pre, off


def _buffer(values) -> array:
    """An array('i') holding the given integers."""
    out = array("i")
    out.frombytes(np.ascontiguousarray(values, dtype=np.int32).tobytes())
    return out


def _refine_loop(trans: np.ndarray, init_labels: np.ndarray) -> np.ndarray:
    """Hopcroft's algorithm, one Python step per preimage, over array('i')
    buffers: the fast path for small tables.

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
    Preimages in a singleton block are skipped, since it cannot split, and
    the loop stops once every block is a singleton.
    """
    labels, sizes, elems, loc, first, end, pre, off = _initial_partition(trans, init_labels)
    S = len(labels)
    if S == 0:
        return labels.astype(np.int64)
    elems, loc, first, end, sidx = map(_buffer, (elems, loc, first, end, labels))
    pre, off = [_buffer(x) for x in pre], [_buffer(x) for x in off]
    mid = array("i", first)
    k = len(sizes)
    largest = int(np.argmax(sizes))
    worklist = [b for b in range(k) if b != largest]
    count = k
    touched = []
    while worklist and count < S:
        c = worklist.pop()
        # a copy: marking swaps states inside c itself
        splitter = elems[first[c] : end[c]]
        for pre_l, off_l in zip(pre, off):
            for s in splitter:
                for p in pre_l[off_l[s] : off_l[s + 1]]:
                    b = sidx[p]
                    m = mid[b]
                    i = loc[p]
                    if i >= m and end[b] - first[b] > 1:
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
            if count == S:
                break
    return np.frombuffer(sidx, dtype=np.int32).astype(np.int64)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(s, s + c) over paired starts and counts."""
    ends = counts.cumsum(dtype=np.int64)
    out = np.arange(ends[-1] if len(ends) else 0, dtype=np.int32)
    out += (starts - ends + counts).astype(np.int32).repeat(counts)
    return out


def _refine_rounds(trans: np.ndarray, init_labels: np.ndarray) -> np.ndarray:
    """Hopcroft's algorithm with a batched worklist, in numpy: the fast path
    for large tables.

    The partition is laid out as in _refine_loop (elems, loc, block,
    first, end).  Each round takes every worklist block as a splitter, with
    its states fixed at the round start.  Letter by letter, it gathers the
    preimages of all splitter states through the CSR arrays, keys each
    preimage by (its current block, the splitter its successor lies in),
    and sorts the keys once.  Every touched block then splits into its key
    groups plus the untouched remainder: states with successors in
    different splitters, or in a splitter and outside all of them, are
    inequivalent.  The touched states move to the tail of their block's
    range in key order, so every part stays contiguous.  The remainder
    keeps the block id; when nothing is untouched, the first group keeps
    it.  A block still on the worklist pushes all its new parts; any other
    block pushes all parts but a largest one, by the same argument as in
    _refine_loop.  Preimages in singleton blocks are dropped, and the
    rounds stop when the worklist is empty or every block is a singleton.
    The work is O(m log n) elements, plus a fixed number of numpy calls
    per round and letter.
    """
    block, sizes, elems, loc, first, end, pre, off = _initial_partition(trans, init_labels)
    S = len(block)
    if S == 0:
        return block.astype(np.int64)
    k = len(sizes)
    on_work = np.zeros(S, bool)
    on_work[:k] = True
    on_work[np.argmax(sizes)] = False
    marked = np.zeros(S, bool)
    count = k
    while count < S:
        work = np.flatnonzero(on_work[:count])
        if not len(work):
            break
        on_work[work] = False
        wsize = end[work] - first[work]
        splitter = elems[_ranges(first[work], wsize)]
        which = np.arange(len(work), dtype=np.int32).repeat(wsize)
        for pre_l, off_l in zip(pre, off):
            lo = off_l[splitter]
            n_pre = off_l[splitter + 1] - lo
            p = pre_l[_ranges(lo, n_pre)]
            b = block[p]
            live = end[b] - first[b] > 1
            # key: (block, splitter index), one int64
            key = b[live].astype(np.int64) * len(work) + which.repeat(n_pre)[live]
            if not len(key):
                continue
            order = key.argsort()
            key, p, b = key[order], p[live][order], b[live][order]
            count = _split(key, p, b, elems, loc, block, first, end, on_work, marked, count)
            if count == S:
                break
    return block.astype(np.int64)


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start index and the length of each run of equal values."""
    change = np.empty(len(values) + 1, bool)
    change[0] = change[-1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:-1])
    bounds = change.nonzero()[0]
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _split(key, p, b, elems, loc, block, first, end, on_work, marked, count):
    """One letter's splits in _refine_rounds: p are the touched states
    sorted by key, b their blocks.  Updates the partition and the worklist
    in place and returns the new block count.  A block whose states are
    all touched and share one key comes through unchanged."""
    bstart, n_touched = _runs(b)
    gstart, gsize = _runs(key)
    tb = b[bstart]
    rest = end[tb] - first[tb] - n_touched
    if len(gstart) == len(bstart) and not rest.any():
        return count
    # move the touched states to the tail of their block, in key order
    tail = end[tb] - n_touched
    dest = _ranges(tail, n_touched)
    marked[p] = True
    occupant = elems[dest]
    displaced = occupant[~marked[occupant]]
    marked[p] = False
    cur = loc[p]
    vacated = cur[cur < tail.repeat(n_touched)]
    elems[vacated] = displaced
    loc[displaced] = vacated
    elems[dest] = p
    loc[p] = dest
    # every group is a new block, but the first group of a block with no
    # untouched remainder keeps the block id
    first_group = np.searchsorted(gstart, bstart)
    owner = np.zeros(len(gstart), np.int64)
    owner[first_group[1:]] = 1
    owner = owner.cumsum()
    is_new = np.ones(len(gstart), bool)
    is_new[first_group[rest == 0]] = False
    n_new = int(is_new.sum())
    gid = tb[owner]
    gid[is_new] = np.arange(count, count + n_new, dtype=np.int32)
    block[p] = gid.repeat(gsize)
    new_first = dest[gstart[is_new]]
    first[count : count + n_new] = new_first
    end[count : count + n_new] = new_first + gsize[is_new]
    kept_size = np.where(rest > 0, rest, gsize[first_group])
    end[tb] = first[tb] + kept_size
    # the worklist: a queued block pushes all its new parts, any other
    # block all parts but a largest, leaving out the kept part if it is one
    largest = np.maximum(rest, np.maximum.reduceat(gsize, first_group))
    push_kept = ~on_work[tb] & (kept_size < largest)
    on_work[count : count + n_new] = True
    leave_out = (is_new & push_kept[owner] & (gsize == largest[owner])).nonzero()[0]
    if len(leave_out):
        firsts = leave_out[np.searchsorted(leave_out, first_group[push_kept])]
        on_work[gid[firsts]] = False
        on_work[tb[push_kept]] = True
    return count + n_new
