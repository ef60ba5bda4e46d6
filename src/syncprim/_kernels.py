"""Hot numeric kernels: the power-set walk, reset words and partition
refinement, in plain Python and numpy.

image_table tabulates every letter's image of every subset bitmask, so
the breadth-first walk over the power set (subset_reach) is a table
lookup per transition; Transformation.apply_mask computes one image at a
time, for distinguish_witness and the images of words.  The walk has two
forms that give the same arrays: a queue loop over lists for small
tables, and a numpy walk that expands a batch of queued states (up to a
BFS level) at a time for tables of BATCHED_MIN_MASKS masks or more.  The
reset word (reset_word_bfs) is read off the walk's arrays, a list of
letters or None: each state's first occurrence in the transition table
names its parent and letter, and the walk hands out indices in that
order, so one running maximum finds them.  Partition refinement
(moore_refine) has paths that give the same partition.  Small tables,
such as the 2-subset collapse tables of condition 3 and the strong scan,
go to Hopcroft's algorithm as a Python loop over a flat refinable
partition in lists, its start included.  Tables of ROUNDS_MIN_ROWS rows
or more, such as the Syn-DFA tables of the power set, first get Moore's
rounds on hashes of the states' signatures (_hashed_start) while each
round adds more classes than the one before.  Where that start leaves
fewer than half the states in blocks of two or more, as on random
automata, exact Moore rounds over those states alone finish it
(_refine_live); elsewhere Hopcroft's algorithm in numpy does, which keeps
only a block label per state and a size per block and splits on a whole
worklist per round.  Its labels are made compact once: the start's own
initial labels where the start stopped by its second round, its keys
sorted into labels where it went further.
The walk's first-occurrence order and _initial_partition's preimage CSR
are stable orders of bounded keys, masks below 2^n and targets below the
row count (_stable_order): radix orders while the keys fit 16 bits, that
is up to n = 16 and 65 536 rows.  There the comparison sorts left on the
syn-dfa path are the Hopcroft rounds' key sort, where a radix order
measured no faster, the hashed rounds' sort of 32-bit hashes, which
counts their classes, one sort of the keys of a start that went past
its second round, the live rounds' lexsort of the states still in shared
blocks, and a batch's first-occurrence positions.
Every integer array the kernels return is int32: the image table's and
the walk's masks lie below 2^n <= 2^SUBSET_CAP (automaton.SUBSET_CAP),
the successor indices and the refinement's labels below the row count,
at most 2^n.  The int64 left inside them is arithmetic: the Hopcroft
rounds' sort key (block * S + splitter) and the cumulative sums of
_ranges and _split.
benchmarks/bench_kernels.py times the kernels, both walk forms, the
hashed start and every refinement path.
"""

from __future__ import annotations

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


# Tables of at least this many masks (2^n) are walked by _reach_batched, in
# numpy, smaller ones by the queue loop.  A batch costs a fixed dozen numpy
# calls, about 25 us, so the loop wins on small tables and on deep, narrow
# walks of few masks per level.  Measured crossovers: about n = 9 on random
# 3-letter automata, n = 10 on S_n and D_n plus an idempotent (about 40
# levels at n = 11), n = 13 on the Cerny automaton (158 levels of 52 masks
# on average at n = 13).  One threshold serves them all, so the Cerny
# automaton at n = 11 and 12 walks 1.2 to 2.2 times slower than in the loop.
BATCHED_MIN_MASKS = 1 << 11

# The most states one batch of _reach_batched expands.  It bounds the batch's
# temporaries, up to about 40 bytes per transition, where one level of a
# broad walk near SUBSET_CAP would need hundreds of MB; at n = 16 it costs
# no measurable time.
WALK_BATCH = 1 << 10


def subset_reach(letters, n):
    """BFS over subset bitmasks from the full set.

    letters: (L, n) int array of point images.
    Returns (states, trans): masks in BFS order (full set first) and the
    (S, L) per-state per-letter successor indices.  Tables of
    BATCHED_MIN_MASKS masks or more go to _reach_batched, smaller ones to
    _reach_loop; both give the same arrays.
    """
    reach = _reach_batched if 1 << n >= BATCHED_MIN_MASKS else _reach_loop
    return reach(letters, n)


def reset_word_bfs(states, trans):
    """Shortest word collapsing the full set to a singleton, read off
    subset_reach's arrays.

    The goal is the first singleton in BFS order, and a state's parent is
    its first occurrence in trans.ravel() (parent, then letter), so the
    word is the lexicographically smallest among the minimum-length ones.
    The walk hands out indices in order of first occurrence, so the first
    occurrence of index t is where the running maximum of trans.ravel()
    reaches t: one running maximum up to the goal's row, then a binary
    search per letter of the word.  Returns the letters as a list, or None
    when no singleton is reachable.
    """
    rest = states - 1
    rest &= states  # each mask less its lowest point: zero for a singleton
    goal = int(rest.argmin())
    if rest[goal]:
        return None
    del rest
    L = trans.shape[1]
    reached = np.maximum.accumulate(trans.ravel()[: goal * L])
    index = reached.dtype.type  # a Python int would cost a cast per search
    word = []
    while goal:
        goal, letter = divmod(int(reached.searchsorted(index(goal))), L)
        word.append(letter)
    return word[::-1]


def _reach_loop(letters, n):
    """subset_reach as a queue loop over lists, one Python step per
    transition: the fast path for small tables."""
    L = len(letters)
    tab = image_table(letters, n).tolist()
    full = (1 << n) - 1
    index = [-1] * (1 << n)
    index[full] = 0
    states = [full]
    trans = []
    for s in states:  # the list grows while it is iterated: a queue
        for row in tab:
            m = row[s]
            t = index[m]
            if t < 0:
                t = index[m] = len(states)
                states.append(m)
            trans.append(t)
    return np.array(states, np.int32), np.array(trans, np.int32).reshape(-1, L)


def _stable_order(keys: np.ndarray, bits: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") for non-negative integer keys below
    2^bits.  Up to 16 bits the keys are cast to uint16, whose stable sort
    in numpy is a radix sort, so the order is linear.  Wider keys keep the
    comparison sort (timsort): the only wider keys measured, the targets
    of the Cerny tables from n = 17, come in long sorted runs on which it
    beat two 16-bit radix passes."""
    if bits <= 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")


def _reach_batched(letters, n):
    """subset_reach's BFS in numpy, a batch of queued states at a time: the
    fast path for large tables.

    The queue loop gives each mask it has not seen a new index when it
    first meets it, parent by parent, letter by letter.  A batch takes up
    to WALK_BATCH states from the head of the queue, gathers their
    successors parent-major, letter-minor, and indexes the unseen masks in
    order of first occurrence, which is the order the loop would give them.
    While a level holds at most WALK_BATCH states, a batch is a whole BFS
    level.  The masks and transitions go into buffers sized for all 2^n
    masks; only the written part of them is touched, and the arrays
    returned are views of it.
    """
    L = len(letters)
    img_t = image_table(letters, n).T  # (2^n, L): gathering a batch is one take
    full = (1 << n) - 1
    index = np.full(1 << n, -1, np.int32)
    states = np.empty(1 << n, np.int32)
    trans = np.empty((1 << n, L), np.int32)
    index[full] = 0
    states[0] = full
    lo, count = 0, 1
    while lo < count:
        hi = min(count, lo + WALK_BATCH)
        succ = img_t[states[lo:hi]].ravel()
        rows = trans[lo:hi].reshape(-1)
        np.take(index, succ, out=rows)
        fresh = np.flatnonzero(rows < 0)
        found = succ[fresh]
        order = _stable_order(found, n)
        masks = found[np.sort(order[_runs(found[order])[0]])]  # first occurrences
        stop = count + len(masks)
        states[count:stop] = masks
        index[masks] = np.arange(count, stop, dtype=np.int32)
        rows[fresh] = index[found]
        lo, count = hi, stop
    return states[:count], trans[:count]


# Tables with at least this many rows get the hashed start and its finish
# (_refine_live or _refine_rounds), smaller ones _refine_loop.  A round of
# either finish costs a fixed few dozen numpy calls, so it wins where the
# loop's per-preimage Python work outweighs that, and the hashed start moves
# that point down where Moore's classes grow geometrically.  Measured
# crossovers, loop against start and finish (one run, best of 5 or 9, on a
# 2-vCPU Xeon VM): about 150 rows on the Syn-DFA tables of random automata
# (n = 8, 163 rows: 0.31 against 0.16 ms; n = 10, 968 rows: 2.85 against
# 0.47 ms, where the start and _refine_rounds took 0.56 ms) and below 255
# on the cardinality tables of condition 5 (S8 plus 1 1 2 ..., 255 rows:
# 0.61 against 0.34 ms; S10, 1 023 rows: 2.7 against 0.6 ms); about 2 000
# on the Syn-DFA tables of S_n plus an idempotent (S11, 2 047 rows: 6.3
# against 7.8 ms; S12: 13.0 against 9.5 ms); 4 000 on those of D_n and on
# condition 4's (D12 plus 1 1 2 ..., 4 095 rows: 14.9 against 15.3 ms and
# 8.5 against 8.9 ms); 8 000 on the Cerny automaton, which refines in about
# n^2 small rounds and gets no start (Cerny 12, 4 095 rows: 11.8 against
# 22.9 ms; Cerny 13: 25.9 against 28.8 ms; Cerny 14: 58.3 against 37.4 ms).
# The S_n, D_n and Cerny tables stop the start by its second round, so the
# finish does not move their crossovers, and one threshold for all keeps
# the loop on the random and condition-5 tables below it.
ROUNDS_MIN_ROWS = 2048


def moore_refine(trans: np.ndarray, init_labels: np.ndarray) -> np.ndarray:
    """The coarsest partition of a complete DFA's states that refines
    init_labels and is stable under every letter: hashed Moore rounds while
    they gain, then exact Moore rounds over the states they left in shared
    blocks, or Hopcroft's O(m log n) algorithm.

    trans: (S, L) successor indices; init_labels: (S,) initial class labels.
    Returns one label per state.  Labels are compact ints 0..k-1 and
    deterministic for a given input, but otherwise opaque: callers compare
    them for equality and take their max.

    Tables of ROUNDS_MIN_ROWS rows or more get _hashed_start; smaller ones
    go to _refine_loop, from init_labels.  Every route gives the same
    partition.  Most calls come from the per-map checks of classify and
    search, on tables of a few dozen rows, where the loop's plain-list
    start keeps the fixed cost per call low.

    The start's partition refines init_labels, hash collisions included,
    and is coarser than the coarsest stable partition that refines them,
    so exact refinement from it reaches that partition.  Where it goes on
    from there depends on how far the start got:
    - when the hashed rounds stop by the second, Moore's classes are not
      growing faster round by round, as on the Cerny tables, which gain one
      class a round: _refine_rounds starts from the start's compact
      initial labels, since two rounds do not pay for a sort of the 64-bit
      keys, which raised the peak RSS of syn-dfa on Cerny 20 from 100 to
      109 MB;
    - otherwise one sort of the keys makes them compact labels and finds
      the live states, those in blocks of two or more (_compact).  When
      fewer than half the states are live, as on the random Syn-DFA
      tables, whose start ends with 92-99.9 % of the final classes,
      _refine_live finishes with Moore's rounds over the live states alone,
      since a singleton block never splits;
    - when half or more are live, as on A_n plus 1 1 2 ..., whose start
      runs to its round cap with a few hundred classes, _refine_rounds
      starts from the compact labels, since a sort of most states per
      round can cost twice Hopcroft's rounds (condition 5's table of C14
      plus 1 1 2 ...: 32 against 16 ms).

    A large table whose init_labels hold one value returns zeros without
    the start or the refinement, which would split nothing: a complete DFA
    is stable under the whole state set.  Small tables skip the test,
    which costs the per-map checks more than the loop's start on such a
    table.
    """
    if len(trans) < ROUNDS_MIN_ROWS:
        return _refine_loop(trans, init_labels)
    init_labels = np.asarray(init_labels)
    if (init_labels == init_labels[0]).all():
        return np.zeros(len(init_labels), np.int32)
    key, rounds, label = _hashed_start(trans, init_labels)
    # the keys take 8 bytes a state and the start's labels up to 4: neither
    # is kept through the refinement
    if rounds > 2:
        del label
        label, live, count = _compact(key)
        del key
        if 2 * len(live) < len(label):
            return _refine_live(trans, label, live, count)
    else:
        del key
        # a copy: a bool init_labels is its own label, and the rounds
        # refine their labels in place
        label = label.astype(np.int32)
    return _refine_rounds(trans, label)


# C of _hash_round, the multiplier of the initial label (2^64 over the
# golden ratio); a letter's multiplier is an odd multiple of _HASH_R.  Both
# are odd, so multiplying by them is a bijection of the uint64 values.
_HASH_C = np.uint64(0x9E3779B97F4A7C15)
_HASH_R = 0xBF58476D1CE4E5B9


def _hash_round(trans: np.ndarray, label: np.ndarray, h: np.ndarray, out: np.ndarray, step: np.ndarray):
    """One hashed Moore round, into out: C * label(s) + the sum over letters
    a of R_a * h(trans[s, a]), in wraparound uint64, with C = _HASH_C and
    R_a = (2a + 1) * _HASH_R.  step is scratch space the size of h."""
    np.multiply(label, _HASH_C, out=out)
    for a, target in enumerate(trans.T):
        # the targets are in range; "raise" would gather into a copy of step
        np.take(h, target, out=step, mode="wrap")
        step *= np.uint64(_HASH_R * (2 * a + 1) % (1 << 64))
        out += step


def _hashed_start(trans: np.ndarray, init_labels: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Moore's rounds on hashes, from init_labels: a partition between
    init_labels and the coarsest stable one, as one uint64 key per state,
    the number of rounds it took, and the compact initial labels.

    h_0 is the compact initial label, and h_{k+1}(s) = C * h_0(s) + the sum
    over letters a of R_a * h_k(trans[s, a]) (_hash_round).  States with
    equal languages get equal h_k for every k, by induction on k, so the
    start splits no class of the coarsest stable partition; states whose
    hashes collide share a key, and the finish splits them.  After
    each round a sort of the hashes' low 32 bits counts their classes (a
    rare 32-bit collision only moves the stop).  The rounds go on while a
    round adds more classes than the one before, and for at most
    bit_length(S) rounds, each a gather and a multiply-add per letter and
    one sort of S values.  On random Syn-DFA tables Moore's classes grow
    geometrically until the last few rounds, and the start ends with nearly
    all of them; the Cerny tables gain one class a round, and the start
    stops after the second.

    The key is the last hash shifted left past the compact initial label,
    which fills its low bits: a hash collision between initial classes
    merges no states across them, so the start refines init_labels, as
    the finish requires.  A bool init_labels is its own compact label, a
    uint8 view of it; other labels are ranked among their sorted distinct
    values, as np.unique numbers them, as uint32.
    """
    if init_labels.dtype == bool:
        label, k = init_labels.view(np.uint8), 2
    else:
        values = np.unique(init_labels)
        label, k = np.searchsorted(values, init_labels).astype(np.uint32), len(values)
    # the rounds write into buffers made once: fresh arrays the size of a
    # large table cost page faults every round
    h = label.astype(np.uint64)
    out, step, low = np.empty_like(h), np.empty_like(h), np.empty(len(h), np.uint32)
    classes, added = k, 0
    for rounds in range(1, len(h).bit_length() + 1):
        _hash_round(trans, label, h, out, step)
        h, out = out, h
        np.copyto(low, h, casting="unsafe")
        low.sort()
        count = 1 + int(np.count_nonzero(low[1:] != low[:-1]))
        more, classes = count - classes, count
        if more <= added:
            break
        added = more
    h <<= np.uint64((k - 1).bit_length())
    h |= label
    return h, rounds, label


def _compact(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The partition of the keys, from one sort: each state's label, the
    rank of its key among the distinct keys (as np.unique numbers them), as
    int32; the live states, those whose key some other state shares, in
    key order; and the number of labels."""
    order = key.argsort()
    start, size = _runs(key[order])
    label = np.empty(len(key), np.int32)
    label[order] = np.arange(len(start), dtype=np.int32).repeat(size)
    return label, order[(size > 1).repeat(size)], len(start)


def _refine_live(trans: np.ndarray, label: np.ndarray, live: np.ndarray, count: int) -> np.ndarray:
    """Moore's rounds over the live states only: the finish of a start
    that left most states in singleton blocks, which never split.

    label: (S,) compact int32 labels 0..count-1, updated in place; live:
    every state whose block holds another.  Each round lexsorts the live
    states by (label, each successor's label), all read before the round
    relabels any state.  In every old block the first key group keeps the
    block's label and every other group takes a new one, count, count + 1,
    ... in key order; then the states left alone in their group leave the
    live set.  The rounds stop when one splits nothing.  A round costs a
    sort of the live states and no pass over the others.

    From a start between init_labels and the coarsest stable partition that
    refines them, such as _hashed_start's, Moore's fixpoint is that
    partition: each round splits only states that some word separates, and
    the last splits nothing.  Returns label, refined in place.
    """
    while len(live):
        own = label[live]
        succ = label[trans[live]]
        order = np.lexsort((*succ.T, own))
        live, own, succ = live[order], own[order], succ[order]
        new_block = own[1:] != own[:-1]
        new_key = new_block | (succ[1:] != succ[:-1]).any(axis=1)
        start = np.concatenate(([0], new_key.nonzero()[0] + 1))
        size = np.diff(start, append=len(live))
        # a key group that starts inside its block takes a new label
        is_new = np.concatenate(([False], ~new_block[start[1:] - 1]))
        n_new = int(is_new.sum())
        if not n_new:
            break
        label[live[is_new.repeat(size)]] = np.arange(count, count + n_new, dtype=np.int32).repeat(size[is_new])
        count += n_new
        live = live[(size > 1).repeat(size)]
    return label


def _initial_partition(trans, labels):
    """The start of _refine_rounds, in numpy, from compact labels.

    Returns the size of every block, one int32 entry per state, since block
    ids run up to S - 1, with zeros past the initial blocks; and per letter
    the preimages in CSR layout, pre[l][off[l][s]:off[l][s + 1]] being the
    states l sends to s.
    """
    S = len(labels)
    sizes = np.bincount(labels, minlength=S).astype(np.int32)
    pre, off = [], []
    bits = (S - 1).bit_length()
    for target in trans.T:
        pre.append(_stable_order(target, bits).astype(np.int32))
        offsets = np.zeros(S + 1, np.int32)
        np.cumsum(np.bincount(target, minlength=S), out=offsets[1:])
        off.append(offsets)
    return sizes, pre, off


def _refine_loop(trans: np.ndarray, init_labels: np.ndarray) -> np.ndarray:
    """Hopcroft's algorithm, one Python step per preimage, over lists: the
    fast path for small tables.

    The partition is a flat refinable partition (Valmari & Lehtinen,
    "Efficient minimization of DFAs with partial transition functions",
    STACS 2008): elems lists the states block by block, loc[s] is the
    position of s in elems, sidx[s] its block, and block b occupies
    elems[first[b]:end[b]], of which elems[first[b]:mid[b]] is marked.
    pre[l][s] lists the states letter l sends to s, in increasing order.
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

    The start is built in lists too, elems, loc, first and end included,
    which _refine_rounds does without: on tables of a few dozen rows a
    numpy start costs more than the whole refinement.
    """
    init = np.asarray(init_labels).tolist()
    S = len(init)
    if S == 0:
        return np.zeros(0, np.int32)
    compact = {x: b for b, x in enumerate(sorted(set(init)))}
    sidx = [compact[x] for x in init]
    k = len(compact)
    sizes = [0] * k
    for b in sidx:
        sizes[b] += 1
    elems = sorted(range(S), key=sidx.__getitem__)
    loc = [0] * S
    for i, s in enumerate(elems):
        loc[s] = i
    first = [0] * S
    end = [0] * S
    total = 0
    for b, size in enumerate(sizes):
        first[b] = total
        total += size
        end[b] = total
    pre = []
    for row in np.asarray(trans).T.tolist():
        pre_l = [[] for _ in range(S)]
        for p, s in enumerate(row):
            pre_l[s].append(p)
        pre.append(pre_l)
    mid = first[:]
    largest = sizes.index(max(sizes))
    worklist = [b for b in range(k) if b != largest]
    count = k
    touched = []
    while worklist and count < S:
        c = worklist.pop()
        # a copy: marking swaps states inside c itself
        splitter = elems[first[c] : end[c]]
        for pre_l in pre:
            for s in splitter:
                for p in pre_l[s]:
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
    return np.array(sidx, np.int32)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(s, s + c) over paired starts and counts."""
    ends = counts.cumsum(dtype=np.int64)
    out = np.arange(ends[-1] if len(ends) else 0, dtype=np.int32)
    out += (starts - ends + counts).astype(np.int32).repeat(counts)
    return out


def _refine_rounds(trans: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Hopcroft's algorithm with a batched worklist, in numpy: the fast path
    for large tables.

    block: (S,) compact int32 labels 0..k-1, such as moore_refine makes of
    init_labels or of the hashed start, refined in place and returned.  The
    partition is block, one label per state, and size, one entry per block
    id.  Each round takes every worklist block as a splitter, with its states
    fixed at the round start.  Letter by letter, it gathers the preimages of
    all splitter states through the CSR arrays, keys each preimage by (its
    current block, the splitter its successor lies in), and sorts the keys
    once.  Every touched block then splits into its key groups plus the
    untouched remainder: states with successors in different splitters, or
    in a splitter and outside all of them, are inequivalent.  The remainder
    keeps the block id; when nothing is untouched, the first group keeps it.
    A block still on the worklist pushes all its new parts; any other block
    pushes all parts but a largest one, by the same argument as in
    _refine_loop.  Preimages in singleton blocks are dropped, and the rounds
    stop when the worklist is empty or every block is a singleton.

    A round's splitter states are the states the previous round's splits
    touched, each once, of those whose block is on the worklist: every
    part a split queues is made of touched states, but for an untouched
    remainder.  So the first round, and a round after a split that queued
    an untouched remainder, take the splitter states from one pass over
    block instead.  The work is O(m log n) elements, plus a fixed number
    of numpy calls per round and letter.
    """
    size, pre, off = _initial_partition(trans, block)
    S = len(block)
    if S == 0:
        return block
    count = int(block.max()) + 1
    on_work = size > 0
    on_work[np.argmax(size)] = False
    seen = np.empty(S, np.int32)
    touched, full_pass = [], True
    while count < S and (full_pass or touched):
        if full_pass:
            splitter = np.flatnonzero(on_work[block])
        else:
            x = np.concatenate(touched)
            at = np.arange(len(x), dtype=np.int32)
            seen[x] = at  # one position per state survives: x deduplicated
            splitter = x[(seen[x] == at) & on_work[block[x]]]
        if not len(splitter):
            break
        which = block[splitter]
        on_work[which] = False
        touched, full_pass = [], False
        for pre_l, off_l in zip(pre, off):
            lo = off_l[splitter]
            n_pre = off_l[splitter + 1] - lo
            p = pre_l[_ranges(lo, n_pre)]
            b = block[p]
            live = size[b] > 1
            # key: (block, splitter block), one int64
            key = b[live].astype(np.int64) * S + which.repeat(n_pre)[live]
            if not len(key):
                continue
            order = key.argsort()
            key, p, b = key[order], p[live][order], b[live][order]
            split, queued_rest = _split(key, p, b, block, size, on_work, count)
            full_pass |= queued_rest
            # a letter that split nothing queued nothing
            if split > count and not full_pass:
                touched.append(p)
            count = split
            if count == S:
                break
    return block


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start index and the length of each run of equal values."""
    change = np.empty(len(values) + 1, bool)
    change[0] = change[-1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:-1])
    bounds = change.nonzero()[0]
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _split(key, p, b, block, size, on_work, count):
    """One letter's splits in _refine_rounds: p are the touched states
    sorted by key, b their blocks.  Updates block, size and the worklist
    in place.  Returns the new block count, and whether a split queued an
    untouched remainder, whose states p does not hold, so that the next
    round must find its splitter states by a pass over block.  A block
    whose states are all touched and share one key comes through
    unchanged."""
    bstart, n_touched = _runs(b)
    gstart, gsize = _runs(key)
    tb = b[bstart]
    rest = size[tb] - n_touched
    if len(gstart) == len(bstart) and not rest.any():
        return count, False
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
    size[count : count + n_new] = gsize[is_new]
    kept_size = np.where(rest > 0, rest, gsize[first_group])
    size[tb] = kept_size
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
    return count + n_new, bool((push_kept & (rest > 0)).any())
