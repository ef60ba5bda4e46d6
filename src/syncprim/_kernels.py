"""Hot numeric kernels: subset-graph BFS and partition refinement.

The loop kernels are compiled with numba when available; setting
SYNCPRIM_NO_NUMBA=1 (or a missing numba install) selects the pure-Python
fallback with identical semantics.  benchmarks/bench_kernels.py compares
the two paths.
"""

from __future__ import annotations

import os

import numpy as np

USE_NUMBA = os.environ.get("SYNCPRIM_NO_NUMBA", "").lower() not in ("1", "true", "yes")
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

if not USE_NUMBA:

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


@njit(cache=True)
def subset_reach(letters, n):
    """BFS over subset bitmasks from the full set.

    letters: (L, n) int64 array of point images.
    Returns (states, trans): masks in BFS order (full set first) and the
    per-state per-letter successor indices.
    """
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


@njit(cache=True)
def reset_word_bfs(letters, n):
    """Shortest word collapsing the full set to a singleton.

    BFS in word-lexicographic order, so the first singleton found carries
    the lexicographically smallest word among the minimum-length ones.
    Returns an int32 letter array, or length-1 [-1] when not synchronizing.
    """
    L = letters.shape[0]
    size = 1 << n
    full = size - 1
    if n == 1:
        return np.empty(0, np.int32)
    prev = np.full(size, -1, np.int32)
    prev_letter = np.full(size, -1, np.int32)
    visited = np.zeros(size, np.uint8)
    queue = np.empty(size, np.int64)
    queue[0] = full
    visited[full] = 1
    count = 1
    head = 0
    goal = np.int64(-1)
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
        out = np.empty(1, np.int32)
        out[0] = -1
        return out
    length = 0
    s = goal
    while s != full:
        length += 1
        s = prev[s]
    word = np.empty(length, np.int32)
    s = goal
    for k in range(length):
        word[length - 1 - k] = prev_letter[s]
        s = prev[s]
    return word


@njit(cache=True)
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


def moore_refine(trans: np.ndarray, init_labels: np.ndarray) -> np.ndarray:
    """Moore partition refinement of a complete DFA.

    trans: (S, L) successor indices; init_labels: (S,) initial class labels.
    Returns the final class label per state (labels are compact ints,
    deterministic for a given input).  Vectorized with numpy; no numba
    needed since each round is O(S * L) array work.
    """
    labels = np.unique(np.asarray(init_labels), return_inverse=True)[1]
    n_classes = int(labels.max()) + 1 if labels.size else 0
    L = trans.shape[1]
    while True:
        sig = np.empty((trans.shape[0], L + 1), dtype=np.int64)
        sig[:, 0] = labels
        for l in range(L):
            sig[:, l + 1] = labels[trans[:, l]]
        _, labels = np.unique(sig, axis=0, return_inverse=True)
        new_classes = int(labels.max()) + 1 if labels.size else 0
        if new_classes == n_classes:
            return labels
        n_classes = new_classes
