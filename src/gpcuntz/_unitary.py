"""The numpy side of `gpcuntz.algebra`: the canonical U(N) action and s(z).

`algebra.unitary_action` and `algebra.s_of` import this module when they are
first called, so the word arithmetic, and a process that never acts by U(N)
or builds s(z), neither imports numpy nor compiles this module.
"""

from __future__ import annotations

import numpy as np

from ._policy import PRUNE_TOL, UNIT_TOL, _check_near
from .algebra import EXPAND_BUDGET, AlgebraElement, identity, multiply


def _check_unitary(g, n: int):
    g = np.asarray(g, dtype=complex)
    if g.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {g.shape}")
    _check_near(g @ g.conj().T, np.eye(n), f"matrix is not unitary within {UNIT_TOL}")
    return g


def _segments(start, length):
    """(owner, position) for the concatenated ranges start[i] .. start[i] +
    length[i] - 1, each position with the index i of its range."""
    owner = np.repeat(np.arange(len(length)), length)
    shift = np.repeat(start - (np.cumsum(length) - length), length)
    return owner, np.arange(owner.size) + shift


def _distinct(keys, space: int):
    """(the distinct keys in increasing order, the index of each key among
    them), as `np.unique(keys, return_inverse=True)` gives them, for keys
    in range(space).  When the space is at most four times the number of
    keys, a table over the space replaces the sort: it costs less, and a
    process that never sorts never pages in numpy's sort kernels, which
    adds a quarter of a megabyte or more to its resident size."""
    if space > 4 * len(keys):
        return np.unique(keys, return_inverse=True)
    seen = np.zeros(space, bool)
    seen[keys] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]


def _merge(keys, vals, height: int, width: int):
    """Sum the values that share a key row * width + col, for rows in
    range(height) and columns in range(width); returns the distinct rows
    and columns, sorted by (row, col), and the sums."""
    keys, slot = _distinct(keys, height * width)
    sums = np.empty(len(keys), dtype=complex)
    sums.real = np.bincount(slot, vals.real, len(keys))
    sums.imag = np.bincount(slot, vals.imag, len(keys))
    return keys // width, keys % width, sums


def _suffix_ids(letters, n: int):
    """Compact ids of the suffixes letters[t, i:] of the rows of an array
    of letters in range(n).

    Returns the id of each row at position 0 and, per position i, the
    first letter and the id of the rest (at i + 1) of each suffix id,
    plus the number of suffix ids at each position; a suffix is numbered
    from the pair (first letter, id of the rest) in sorted order, so no
    id grows like n^m.
    """
    count = [1] * (letters.shape[1] + 1)
    first, rest = [], []
    ids = np.zeros(len(letters), np.intp)
    for i in range(letters.shape[1] - 1, -1, -1):
        keys, ids = _distinct(letters[:, i] * count[i + 1] + ids, n * count[i + 1])
        first.append(keys // count[i + 1])
        rest.append(keys % count[i + 1])
        count[i] = len(keys)
    return ids, first[::-1], rest[::-1], count


def _row_words(letters, n: int) -> list:
    """The rows of an array of letters in range(n) as words over 1..n, one
    tuple per distinct row."""
    ids, count = _suffix_ids(letters, n)[::3]
    first_row = np.zeros(count[0], np.intp)
    first_row[ids] = np.arange(len(ids))
    table = [tuple(row) for row in (letters[first_row] + 1).tolist()]
    return [table[i] for i in ids.tolist()]


def _act_on_block(g, la, lb, word_letters, coeffs):
    """Terms of sum_t c_t u_J u_K^H over one block's terms (J, K), c_t,
    all with |J| = la and |K| = lb, where u_J = G^{(x)la} e_J; row t of
    `word_letters` holds the letters of J K minus one.

    The coefficients form a sparse tensor over the la + lb letter axes of
    J K; G acts on the first la axes and conj(G) on the last lb, one axis
    at a time.  An entry is a pair (head, suffix): the head ids the image
    letters on the axes already acted on, the suffix the term letters
    still to act on, both numbered compactly (a head from its previous
    head and new letter, in sorted order), so words of any length fit in
    int64.  Acting on an axis extends each entry by the entries of one
    column of G above PRUNE_TOL; entries that meet are summed and those at
    or below PRUNE_TOL dropped, as `multiply` drops them (NaN is kept).  No
    step holds more entries than the sum over terms of |u_J| |u_K|, an
    image counted by the entries above PRUNE_TOL in the columns its letters
    pick, and a monomial G keeps one entry per term.
    """
    n = g.shape[0]
    col_of, col_rows = np.nonzero(np.abs(g.T) > PRUNE_TOL)
    col_vals = g[col_rows, col_of]
    col_len = np.bincount(col_of, minlength=n)
    col_start = np.cumsum(col_len) - col_len

    size = la + lb
    suffix, first, rest, count = _suffix_ids(word_letters, n)
    head, heads = np.zeros(len(coeffs), np.intp), 1
    vals = np.array(coeffs, complex)
    parent, letter = [], []
    for axis in range(size):
        x = first[axis][suffix]
        entry, at = _segments(col_start[x], col_len[x])
        # the key (head * n + new letter) * count + rest of each extended
        # entry, built in place: fewer live arrays keep the process smaller
        keys = head[entry]
        keys *= n
        keys += col_rows[at]
        keys *= count[axis + 1]
        keys += rest[axis][suffix[entry]]
        vals = vals[entry]
        vals *= col_vals[at] if axis < la else np.conj(col_vals[at])
        del x, entry, at
        pairs, suffix, vals = _merge(keys, vals, heads * n, count[axis + 1])
        del keys
        keep = ~(np.abs(vals) <= PRUNE_TOL)
        if not keep.all():
            pairs, suffix, vals = pairs[keep], suffix[keep], vals[keep]
        # pairs come sorted, so each run of equal pairs is one new head
        new = np.ones(len(pairs), bool)
        new[1:] = pairs[1:] != pairs[:-1]
        head = np.cumsum(new) - 1
        parent.append(pairs[new] // n)
        letter.append(pairs[new] % n)
        heads = len(parent[-1])
    # each entry's K letters, then its head at level la, which ids its J
    k_letters = np.empty((len(head), lb), np.intp)
    for axis in range(size - 1, la - 1, -1):
        k_letters[:, axis - la] = letter[axis][head]
        head = parent[axis][head]
    at = np.arange(len(parent[la - 1]) if la else 1)
    j_letters = np.empty((len(at), la), np.intp)
    for axis in range(la - 1, -1, -1):
        j_letters[:, axis] = letter[axis][at]
        at = parent[axis][at]
    table = [tuple(w) for w in (j_letters + 1).tolist()]
    words = zip([table[i] for i in head.tolist()], _row_words(k_letters, n))
    return zip(words, vals.tolist())


def unitary_action(g, a: AlgebraElement) -> AlgebraElement:
    """The canonical U(N) action: s_i -> sum_j g[j,i] s_j, *-compatibly.

    The image of s_i is the combination of generators with coefficients
    read down the i-th column of g, so c s_J s_K* goes to
    c (G^{(x)|J|} e_J)(G^{(x)|K|} e_K)^H read as a matrix over the words
    of lengths |J| and |K|.  The terms of one block (|J|, |K|) are acted
    on together, letter axis by letter axis, as one sparse tensor
    (`_act_on_block`): terms whose images meet are merged as they go, no
    step holds more entries than the sum over terms of |u_J| |u_K|, and a
    permutation or diagonal g keeps every term a single word at any length.
    A sum over EXPAND_BUDGET raises ValueError before any block is acted on.
    """
    g = _check_unitary(g, a.n)
    blocks: dict = {}
    for (j, k), c in a.terms.items():
        words, coeffs = blocks.setdefault((len(j), len(k)), ([], []))
        words.append(j + k)
        coeffs.append(c)
    letters = {
        lens: np.array(words, np.intp).reshape(len(words), sum(lens)) - 1
        for lens, (words, _) in blocks.items()
    }
    _check_action_size(g, letters.values())
    out: dict = {}
    for (la, lb), (_, coeffs) in blocks.items():
        out.update(_act_on_block(g, la, lb, letters[la, lb], coeffs))
    return AlgebraElement(a.n, out)


def _check_action_size(g, letter_blocks) -> None:
    """Refuse, before acting, images of more than EXPAND_BUDGET entries in
    all: the sum over terms of |u_J| |u_K|, where each letter multiplies an
    image's size by the count of entries above PRUNE_TOL in the column of
    G it picks.  Sizes add up as base-2 logarithms, so a long word builds
    no huge integer."""
    col_len = np.count_nonzero(np.abs(g) > PRUNE_TOL, axis=0)
    log_len = np.log2(col_len)
    logs = np.concatenate([np.zeros(0)] + [log_len[w].sum(axis=1) for w in letter_blocks])
    if logs.max(initial=0.0) >= EXPAND_BUDGET.bit_length():
        raise ValueError(
            f"unitary_action would generate at least 2^{int(logs.max())} entries, "
            f"over the budget of {EXPAND_BUDGET}"
        )
    # each term now has fewer than 2^23 entries, so int64 products are exact
    count = sum(int(col_len[w].prod(axis=1).sum()) for w in letter_blocks)
    if count > EXPAND_BUDGET:
        raise ValueError(
            f"unitary_action would generate {count} entries, over the budget of {EXPAND_BUDGET}"
        )


def s_of(vectors) -> AlgebraElement:
    """`algebra.s_of`."""
    arr = np.asarray(vectors, dtype=complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("expected a vector or a sequence of vectors")
    n = arr.shape[1]
    _check_near(np.linalg.norm(arr, axis=1), 1.0,
                f"factors must be unit vectors within {UNIT_TOL}")
    out = identity(n)
    for row in arr:
        factor = AlgebraElement._from_words(
            n, {((i,), ()): row[i - 1] for i in range(1, n + 1)}
        )
        out = multiply(out, factor)
    return out
