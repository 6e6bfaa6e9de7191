"""Patterns, inversion sequences, containment, and the Lehmer code.

All sequences are plain tuples of nonnegative integers; positions are
0-based throughout.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from functools import lru_cache
from operator import ge, index


class _Numpy:
    """numpy, imported at the first name looked up, which then stays on the
    instance; importlib's module lock makes other threads wait for it."""

    def __getattr__(self, name):
        import numpy
        return self.__dict__.setdefault(name, getattr(numpy, name))


def _numpy():
    """The numpy stand-in; a missing numpy raises here, at import."""
    if importlib.util.find_spec("numpy") is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    return _Numpy()


def _cmp(x, y):
    return 1 if x > y else -1 if x < y else 0


def _integer(value, what, least=None):
    """value as an int, never truncated (operator.index), and at least
    `least` if given; anything else raises ValueError naming `what`."""
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None
    if least is not None and value < least:
        raise ValueError(f"{what} must be " + (f">= {least}" if least else "nonnegative"))
    return value


def _integers(values, what, digits=False):
    """The entries of `values` as ints, never truncated: Python and numpy
    integers pass (operator.index), and with `digits` so do strings of
    decimal digits. Anything else raises ValueError naming the entry."""
    try:
        return tuple(map(index, values))
    except TypeError:
        pass
    out = []
    for pos, v in enumerate(values):
        if digits and isinstance(v, str) and v.isdecimal():
            out.append(int(v))
            continue
        try:
            out.append(index(v))
        except TypeError:
            raise ValueError(f"{what} {v!r} at position {pos} is not an integer") from None
    return tuple(out)


def canonicalize(word):
    """Compress a word's values to {0,...,m}, preserving relative order."""
    ranks = {v: r for r, v in enumerate(sorted(set(word)))}
    return tuple(ranks[v] for v in word)


@dataclass(frozen=True)
class Pattern:
    """A canonical avoidance pattern.

    Arbitrary integer words are accepted and normalized to canonical form
    (distinct values become exactly {0,...,m}); containment is invariant
    under this normalization since it is defined up to order isomorphism.
    """

    entries: tuple

    def __post_init__(self):
        word = _integers(self.entries, "pattern entry", digits=True)
        if not word:
            raise ValueError("pattern must have length >= 1")
        if any(v < 0 for v in word):
            raise ValueError("pattern entries must be nonnegative")
        object.__setattr__(self, "entries", canonicalize(word))

    @classmethod
    def parse(cls, text):
        """Parse '0021' (single digits) or '10,2,0' (comma-separated), the
        text and each token stripped of surrounding blanks. The reader is
        core._integers (through Pattern), whose ValueError names a bad
        entry's position; an empty text is refused as an empty pattern."""
        text = text.strip()
        return cls([tok.strip() for tok in text.split(",")] if "," in text else text)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        if max(self.entries) <= 9:
            return "".join(str(v) for v in self.entries)
        return ",".join(str(v) for v in self.entries)


def as_pattern(x):
    """x itself if it is a Pattern, else the Pattern its entries spell."""
    return x if isinstance(x, Pattern) else Pattern(tuple(x))


def validate_bounds(bounds):
    """Check a bound set: strictly increasing positive integers."""
    bounds = _integers(bounds, "bound")
    if bounds and min(bounds) < 1:
        raise ValueError("bounds must be positive")
    if any(map(ge, bounds, bounds[1:])):
        raise ValueError("bounds must be strictly increasing")
    return bounds


def ordinary_bounds(n):
    """The bound set (1, 2, ..., n) of ordinary inversion sequences."""
    return tuple(range(1, _integer(n, "n") + 1))


def order_isomorphic(a, b):
    """True iff the two sequences have identical pairwise <,=,> relations."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return False
    n = len(a)
    return all(
        _cmp(a[j], a[i]) == _cmp(b[j], b[i])
        for i in range(n)
        for j in range(i + 1, n)
    )


@lru_cache(maxsize=256)
def _relations(p):
    """rel[t][a] = _cmp(p[t], p[a]) for a < t, for the canonical entries p."""
    return tuple(tuple(_cmp(p[t], p[a]) for a in range(t)) for t in range(len(p)))


def _ends(head, x):
    """(lo, hi, tie): the positions in `head` of the largest value below x,
    of the smallest value above it, and of a value equal to it, each None
    where there is none; with a tie, lo and hi are None, as it alone binds.

    These are a letter's tightest bounds: once the values of a match of
    `head` are known, a letter after them stands in x's relation to every
    one of them iff it lies above the value at lo, below the one at hi and
    equal to the one at tie. Equal pattern values are equal in a match, so
    each value is given at its first position.
    """
    if x in head:
        return None, None, head.index(x)
    below = [v for v in head if v < x]
    above = [v for v in head if v > x]
    return (head.index(max(below)) if below else None,
            head.index(min(above)) if above else None, None)


def _completes(seq, n, nxt, rel):
    """True iff seq[:n] followed by nxt holds an occurrence ending at nxt.

    rel is the pattern's relation table (see _relations). The search picks
    the positions of the pattern head p[:-1] in seq[:n], left to right, by
    backtracking on an explicit stack: chosen[t] is the value picked for
    head entry t, and resume[t] the position after it, where the scan for
    entry t goes on once that pick is undone. A pick must stand in the
    required relation to nxt and to every value picked before it, and
    head entry t is looked for only where the last - t entries after it
    still fit (i < n - last + t + 1).
    """
    last = len(rel) - 1
    if n < last:
        return False
    to_last = rel[last]
    chosen = []
    resume = []
    t = i = 0
    while t < last:
        need, r_last, stop = rel[t], to_last[t], n - last + t + 1
        while i < stop:
            x = seq[i]
            i += 1
            if (1 if nxt > x else -1 if nxt < x else 0) != r_last:
                continue
            for c, r in zip(chosen, need):
                if (1 if x > c else -1 if x < c else 0) != r:
                    break
            else:
                chosen.append(x)
                resume.append(i)
                t += 1
                break
        else:
            if not t:
                return False
            t -= 1
            chosen.pop()
            i = resume.pop()
    return True


def contains(seq, pattern):
    """True iff some subsequence of seq is order-isomorphic to pattern.

    An occurrence ends at some entry, so seq contains the pattern iff some
    entry completes an occurrence after the entries before it.
    """
    rel = _relations(as_pattern(pattern).entries)
    return any(_completes(seq, i, seq[i], rel) for i in range(len(rel) - 1, len(seq)))


def avoids(seq, pattern):
    return not contains(seq, pattern)


def extend_avoids(seq, nxt, pattern):
    """Given seq avoiding pattern, does seq + (nxt,) still avoid it?

    Only subsequences ending at the new entry need checking; avoidance is
    hereditary under prefixes.
    """
    rel = _relations(as_pattern(pattern).entries)
    return not _completes(seq, len(seq), nxt, rel)


def is_permutation(perm):
    perm = tuple(perm)
    return sorted(perm) == list(range(1, len(perm) + 1))


def lehmer_encode(perm):
    """Inversion sequence of a permutation: e_i = #{j < i : perm_j > perm_i}."""
    perm = tuple(perm)
    if not is_permutation(perm):
        raise ValueError("not a permutation of 1..n")
    return tuple(
        sum(1 for j in range(i) if perm[j] > perm[i]) for i in range(len(perm))
    )


def as_inversion_sequence(e):
    """The entries of e, checked to form an inversion sequence (0 <= e_i <= i)."""
    e = tuple(e)
    for i, v in enumerate(e):
        if not 0 <= v <= i:
            raise ValueError(f"entry {v} at position {i} is outside 0..{i}")
    return e


def lehmer_decode(e):
    """Permutation of 1..n whose Lehmer code is the inversion sequence e."""
    e = as_inversion_sequence(e)
    n = len(e)
    avail = list(range(1, n + 1))
    out = [0] * n
    for i in range(n - 1, -1, -1):
        # perm_i is the (e_i + 1)-th largest among the values at positions <= i
        out[i] = avail.pop(len(avail) - 1 - e[i])
    return tuple(out)
