"""Patterns, inversion sequences, containment, and the Lehmer code.

All sequences are plain tuples of nonnegative integers; positions are
0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


def _cmp(x, y):
    return 1 if x > y else -1 if x < y else 0


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
        word = tuple(int(v) for v in self.entries)
        if not word:
            raise ValueError("pattern must have length >= 1")
        if any(v < 0 for v in word):
            raise ValueError("pattern entries must be nonnegative")
        object.__setattr__(self, "entries", canonicalize(word))

    @classmethod
    def parse(cls, text):
        """Parse '0021' (single digits) or '10,2,0' (comma-separated)."""
        text = text.strip()
        if "," in text:
            parts = text.split(",")
            values = []
            for pos, tok in enumerate(parts):
                tok = tok.strip()
                if not tok.isdigit():
                    raise ValueError(
                        f"bad pattern token {tok!r} at position {pos}"
                    )
                values.append(int(tok))
            return cls(tuple(values))
        for pos, ch in enumerate(text):
            if not ch.isdigit():
                raise ValueError(f"bad pattern character {ch!r} at position {pos}")
        if not text:
            raise ValueError("empty pattern")
        return cls(tuple(int(ch) for ch in text))

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
    bounds = tuple(int(s) for s in bounds)
    if any(s < 1 for s in bounds):
        raise ValueError("bounds must be positive")
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("bounds must be strictly increasing")
    return bounds


def ordinary_bounds(n):
    """The bound set (1, 2, ..., n) of ordinary inversion sequences."""
    return tuple(range(1, n + 1))


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


def _completes(seq, n, nxt, rel):
    """True iff seq[:n] followed by nxt holds an occurrence ending at nxt.

    rel is the pattern's relation table (see _relations). The search picks
    the positions of the pattern head p[:-1] in seq[:n], left to right;
    each choice must stand in the required relation to nxt and to every
    value picked before it.
    """
    last = len(rel) - 1
    if n < last:
        return False
    to_last = rel[last]
    chosen = []

    def pick(start, t):
        if t == last:
            return True
        need = rel[t]
        r_last = to_last[t]
        for i in range(start, n - (last - t) + 1):
            x = seq[i]
            if (1 if nxt > x else -1 if nxt < x else 0) != r_last:
                continue
            for c, r in zip(chosen, need):
                if (1 if x > c else -1 if x < c else 0) != r:
                    break
            else:
                chosen.append(x)
                if pick(i + 1, t + 1):
                    return True
                chosen.pop()
        return False

    return pick(0, 0)


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
