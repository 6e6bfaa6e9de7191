"""Structural characterizations of 3210- and 3201-avoiders and the explicit
bijection between the two avoidance classes.

Positions are 0-based. Three readings of the "second largest" prefix
value are provided: "multiset" (second entry of the prefix sorted
descending, ties included), "distinct" (second largest distinct value),
and "dominated" (largest prefix value with a strictly greater value
before it). Exhaustive comparison against brute-force containment shows
only the dominated reading makes the avoidance criterion an equivalence
(counterexamples: (0,0,2,1,2,0,1) for multiset, (0,0,2,1,3,0,1) for
distinct). The same holds for the greedy bijection: under the multiset
reading it stops being injective at n=8 (both (0,0,2,1,3,0,2,1) and its
would-be image (0,0,2,1,3,1,2,0) map to the latter), while the dominated
reading gives an exhaustive identity round-trip for all n <= 8. The
dominated reading is therefore the default everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Pattern, _raw, contains

P3210 = Pattern((3, 2, 1, 0))
P3201 = Pattern((3, 2, 0, 1))


@dataclass(frozen=True)
class MaximaLayers:
    x: tuple  # weak left-to-right maxima positions
    y: tuple  # weak LTR maxima of the remainder
    z: tuple  # everything else


def weak_ltr_maxima(e):
    """Positions j with e_i <= e_j for all i < j (0-based)."""
    e = _raw(e)
    out = []
    best = None
    for j, x in enumerate(e):
        if best is None or x >= best:
            out.append(j)
            best = x
    return tuple(out)


def maxima_layers(e):
    e = _raw(e)
    x = weak_ltr_maxima(e)
    xset = set(x)
    rest = [i for i in range(len(e)) if i not in xset]
    y_rel = weak_ltr_maxima([e[i] for i in rest])
    y = tuple(rest[i] for i in y_rel)
    yset = set(y)
    z = tuple(i for i in rest if i not in yset)
    return MaximaLayers(x, y, z)


def is_3210_by_partition(e):
    """3210-avoidance via the three-weakly-increasing-layers criterion."""
    e = _raw(e)
    layers = maxima_layers(e)
    vals = [e[i] for i in layers.z]
    return all(a <= b for a, b in zip(vals, vals[1:]))


def second_max_values(e, i, tie="dominated"):
    """(largest, second largest) among e_0..e_{i-1}; None where undefined."""
    e = _raw(e)
    prefix = e[:i]
    if not prefix:
        return None, None
    m1 = max(prefix)
    if tie == "multiset":
        if len(prefix) < 2:
            return m1, None
        m2 = sorted(prefix, reverse=True)[1]
    elif tie == "distinct":
        distinct = sorted(set(prefix), reverse=True)
        m2 = distinct[1] if len(distinct) >= 2 else None
    elif tie == "dominated":
        best = None
        running = prefix[0]
        for v in prefix[1:]:
            if v < running and (best is None or v > best):
                best = v
            running = max(running, v)
        m2 = best
    else:
        raise ValueError(f"unknown tie rule {tie!r}")
    return m1, m2


def is_3201_by_characterization(e, tie="dominated"):
    """3201-avoidance via the M^2 prefix criterion: every entry is a weak
    LTR maximum, a weak 2nd LTR maximum, or no later entry lands strictly
    between it and the prefix's second maximum."""
    e = _raw(e)
    n = len(e)
    layers = maxima_layers(e)
    covered = set(layers.x) | set(layers.y)
    for i in range(n):
        if i in covered:
            continue
        _, m2 = second_max_values(e, i, tie)
        if m2 is None:
            continue
        for j in range(i + 1, n):
            if not (e[j] <= e[i] or e[j] >= m2):
                return False
    return True


def map_3210_to_3201(e, tie="dominated"):
    """The explicit bijection I_n(3210) -> I_n(3201).

    Keeps the first two maxima layers fixed and refills the remaining
    positions greedily, largest available value below the running second
    maximum first.
    """
    e = _raw(e)
    if contains(e, P3210):
        raise ValueError("input contains 3210; the map is undefined")
    layers = maxima_layers(e)
    f = list(e)
    pool = sorted(e[i] for i in layers.z)  # ascending; we extract maxima
    for pos in layers.z:
        _, m2 = second_max_values(f, pos, tie)
        pick = None
        for idx in range(len(pool) - 1, -1, -1):
            if m2 is not None and pool[idx] < m2:
                pick = idx
                break
        if pick is None:
            raise RuntimeError(
                f"no admissible value for position {pos}; tie rule {tie!r} faulty"
            )
        f[pos] = pool.pop(pick)
    return tuple(f)


def map_3201_to_3210(f):
    """Inverse of map_3210_to_3201: recompute the layers on f and reassign
    the leftover multiset in weakly increasing order (the order forced on
    the third layer of a 3210-avoider)."""
    f = _raw(f)
    if contains(f, P3201):
        raise ValueError("input contains 3201; the inverse is undefined")
    layers = maxima_layers(f)
    pool = sorted(f[i] for i in layers.z)
    e = list(f)
    for pos, val in zip(layers.z, pool):
        e[pos] = val
    return tuple(e)
