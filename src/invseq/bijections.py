"""Structural characterizations of 3210- and 3201-avoiders and the explicit
bijection between the two avoidance classes.

Positions are 0-based. Everything here reads one left-to-right scan,
`_scan`. It puts each position in one of three maxima layers: x holds the
weak left-to-right maxima, y the weak left-to-right maxima of the rest,
and z everything else. It also gives m2[i], the largest y value before
position i (-1 if there is none). That is the prefix's second maximum in
the dominated sense: the largest value with a strictly larger one before
it. A dominated entry is not in x, so it is in y or z; every z entry lies
below some earlier y entry, and every y entry is dominated. So the
largest dominated value of a prefix is the running maximum of its y
layer, for any sequence.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import Pattern, as_inversion_sequence

P3210 = Pattern((3, 2, 1, 0))
P3201 = Pattern((3, 2, 0, 1))


@dataclass(frozen=True)
class MaximaLayers:
    x: tuple  # weak left-to-right maxima positions
    y: tuple  # weak LTR maxima of the remainder
    z: tuple  # everything else


def _scan(e):
    """(layers, m2): layers holds the positions in x, y and z as three lists;
    m2[i] is the largest y value in e[:i], or -1, for 0 <= i <= len(e)."""
    layers, m2 = ([], [], []), [-1]
    top = second = -1
    for i, v in enumerate(e):
        if v >= top:
            top, k = v, 0
        elif v >= second:
            second, k = v, 1
        else:
            k = 2
        layers[k].append(i)
        m2.append(second)
    return layers, m2


def weak_ltr_maxima(e):
    """Positions j with e_i <= e_j for all i < j (0-based)."""
    return tuple(_scan(e)[0][0])


def maxima_layers(e):
    return MaximaLayers(*map(tuple, _scan(e)[0]))


def _avoids_3210(e, z):
    values = [e[i] for i in z]
    return values == sorted(values)


def _avoids_3201(e, z, m2):
    return not any(e[i] < w < m2[i] for i in z for w in e[i + 1:])


def is_3210_by_partition(e):
    """3210-avoidance: the z values are weakly increasing."""
    return _avoids_3210(e, _scan(e)[0][2])


def second_max_values(e, i):
    """(largest, second largest) among e_0..e_{i-1}, the second in the
    dominated sense; None where undefined."""
    prefix = e[:i]
    m2 = _scan(prefix)[1][-1]
    return max(prefix, default=None), (m2 if m2 >= 0 else None)


def is_3201_by_characterization(e):
    """3201-avoidance: no later entry lies strictly between a z entry e_i
    and the second maximum m2[i] of the prefix before it."""
    layers, m2 = _scan(e)
    return _avoids_3201(e, layers[2], m2)


def map_3210_to_3201(e):
    """The explicit bijection I_n(3210) -> I_n(3201).

    Keeps the x and y layers and refills the z positions left to right,
    each with the largest remaining z value below m2. The z values of a
    3210-avoider increase, so the first k lie below m2 at the k-th z
    position, and one of them always remains.
    """
    e = as_inversion_sequence(e)
    (_, _, z), m2 = _scan(e)
    if not _avoids_3210(e, z):
        raise ValueError("input contains 3210; the map is undefined")
    pool = sorted(e[i] for i in z)
    f = list(e)
    for i in z:
        f[i] = pool.pop(bisect_left(pool, m2[i]) - 1)
    return tuple(f)


def map_3201_to_3210(f):
    """Inverse of map_3210_to_3201: put the z values of f back in weakly
    increasing order (the order forced on the z layer of a 3210-avoider)."""
    f = as_inversion_sequence(f)
    (_, _, z), m2 = _scan(f)
    if not _avoids_3201(f, z, m2):
        raise ValueError("input contains 3201; the inverse is undefined")
    e = list(f)
    for i, v in zip(z, sorted(f[i] for i in z)):
        e[i] = v
    return tuple(e)
