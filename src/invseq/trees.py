"""Label-increasing trees and their counting oracles (exhaustive
enumeration, ODE series, derivative operator).

A tree on the labels 0..n-1, rooted at 0, is given by its parent sequence:
entry i is the parent of label i+1. Labels increase along root-to-leaf
paths, so entry i lies in 0..i and the parent sequence is an inversion
sequence of length n-1; every inversion sequence is the parent sequence of
exactly one tree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .core import _integer
from .series import RationalSeries, _bound, series_Rk, series_Tk


def _tree_args(n, k):
    """n as an int >= 0 and k as None (unbounded) or an int >= 1, taken
    through operator.index so that nothing is truncated."""
    return _integer(n, "n", 0), None if k is None else _integer(k, "k", 1)


def iter_trees(n, k=None, root_unbounded=False):
    """The parent sequence of every label-increasing tree on n vertices
    with branching bounded by k (None = unbounded), lexicographically; with
    root_unbounded the root is exempt. The arguments are checked at the
    call, before the first tree.

    The walk is depth first on an explicit stack, so no n meets Python's
    recursion limit: entry i takes, in turn, each parent among 0..i that
    may still take a child (room[p] counts what p may take), and each
    sequence is yielded from its last entry.
    """
    n, k = _tree_args(n, k)
    room = [n if k is None else k] * n
    if root_unbounded and n:
        room[0] = n
    last = n - 2

    def walk():
        parents = []
        stack = [iter(range(1))]
        while stack:
            i = len(parents)
            for p in stack[-1]:
                if room[p]:
                    if i == last:
                        yield (*parents, p)
                    else:
                        room[p] -= 1
                        parents.append(p)
                        stack.append(iter(range(i + 2)))
                        break
            else:  # entry i is exhausted: take back the parent before it
                stack.pop()
                if parents:
                    room[parents.pop()] += 1

    return walk() if n > 1 else iter([()] * n)  # no tree on 0 vertices, one on 1


def count_trees_bruteforce(n, k, root_unbounded=False):
    """|L_{n,k}| (or |L'_{n,k}|) by exhaustive enumeration."""
    trees = iter_trees(n, k, root_unbounded)
    if n == 0:
        return 1
    return sum(1 for _ in trees)


def _series_args(n, k):
    """_tree_args for the series oracles, which need a bound: k = None is
    refused for every n, as series_Tk refuses it."""
    return _tree_args(n, _bound(k))


def count_trees_bounded(n, k):
    """|L_{n,k}| via the ODE series for T_k."""
    n, k = _series_args(n, k)
    if n == 0:
        return 1
    return series_Tk(k, n).egf_int(n)


def count_trees_root_unbounded(n, k):
    """|L'_{n,k}| via exp(T_k - 1).

    Removing the unbounded root of an n-vertex tree leaves a set of
    bounded increasing trees on the other n-1 labels, so |L'_{n,k}| is the
    (n-1)-th EGF coefficient of exp(T_k - 1), not the n-th; exhaustive
    enumeration confirms the shift.
    """
    n, k = _series_args(n, k)
    if n == 0:
        return 1
    return series_Rk(k, n - 1).egf_int(n - 1)


def boxed_counts_operator(k, n_max):
    """D^n(exp x) at x=0 for n = 0..n_max, with D = (sum_{j<=k} x^j/j!) d/dx.

    Term n equals |L'_{n+1,k}| (same root-removal shift as the EGF).
    Independent of the exp(T_k - 1) route; any disagreement between the
    two is a fault worth reporting, not reconciling. k is checked as that
    route checks it (series._bound), and n_max is an int >= 0.
    """
    k, n_max = _bound(k), _integer(n_max, "n_max", 0)
    order = 2 * n_max + 1
    f = RationalSeries(
        [Fraction(1, factorial(i)) for i in range(order + 1)], order, "exponential"
    )
    mult = RationalSeries(
        [Fraction(1, factorial(j)) for j in range(k + 1)], order, "exponential"
    )
    values = []
    for _ in range(n_max + 1):
        c0 = f.coefficient(0)
        if c0.denominator != 1:
            raise ValueError("operator iterate has non-integer value at 0")
        values.append(int(c0))
        f = (mult.truncate(f.order - 1)) * f.differentiate()
    return values
