from itertools import product

import pytest

from invseq.bijections import (
    P3201,
    P3210,
    is_3201_by_characterization,
    is_3210_by_partition,
    map_3201_to_3210,
    map_3210_to_3201,
    maxima_layers,
    second_max_values,
    weak_ltr_maxima,
)
from invseq.core import contains


def invseqs(n):
    return product(*[range(i) for i in range(1, n + 1)]) if n else [()]


class TestLayers:
    def test_weak_maxima(self):
        assert weak_ltr_maxima((0, 1, 0, 1, 2)) == (0, 1, 3, 4)
        assert weak_ltr_maxima(()) == ()

    def test_layer_partition(self):
        layers = maxima_layers((0, 1, 2, 3, 2, 0, 1))
        assert layers.x == (0, 1, 2, 3)
        assert layers.y == (4,)
        assert layers.z == (5, 6)

    def test_layers_cover_positions(self):
        for e in invseqs(6):
            layers = maxima_layers(e)
            assert sorted(layers.x + layers.y + layers.z) == list(range(6))


class TestSecondMax:
    def test_empty_prefix(self):
        assert second_max_values((0, 1), 0) == (None, None)

    def test_dominated_needs_earlier_larger(self):
        # 2 at position 1 is never dominated; 1 is dominated by it
        assert second_max_values((0, 2, 1), 3) == (2, 1)
        assert second_max_values((0, 1, 2), 3) == (2, None)

    def test_dominated_is_default(self):
        assert second_max_values((0, 2, 2), 3) == (2, None)


class TestCharacterizations:
    @pytest.mark.parametrize("n", range(8))
    def test_3210_partition_is_equivalence(self, n):
        for e in invseqs(n):
            assert is_3210_by_partition(e) == (not contains(e, P3210))

    @pytest.mark.parametrize("n", range(8))
    def test_3201_characterization_is_equivalence(self, n):
        for e in invseqs(n):
            assert is_3201_by_characterization(e) == (not contains(e, P3201))

    def test_naive_tie_rules_fail(self):
        # both sequences avoid 3201; a second maximum that counted the tied
        # 2s (first) or skipped them (second) would flag them as containing it
        for e in [(0, 0, 2, 1, 2, 0, 1), (0, 0, 2, 1, 3, 0, 1)]:
            assert not contains(e, P3201)
            assert is_3201_by_characterization(e)


class TestBijection:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            map_3210_to_3201((0, 1, 2, 3, 2, 1, 0))
        with pytest.raises(ValueError):
            map_3201_to_3210((0, 1, 2, 3, 2, 0, 1))
        # entries outside 0 <= e_i <= i
        for bad in [(0, 5), (3, 2, 1, 0), (0, -1), (1,)]:
            with pytest.raises(ValueError):
                map_3210_to_3201(bad)
            with pytest.raises(ValueError):
                map_3201_to_3210(bad)

    def test_worked_example(self):
        e = (0, 1, 2, 3, 2, 0, 1)
        assert not contains(e, P3210)
        f = map_3210_to_3201(e)
        assert not contains(f, P3201)
        assert map_3201_to_3210(f) == e

    def test_multiset_tie_map_collides(self):
        # a greedy map whose second maximum counted ties sent both of these
        # avoiders of 3210 and 3201 to the second; the map fixes each
        for e in [(0, 0, 2, 1, 3, 0, 2, 1), (0, 0, 2, 1, 3, 1, 2, 0)]:
            assert not contains(e, P3210) and not contains(e, P3201)
            assert map_3210_to_3201(e) == e
            assert map_3201_to_3210(e) == e

    @pytest.mark.parametrize("n", range(8))
    def test_bijection_properties(self, n):
        avoiders_3201 = {e for e in invseqs(n) if not contains(e, P3201)}
        images = set()
        for e in invseqs(n):
            # each map is defined exactly on the avoiders of its pattern
            if e not in avoiders_3201:
                with pytest.raises(ValueError):
                    map_3201_to_3210(e)
            if contains(e, P3210):
                with pytest.raises(ValueError):
                    map_3210_to_3201(e)
                continue
            f = map_3210_to_3201(e)
            layers = maxima_layers(e)
            # image avoids 3201, fixes the x/y layers, preserves the multiset
            assert not contains(f, P3201)
            assert all(f[i] == e[i] for i in layers.x + layers.y)
            assert sorted(f) == sorted(e)
            assert map_3201_to_3210(f) == e
            images.add(f)
        assert images == avoiders_3201
