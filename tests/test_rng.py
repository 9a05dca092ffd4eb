import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcal.rng import (
    Stream,
    derive,
    derive_array,
    integers_of,
    permutation_of,
    raw_block,
    uniforms_of,
)

SEEDS = st.one_of(st.sampled_from([0, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1))
KEYS = st.one_of(st.sampled_from([0, 2 ** 35]), st.integers(0, 2 ** 35))


class TestArrayForms:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(SEEDS, min_size=1, max_size=20), st.lists(KEYS, min_size=1, max_size=5))
    def test_derive_array_is_scalar_derive(self, seeds, keys):
        got = derive_array(np.array(seeds, dtype=np.uint64)[:, None], np.array(keys, dtype=np.uint64))
        assert got.dtype == np.uint64 and got.shape == (len(seeds), len(keys))
        assert got.tolist() == [[derive(s, k) for k in keys] for s in seeds]

    @settings(max_examples=100, deadline=None)
    @given(SEEDS, KEYS)
    def test_derive_array_on_scalars(self, seed, key):
        got = derive_array(seed, key)
        assert got.shape == () and int(got) == derive(seed, key)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SEEDS, min_size=1, max_size=12), st.integers(0, 70))
    def test_raw_block_is_first_stream_draws(self, seeds, count):
        block = raw_block(np.array(seeds, dtype=np.uint64), count)
        assert block.shape == (len(seeds), count)
        for seed, row in zip(seeds, block):
            assert np.array_equal(row, Stream(seed).raw(count))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SEEDS, min_size=1, max_size=40),
           st.one_of(st.integers(1, 100), st.integers(1, 2 ** 62)))
    def test_uniforms_and_integers_follow_the_recipe(self, words, bound):
        # the module docstring's recipes in Python arithmetic, word by word
        raw = np.array(words, dtype=np.uint64)
        uniforms = [(w >> 11) * 2.0 ** -53 for w in words]
        assert uniforms_of(raw).tolist() == uniforms
        assert integers_of(raw, bound).tolist() == [math.floor(u * bound) for u in uniforms]
        assert raw.tolist() == words

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SEEDS, min_size=1, max_size=12), st.integers(0, 70),
           st.one_of(st.integers(1, 100), st.integers(1, 2 ** 62)), SEEDS, st.integers(0, 9))
    def test_forms_into_buffers(self, seeds, count, bound, garbage, spare):
        # views of the first words of longer buffers full of garbage, as the
        # engine's work space hands them out, get the same words and integers
        s = np.array(seeds, dtype=np.uint64)
        shape, size = (len(seeds), 1, count), len(seeds) * count
        words, temp = (np.full(size + spare, garbage, dtype=np.uint64) for _ in range(2))
        out = raw_block(s[:, None], count, words[:size].reshape(shape), temp[:size].reshape(shape))
        assert out.shape == shape and np.array_equal(words[:size], out.ravel())
        assert np.array_equal(out, raw_block(s[:, None], count))
        for seed, row in zip(seeds, out[:, 0]):
            assert np.array_equal(row, Stream(seed).raw(count))
        want = integers_of(out, bound)
        uniforms = temp[:size].reshape(shape).view(float)
        # into a buffer of its own, and in place over the words
        own = np.full(size + spare, garbage, dtype=np.uint64).view(np.int64)[:size].reshape(shape)
        assert np.array_equal(integers_of(out, bound, own, uniforms), want)
        got = integers_of(out, bound, out.view(np.int64), uniforms)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert np.array_equal(words[:size].view(np.int64), got.ravel())
        assert (words[size:] == garbage).all() and (temp[size:] == garbage).all()

    @settings(max_examples=150, deadline=None)
    @given(SEEDS, st.lists(KEYS, min_size=1, max_size=6), st.integers(1, 300),
           st.sampled_from(["blocks", "kfold", "slice"]))
    def test_permutation_is_the_stable_argsort(self, seed, keys, count, shape):
        # the stream's words are distinct, so the default argsort gives the
        # stable order in each call shape: the permutation corrections' shuffle
        # blocks, the k-fold (rows, repeats, n) words and the contamination
        # draws' slice of longer rows
        k = np.array(keys, dtype=np.uint64)
        if shape == "blocks":
            raw = raw_block(derive_array(seed, k), count)
        elif shape == "kfold":
            rows = derive_array(seed, k)
            raw = raw_block(derive_array(rows[:, None], np.arange(3)), count)
        else:
            raw = raw_block(derive_array(seed, k), 2 * count + 6)[:, count + 3 : 2 * count + 3]
        assert np.array_equal(permutation_of(raw), np.argsort(raw, axis=-1, kind="stable"))


def test_integers_need_a_positive_bound():
    for bound in (0, -3):
        with pytest.raises(ValueError, match="bound must be positive"):
            Stream(1).integers(4, bound)
