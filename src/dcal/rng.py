"""Deterministic 64-bit random stream used by every seeded component.

The generator is counter-based so that draws depend only on ``(seed, draw
index)`` and never on platform, evaluation order, or numpy version.  Draw ``k``
(0-based) from a stream with seed ``s`` is::

    raw_k = mix64((s + (k + 1) * GOLDEN) mod 2**64)

where ``GOLDEN = 0x9E3779B97F4A7C15`` and ``mix64`` is the SplitMix64
finalizer::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all arithmetic mod 2**64).  Derived quantities are defined on top of the
raw draws:

* uniform in [0, 1):  ``(raw >> 11) * 2**-53``
* standard normals:   Box-Muller pairs; the radius uses
  ``u1 = ((raw >> 11) + 1) * 2**-53`` (in (0, 1], so log never sees 0) and
  the angle uses the next draw's [0, 1) uniform.
* permutation of n:   argsort of n raw draws.  The n words of one stream
  are all distinct (the counters differ mod 2**64 because GOLDEN is odd,
  and the finalizer is a bijection), so every argsort gives the stable
  order.
* integer in [0, b):  ``floor(uniform * b)``.

Independent substreams come from :func:`derive`, which folds integer path
components (repetition index, column index, ...) into a new seed through the
same finalizer.  Distinct key tuples give distinct seeds by construction.

:func:`derive_array` and :func:`raw_block` are the array forms of one
``derive`` step and of the first draws of many streams; the batched engine
and the simulation generators use them to draw every row's words in one
call, bit for bit the words the per-stream methods return.  The ``*_of``
recipes turn such words into uniforms, normals, integers and permutations
exactly as the stream methods do.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

_U_GOLDEN = np.uint64(_GOLDEN)
_U_M1 = np.uint64(0xBF58476D1CE4E5B9)
_U_M2 = np.uint64(0x94D049BB133111EB)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_U1 = np.uint64(1)
_TWO_NEG_53 = 2.0 ** -53


def _mix_array(z: np.ndarray, temp: np.ndarray | None = None) -> np.ndarray:
    """The finalizer applied to ``z`` in place; ``z`` must be a fresh array.

    One shift temporary of its size is alive at a time: ``temp`` (uint64 of
    ``z``'s shape) when given, else a new array.
    """
    # uint64 arithmetic wraps mod 2**64, which is exactly what SplitMix64 wants
    t = np.right_shift(z, _U30, out=temp)
    z ^= t
    z *= _U_M1
    np.right_shift(z, _U27, out=t)
    z ^= t
    z *= _U_M2
    np.right_shift(z, _U31, out=t)
    z ^= t
    return z


def _mix_int(z: int) -> int:
    z &= _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def derive(seed: int, *keys: int) -> int:
    """Fold integer path components into ``seed``, yielding a substream seed.

    For a fixed base seed, distinct key tuples of equal length always map to
    distinct seeds (the finalizer is a bijection on 64-bit words).
    """
    s = seed & _MASK
    for k in keys:
        s = _mix_int(((s + _GOLDEN) & _MASK) ^ _mix_int(k))
    return s


def derive_array(seeds, keys) -> np.ndarray:
    """``derive(seed, key)`` elementwise over broadcast uint64 arrays.

    Seeds and keys must lie in [0, 2**64); the result is bit-identical to the
    scalar :func:`derive` with one key.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    k = np.array(keys, dtype=np.uint64)  # a copy, mixed in place
    shape = np.broadcast_shapes(s.shape, k.shape)
    # at least 1-d: numpy scalar arithmetic would warn on the intended wraparound
    out = _mix_array((np.atleast_1d(s) + _U_GOLDEN) ^ _mix_array(np.atleast_1d(k)))
    return out.reshape(shape)


def raw_block(seeds, count: int, out=None, temp=None) -> np.ndarray:
    """First ``count`` raw words of the stream seeded by each entry of ``seeds``.

    The result has shape ``seeds.shape + (count,)``; its last axis equals
    ``Stream(seed).raw(count)`` for the matching seed.  The counters are
    mixed in the result's own array, so the block and one temporary of its
    size are the only large arrays alive; ``out`` and ``temp``, uint64
    arrays of the result's shape, hold them instead of new arrays.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    ks = np.arange(1, count + 1, dtype=np.uint64)
    return _mix_array(np.add(s[..., None], ks * _U_GOLDEN, out=out), temp)


def uniforms_of(raw: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from raw words (the stream's uniform recipe)."""
    # the shifted words are cast straight into the float array
    u = np.right_shift(raw, _U11, out=np.empty(raw.shape), casting="unsafe")
    u *= _TWO_NEG_53
    return u


def integers_of(raw: np.ndarray, bound: int, out=None, temp=None) -> np.ndarray:
    """Integers uniform on [0, bound) from raw words (the stream's recipe),
    in ``out`` (int64, may be ``raw``'s memory) and through the uniforms in
    ``temp`` (float64, apart from both) when given, new arrays otherwise."""
    # (k * 2**-53) * bound and k * (bound * 2**-53) are both one rounding of
    # the exact product, since scaling by 2**-53 is exact: the same bits
    u = np.right_shift(raw, _U11, out=np.empty(raw.shape) if temp is None else temp,
                       casting="unsafe")
    out = np.empty(raw.shape, dtype=np.int64) if out is None else out
    return np.multiply(u, bound * _TWO_NEG_53, out=out, casting="unsafe")


def normals_of(raw: np.ndarray) -> np.ndarray:
    """Standard normals from raw words (the stream's Box-Muller recipe).

    The last axis holds an even number of words; each consecutive pair gives
    two normals, so the result has the shape of ``raw``.
    """
    u1 = ((raw[..., 0::2] >> _U11) + _U1).astype(np.float64) * _TWO_NEG_53
    u2 = (raw[..., 1::2] >> _U11).astype(np.float64) * _TWO_NEG_53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(raw.shape)
    out[..., 0::2] = radius * np.cos(angle)
    out[..., 1::2] = radius * np.sin(angle)
    return out


def permutation_of(raw: np.ndarray) -> np.ndarray:
    """Permutations along the last axis of raw words (argsort).

    Each row along the last axis must hold distinct words, as consecutive
    words of one stream do: without ties every argsort returns the order a
    stable sort gives, so numpy's default (SIMD) sort yields the same
    permutation on every platform.
    """
    return np.argsort(raw, axis=-1)


def derive_text(seed: int, text: str) -> int:
    """Fold a string (e.g. a feature name) into ``seed``.

    The UTF-8 bytes are folded in 8-byte little-endian chunks, with the byte
    length appended so prefixes cannot collide with padded strings.
    """
    data = text.encode("utf-8")
    keys = [
        int.from_bytes(data[i : i + 8], "little") for i in range(0, len(data), 8)
    ]
    return derive(seed, *keys, len(data))


class Stream:
    """Counter-based SplitMix64 stream (exact definition in the module docstring)."""

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._count = 0

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words as a uint64 array."""
        ks = np.arange(self._count + 1, self._count + count + 1, dtype=np.uint64)
        self._count += count
        return _mix_array(np.uint64(self.seed) + ks * _U_GOLDEN)

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` float64 uniforms in [0, 1)."""
        return uniforms_of(self.raw(count))

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard normal draws via Box-Muller pairs."""
        return normals_of(self.raw(2 * ((count + 1) // 2)))[:count]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of ``range(n)`` (argsort of raw keys)."""
        return permutation_of(self.raw(n))

    def integers(self, count: int, bound: int) -> np.ndarray:
        """``count`` int64 draws uniform on [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return integers_of(self.raw(count), bound)
