import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from grflab import DomainError, RandomStream, normal_cdf, normal_quantile
from grflab.rng import GAMMA, normal_matrix, uniform_matrix

from conftest import bisect_normal_quantile


def test_stream_determinism_bitwise():
    a = RandomStream(42, 7).normals(64)
    b = RandomStream(42, 7).normals(64)
    assert np.array_equal(a, b)


def test_distinct_indices_differ():
    a = RandomStream(42, 0).uniforms(32)
    b = RandomStream(42, 1).uniforms(32)
    assert not np.array_equal(a, b)


def test_counter_continuation_matches_one_shot():
    s = RandomStream(5, 3)
    first = s.uniforms(3)
    second = s.uniforms(4)
    whole = RandomStream(5, 3).uniforms(7)
    assert np.array_equal(np.concatenate([first, second]), whole)


def test_uniform_matrix_matches_streams():
    mat = uniform_matrix(9, np.arange(5), 11)
    for i in range(5):
        assert np.array_equal(mat[i], RandomStream(9, i).uniforms(11))


def test_uniforms_open_interval():
    u = uniform_matrix(0, np.arange(100), 500)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_derive():
    s = RandomStream(1, 0)
    d = s.derive(17)
    assert (d.seed, d.index, d.counter) == (1, 17, 0)
    assert np.array_equal(d.uniforms(4), RandomStream(1, 17).uniforms(4))


def test_normal_cdf_values():
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(1.2815515655446004) - 0.9) < 1e-12
    for x in (-3.2, -0.7, 0.4, 2.9):
        assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) < 1e-15


def test_normal_quantile_against_bisection_oracle():
    for u in (0.001, 0.02, 0.25, 0.5, 0.75, 0.9, 0.995, 0.9999):
        assert abs(normal_quantile(u) - bisect_normal_quantile(u)) < 1e-10


def test_normal_quantile_frozen_values():
    assert normal_quantile(0.5) == 0.0
    assert abs(normal_quantile(0.9) - 1.2815515655446004) < 1e-9
    assert abs(normal_quantile(0.995) - 2.5758293035489004) < 1e-9


def test_normal_quantile_domain_error():
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(DomainError):
            normal_quantile(bad)
    with pytest.raises(DomainError):
        normal_quantile(np.array([0.5, 1.0]))


def test_scalar_and_array_quantiles_are_bit_equal():
    u = uniform_matrix(11, [0], 20000)[0]
    u = np.concatenate([u, [1e-300, 5e-324, 1e-12, 0.5, 1.0 - 2.0 ** -53]])
    scalar = np.array([normal_quantile(float(x)) for x in u])
    assert np.array_equal(scalar, normal_quantile(u))


def _ulps(got, want) -> float:
    """Largest distance in units in the last place of ``want``."""
    return float(np.max(np.abs(got - want) / np.spacing(np.abs(want))))


def test_normals_are_ndtri_of_the_uniforms():
    """The numpy port of Cephes ndtri against ``scipy.special.ndtri``: numpy's
    log differs from libm's on a few inputs, so a few stream draws in 10^5
    move by a few ulp; the rest are bit-identical."""
    idx = np.arange(3, 40)
    z = normal_matrix(77, idx, 4000, offset=5)
    want = ndtri(uniform_matrix(77, idx, 4000, offset=5))
    assert _ulps(z, want) <= 8
    assert np.count_nonzero(z != want) <= 1e-3 * z.size
    s = RandomStream(77, 9, counter=5)
    assert _ulps(s.normals(64), ndtri(RandomStream(77, 9, counter=5).uniforms(64))) <= 8
    # deep tails down to the smallest subnormal, and the branch edges at
    # exp(-2), 1 - exp(-2) and exp(-32)
    edges = [e for x in (0.13533528323661269189, 1.0 - 0.13533528323661269189, math.exp(-32))
             for e in (np.nextafter(x, 0.0), x, np.nextafter(x, 1.0))]
    u = np.concatenate([np.geomspace(5e-324, 0.5, 20001), 1.0 - np.geomspace(2.0 ** -53, 0.5, 20001),
                        [5e-324, 2.0 ** -54, 0.5, 1.0 - 2.0 ** -53, *edges]])
    assert _ulps(normal_quantile(u), ndtri(u)) <= 8


def test_a_rows_normals_keep_their_bits_inside_a_larger_matrix():
    # normals are evaluated in tiles of 2**17 draws, which cut rows anywhere: row 43 here
    big = normal_matrix(5, np.arange(50), 3001)
    for i in (0, 10, 43, 49):
        assert big[i].tobytes() == normal_matrix(5, [i], 3001)[0].tobytes()
        assert big[i, 7:19].tobytes() == RandomStream(5, i, counter=7).normals(12).tobytes()


def test_quantile_cdf_round_trip():
    xs = np.linspace(-6.0, 6.0, 241)
    worst = max(abs(normal_quantile(normal_cdf(float(x))) - x) for x in xs)
    assert worst <= 1e-8


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
def test_quantile_inverts_cdf_property(u):
    assert abs(normal_cdf(normal_quantile(u)) - u) < 1e-11


def test_normal_moments():
    z = normal_matrix(2024, np.arange(200), 500)
    n = z.size
    assert abs(z.mean()) < 5.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)



def _mix_reference(z: int) -> int:
    m64 = (1 << 64) - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m64
    return z ^ (z >> 31)


def _word_reference(seed: int, index: int, draw: int) -> int:
    """Word ``draw`` of stream (seed, index) in Python ints, as the module docstring states."""
    m64 = (1 << 64) - 1
    key = _mix_reference((seed + (index + 1) * GAMMA) & m64)
    return _mix_reference((key + (draw + 1) * GAMMA) & m64)


def _uniform_reference(seed: int, index: int, draw: int) -> float:
    word = _word_reference(seed, index, draw)
    return min(((word >> 11) + 0.5) * 2.0 ** -53, 1.0 - 2.0 ** -53)


def _unmix_reference(z: int) -> int:
    """The inverse of ``_mix_reference``: splitmix's finalizer is a bijection."""
    m64 = (1 << 64) - 1

    def unshift(z, s):
        x = z
        for _ in range(64 // s + 1):
            x = z ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift((z * pow(0x94D049BB133111EB, -1, 1 << 64)) & m64, 27)
    return unshift((z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & m64, 30)


def _seed_for_first_word(word: int) -> int:
    """A seed whose stream 0 yields ``word`` as its first draw."""
    m64 = (1 << 64) - 1
    key = (_unmix_reference(word) - GAMMA) & m64
    return (_unmix_reference(key) - GAMMA) & m64


@pytest.mark.parametrize("word, u", [
    ((1 << 64) - 1, 1.0 - 2.0 ** -53),  # (2**53 - 1 + 0.5) * 2**-53 rounds to 1.0
    ((1 << 64) - (1 << 11) - 1, 1.0 - 2.0 ** -52),
    (0, 2.0 ** -54),
])
def test_the_end_words_give_uniforms_inside_the_open_interval(word, u):
    seed = _seed_for_first_word(word)
    assert _word_reference(seed, 0, 0) == word
    assert uniform_matrix(seed, [0], 1)[0, 0] == u == _uniform_reference(seed, 0, 0)
    assert RandomStream(seed).uniforms(1)[0] == u
    with np.errstate(all="raise"):  # the command line raises floating-point errors
        z = normal_matrix(seed, [0], 1)[0, 0]
        assert z == RandomStream(seed).normals(1)[0] == normal_quantile(u)
    assert 8.0 < abs(z) < 8.3 and (z > 0.0) == (u > 0.5)


@pytest.mark.parametrize("seed, indices, offset", [
    (0, [0, 1, 2], 0),
    (42, [7, 1000, 123456789], 3),
    (2 ** 63 + 12345, [0, 5], 17),
    (2 ** 64 - 1, [2 ** 40, 9], 0),
    (-3, [4], 2 ** 32),
])
def test_streams_match_a_python_int_reference(seed, indices, offset):
    n = 6
    want = np.array([[_uniform_reference(seed, i, offset + j) for j in range(n)]
                     for i in indices])
    assert np.array_equal(uniform_matrix(seed, indices, n, offset), want)
    assert _ulps(normal_matrix(seed, indices, n, offset), ndtri(want)) <= 8
