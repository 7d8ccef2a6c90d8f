"""The exact-sum kernel of the assignment values against ``math.fsum``, bit for bit.

``almgren.exact_sums`` certifies a cascaded TwoSum per row and sends the rows
it cannot certify to ``math.fsum``; ``almgren.matched_values`` prices
matchings with it.  The references are ``math.fsum`` on each row and
``scalar_assignment.matched_value`` on each pair.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_assignment import matched_value

from almqr import almgren
from almqr.almgren import _cascade_sums, exact_sums, matched_values

SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 3 * 2.0**-1074, 2.0**-500, 2.0**500, -(2.0**500),
            1.0, -1.0, 2.0**-53, 2.0**53, 2.0**-600, 2.0**-900, 2.0**999]

# wide: any 53-bit mantissa from subnormals to 2^503; narrow: small mantissas in a
# narrow window of exponents, so that sums often land on (or next to) a half-ulp tie
wide = st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1100, 450))
narrow = st.builds(math.ldexp, st.integers(-64, 64), st.integers(-60, 60))
terms = st.one_of(wide, narrow, st.sampled_from(SPECIALS), st.floats(allow_nan=False, allow_infinity=False))


def _outcome(fn):
    """The bytes of fn()'s value, or the type of what it raised."""
    try:
        return np.asarray(fn(), dtype=np.float64).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _fsum_rows(X):
    return np.array([math.fsum(row) for row in X.tolist()], dtype=np.float64).reshape(len(X))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.lists(st.lists(terms, min_size=k, max_size=k), min_size=1, max_size=12)))
def test_exact_sums_equal_fsum(rows):
    X = np.array(rows, dtype=np.float64)
    assert _outcome(lambda: exact_sums(X)) == _outcome(lambda: _fsum_rows(X))
    # a certified row needs no fallback: the certificate itself is never wrong
    with np.errstate(over="ignore"):
        r, certified = _cascade_sums(X)
    for row, value in zip(X[certified].tolist(), r[certified].tolist()):
        assert np.float64(value).tobytes() == np.float64(math.fsum(row)).tobytes()


coords = st.one_of(wide, narrow, st.sampled_from(SPECIALS))


@st.composite
def matched_batches(draw):
    """Tuples P, Q (m, d, n) with coordinates from a small drawn pool (so differences repeat and tie), and matchings."""
    m, d, n = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pool = np.array(draw(st.lists(coords, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P, Q = pool[rng.integers(len(pool), size=(2, m, d, n))]
    return P, Q, np.array([rng.permutation(d) for _ in range(m)])


@settings(max_examples=200, deadline=None)
@given(matched_batches())
def test_matched_values_equal_the_fsum_reference(batch):
    P, Q, perms = batch

    def reference():
        return [matched_value(p, q, perm) for p, q, perm in zip(P, Q, perms)]

    with np.errstate(over="ignore"):
        assert _outcome(lambda: matched_values(P, Q, perms)) == _outcome(reference)


# squares 2.25, 2^-52 and 2^-110: 2.25 + 2^-52 is a half-ulp tie, and the third
# square pushes the exact sum just past it, but the cascade's residuals do not
# add exactly, so the row needs the fallback (the cascade alone rounds down)
NEAR_TIE = [1.5, 2.0**-26, 2.0**-55]


def test_an_uncertified_near_tie_goes_to_fsum():
    X = np.array([[2.25, 2.0**-52, 2.0**-110], [2.0**-110, 2.25, 2.0**-52], [1.0, 2.0**-53, 0.0]])
    r, certified = _cascade_sums(X)
    assert certified.tolist() == [False, False, True]
    assert r[0] == 2.25 != math.fsum(X[0].tolist()) == 2.25 + 2.0**-51
    assert exact_sums(X).tobytes() == _fsum_rows(X).tobytes()
    P = np.array([[NEAR_TIE, [3.0, 0.0, -1.0]], [[0.0, 0.5, 2.0], NEAR_TIE[::-1]]])
    Q = np.zeros_like(P)
    perms = np.array([[0, 1], [1, 0]])
    ref = [matched_value(p, q, perm) for p, q, perm in zip(P, Q, perms)]
    assert matched_values(P, Q, perms).tobytes() == np.array(ref).tobytes()


def test_the_certificate_at_its_edges():
    # every residual of e is a little under half a spacing of e, and three of
    # them carry the exact sum past the tie that the cascade's r = 2.25 sits under
    x = 2.0**-106 * (1 - 2.0**-20)
    X = np.array([[2.25, 2.0**-52 - 2.0**-105, x, x, x],
                  # r = 4 is a power of two: the gap below it is half the gap above,
                  # and the exact sum lies just past the lower midpoint
                  [4.0, -(2.0**-52), -x, 0.0, 0.0]])
    r, certified = _cascade_sums(X)
    assert r.tolist() == [2.25, 4.0] and not certified.any()
    assert exact_sums(X).tolist() == [2.25 + 2.0**-51, 4.0 - 2.0**-51] == _fsum_rows(X).tolist()


def test_every_row_on_the_fallback_keeps_the_bits(monkeypatch):
    rng = np.random.default_rng(60)
    P = rng.normal(size=(40, 5, 3)) * np.exp2(rng.integers(-40, 40, size=(40, 1, 1)))
    Q = rng.normal(size=(40, 5, 3))
    P[::7, :, -1] = Q[::7, :, -1] = 0.0  # a zero coordinate: the padding of mixed n
    P[1::7] = Q[1::7]  # coincident tuples
    perms = np.array([rng.permutation(5) for _ in range(40)])
    P[2, 0] = NEAR_TIE
    Q[2, perms[2, 0]] = 0.0
    ref = np.array([matched_value(p, q, perm) for p, q, perm in zip(P, Q, perms)])
    assert matched_values(P, Q, perms).tobytes() == ref.tobytes()
    monkeypatch.setattr(almgren, "_cascade_sums", lambda X: (np.full(len(X), np.nan), np.zeros(len(X), dtype=bool)))
    assert matched_values(P, Q, perms).tobytes() == ref.tobytes()


def test_exact_sums_of_empty_and_single_term_rows():
    assert exact_sums(np.zeros((3, 0))).tobytes() == np.zeros(3).tobytes()
    assert exact_sums(np.zeros((0, 4))).shape == (0,)
    X = np.array([[-0.0], [5e-324], [-(2.0**500)], [0.0]])
    assert exact_sums(X).tobytes() == _fsum_rows(X).tobytes()  # -0.0 sums to +0.0, as in fsum


def test_exact_sums_raise_where_fsum_raises():
    with pytest.raises(OverflowError):
        exact_sums(np.array([[1.0, 1.0], [1e308, 1e308]]))
    with pytest.raises(ValueError):
        exact_sums(np.array([[np.inf, -np.inf]]))
    X = np.array([[np.inf, 1.0], [np.nan, 0.0], [2.0**1000, 2.0**1000]])
    assert exact_sums(X).tobytes() == _fsum_rows(X).tobytes()
