"""Exactness of the vectorized sums in ``paraself.bell``.

``_row_fsums`` of a ``[term, row]`` array (rows built here as lists, padded
with zero terms to ``2^k >= 2`` as the conditioned buffer is, and passed
transposed) must equal ``math.fsum`` of every row bit for bit; the
certifiers must make only a few Python ``fsum`` calls, not one per row, and
one walk over the table and one row-sum call, which walks the rows in
blocks, per certification or batch.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraself import bell, certify
from paraself.bell import (
    COEFF_SUM_LIMIT,
    CorrelationTable,
    Scheme,
    _row_fsums,
    chsh_expression,
)
from paraself.certify import (certify_theorem1, certify_theorem2, certify_theorem3,
                              certify_theorem4, sweep_noise)
from paraself.strategies import (adversary_copy, chsh_reference, compose, fullstats_reference,
                                 single_copy_table)

from conftest import deterministic_table_probs

CHSH_MAX = math.sqrt(8.0)


def _fsums(rows):
    return np.array([math.fsum(row) for row in rows.tolist()])


def _sums(rows):
    """``_row_fsums`` of ``rows`` given as ``[row, term]``, padded with zero terms to
    ``2^k >= 2`` of them."""
    width = max(2, 1 << (rows.shape[1] - 1).bit_length())
    return _row_fsums(np.pad(rows, [(0, 0), (0, width - rows.shape[1])]).T)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (got, want)


TERMS = st.one_of(
    st.floats(-COEFF_SUM_LIMIT, COEFF_SUM_LIMIT),
    st.floats(-1.0, 1.0),
    st.floats(-(2.0 ** -1000), 2.0 ** -1000),  # subnormals and the smallest normals
    st.sampled_from([0.0, -0.0]),
    # Powers of two a few binades apart put sums on midpoints between doubles.
    st.builds(math.ldexp, st.sampled_from([1.0, -1.0, 3.0, -3.0]), st.integers(-1074, 900)),
)


@st.composite
def term_rows(draw):
    width = draw(st.integers(0, 24))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = draw(st.lists(TERMS, min_size=width, max_size=width))
        if draw(st.booleans()):
            # Cancellation: half the row negated, so the sum is at or near zero.
            half = row[:width // 2]
            row = draw(st.permutations(half + [-v for v in half] + row[2 * len(half):]))
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), width)


@settings(max_examples=300)
@given(term_rows())
def test_row_fsums_equal_fsum_bit_for_bit(rows):
    _assert_same_bits(_sums(rows), _fsums(rows))


@pytest.mark.parametrize("kind", ["normal", "magnitudes", "cancel", "quarters", "subnormal",
                                  "midpoints"])
def test_row_fsums_equal_fsum_on_seeded_batches(kind):
    rng = np.random.default_rng(["normal", "magnitudes", "cancel", "quarters", "subnormal",
                                 "midpoints"].index(kind))
    x = rng.normal(size=(4000, 16))
    if kind == "magnitudes":
        x *= np.exp(rng.normal(size=x.shape) * 40)
    elif kind == "cancel":
        x = np.concatenate([x[:, :8], -x[:, :8]], axis=1)
        x += rng.normal(size=x.shape) * 1e-17 * (rng.random(x.shape) < 0.2)
    elif kind == "quarters":
        x = np.round(x * 4) / 4
        x[rng.random(x.shape) < 0.3] = -0.0
    elif kind == "subnormal":
        x *= 1e-310
    elif kind == "midpoints":
        x = rng.choice([1.0, -1.0, 2.0 ** -53, -2.0 ** -53, 3 * 2.0 ** -53, 2.0 ** -106, -0.0],
                       size=x.shape)
    x = rng.permuted(x, axis=1)
    _assert_same_bits(_sums(x), _fsums(x))


def _counting_fsum(monkeypatch):
    calls = []
    real = math.fsum

    def fsum(terms):
        calls.append(1)
        return real(terms)

    monkeypatch.setattr(math, "fsum", fsum)
    return calls


def test_row_fsums_fall_back_to_fsum_near_a_midpoint(monkeypatch):
    # 1 + 2^-53 lies on the midpoint between 1 and its successor, and 2^-106
    # pushes the exact sum above it: the tree's own rounding gives 1.0, but
    # the remainder is too close to the midpoint to trust, so fsum decides.
    rows = np.array([[1.0, 2.0 ** -53, 2.0 ** -106], [-1.0, -(2.0 ** -53), -(2.0 ** -106)],
                     [1.0, 2.0 ** -53, 0.0]])
    want = _fsums(rows)
    calls = _counting_fsum(monkeypatch)
    got = _sums(rows)
    _assert_same_bits(got, want)
    assert got[0] == math.nextafter(1.0, 2.0)
    assert len(calls) == 2  # the exact midpoint in row 3 needs no fallback


# The trees read rows of a power-of-two width, padded here with zero terms; a
# partial sum of fsum's can overflow where the trees' halves cancel, as in the
# last row, so large terms go to fsum even when the trees' sum is finite.  No
# numpy RuntimeWarning may escape.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row,outcome", [
    ([math.inf, 1.0], math.inf),
    ([-math.inf, -math.inf], -math.inf),
    ([math.nan, 1.0], None),
    ([math.inf, -math.inf], ValueError),
    ([1.7e308, 1.7e308], OverflowError),
    ([1.0, math.inf, 2.0], math.inf),
    ([math.nan, -math.inf, math.inf], ValueError),
    ([-1.7e308, 1.0, -1.7e308], OverflowError),
    ([1.7e308, 1.7e308, -1.7e308, -1.7e308], OverflowError),
])
def test_row_fsums_hand_non_finite_rows_to_fsum(row, outcome):
    rows = np.array([[0.5, 0.25] + [0.0] * (len(row) - 2), row])
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            math.fsum(row)
        with pytest.raises(outcome):
            _sums(rows)
        return
    got = _sums(rows)
    assert got[0] == 0.75
    if outcome is None:
        assert math.isnan(got[1]) and math.isnan(math.fsum(row))
    else:
        assert got[1] == outcome == math.fsum(row)


def test_row_fsums_sum_the_first_axis_of_a_strided_view(monkeypatch):
    # Theorem 2 passes a [term, x, y, row] view of its buffer: every index of
    # the other axes is a row, and blocks along the last axis do not change it.
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 3, 2, 40)) * np.exp(rng.normal(size=(8, 3, 2, 40)) * 40)
    x[rng.random(x.shape) < 0.2] = -0.0
    view = x[:4, :, :, 3:37]
    want = np.array([math.fsum(view[(slice(None),) + index])
                     for index in np.ndindex(view.shape[1:])])
    for chunk in (1 << 16, 16):
        monkeypatch.setattr(bell, "_MARGINAL_CHUNK", chunk)
        _assert_same_bits(_row_fsums(view).ravel(), want)


def test_row_fsums_give_positive_zero():
    rows = np.array([[-0.0, -0.0], [1.0, -1.0], [-0.0, 0.0]])
    got = _sums(rows)
    assert np.array_equal(got.view(np.uint64), np.zeros(3, dtype=np.uint64))
    assert _sums(np.zeros((2, 0))).tolist() == [0.0, 0.0]


def test_certifiers_make_few_python_fsum_calls(monkeypatch):
    # One fsum per copy's prefix average (per table in a sweep) and none per
    # row: the parent implementation made 1,370, 1,848 and 1,285 calls here.
    ce = chsh_expression()
    broadcast = compose([chsh_reference()] * 6, Scheme.BROADCAST)
    percopy = compose([chsh_reference()] * 5, Scheme.PER_COPY)
    nus = [k / 20 for k in range(21)]
    calls = _counting_fsum(monkeypatch)
    assert certify_theorem1(broadcast, ce, CHSH_MAX).verdict == "pass"
    assert len(calls) <= 6
    calls.clear()
    assert len(sweep_noise(chsh_reference(), 4, ce, nus)) == 21
    assert len(calls) <= 4 * 21
    calls.clear()
    assert certify_theorem4(percopy, [ce] * 5, [CHSH_MAX] * 5).verdict == "pass"
    assert len(calls) <= 5


def _counting(monkeypatch, name):
    calls = []
    real = getattr(bell, name)
    monkeypatch.setattr(bell, name, lambda first, *args, **kwargs: calls.append(len(first))
                        or real(first, *args, **kwargs))
    return calls


def test_certifiers_make_one_row_sum_call(monkeypatch):
    # Every copy's rows, broadcast prefixes or per-copy input settings, come
    # from one walk over the table and go to one row-sum call per
    # certification, not one of each per copy.  Theorem 2 compares the
    # conditioned entries with its reference and sums no row.
    ce = chsh_expression()
    broadcast = compose([chsh_reference()] * 6, Scheme.BROADCAST)
    percopy = compose([chsh_reference()] * 5, Scheme.PER_COPY)
    fullstats = fullstats_reference(0.1, 0.2)
    certifications = {
        "theorem1": (lambda: certify_theorem1(broadcast, ce, CHSH_MAX), 1),
        "theorem2": (lambda: certify_theorem2(compose([fullstats] * 5, Scheme.BROADCAST),
                                              single_copy_table(fullstats)), 0),
        "theorem3": (lambda: certify_theorem3(broadcast, [ce] * 6, [CHSH_MAX] * 6), 1),
        "theorem4": (lambda: certify_theorem4(percopy, [ce] * 5, [CHSH_MAX] * 5), 1),
    }
    calls, walks = _counting(monkeypatch, "_row_fsums"), _counting(monkeypatch, "_copy_joints")
    for name, (run, row_sums) in certifications.items():
        calls.clear()
        walks.clear()
        assert run().verdict == "pass", name
        assert len(calls) == row_sums, (name, calls)
        assert len(walks) == 1, (name, walks)
    # The sweep walks each batch of stacked visibilities once: 16,384-entry
    # tables at n = 6 make four visibilities per 65,536-entry batch.
    walks.clear()
    assert len(sweep_noise(chsh_reference(), 6, ce, [k / 10 for k in range(11)])) == 11
    assert walks == [4, 4, 3]


def test_conditioning_judges_each_copy_once(monkeypatch):
    # Conditioning every copy into one [term, row] buffer judges each copy's
    # prefixes once, by one ``reachable`` call on the whole stack, and hands
    # the mask to the means and to theorem 2, which do not judge them again.
    # Its divide takes a mask only when some prefix is unreachable: on copies
    # 3..6 of the copying adversary, whose copy 2 sees the one honest pair's
    # four outcomes, and never on honest tables or the sweep.  Copy 1 and
    # per-copy rows have no prefix.  Theorem 2 judges its reference once too.
    ce = chsh_expression()
    fullstats = fullstats_reference(0.1, 0.2)
    calls = _counting(monkeypatch, "reachable")  # the stack size of each call
    monkeypatch.setattr(certify, "reachable", bell.reachable)  # its own name, counted too
    masked, divide = [], np.divide
    monkeypatch.setattr(np, "divide", lambda *args, **kwargs: masked.append("where" in kwargs)
                        or divide(*args, **kwargs))
    for table, masks in ((compose([chsh_reference()] * 6, Scheme.BROADCAST), [False] * 5),
                         (adversary_copy(6), [False] + [True] * 4)):
        for certify_means in (lambda: certify_theorem1(table, ce, CHSH_MAX),
                              lambda: certify_theorem3(table, [ce] * 6, [CHSH_MAX] * 6)):
            calls.clear()
            masked.clear()
            certify_means()
            assert calls == [1] * 5
            assert masked == masks
    calls.clear()
    masked.clear()
    assert certify_theorem2(compose([fullstats] * 5, Scheme.BROADCAST),
                            single_copy_table(fullstats)).verdict == "pass"
    assert len(calls) == 1 + 4  # the reference's own check, then copies 2..5
    assert masked == [False] * 4
    calls.clear()
    masked.clear()
    walks = _counting(monkeypatch, "_copy_joints")
    deterministic = CorrelationTable(Scheme.BROADCAST, (2,), (2,),
                                     deterministic_table_probs(2, 2, [0, 1], [1, 0]))
    assert certify_theorem2(compose([fullstats] * 5, Scheme.BROADCAST),
                            deterministic).verdict == "precondition-violated"
    assert calls == [2]  # a reference with a zero entry is judged once, and nothing is walked
    assert walks == []
    calls.clear()
    masked.clear()
    assert len(sweep_noise(chsh_reference(), 4, ce, [0.5, 0.75, 1.0])) == 3
    assert calls == [3] * 3  # one batch of three stacked visibilities
    assert masked == [False] * 3
    calls.clear()
    percopy = compose([chsh_reference()] * 5, Scheme.PER_COPY)
    assert certify_theorem4(percopy, [ce] * 5, [CHSH_MAX] * 5).verdict == "pass"
    assert calls == []
