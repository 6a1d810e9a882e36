"""Randomized invariants over valid strategies and tables.

Cases are generated from seeded generators so every run is reproducible; the
large-batch versions demanded by the acceptance gate live in
test_acceptance.py.
"""

import functools
import itertools
import json
import math
import operator

import numpy as np
import pytest

from paraself import bell
from paraself.bell import (
    POSITIVITY_THRESHOLD,
    BellExpression,
    CorrelationTable,
    Scheme,
    bell_operator,
    chsh_expression,
    conditional_means,
    table_to_json_dict,
)
from paraself.certify import certify_theorem2
from paraself.errors import ZeroPrefixProbability
from paraself.strategies import (
    adversary_copy,
    adversary_shared_randomness,
    chsh_reference,
    compose,
    single_copy_table,
)
from paraself.qcore import Povm, stack_effects

from conftest import (
    conditional_values,
    copy_kernel,
    kernels,
    random_general_povm,
    random_projective_povm,
    random_state,
    random_strategy,
)
from reference import born_probability, copy_marginal, evaluate, j_value, table_to_json_text


def _table_checks(table, tol=1e-10):
    probs = table.probs
    assert probs.min() >= -1e-12
    assert np.max(np.abs(probs.sum(axis=(2, 3)) - 1.0)) <= tol
    alice = probs.sum(axis=3)
    bob = probs.sum(axis=2)
    assert np.max(np.abs(alice - alice[:, :1, :])) <= tol
    assert np.max(np.abs(bob - bob[:1, :, :])) <= tol


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("scheme", [Scheme.BROADCAST, Scheme.PER_COPY])
def test_composed_tables_normalized_and_nonsignaling(seed, scheme):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    if scheme is Scheme.BROADCAST:
        m = int(rng.integers(2, 4))
        copies = [random_strategy(rng, m=m, projective=bool(rng.integers(2)))
                  for _ in range(n)]
    else:
        copies = [random_strategy(rng, projective=bool(rng.integers(2)))
                  for _ in range(n)]
    _table_checks(compose(copies, scheme))


@pytest.mark.parametrize("seed", range(8))
def test_conditioning_is_inert_on_product_tables(seed):
    rng = np.random.default_rng(1000 + seed)
    m = int(rng.integers(2, 4))
    n = int(rng.integers(2, 4))
    copies = [random_strategy(rng, m=m, projective=True) for _ in range(n)]
    table = compose(copies, Scheme.BROADCAST)
    expr_cache = {}
    for i in range(2, n + 1):
        o_i = copies[i - 1].o
        if o_i not in expr_cache:
            expr_cache[o_i] = BellExpression(
                m, o_i, rng.normal(size=(m, m, o_i, o_i)), label="probe"
            )
        expr = expr_cache[o_i]
        single_value = evaluate(expr, single_copy_table(copies[i - 1]))
        low = 1
        for j in range(i - 1):
            low *= copies[j].o
        values = conditional_values(table, expr, i)
        assert values.shape == (low, low)
        for value in values.ravel():
            assert value == pytest.approx(single_value, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_conditional_slices_are_normalized(seed):
    rng = np.random.default_rng(2000 + seed)
    copies = [random_strategy(rng, m=2, projective=True) for _ in range(2)]
    table = compose(copies, Scheme.BROADCAST)
    cond, prefix_prob = copy_kernel(table, 2)
    for pa, pb in itertools.product(range(copies[0].o), repeat=2):
        sums = cond[:, :, pa, pb].sum(axis=(2, 3))
        defined = prefix_prob[:, :, pa, pb] > 1e-12
        assert np.max(np.abs(sums[defined] - 1.0)) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_copy_marginal_consistent_with_born_rule(seed):
    rng = np.random.default_rng(3000 + seed)
    copies = [random_strategy(rng, m=2, projective=True) for _ in range(2)]
    table = compose(copies, Scheme.BROADCAST)
    for i in (1, 2):
        marginal = copy_marginal(table, i)
        s = copies[i - 1]
        for x, y, a, b in itertools.product(range(2), range(2),
                                            range(s.o), range(s.o)):
            direct = born_probability(s.state, s.alice[x].effects[a],
                                      s.bob[y].effects[b])
            assert marginal.probs[x, y, a, b] == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_j_value_between_conditional_extremes(seed):
    rng = np.random.default_rng(4000 + seed)
    # Correlated (non-product) two-copy tables: mix two product tables.
    t1 = compose([random_strategy(rng, m=2, o=2)] * 2, Scheme.BROADCAST)
    t2 = compose([random_strategy(rng, m=2, o=2)] * 2, Scheme.BROADCAST)
    lam = float(rng.uniform(0.2, 0.8))
    from paraself.bell import CorrelationTable

    table = CorrelationTable(
        Scheme.BROADCAST, t1.input_arities, t1.output_arities,
        lam * t1.probs + (1 - lam) * t2.probs,
    )
    expr = BellExpression(2, 2, rng.normal(size=(2, 2, 2, 2)), label="probe")
    values = conditional_values(table, expr, 2)
    j = j_value(table, [expr] * 2, 2)
    assert values.min() - 1e-12 <= j <= values.max() + 1e-12


def _random_table(rng, scheme, ma, oa):
    from paraself.bell import CorrelationTable

    n_in = ma[0] if scheme is Scheme.BROADCAST else math.prod(ma)
    n_out = math.prod(oa)
    probs = rng.uniform(0.01, 1.0, size=(n_in, n_in, n_out, n_out))
    probs /= probs.sum(axis=(2, 3), keepdims=True)
    return CorrelationTable(scheme, ma, oa, probs)


def test_conditional_slice_matches_bruteforce_on_mixed_arities():
    from reference import decode_joint

    rng = np.random.default_rng(7000)
    table = _random_table(rng, Scheme.BROADCAST, (2, 2), (3, 2))
    oa = table.output_arities
    cond, prefix_prob = copy_kernel(table, 2)
    for pa, pb in itertools.product(range(3), repeat=2):
        for x, y in itertools.product(range(2), repeat=2):
            block = np.zeros((2, 2))
            for a, b in itertools.product(range(6), repeat=2):
                da, db = decode_joint(a, oa), decode_joint(b, oa)
                if da[0] == pa and db[0] == pb:
                    block[da[1], db[1]] += table.probs[x, y, a, b]
            assert prefix_prob[x, y, pa, pb] == pytest.approx(block.sum(), abs=1e-12)
            assert np.max(np.abs(cond[x, y, pa, pb] - block / block.sum())) <= 1e-12


def test_averaged_percopy_matches_bruteforce_on_mixed_inputs():
    from reference import decode_joint, encode_joint

    rng = np.random.default_rng(7001)
    ma, oa = (2, 3), (2, 2)
    table = _random_table(rng, Scheme.PER_COPY, ma, oa)
    exprs = [
        BellExpression(ma[k], oa[k],
                       rng.normal(size=(ma[k], ma[k], oa[k], oa[k])), label=f"e{k}")
        for k in range(2)
    ]
    means = conditional_means([table], exprs)[0]
    for i in (1, 2):
        expr = exprs[i - 1]
        other = 1 if i == 1 else 0
        total = 0.0
        count = 0
        for ox, oy in itertools.product(range(ma[other]), repeat=2):
            value = 0.0
            for xi, yi in itertools.product(range(ma[i - 1]), repeat=2):
                dx, dy = [0, 0], [0, 0]
                dx[i - 1], dy[i - 1] = xi, yi
                dx[other], dy[other] = ox, oy
                x_joint = encode_joint(dx, ma)
                y_joint = encode_joint(dy, ma)
                for a, b in itertools.product(range(4), repeat=2):
                    da, db = decode_joint(a, oa), decode_joint(b, oa)
                    value += (expr.coeffs[xi, yi, da[i - 1], db[i - 1]]
                              * table.probs[x_joint, y_joint, a, b])
            total += value
            count += 1
        assert means[i - 1][0] == pytest.approx(total / count, abs=1e-10)


# Oracle for the conditional kernel: the per-prefix loop it replaced.  Each
# prefix gets its own marginalization and normalization, and one fsum.  The
# marginals sum out one copy at a time, the last first, each as a plain
# reduction over the copy's (a, b) slabs in row-major order: the library's
# order, so the kernel must agree exactly, not merely to a tolerance.

def _sum_out_copy(probs, oa, c):
    """``probs[..., a, b]`` over copies ``oa`` with copy ``c`` (from 0) summed out."""
    high, oc, low = math.prod(oa[c + 1:]), oa[c], math.prod(oa[:c])
    split = probs.reshape(probs.shape[:-2] + (high, oc, low, high, oc, low))
    slabs = (split[..., :, a, :, :, b, :].reshape(probs.shape[:-2] + (high * low,) * 2)
             for a, b in itertools.product(range(oc), repeat=2))
    return functools.reduce(operator.add, slabs), oa[:c] + oa[c + 1:]


def _oracle_joint(table, i):
    """The joint of copies ``1..i``: copies ``n..i+1`` summed out, the last first."""
    probs, oa = table.probs, table.output_arities
    for c in reversed(range(i, table.n_copies)):
        probs, oa = _sum_out_copy(probs, oa, c)
    return probs


def _oracle_slice(table, i, pa, pb):
    low, oi = math.prod(table.output_arities[: i - 1]), table.output_arities[i - 1]
    joint = _oracle_joint(table, i)
    m = table.input_arities[0]
    block = joint.reshape(m, m, oi, low, oi, low)[:, :, :, pa, :, pb]
    prefix_prob = _sum_out_copy(joint, table.output_arities[:i], i - 1)[0][:, :, pa, pb]
    positive = prefix_prob > POSITIVITY_THRESHOLD
    safe = np.where(positive, prefix_prob, 1.0)
    return np.where(positive[:, :, None, None], block / safe[:, :, None, None], 0.0), prefix_prob


def _oracle_j_value(table, expr, i):
    """(mean over the defined prefixes with the full divisor, first undefined
    (prefix_a, prefix_b, x, y) or None)."""
    if i == 1:
        return math.fsum((expr.coeffs * _oracle_marginal(table, 1)).ravel()), None
    low = math.prod(table.output_arities[: i - 1])
    relevant = np.any(expr.coeffs != 0.0, axis=(2, 3))
    values, first = [], None
    for pa, pb in itertools.product(range(low), repeat=2):
        cond, prefix_prob = _oracle_slice(table, i, pa, pb)
        bad = np.argwhere(relevant & (prefix_prob <= POSITIVITY_THRESHOLD))
        if bad.size:
            first = first or (pa, pb, *(int(v) for v in bad[0]))
            continue
        values.append(math.fsum((expr.coeffs * cond).ravel()))
    return math.fsum(values) / float(low * low), first


def _oracle_theorem2_values(table, reference):
    values = [float(np.max(np.abs(_oracle_marginal(table, 1) - reference.probs)))]
    for i in range(2, table.n_copies + 1):
        low = math.prod(table.output_arities[: i - 1])
        worst, unreachable = 0.0, False
        for pa, pb in itertools.product(range(low), repeat=2):
            cond, prefix_prob = _oracle_slice(table, i, pa, pb)
            if np.any(prefix_prob <= POSITIVITY_THRESHOLD):
                unreachable = True
                continue
            worst = max(worst, float(np.max(np.abs(cond - reference.probs))))
        values.append(max(worst, 1.0) if unreachable else worst)
    return values


def _oracle_marginal(table, i):
    """Copy ``i``'s own marginal ``[x, y, a_i, b_i]``: the other copies summed out, last first."""
    probs, oa = table.probs, table.output_arities
    for c in reversed(range(table.n_copies)):
        if c != i - 1:
            probs, oa = _sum_out_copy(probs, oa, c)
    return probs


def _oracle_averaged(table, expr, i):
    ma = table.input_arities
    low_m, mi, high_m = math.prod(ma[: i - 1]), ma[i - 1], math.prod(ma[i:])
    marg = _oracle_marginal(table, i).reshape(
        high_m, mi, low_m, high_m, mi, low_m, *expr.coeffs.shape[2:])
    values = [
        math.fsum((expr.coeffs * marg[hx, :, lx, hy, :, ly]).ravel())
        for hx, lx, hy, ly in itertools.product(
            range(high_m), range(low_m), range(high_m), range(low_m))
    ]
    return math.fsum(values) / float((low_m * high_m) ** 2)


def _oracle_rows(table, i):
    """Copy ``i``'s rows of a per-copy table, ``[x_i, y_i, row_a, row_b, a_i, b_i]``: its own
    marginal at each setting ``(high, low)`` of the other copies' inputs."""
    ma, oi = table.input_arities, table.output_arities[i - 1]
    low_m, mi, high_m = math.prod(ma[: i - 1]), ma[i - 1], math.prod(ma[i:])
    marg = _oracle_marginal(table, i).reshape(high_m, mi, low_m, high_m, mi, low_m, oi, oi)
    side = high_m * low_m
    return marg.transpose(1, 4, 0, 2, 3, 5, 6, 7).reshape(mi, mi, side, side, oi, oi)


def _assert_kernels_match_oracle(table):
    """Every copy that one walk yields has the oracle's bytes: copy 1's marginal (broadcast) or
    each copy's rows (per-copy) with probability 1, then each later broadcast copy's
    conditionals and prefix probabilities, prefix by prefix."""
    for i, (cond, prefix_prob) in enumerate(kernels([table]), 1):
        cond, prefix_prob = cond[0], prefix_prob[0]
        if table.scheme is Scheme.PER_COPY or i == 1:
            want = (_oracle_rows(table, i) if table.scheme is Scheme.PER_COPY
                    else _oracle_marginal(table, 1)[:, :, None, None])
            assert cond.shape == want.shape and cond.tobytes() == want.tobytes(), i
            assert np.all(prefix_prob == 1.0), i
            continue
        for pa, pb in itertools.product(range(cond.shape[2]), repeat=2):
            want_cond, want_prob = _oracle_slice(table, i, pa, pb)
            assert cond[:, :, pa, pb].tobytes() == want_cond.tobytes(), (i, pa, pb)
            assert prefix_prob[:, :, pa, pb].tobytes() == want_prob.tobytes(), (i, pa, pb)


def _random_expressions(rng, ma, oa):
    return [BellExpression(m, o, rng.normal(size=(m, m, o, o)), label="probe")
            for m, o in zip(ma, oa)]


@pytest.mark.parametrize("oa", [(3, 2, 2), (2, 3, 2), (2, 2, 2, 2)])
def test_kernel_matches_oracle_on_random_tables(oa):
    rng = np.random.default_rng(7100 + sum(oa))
    ma = (2,) * len(oa)
    table = _random_table(rng, Scheme.BROADCAST, ma, oa)
    exprs = _random_expressions(rng, ma, oa)
    for i in range(1, len(oa) + 1):
        value, first = _oracle_j_value(table, exprs[i - 1], i)
        assert first is None
        assert j_value(table, exprs, i) == value
    _assert_kernels_match_oracle(table)
    reference = _random_table(rng, Scheme.BROADCAST, (2,), (2,))
    product = compose([random_strategy(rng, m=2, o=2)] * 4, Scheme.BROADCAST)
    for t in (table, product):
        if set(t.output_arities) == {2}:
            report = certify_theorem2(t, reference)
            assert [c.value for c in report.per_copy] == _oracle_theorem2_values(t, reference)


def test_kernel_matches_oracle_on_zero_prefixes():
    table = adversary_copy(4)
    expr = chsh_expression()
    means = conditional_means([table], [expr] * 4)[0]
    for i in range(1, 5):
        value, first = _oracle_j_value(table, expr, i)
        assert means[i - 1][0] == value
        if first is None:
            assert j_value(table, [expr] * 4, i) == value
        else:
            with pytest.raises(ZeroPrefixProbability) as err:
                j_value(table, [expr] * 4, i)
            got = err.value
            assert (got.prefix_a, got.prefix_b, got.x, got.y) == first
    reference = single_copy_table(chsh_reference())
    report = certify_theorem2(table, reference)
    assert [c.value for c in report.per_copy] == _oracle_theorem2_values(table, reference)


def _chsh_table(rng, scheme, ma, oa):
    return compose([chsh_reference()] * len(ma), scheme)


def _signed_zero_table(rng, scheme, ma, oa):
    """A random table of which about 40% of entries are exact zeros, half of
    them ``-0.0``."""
    n_in = ma[0] if scheme is Scheme.BROADCAST else math.prod(ma)
    probs = rng.uniform(0.01, 1.0, size=(n_in, n_in) + (math.prod(oa),) * 2)
    probs[rng.uniform(size=probs.shape) < 0.4] = 0.0
    probs /= probs.sum(axis=(2, 3), keepdims=True)
    probs[(probs == 0.0) & (rng.uniform(size=probs.shape) < 0.5)] = -0.0
    table = CorrelationTable(scheme, ma, oa, probs)
    assert np.signbit(table.probs[table.probs == 0.0]).any()
    return table


# Four-outcome copies make 16-slab (a_i, b_i) sums; signed zeros check the sign
# of every zero sum.
@pytest.mark.parametrize("oa", [(2, 4, 2), (3, 1, 4, 2)])
@pytest.mark.parametrize("make", [_random_table, _signed_zero_table], ids=["random", "signed-zeros"])
def test_kernel_matches_oracle_bytes_on_four_outcome_copies(oa, make):
    rng = np.random.default_rng(7400 + len(oa))
    _assert_kernels_match_oracle(make(rng, Scheme.BROADCAST, (2,) * len(oa), oa))


# The per-copy marginals sum out copies above and below copy i, and copies
# with one, two and three outcomes; low243 has 243 joint outputs below copy 6.
# One copy makes the transposed table the walk's first and last stage; a
# one-outcome copy is a single slab, copied with no add, both when it is summed
# out and when the joint it heads is; four-outcome copies make 16-slab sums.
@pytest.mark.parametrize("ma, oa, make", [
    pytest.param((2, 3), (2, 2), _random_table, id="ma0-oa0"),
    pytest.param((3, 2, 2), (2, 3, 2), _random_table, id="ma1-oa1"),
    pytest.param((2,) * 5, (2,) * 5, _chsh_table, id="chsh5"),
    pytest.param((1, 1, 1, 1, 1, 2), (3, 3, 3, 3, 3, 2), _random_table, id="low243"),
    pytest.param((2, 1, 2), (3, 3, 2), _signed_zero_table, id="signed-zeros"),
    pytest.param((3,), (3,), _signed_zero_table, id="one-copy"),
    pytest.param((2, 2, 2), (2, 1, 3), _random_table, id="one-outcome"),
    pytest.param((2, 1, 2), (4, 4, 2), _signed_zero_table, id="four-outcome"),
])
def test_averaged_percopy_matches_oracle(ma, oa, make):
    rng = np.random.default_rng(7200 + len(ma))
    table = make(rng, Scheme.PER_COPY, ma, oa)
    exprs = _random_expressions(rng, ma, oa)
    _assert_kernels_match_oracle(table)
    # One table or a stack goes through conditional_means, never undefined.
    assert conditional_means([table], exprs) == [
        [(_oracle_averaged(table, expr, i), None) for i, expr in enumerate(exprs, 1)]]
    other = _random_table(rng, Scheme.PER_COPY, ma, oa)
    assert conditional_means([table, other], exprs) == [
        [(_oracle_averaged(t, expr, i), None) for i, expr in enumerate(exprs, 1)]
        for t in (table, other)]


@pytest.mark.parametrize("name", ["chsh6", "adversary-copy6", "adversary-shared6",
                                  "mixed-arity", "signed-zeros"])
def test_copy_marginal_matches_one_shot_reduction(name):
    rng = np.random.default_rng(7300)
    mixed = (2,) * 6, (3, 1, 4, 2, 3, 2)
    table = {
        "chsh6": lambda: _chsh_table(rng, Scheme.BROADCAST, (2,) * 6, (2,) * 6),
        "adversary-copy6": lambda: adversary_copy(6),
        "adversary-shared6": lambda: adversary_shared_randomness(6),
        "mixed-arity": lambda: _random_table(rng, Scheme.BROADCAST, *mixed),
        "signed-zeros": lambda: _signed_zero_table(rng, Scheme.BROADCAST, *mixed),
    }[name]()
    # The oracle sums the whole table in one shot; the library walks it in chunks.  Copy i's
    # prefix probabilities are the joint of copies 1..i-1, and copy 1's row its marginal.
    for i, (cond, prefix_prob) in enumerate(bell._copy_kernels([table]), 1):
        got = cond[0, :, :, 0, 0] if i == 1 else prefix_prob[0]
        want = _oracle_marginal(table, 1) if i == 1 else _oracle_joint(table, i - 1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), i


@pytest.mark.parametrize("chunk", [1, 1 << 10, 1 << 16, 1 << 30])
def test_walk_bytes_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # Chunks split the walk over leading rows only, so every chunk size gives
    # the oracle's bytes: one row at a time, uneven chunks, or the whole stack.
    rng = np.random.default_rng(7500)
    broadcast = _signed_zero_table(rng, Scheme.BROADCAST, (2,) * 4, (2, 3, 2, 2))
    percopy = [_signed_zero_table(rng, Scheme.PER_COPY, (2, 2, 2), (2, 3, 2)) for _ in range(2)]
    exprs = _random_expressions(rng, (2, 2, 2), (2, 3, 2))
    monkeypatch.setattr(bell, "_MARGINAL_CHUNK", chunk)
    for table in [broadcast] + percopy:
        _assert_kernels_match_oracle(table)
    assert conditional_means(percopy, exprs) == [
        [(_oracle_averaged(t, expr, i), None) for i, expr in enumerate(exprs, 1)]
        for t in percopy]
    # 324 rows of 144 entries per table: a chunk of 2^10 takes 7 rows, and the
    # chunks of a per-copy walk (rows last) split unevenly, also across the
    # tables of a stack of three.
    uneven = [_signed_zero_table(rng, Scheme.PER_COPY, (3, 2, 3), (2, 3, 2)) for _ in range(3)]
    uneven_exprs = _random_expressions(rng, (3, 2, 3), (2, 3, 2))
    _assert_kernels_match_oracle(uneven[0])
    for stack in (uneven[:2], uneven):
        assert conditional_means(stack, uneven_exprs) == [
            [(_oracle_averaged(t, expr, i), None) for i, expr in enumerate(uneven_exprs, 1)]
            for t in stack]


@pytest.mark.parametrize("chunk", [1, 1 << 10, 1 << 16, 1 << 30])
def test_row_sum_blocks_do_not_change_the_means(monkeypatch, chunk):
    # Two tables of 185 prefix rows each, of at most 36 terms: below 2^16
    # entries per block, the row sums of one call go in several blocks.
    rng = np.random.default_rng(7600)
    stack = [_random_table(rng, Scheme.BROADCAST, (2,) * 4, (2, 3, 2, 2)) for _ in range(2)]
    exprs = _random_expressions(rng, (2,) * 4, (2, 3, 2, 2))
    monkeypatch.setattr(bell, "_MARGINAL_CHUNK", 1 << 30)
    whole = conditional_means(stack, exprs)
    monkeypatch.setattr(bell, "_MARGINAL_CHUNK", chunk)
    blocks, row_fsums = [], bell._row_fsums
    monkeypatch.setattr(bell, "_row_fsums",
                        lambda rows: blocks.append(len(rows)) or row_fsums(rows))
    assert conditional_means(stack, exprs) == whole
    assert sum(blocks) == 370 and (len(blocks) > 1) == (chunk < 1 << 16), blocks


@pytest.mark.parametrize("seed", range(6))
def test_random_povms_validate(seed):
    rng = np.random.default_rng(5000 + seed)
    for povm in (random_projective_povm(3, rng), random_general_povm(3, 4, rng)):
        rebuilt = Povm(povm.effects)  # raises ValueError on any violation
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt.effects, povm.effects))


@pytest.mark.parametrize("seed", range(6))
def test_born_probabilities_complete_over_random_povms(seed):
    rng = np.random.default_rng(6000 + seed)
    state = random_state(2, 3, rng)
    pa = random_general_povm(2, 3, rng)
    pb = random_projective_povm(3, rng)
    total = sum(
        born_probability(state, ea, eb)
        for ea in pa.effects for eb in pb.effects
    )
    assert total == pytest.approx(1.0, abs=1e-10)


# The batched Born rule and Bell operator must reproduce the single-entry
# np.kron path bit for bit on complex POVMs, general and projective.
BATCHED_CASES = [(m, o, projective) for m in (1, 2, 3) for o in (1, 2, 3)
                 for projective in (False, True)]


@pytest.mark.parametrize("m, o, projective", BATCHED_CASES)
def test_single_copy_table_equals_born_probability(m, o, projective):
    rng = np.random.default_rng(7000 + 10 * m + o + 100 * projective)
    s = random_strategy(rng, m=m, o=o, projective=projective)
    probs = single_copy_table(s).probs
    for x, y, a, b in itertools.product(range(m), range(m), range(o), range(o)):
        direct = born_probability(s.state, s.alice[x].effects[a], s.bob[y].effects[b])
        # The table clips trace round-off into [0, 1]; the reference does not.
        assert probs[x, y, a, b] == min(max(direct, 0.0), 1.0)


def _bell_operator_oracle(coeffs, alice, bob):
    """Per-term np.kron sum in (x, y, a, b) order over nonzero coefficients."""
    d = alice[0].dim * bob[0].dim
    op = np.zeros((d, d), dtype=complex)
    for x, y, a, b in itertools.product(*(range(k) for k in coeffs.shape)):
        if coeffs[x, y, a, b] != 0.0:
            op += coeffs[x, y, a, b] * np.kron(alice[x].effects[a], bob[y].effects[b])
    return op


@pytest.mark.parametrize("m, o, projective", BATCHED_CASES)
def test_bell_operator_equals_per_term_kron_oracle(m, o, projective):
    rng = np.random.default_rng(8000 + 10 * m + o + 100 * projective)
    s = random_strategy(rng, m=m, o=o, projective=projective)
    coeffs = rng.normal(size=(m, m, o, o))
    coeffs[rng.random(size=coeffs.shape) < 0.3] = 0.0
    expr = BellExpression(m, o, coeffs, label="random")
    op = bell_operator(expr, stack_effects(s.alice), stack_effects(s.bob))
    assert np.array_equal(op, _bell_operator_oracle(expr.coeffs, s.alice, s.bob))


def _writer_cases():
    rng = np.random.default_rng(7100)
    prov = {"strategies": [{"name": "chsh", "params": []}], "noise": None, "seed": 0}
    for scheme, ma, oa in ((Scheme.BROADCAST, (2, 2), (3, 2)), (Scheme.PER_COPY, (2, 3), (2, 2)),
                           (Scheme.PER_COPY, (3,), (1,))):
        yield pytest.param(_random_table(rng, scheme, ma, oa), prov,
                           id=f"random-{scheme.value}-{len(ma)}-copies")
    probs = np.zeros((2, 2, 2, 2))
    probs[..., 0, 0] = probs[..., 1, 1] = 0.5
    probs[0, 0, 0, 1] = probs[1, 1, 1, 0] = -0.0
    signed = CorrelationTable(Scheme.BROADCAST, (2,), (2,), probs)
    assert np.count_nonzero(np.signbit(signed.probs)) == 2
    yield pytest.param(signed, prov, id="signed-zeros")
    probs = rng.uniform(0.01, 1.0, size=(4, 4, 4, 4))
    probs /= probs.sum(axis=(2, 3), keepdims=True)
    assert np.unique(probs).size == probs.size
    yield pytest.param(CorrelationTable(Scheme.PER_COPY, (2, 2), (2, 2), probs), prov,
                       id="all-distinct")
    yield pytest.param(CorrelationTable(Scheme.BROADCAST, (1,), (1,), np.ones((1, 1, 1, 1))),
                       {}, id="one-entry")
    prov = {"note": 'ψ – "probs": 0, [1]', "nested": [[1, [2.5, None]], {"probs": [0]}]}
    yield pytest.param(compose([chsh_reference()] * 2, Scheme.BROADCAST), prov,
                       id="provenance-text")


@pytest.mark.parametrize("table,prov", list(_writer_cases()))
def test_table_writer_matches_stdlib_encoder(table, prov):
    assert table_to_json_text(table, prov) == \
        json.dumps(table_to_json_dict(table, prov), indent=2) + "\n"
