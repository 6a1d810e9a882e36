"""Expression evaluation, conditional/averaged functionals, bounds, and
serialization."""

import itertools
import json
import math

import numpy as np
import pytest

from paraself.bell import (
    COEFF_SUM_LIMIT,
    BellExpression,
    CorrelationTable,
    Scheme,
    _PERCOPY_MAX_COPIES,
    _check_probs,
    _table_from_json_dict,
    bell_operator,
    builtin_expression,
    builtin_quantum_maximum,
    chsh_expression,
    chsh_game_expression,
    classical_bound,
    conditional_means,
    expression_from_json_dict,
    quantum_value_fixed_measurements,
    table_from_json_dict,
    table_to_json_dict,
    tilted_chsh_expression,
)
from paraself.certify import certify_theorem1, certify_theorem4
from paraself.errors import (
    ArityError,
    EnumerationTooLarge,
    ShapeMismatch,
    TableEntryError,
    TableFormatError,
    ZeroPrefixProbability,
)
from paraself.strategies import (
    SingleCopyStrategy,
    adversary_copy,
    adversary_shared_randomness,
    apply_isotropic_noise,
    broadcast_product,
    chsh_reference,
    compose,
    fullstats_reference,
    single_copy_table,
    tilted_chsh_reference,
)
from paraself.qcore import SIGMA_Z, povm_from_observable, stack_effects

from conftest import (
    conditional_values,
    copy_kernel,
    deterministic_table_probs,
    random_projective_povm,
    random_state,
)
from reference import (
    correlator,
    decode_joint,
    encode_joint,
    evaluate,
    expression_to_json_dict,
    j_value,
    local_deterministic,
    scaled,
)

CHSH_MAX = 2.0 * np.sqrt(2.0)


def test_encode_decode_joint_roundtrip():
    arities = (2, 3, 2)
    for digits in itertools.product(range(2), range(3), range(2)):
        index = encode_joint(digits, arities)
        assert decode_joint(index, arities) == digits
    # Copy 1 is least significant.
    assert encode_joint((1, 0, 0), arities) == 1
    assert encode_joint((0, 1, 0), arities) == 2
    assert encode_joint((0, 0, 1), arities) == 6


def test_evaluate_chsh_reference():
    table = single_copy_table(chsh_reference())
    assert evaluate(chsh_expression(), table) == pytest.approx(CHSH_MAX, abs=1e-9)


def test_evaluate_best_deterministic_is_classical_bound():
    expr = chsh_expression()
    best = classical_bound(expr)
    table = CorrelationTable(
        Scheme.BROADCAST, (2,), (2,),
        deterministic_table_probs(2, 2, best.witness["alice"], best.witness["bob"]),
    )
    assert evaluate(expr, table) == 2.0


def test_evaluate_zero_expression():
    expr = BellExpression(2, 2, np.zeros((2, 2, 2, 2)), label="zero")
    table = single_copy_table(chsh_reference())
    assert evaluate(expr, table) == 0.0


def test_evaluate_rejects_multicopy_table():
    table = compose([chsh_reference()] * 2, Scheme.BROADCAST)
    with pytest.raises(ShapeMismatch):
        evaluate(chsh_expression(), table)


def test_correlator_examples():
    table = single_copy_table(chsh_reference())
    assert correlator(table, 0, 0) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert correlator(table, 1, 1) == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-12)


def test_correlator_maximally_mixed_vanishes():
    noisy = apply_isotropic_noise(chsh_reference(), 0.0)
    table = single_copy_table(noisy)
    for x, y in itertools.product(range(2), repeat=2):
        assert correlator(table, x, y) == pytest.approx(0.0, abs=1e-12)


def test_conditional_value_honest_two_copies_any_prefix():
    table = compose([chsh_reference()] * 2, Scheme.BROADCAST)
    values = conditional_values(table, chsh_expression(), 2)
    for pa, pb in itertools.product(range(2), repeat=2):
        assert values[pa, pb] == pytest.approx(CHSH_MAX, abs=1e-9)


def test_conditional_value_adversary_copy_is_deterministic_point():
    table = adversary_copy(2)
    values = conditional_values(table, chsh_expression(), 2)
    expected = {(0, 0): 2.0, (0, 1): -2.0, (1, 0): -2.0, (1, 1): 2.0}
    for (pa, pb), target in expected.items():
        assert values[pa, pb] == pytest.approx(target, abs=1e-9)


def test_conditional_value_shared_randomness_parity_class():
    table = adversary_shared_randomness(2)
    values = conditional_values(table, chsh_expression(), 2)
    assert values[1, 1] == pytest.approx(2.0, abs=1e-9)
    assert values[0, 1] == pytest.approx(-2.0, abs=1e-9)


def test_conditional_value_zero_prefix_raises_with_location():
    # Deterministic copy 1 makes three of the four prefixes unreachable; the
    # first in row-major order is (0, 1).
    det = local_deterministic([0, 0], [0, 0], o=2)
    table = compose([det, chsh_reference()], Scheme.BROADCAST)
    _, prefix_prob = copy_kernel(table, 2)
    assert np.all(prefix_prob[:, :, 1, 1] == 0.0)
    with pytest.raises(ZeroPrefixProbability) as err:
        j_value(table, [chsh_expression()] * 2, 2)
    assert err.value.copy_index == 2
    assert (err.value.prefix_a, err.value.prefix_b, err.value.x, err.value.y) == (0, 1, 0, 0)


def test_conditional_value_ignores_inputs_without_coefficients():
    # Expression supported on (x, y) = (1, 1) only; a prefix unreachable at
    # other inputs is irrelevant.  Copy 1 answers deterministically with the
    # input, so prefix (1, 1) is reachable only at (x, y) = (1, 1) and is the
    # only defined prefix.
    det = local_deterministic([0, 1], [0, 1], o=2)
    table = compose([det, chsh_reference()], Scheme.BROADCAST)
    coeffs = np.zeros((2, 2, 2, 2))
    coeffs[1, 1] = chsh_expression().coeffs[1, 1]
    expr = BellExpression(2, 2, coeffs, label="corner")
    value = conditional_values(table, expr, 2)[1, 1]
    single = single_copy_table(chsh_reference())
    expected = math.fsum((expr.coeffs * single.probs).ravel())
    assert value == pytest.approx(expected, abs=1e-12)
    mean, first = conditional_means([table], [chsh_expression(), expr])[0][1]
    assert mean == value / 4.0
    assert (first.prefix_a, first.prefix_b, first.x, first.y) == (0, 0, 1, 1)


def _first_fields(first):
    return None if first is None else (first.copy_index, first.prefix_a, first.prefix_b,
                                       first.x, first.y, first.probability)


def test_conditional_means_of_a_stack_equal_each_table_alone():
    # One table with an unreachable prefix takes the whole stack through the
    # masked divide; every table must read as it does alone, where an honest
    # one takes the plain divide.  Copy 1 of ``echo`` answers its inputs, so
    # prefix (pa, pb) is reachable only at (x, y) = (pa, pb): its first
    # undefined entry in row-major (pa, pb, x, y) order is (0, 0, 0, 1), at
    # flat index 1, where a search in the mask's own [x, y, pa, pb] order
    # would name prefix (0, 1) at inputs (0, 0).
    exprs = [chsh_expression()] * 3
    honest = compose([chsh_reference()] * 3, Scheme.BROADCAST)
    echo = compose([local_deterministic([0, 1], [0, 1], o=2)] + [chsh_reference()] * 2,
                   Scheme.BROADCAST)
    for stack in ([honest, adversary_copy(3)], [echo, honest, adversary_copy(3), echo]):
        for table, got in zip(stack, conditional_means(stack, exprs)):
            want = conditional_means([table], exprs)[0]
            assert [np.float64(mean).view(np.uint64) for mean, _ in got] == \
                   [np.float64(mean).view(np.uint64) for mean, _ in want]
            assert [_first_fields(first) for _, first in got] == \
                   [_first_fields(first) for _, first in want]
    firsts = [_first_fields(first) for _, first in conditional_means([echo], exprs)[0]]
    assert firsts == [None, (2, 0, 0, 0, 1, 0.0), (3, 0, 0, 0, 1, 0.0)]
    assert [first is None for _, first in conditional_means([honest], exprs)[0]] == [True] * 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_j_value_honest_copies(n):
    table = compose([chsh_reference()] * n, Scheme.BROADCAST)
    expr = chsh_expression()
    for i in range(1, n + 1):
        assert j_value(table, [expr] * n, i) == pytest.approx(CHSH_MAX, abs=1e-8)


def test_j_value_copy1_equals_marginal_evaluation():
    # Copy 1's one prefix row is its marginal, taken from the same walk.
    table = compose([chsh_reference()] * 3, Scheme.BROADCAST)
    expr = chsh_expression()
    marginal = CorrelationTable(Scheme.BROADCAST, (2,), (2,), copy_kernel(table, 1)[0][:, :, 0, 0])
    assert j_value(table, [expr] * 3, 1) == evaluate(expr, marginal)


def test_j_value_adversaries_vanish_at_second_copy():
    expr = chsh_expression()
    assert j_value(adversary_copy(2), [expr] * 2, 2) == pytest.approx(0.0, abs=1e-9)
    assert j_value(adversary_shared_randomness(2), [expr] * 2, 2) == pytest.approx(
        0.0, abs=1e-9
    )


def test_j_value_noisy_first_copy_scales_linearly():
    noisy = apply_isotropic_noise(chsh_reference(), 0.9)
    table = compose([noisy] * 2, Scheme.BROADCAST)
    assert j_value(table, [chsh_expression()] * 2, 1) == pytest.approx(
        0.9 * CHSH_MAX, abs=1e-9
    )


def test_j_value_strict_propagates_zero_prefix_and_skip_mode_averages():
    expr = chsh_expression()
    table = adversary_copy(3)
    with pytest.raises(ZeroPrefixProbability) as err:
        j_value(table, [expr] * 3, 3)
    assert err.value.copy_index == 3
    # Averaging the well-defined prefixes (divisor stays the full count)
    # gives 0: the four reachable prefixes contribute (2, -2, -2, 2).
    assert conditional_means([table], [expr] * 3)[0][2][0] == pytest.approx(0.0, abs=1e-9)


def test_j_value_bounded_by_conditional_extremes():
    table = adversary_shared_randomness(2)
    expr = chsh_expression()
    values = conditional_values(table, expr, 2)
    j = j_value(table, [expr] * 2, 2)
    assert values.min() - 1e-12 <= j <= values.max() + 1e-12


def test_generalized_conditional_mixed_copies_hits_oracle_target():
    tilted = tilted_chsh_expression(0.5)
    s = tilted_chsh_reference(0.5, tilted)
    beta2 = quantum_value_fixed_measurements(tilted, s).value
    table = compose([chsh_reference(), s], Scheme.BROADCAST)
    exprs = [chsh_expression(), tilted]
    for value in conditional_values(table, exprs[1], 2).ravel():
        assert value == pytest.approx(beta2, abs=1e-6)


def test_generalized_three_copy_product_is_inert():
    tilted_a = tilted_chsh_expression(0.3)
    tilted_b = tilted_chsh_expression(0.7)
    s_a = tilted_chsh_reference(0.3, tilted_a)
    s_b = tilted_chsh_reference(0.7, tilted_b)
    table = compose([s_a, s_b, chsh_reference()], Scheme.BROADCAST)
    exprs = [tilted_a, tilted_b, chsh_expression()]
    assert j_value(table, exprs, 3) == pytest.approx(CHSH_MAX, abs=1e-9)


def _qutrit_strategy(seed: int) -> SingleCopyStrategy:
    rng = np.random.default_rng(seed)
    alice = tuple(random_projective_povm(3, rng) for _ in range(2))
    bob = tuple(random_projective_povm(3, rng) for _ in range(2))
    return SingleCopyStrategy(
        random_state(3, 3, rng), alice, bob, m=2, o=3, label="qutrit"
    )


def test_generalized_prefix_radix_uses_output_arities():
    # Copy 1 has 3 outputs but 2 inputs, so the prefix count (9) differs from
    # the squared input count (4).  Dividing by the prefix count keeps the
    # average of a product table at the single-copy value; dividing by the
    # squared input product would inflate it by 9/4.  The two readings only
    # coincide when every copy has as many outputs as inputs.
    s3 = _qutrit_strategy(7)
    rng = np.random.default_rng(8)
    expr3 = BellExpression(2, 3, rng.normal(size=(2, 2, 3, 3)), label="rand3")
    table = compose([s3, chsh_reference()], Scheme.BROADCAST)
    exprs = [expr3, chsh_expression()]
    value = j_value(table, exprs, 2)
    assert value == pytest.approx(CHSH_MAX, abs=1e-9)
    assert value * 9.0 / 4.0 != pytest.approx(CHSH_MAX, abs=0.1)


def _averages(table, exprs):
    return [value for value, _ in conditional_means([table], exprs)[0]]


def test_averaged_j_percopy_honest_pair():
    table = compose([chsh_reference()] * 2, Scheme.PER_COPY)
    for value in _averages(table, [chsh_expression()] * 2):
        assert value == pytest.approx(CHSH_MAX, abs=1e-9)


def test_averaged_j_percopy_heterogeneous_copies():
    table = compose(
        [chsh_reference(), fullstats_reference(np.pi / 4, np.pi / 6)],
        Scheme.PER_COPY,
    )
    exprs = [chsh_expression(), chsh_game_expression()]
    # The product structure makes the first marginal independent of the
    # other copy's inputs.
    assert _averages(table, exprs)[0] == pytest.approx(CHSH_MAX, abs=1e-9)


def test_averaged_j_percopy_deterministic_is_classical():
    dets = [
        local_deterministic([0, 1], [0, 0], o=2),
        local_deterministic([1, 1], [0, 1], o=2),
    ]
    table = compose(dets, Scheme.PER_COPY)
    for value in _averages(table, [chsh_expression()] * 2):
        assert value <= 2.0 + 1e-12


@pytest.mark.parametrize("n", range(2, 10))
def test_copy_marginal_error_does_not_grow_with_the_copy_count(n):
    # n - 1 products per entry and n - 1 levels of o^2 = 4-slab sums give a
    # first-order bound linear in n; an order that adds the o^(2(n-1)) terms
    # in sequence grows about 3.4x per copy instead.
    single = single_copy_table(fullstats_reference(0.1, 0.2))
    probs = broadcast_product([single.probs] * n)
    table = CorrelationTable(Scheme.BROADCAST, (2,) * n, (2,) * n, probs)
    marginal = copy_kernel(table, 1)[0][:, :, 0, 0]
    deviation = float(np.max(np.abs(marginal - single.probs)))
    assert deviation <= 4 * (n - 1) * 2.0 ** -53, deviation


BROADCAST2 = compose([chsh_reference()] * 2, Scheme.BROADCAST)
PERCOPY2 = compose([chsh_reference()] * 2, Scheme.PER_COPY)
CHSH2 = [chsh_expression()] * 2
M2O3 = BellExpression(2, 3, np.ones((2, 2, 3, 3)))
M3O2 = BellExpression(3, 2, np.ones((3, 3, 2, 2)))
SHAPE_ERRORS = {
    "mean-outputs": lambda: conditional_means([BROADCAST2], [chsh_expression(), M2O3]),
    "mean-inputs": lambda: conditional_means([BROADCAST2], [chsh_expression(), M3O2]),
    "averaged-outputs": lambda: conditional_means([PERCOPY2], [chsh_expression(), M2O3]),
    "averaged-expression-count": lambda: conditional_means([PERCOPY2], CHSH2[:1]),
    "means-no-tables": lambda: conditional_means([], []),
    "means-mixed-stack": lambda: conditional_means([BROADCAST2, PERCOPY2], CHSH2),
}


@pytest.mark.parametrize("name", sorted(SHAPE_ERRORS))
def test_copy_functionals_share_one_shape_check(name):
    # The expression count, each copy's arities and the stack are checked
    # before the walk, for either scheme.
    with pytest.raises(ShapeMismatch):
        SHAPE_ERRORS[name]()


@pytest.mark.parametrize("name,strategy", [
    ("chsh", chsh_reference),
    ("chsh-game", chsh_reference),
    *((f"tilted-chsh({alpha})",
       lambda alpha=alpha: tilted_chsh_reference(alpha, tilted_chsh_expression(alpha)))
      for alpha in (0.0, 0.5, 1.5, 1.999)),
])
def test_builtin_quantum_maximum_matches_reference_eigenvalue(name, strategy):
    closed = builtin_quantum_maximum(name)
    eigen = quantum_value_fixed_measurements(builtin_expression(name), strategy()).value
    assert abs(closed - eigen) <= 4 * math.ulp(closed)
    assert builtin_quantum_maximum(f" {name} ") == closed


def test_builtin_quantum_maximum_needs_a_closed_form():
    with pytest.raises(KeyError):
        builtin_quantum_maximum("expr.json")
    for alpha in ("2", "-0.1", "nan"):
        with pytest.raises(ValueError, match="outside"):
            builtin_quantum_maximum(f"tilted-chsh({alpha})")


def test_classical_bound_chsh():
    result = classical_bound(chsh_expression())
    assert result.value == 2.0


def test_classical_bound_game():
    assert classical_bound(chsh_game_expression()).value == 0.75


def test_classical_bound_tilted():
    assert classical_bound(tilted_chsh_expression(0.5)).value == 2.5


def test_classical_bound_witness_reproduces_value():
    for expr in (chsh_expression(), chsh_game_expression(), tilted_chsh_expression(0.7)):
        result = classical_bound(expr)
        strategy = local_deterministic(
            result.witness["alice"], result.witness["bob"], o=expr.o
        )
        assert evaluate(expr, single_copy_table(strategy)) == result.value


def test_classical_bound_matches_exhaustive_oracle(rng):
    # Independent oracle: push every deterministic table through evaluate.
    for _ in range(25):
        m = int(rng.integers(2, 4))
        o = int(rng.integers(2, 4))
        expr = BellExpression(m, o, rng.normal(size=(m, m, o, o)), label="rand")
        oracle = max(
            evaluate(
                expr,
                CorrelationTable(
                    Scheme.BROADCAST, (m,), (o,),
                    deterministic_table_probs(m, o, alice, bob),
                ),
            )
            for alice in itertools.product(range(o), repeat=m)
            for bob in itertools.product(range(o), repeat=m)
        )
        assert classical_bound(expr).value == oracle


def test_classical_bound_scaling_covariance(rng):
    expr = BellExpression(2, 2, rng.normal(size=(2, 2, 2, 2)), label="rand")
    base = classical_bound(expr)
    for factor in (0.5, 2.0, 4.0):
        bound = classical_bound(scaled(expr, factor))
        assert bound.value == factor * base.value
        assert bound.witness == base.witness


def test_classical_bound_enumeration_cap():
    m, o = 14, 2  # 2^28 > 1e8 assignments
    with pytest.raises(EnumerationTooLarge):
        classical_bound(BellExpression(m, o, np.zeros((m, m, o, o)), label="big"))


def test_quantum_value_reference_measurements():
    result = quantum_value_fixed_measurements(chsh_expression(), chsh_reference())
    assert result.value == pytest.approx(CHSH_MAX, abs=1e-9)


def test_quantum_value_commuting_measurements():
    z = povm_from_observable(SIGMA_Z)
    s = SingleCopyStrategy(
        state=chsh_reference().state,
        alice=(z, z),
        bob=(z, z),
        m=2,
        o=2,
        label="commuting",
    )
    result = quantum_value_fixed_measurements(chsh_expression(), s)
    assert result.value == pytest.approx(2.0, abs=1e-9)


def test_quantum_value_zero_expression():
    expr = BellExpression(2, 2, np.zeros((2, 2, 2, 2)), label="zero")
    assert quantum_value_fixed_measurements(expr, chsh_reference()).value == \
        pytest.approx(0.0, abs=1e-12)


def test_quantum_value_witness_reproduces_value():
    expr = tilted_chsh_expression(0.5)
    s = chsh_reference()
    result = quantum_value_fixed_measurements(expr, s)
    amplitudes = np.array([complex(re, im) for re, im in result.witness["amplitudes"]])
    op = bell_operator(expr, stack_effects(s.alice), stack_effects(s.bob))
    value = float((amplitudes.conj() @ op @ amplitudes).real)
    assert value == pytest.approx(result.value, abs=1e-9)


def test_bell_operator_rejects_stacks_of_other_arities():
    s = chsh_reference()
    alice, bob = stack_effects(s.alice), stack_effects(s.bob)
    with pytest.raises(ShapeMismatch, match="arities"):
        bell_operator(tilted_chsh_expression(0.5), alice[:1], bob)
    with pytest.raises(ShapeMismatch, match="arities"):
        bell_operator(BellExpression(2, 3, np.ones((2, 2, 3, 3))), alice, bob)


def test_classical_below_quantum_for_reference_families():
    chsh = chsh_expression()
    assert classical_bound(chsh).value < \
        quantum_value_fixed_measurements(chsh, chsh_reference()).value
    for alpha in (0.3, 0.5, 1.0):
        expr = tilted_chsh_expression(alpha)
        s = tilted_chsh_reference(alpha, expr)
        assert classical_bound(expr).value < \
            quantum_value_fixed_measurements(expr, s).value


def test_expression_json_roundtrip():
    expr = tilted_chsh_expression(0.5)
    data = json.loads(json.dumps(expression_to_json_dict(expr)))
    back = expression_from_json_dict(data)
    assert back.m == expr.m and back.o == expr.o and back.label == expr.label
    assert np.array_equal(back.coeffs, expr.coeffs)


def test_expression_json_rejects_unknown_keys():
    data = expression_to_json_dict(chsh_expression())
    data["extra"] = 1
    with pytest.raises(TableFormatError, match="/extra"):
        expression_from_json_dict(data)


def test_expression_coefficients_are_bounded_in_sum():
    # The absolute coefficients may sum to 2^960 and no more, so that no sum
    # over prefixes or settings of the conditional values can overflow.
    at_bound = np.full((2, 2, 2, 2), COEFF_SUM_LIMIT / 16)
    at_bound[0, 0, 0, 0] *= -1.0
    assert BellExpression(2, 2, at_bound).coeffs.sum() == COEFF_SUM_LIMIT * 7 / 8
    for coeffs in (np.nextafter(at_bound, np.inf), np.full((2, 2, 2, 2), 1.7e308)):
        with pytest.raises(ValueError, match="coefficients"):
            BellExpression(2, 2, coeffs)
    data = expression_to_json_dict(chsh_expression())
    data["coeffs"] = (chsh_expression().coeffs * 1.7e308).tolist()
    with pytest.raises(TableFormatError) as info:
        expression_from_json_dict(data)
    assert info.value.pointer == "/coeffs"


@pytest.mark.parametrize("key,value", [("m", 2.7), ("m", "2"), ("o", True), ("o", 2.0)])
def test_expression_json_accepts_only_integer_arities(key, value):
    data = expression_to_json_dict(chsh_expression())
    data[key] = value
    with pytest.raises(TableFormatError) as info:
        expression_from_json_dict(data)
    assert info.value.pointer == f"/{key}"


@pytest.mark.parametrize("m,o,field", [(0, 2, "m"), (2, -1, "o"), (-3, 0, "m"), (1, 0, "o")])
def test_expression_json_names_a_non_positive_arity_at_its_key(m, o, field):
    with pytest.raises(ArityError) as owner:
        BellExpression(m, o, [])
    assert owner.value.field == field
    with pytest.raises(TableFormatError) as info:
        expression_from_json_dict({"m": m, "o": o, "coeffs": []})
    assert str(info.value) == f"/{field}: arities must be positive"


def test_expression_json_names_the_coefficient_shape_as_the_expression_does():
    data = expression_to_json_dict(chsh_expression())
    data["coeffs"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ShapeMismatch) as owner:
        BellExpression(2, 2, data["coeffs"])
    with pytest.raises(TableFormatError) as info:
        expression_from_json_dict(data)
    assert str(info.value) == f"/coeffs: {owner.value}"
    assert str(owner.value) == "coefficient shape (2, 2) != (2, 2, 2, 2)"


def test_table_json_roundtrip_is_exact():
    table = compose([chsh_reference()] * 2, Scheme.BROADCAST)
    data = json.loads(json.dumps(table_to_json_dict(table, {"note": "x"})))
    back = table_from_json_dict(data)
    assert back.scheme is table.scheme
    assert back.input_arities == table.input_arities
    assert back.output_arities == table.output_arities
    assert np.array_equal(back.probs, table.probs)


def test_table_json_pointer_on_bad_entry():
    table = single_copy_table(chsh_reference())
    data = table_to_json_dict(table)
    data["probs"][0][1][0][1] = 1.5
    with pytest.raises(TableFormatError, match="/probs/0/1"):
        table_from_json_dict(data)


def test_table_json_pointer_on_missing_key():
    data = table_to_json_dict(single_copy_table(chsh_reference()))
    del data["scheme"]
    with pytest.raises(TableFormatError, match="/scheme"):
        table_from_json_dict(data)


def test_table_json_rejects_denormalized():
    data = table_to_json_dict(single_copy_table(chsh_reference()))
    data["probs"][0][0][0][0] += 1e-3
    with pytest.raises(TableFormatError, match="/probs/0/0"):
        table_from_json_dict(data)


def test_table_loader_never_leaks_raw_errors():
    # Every malformed file must surface as a pointer-carrying format error,
    # never a bare TypeError/ValueError traceback.
    good = table_to_json_dict(compose([chsh_reference()] * 2, Scheme.BROADCAST))
    optional = {"provenance", "format", "encoding"}
    cases = []
    for key in list(good):
        if key != "provenance":  # provenance is opaque metadata
            broken = json.loads(json.dumps(good))
            broken[key] = None
            cases.append(broken)
        if key not in optional:
            broken = json.loads(json.dumps(good))
            del broken[key]
            cases.append(broken)
    for mutate in (
        lambda d: d.update(probs=[[1, 2], [3]]),
        lambda d: d.update(scheme={"x": 1}),
        lambda d: d.update(input_arities=5),
        lambda d: d.update(n_copies="two"),
        lambda d: d["probs"][0][0][0].__setitem__(0, "x"),
    ):
        broken = json.loads(json.dumps(good))
        mutate(broken)
        cases.append(broken)
    # Arity and copy-count faults are reported at the field at fault, not at
    # /probs; only JSON integers are accepted there.
    for key, value, pointer in (
        ("input_arities", [], "/input_arities"),
        ("output_arities", [], "/output_arities"),
        ("output_arities", [-2, 2], "/output_arities"),
        ("input_arities", [2.0], "/input_arities"),
        ("output_arities", [True, 2], "/output_arities"),
        ("input_arities", "2", "/input_arities"),
        ("n_copies", "2", "/n_copies"),
        ("n_copies", 2.0, "/n_copies"),
        ("n_copies", True, "/n_copies"),
    ):
        broken = json.loads(json.dumps(good))
        broken[key] = value
        with pytest.raises(TableFormatError) as info:
            table_from_json_dict(broken)
        assert info.value.pointer == pointer, (key, value, str(info.value))
    cases.extend([[1, 2, 3], "nope"])
    for broken in cases:
        if broken == json.loads(json.dumps(good)):
            continue
        with pytest.raises(TableFormatError):
            table_from_json_dict(broken)
    # Absent optional keys are fine.
    trimmed = json.loads(json.dumps(good))
    for key in optional:
        del trimmed[key]
    table_from_json_dict(trimmed)


def test_table_entries_validated_on_construction():
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 0] = [[0.5, 0.5], [0.25, -0.25]]
    with pytest.raises(ValueError):
        CorrelationTable(Scheme.BROADCAST, (2,), (2,), probs)


def test_table_checks_keep_their_precedence():
    # Non-finite before out of range before not normalised, whatever else is wrong.
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[1, 1, 1, 1], probs[0, 1, 0, 0], probs[1, 0, 0, 1] = np.nan, 1.5, 0.5
    with pytest.raises(ValueError) as info:
        CorrelationTable(Scheme.BROADCAST, (2,), (2,), probs)
    assert type(info.value) is ValueError
    assert str(info.value) == "probabilities contain NaN or Inf"
    # Of two entries out of range, the first in row-major order is named.
    probs[1, 1, 1, 1], probs[1, 0, 1, 1] = 0.25, -0.5
    data = table_to_json_dict(single_copy_table(chsh_reference()))
    data["probs"] = probs.tolist()
    with pytest.raises(TableFormatError) as info:
        table_from_json_dict(data)
    assert str(info.value) == "/probs/0/1/0/0: probability outside [0, 1]"
    # A stack is judged table by table, and names the table first.
    good = single_copy_table(chsh_reference()).probs
    with pytest.raises(TableEntryError) as info:
        _check_probs(np.stack([good, probs]))
    assert info.value.index == (1, 0, 1, 0, 0)
    probs[0, 1, 0, 0], probs[1, 0, 1, 1] = 0.5, 0.25
    with pytest.raises(TableEntryError) as info:
        _check_probs(np.stack([good, good, probs]))
    assert (info.value.index, info.value.reason) == ((2, 0, 1), "entries do not sum to 1")


def test_a_percopy_table_holds_no_more_copies_than_its_walk_lays_out():
    # The per-copy walk lays a chunk out on 2n + 1 axes, so at 32 copies
    # numpy refused it mid-certification; the table now refuses it itself.
    one = BellExpression(1, 1, [[[[1.0]]]])
    probs = [[[[1.0]]]]
    for n in (_PERCOPY_MAX_COPIES + 1, 2 * _PERCOPY_MAX_COPIES):
        with pytest.raises(ArityError) as info:
            CorrelationTable(Scheme.PER_COPY, (1,) * n, (1,) * n, probs)
        assert info.value.field == "n_copies"
        assert str(info.value) == f"a per-copy table holds at most {_PERCOPY_MAX_COPIES} copies"
    n = _PERCOPY_MAX_COPIES
    table = CorrelationTable(Scheme.PER_COPY, (1,) * n, (1,) * n, probs)
    assert certify_theorem4(table, [one] * n, [1.0] * n).verdict == "pass"
    broadcast = CorrelationTable(Scheme.BROADCAST, (1,) * 40, (1,) * 40, probs)
    assert certify_theorem1(broadcast, one, 1.0).verdict == "pass"


def test_table_copies_what_the_caller_passes():
    probs = single_copy_table(chsh_reference()).probs.copy()
    table = CorrelationTable(Scheme.BROADCAST, (2,), (2,), probs)
    before = table.probs.copy()
    probs[0, 0] = [[1.0, 0.0], [0.0, 0.0]]
    assert np.array_equal(table.probs, before)
    assert not np.shares_memory(table.probs, probs)


def test_library_tables_are_read_only_and_their_own():
    # compose, the adversaries and the JSON reader hand their tables fresh
    # arrays, shared with nothing the caller holds.
    chsh = chsh_reference()
    held = [chsh.state.matrix] + [e for p in chsh.alice + chsh.bob for e in p.effects]
    data = table_to_json_dict(compose([chsh] * 2, Scheme.BROADCAST))
    data["probs"] = np.array(data["probs"])
    tables = [single_copy_table(chsh), compose([chsh], Scheme.BROADCAST),
              compose([chsh], Scheme.PER_COPY), compose([chsh] * 3, Scheme.BROADCAST),
              compose([chsh] * 3, Scheme.PER_COPY), adversary_copy(3),
              adversary_shared_randomness(3), table_from_json_dict(data)]
    held.append(data["probs"])
    for k, table in enumerate(tables):
        assert not table.probs.flags.writeable, k
        others = held + [t.probs for t in tables[:k]]
        assert not any(np.shares_memory(table.probs, other) for other in others), k


def test_tables_hold_no_second_copy():
    # A fresh array is validated and made read-only in place, not copied; what
    # composing and adopting allocate are rows of tests/test_memory.py.
    fresh = compose([chsh_reference()] * 5, Scheme.PER_COPY).probs.copy()
    adopted = CorrelationTable._adopt(Scheme.PER_COPY, (2,) * 5, (2,) * 5, fresh)
    assert adopted.probs is fresh and not fresh.flags.writeable


def test_reading_a_dict_adopts_only_an_array_handed_over():
    # A library caller may still hold, and write to, the array in its dict,
    # so the table copies it; with ``adopt``, as the CLI reads a file, the
    # reader's own array is the table's, with no second table-sized array.
    table = compose([chsh_reference()] * 4, Scheme.PER_COPY)
    data = table_to_json_dict(table)
    data["probs"] = table.probs.copy()
    kept = table_from_json_dict(data)
    assert not np.shares_memory(kept.probs, data["probs"]) and data["probs"].flags.writeable
    data["probs"] = table.probs.copy()
    adopted = _table_from_json_dict(data, adopt=True)
    assert adopted.probs is data["probs"] and not data["probs"].flags.writeable
    # A nested list is converted into a fresh array either way.
    data["probs"] = table.probs.tolist()
    assert np.array_equal(_table_from_json_dict(data, adopt=True).probs, table.probs)
