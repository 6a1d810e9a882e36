"""Reference strategies, composition, adversarial tables, noise channel."""

import itertools
import math

import numpy as np
import pytest

from paraself.bell import (
    Scheme,
    chsh_expression,
    chsh_game_expression,
    classical_bound,
    quantum_value_fixed_measurements,
    tilted_chsh_expression,
)
from paraself.errors import (
    InvalidAngles,
    NonrealResult,
    SchemeInputMismatch,
    UnsupportedDimension,
)
from paraself.qcore import SIGMA_Z, Povm, povm_from_observable
from paraself.strategies import (
    MAX_COPIES,
    SingleCopyStrategy,
    adversary_copy,
    adversary_shared_randomness,
    apply_isotropic_noise,
    born_tables,
    chsh_reference,
    compose,
    fullstats_reference,
    single_copy_table,
    tilted_chsh_reference,
)

from reference import (born_probability, copy_marginal, correlator, evaluate,
                       local_deterministic)

CHSH_MAX = 2.0 * np.sqrt(2.0)
GAME_MAX = (2.0 + np.sqrt(2.0)) / 4.0


def test_strategy_rejects_state_that_is_not_a_density_matrix():
    s = chsh_reference()
    with pytest.raises(TypeError, match="state is not a DensityMatrix"):
        SingleCopyStrategy(np.eye(4) / 4, s.alice, s.bob, m=2, o=2)
    with pytest.raises(TypeError, match=r"alice\[0\] is not a Povm"):
        SingleCopyStrategy(s.state, (s.alice[0].effects, s.alice[1]), s.bob, m=2, o=2)


CHSH = chsh_reference()
QUBIT_Z = povm_from_observable(SIGMA_Z)
QUTRIT_Z = povm_from_observable(np.diag([1.0, -1.0, -1.0]))
THREE_OUTCOMES = Povm(QUBIT_Z.effects + (np.zeros((2, 2)),))

# Raises that no other test reaches, one call each: with its raise removed, each call
# returns or raises something else.
STRATEGY_RAISES = [
    pytest.param(lambda: SingleCopyStrategy(CHSH.state, CHSH.alice[:1], CHSH.bob, m=2, o=2),
                 SchemeInputMismatch, "expected 2 POVMs per party, got 1/2", id="povm-count"),
    pytest.param(lambda: SingleCopyStrategy(CHSH.state, CHSH.alice, (CHSH.bob[0], THREE_OUTCOMES),
                                            m=2, o=2),
                 SchemeInputMismatch, "bob[1] has 3 effects, expected 2", id="outcome-count"),
    pytest.param(lambda: SingleCopyStrategy(CHSH.state, (QUBIT_Z, QUTRIT_Z), CHSH.bob, m=2, o=2),
                 SchemeInputMismatch, "effect dimensions differ between inputs",
                 id="effect-dimensions"),
    pytest.param(lambda: SingleCopyStrategy(CHSH.state, (QUTRIT_Z,) * 2, CHSH.bob, m=2, o=2),
                 SchemeInputMismatch, "state dim 4 != 3 * 2", id="state-dimension"),
    pytest.param(lambda: born_tables(CHSH, (np.eye(4) / 4 + 0.1j * np.eye(4))[None]),
                 NonrealResult, "probability has imaginary part 1.000e-01",
                 id="born-rule-not-hermitian"),
    pytest.param(lambda: compose([CHSH], "broadcast"), SchemeInputMismatch,
                 "unknown scheme 'broadcast'", id="compose-scheme"),
]


@pytest.mark.parametrize("call,error,message", STRATEGY_RAISES)
def test_each_strategy_raise_is_pinned(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def test_chsh_reference_attains_quantum_maximum():
    table = single_copy_table(chsh_reference())
    assert evaluate(chsh_expression(), table) == pytest.approx(CHSH_MAX, abs=1e-9)


def test_chsh_reference_game_score():
    table = single_copy_table(chsh_reference())
    assert evaluate(chsh_game_expression(), table) == pytest.approx(GAME_MAX, abs=1e-9)


def test_chsh_reference_all_entries_positive():
    # Every probability is cos^2(pi/8)/2 or sin^2(pi/8)/2, both positive.
    table = single_copy_table(chsh_reference())
    assert table.probs.min() > 0.07


def test_chsh_reference_correlators():
    table = single_copy_table(chsh_reference())
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert correlator(table, 0, 0) == pytest.approx(inv_sqrt2, abs=1e-12)
    assert correlator(table, 0, 1) == pytest.approx(inv_sqrt2, abs=1e-12)
    assert correlator(table, 1, 0) == pytest.approx(inv_sqrt2, abs=1e-12)
    assert correlator(table, 1, 1) == pytest.approx(-inv_sqrt2, abs=1e-12)


def test_fullstats_reference_correlators():
    gamma, delta = np.pi / 4, np.pi / 6
    table = single_copy_table(fullstats_reference(gamma, delta))
    assert correlator(table, 0, 0) == pytest.approx(np.cos(gamma), abs=1e-9)
    assert correlator(table, 0, 1) == pytest.approx(-np.cos(delta), abs=1e-9)
    assert correlator(table, 1, 0) == pytest.approx(np.sin(gamma), abs=1e-9)
    assert correlator(table, 1, 1) == pytest.approx(np.sin(delta), abs=1e-9)


def test_fullstats_reference_rejects_bad_angles():
    with pytest.raises(InvalidAngles):
        fullstats_reference(np.pi / 4, np.pi / 4)
    with pytest.raises(InvalidAngles):
        fullstats_reference(0.0, np.pi / 6)
    with pytest.raises(InvalidAngles):
        fullstats_reference(np.pi / 3, np.pi / 6)


def test_tilted_reference_alpha_zero_reduces_to_chsh():
    expr = tilted_chsh_expression(0.0)
    s = tilted_chsh_reference(0.0, expr)
    table = single_copy_table(s)
    reference = single_copy_table(chsh_reference())
    # The correlations maximizing CHSH are unique, so the tables must agree.
    assert np.max(np.abs(table.probs - reference.probs)) <= 1e-9
    assert evaluate(chsh_expression(), table) == pytest.approx(CHSH_MAX, abs=1e-9)


def test_tilted_reference_classical_and_quantum_values():
    expr = tilted_chsh_expression(0.5)
    assert classical_bound(expr).value == 2.5
    s = tilted_chsh_reference(0.5, expr)
    oracle = quantum_value_fixed_measurements(expr, s)
    # Strategy value and eigen-oracle value agree and beat the deterministic
    # bound.
    achieved = evaluate(expr, single_copy_table(s))
    assert achieved == pytest.approx(oracle.value, abs=1e-6)
    assert oracle.value > 2.5 + 0.05
    assert oracle.value == pytest.approx(np.sqrt(8.0 + 2.0 * 0.25), abs=1e-9)


def _ulps_from_tilted_max(value: float, alpha: float) -> float:
    want = math.sqrt(8.0 + 2.0 * alpha * alpha)
    return abs(value - want) / math.ulp(want)


@pytest.mark.parametrize("alpha", [1.5, 1.9, 1.99, 1.999])
def test_tilted_reference_strong_tilt_escapes_deterministic_fixed_point(alpha):
    # At strong tilts the deterministic strategy reaches the classical value
    # 2 + alpha, within 1.25e-7 of the entangled optimum sqrt(8 + 2 alpha^2)
    # at alpha = 1.999; the reference must attain the optimum.
    expr = tilted_chsh_expression(alpha)
    achieved = evaluate(expr, single_copy_table(tilted_chsh_reference(alpha, expr)))
    assert _ulps_from_tilted_max(achieved, alpha) <= 4
    assert achieved > 2.0 + alpha


@pytest.mark.parametrize("alpha", [*np.linspace(0.0, 1.99, 50).tolist(), 1.999])
def test_tilted_reference_attains_closed_form_maximum(alpha):
    expr = tilted_chsh_expression(alpha)
    s = tilted_chsh_reference(alpha, expr)
    assert _ulps_from_tilted_max(evaluate(expr, single_copy_table(s)), alpha) <= 4
    assert _ulps_from_tilted_max(quantum_value_fixed_measurements(expr, s).value, alpha) <= 4


def test_tilted_reference_rejects_alpha_out_of_range():
    with pytest.raises(ValueError):
        tilted_chsh_reference(2.0, tilted_chsh_expression(2.0))


def test_tilted_reference_rejects_other_coefficients():
    # The closed form maximizes only the tilted family at the given alpha.
    with pytest.raises(ValueError, match="not those of tilted-chsh"):
        tilted_chsh_reference(0.5, chsh_expression())
    with pytest.raises(ValueError, match="not those of tilted-chsh"):
        tilted_chsh_reference(0.5, tilted_chsh_expression(0.47))


def test_noise_identity_at_full_visibility():
    s = chsh_reference()
    noisy = apply_isotropic_noise(s, 1.0)
    assert np.allclose(noisy.state.matrix, s.state.matrix, atol=1e-15)


def test_noise_kills_correlations_at_zero_visibility():
    noisy = apply_isotropic_noise(chsh_reference(), 0.0)
    table = single_copy_table(noisy)
    assert evaluate(chsh_expression(), table) == pytest.approx(0.0, abs=1e-12)


def test_noise_scales_value_linearly():
    noisy = apply_isotropic_noise(chsh_reference(), 0.9)
    table = single_copy_table(noisy)
    # Independent check: evaluate the Born rule directly on the mixed state.
    direct = math.fsum(
        chsh_expression().coeffs[x, y, a, b]
        * born_probability(noisy.state, noisy.alice[x].effects[a], noisy.bob[y].effects[b])
        for x, y, a, b in itertools.product(range(2), repeat=4)
    )
    assert evaluate(chsh_expression(), table) == pytest.approx(0.9 * CHSH_MAX, abs=1e-9)
    assert direct == pytest.approx(0.9 * CHSH_MAX, abs=1e-9)


def test_noise_requires_two_qubit_state():
    det = local_deterministic([0, 0], [0, 0], o=2)
    with pytest.raises(UnsupportedDimension):
        apply_isotropic_noise(det, 0.5)


def test_noise_spec_range():
    for nu in (1.5, -0.1):
        with pytest.raises(ValueError):
            apply_isotropic_noise(chsh_reference(), nu)


def test_compose_single_copy_is_identity():
    s = chsh_reference()
    assert np.array_equal(
        compose([s], Scheme.BROADCAST).probs, single_copy_table(s).probs
    )


def test_compose_broadcast_product_entry():
    s = chsh_reference()
    table = compose([s, s], Scheme.BROADCAST)
    single = single_copy_table(s).probs
    expected = single[0, 0, 0, 0] ** 2
    assert expected == pytest.approx(0.1821383476, abs=1e-9)
    assert table.probs[0, 0, 0, 0] == pytest.approx(expected, abs=1e-12)


def test_compose_broadcast_exact_product_structure(rng):
    s = chsh_reference()
    table = compose([s, s, s], Scheme.BROADCAST)
    single = single_copy_table(s).probs
    for x, y in itertools.product(range(2), repeat=2):
        for a, b in itertools.product(range(8), repeat=2):
            expected = 1.0
            for i in range(3):
                expected *= single[x, y, (a >> i) & 1, (b >> i) & 1]
            assert abs(table.probs[x, y, a, b] - expected) <= 1e-12


def test_compose_percopy_inputs_are_joint():
    s = chsh_reference()
    table = compose([s, s], Scheme.PER_COPY)
    assert table.probs.shape == (4, 4, 4, 4)
    single = single_copy_table(s).probs
    # Copy 1 is least significant in the joint input index.
    x1, x2, y1, y2 = 1, 0, 0, 1
    x = x1 + 2 * x2
    y = y1 + 2 * y2
    for a1, a2, b1, b2 in itertools.product(range(2), repeat=4):
        expected = single[x1, y1, a1, b1] * single[x2, y2, a2, b2]
        got = table.probs[x, y, a1 + 2 * a2, b1 + 2 * b2]
        assert abs(got - expected) <= 1e-12


def test_compose_broadcast_requires_equal_inputs():
    s3 = local_deterministic([0, 0, 0], [0, 0, 0], o=2, label="m3")
    with pytest.raises(SchemeInputMismatch):
        compose([chsh_reference(), s3], Scheme.BROADCAST)


def test_compose_rejects_empty_and_oversized():
    with pytest.raises(SchemeInputMismatch):
        compose([], Scheme.BROADCAST)
    with pytest.raises(SchemeInputMismatch):
        compose([chsh_reference()] * (MAX_COPIES + 1), Scheme.BROADCAST)


@pytest.mark.parametrize("n", [2, 3])
def test_adversary_copy_forces_equal_outputs(n):
    table = adversary_copy(n)
    all_ones = 2 ** n - 1
    for a in range(2 ** n):
        if a not in (0, all_ones):
            assert np.all(table.probs[:, :, a, :] == 0.0)


def test_adversary_copy_per_pair_scores():
    table = adversary_copy(3)
    for i in range(1, 4):
        marginal = copy_marginal(table, i)
        score = evaluate(chsh_game_expression(), marginal)
        assert score == pytest.approx(GAME_MAX, abs=1e-9)


def test_adversary_shared_randomness_uniform_marginals():
    n = 3
    table = adversary_shared_randomness(n)
    alice_marginal = table.probs.sum(axis=3)
    assert np.max(np.abs(alice_marginal - 1.0 / 2 ** n)) <= 1e-12


def test_adversary_shared_randomness_per_pair_scores():
    table = adversary_shared_randomness(2)
    for i in (1, 2):
        score = evaluate(chsh_game_expression(), copy_marginal(table, i))
        assert score == pytest.approx(GAME_MAX, abs=1e-9)


def test_adversary_shared_randomness_preserves_pair_parity():
    table = adversary_shared_randomness(2)
    # Outputs with differing pair parities never occur: a1^b1 != a2^b2 -> 0.
    for a, b in itertools.product(range(4), repeat=2):
        parities = {(a >> i & 1) ^ (b >> i & 1) for i in range(2)}
        if len(parities) > 1:
            assert np.all(table.probs[:, :, a, b] == 0.0)


@pytest.mark.parametrize("n", range(2, MAX_COPIES + 1))
def test_adversaries_equal_their_closed_forms_bit_for_bit(n):
    # Cell by cell: the copied pair's outcomes in every slot, and each pair
    # parity's probability spread evenly over the 2^n outputs of Alice.
    p1, size = single_copy_table(chsh_reference()).probs, 2 ** n
    ones = size - 1
    copied, shared = np.zeros((2, 2, size, size)), np.zeros((2, 2, size, size))
    for a, b in itertools.product(range(2), repeat=2):
        copied[:, :, a * ones, b * ones] = p1[:, :, a, b]
    parity = [p1[:, :, 0, 0] + p1[:, :, 1, 1], p1[:, :, 0, 1] + p1[:, :, 1, 0]]
    for joint_a, s in itertools.product(range(size), range(2)):
        shared[:, :, joint_a, joint_a ^ (s * ones)] = parity[s] / size
    for table, want in ((adversary_copy(n), copied), (adversary_shared_randomness(n), shared)):
        assert np.array_equal(table.probs.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("build", [adversary_copy, adversary_shared_randomness])
def test_adversaries_require_at_least_two_copies(build):
    with pytest.raises(SchemeInputMismatch):
        build(1)


@pytest.mark.parametrize("build", [adversary_copy, adversary_shared_randomness])
def test_adversary_tables_are_normalized_and_nonsignaling(build):
    table = build(3)
    assert np.max(np.abs(table.probs.sum(axis=(2, 3)) - 1.0)) <= 1e-10
    alice = table.probs.sum(axis=3)
    bob = table.probs.sum(axis=2)
    assert np.max(np.abs(alice - alice[:, :1, :])) <= 1e-10
    assert np.max(np.abs(bob - bob[:1, :, :])) <= 1e-10
