"""Linear-algebra backbone: stacked effect products, the Born rule and
eigenvalue references, POVM and state validation."""

import numpy as np
import pytest

from paraself import qcore
from paraself.errors import DimensionMismatch, NonrealResult, NotHermitian
from paraself.qcore import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    Ket,
    Povm,
    effect_products,
    maximally_entangled_ket,
    povm_from_observable,
)

from reference import IDENTITY_2, born_probability, max_eigenvalue

PHI_PLUS = maximally_entangled_ket(2).density()


def _product(a, b):
    """The one block of effect_products on 1x1 stacks of a and b."""
    k = effect_products(a[None, None], b[None, None])
    assert k.shape == (1, 1, 1, 1, a.shape[0] * b.shape[0], a.shape[0] * b.shape[0])
    return k[0, 0, 0, 0]


def test_effect_products_identity():
    assert np.array_equal(_product(IDENTITY_2, IDENTITY_2), np.eye(4))


def test_effect_products_diagonal_product():
    assert np.array_equal(_product(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_effect_products_block_layout():
    # Hand-expanded 4x4 block formula for sigma_x (x) sigma_z: the left
    # factor is the most significant index.
    k = _product(SIGMA_X, SIGMA_Z)
    assert k[0, 2] == 1.0
    assert k[1, 3] == -1.0
    assert k[2, 0] == 1.0
    assert np.count_nonzero(k) == 4


def test_born_maximally_entangled_symmetry():
    e00 = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert born_probability(PHI_PLUS, e00, e00) == pytest.approx(0.5, abs=1e-12)


def test_born_chsh_entry():
    # tr[((I+Z)/2 (x) (I+S+)/2) |phi+><phi+|] = (1 + 1/sqrt(2))/4.
    ea = (IDENTITY_2 + SIGMA_Z) / 2
    eb = (IDENTITY_2 + SIGMA_PLUS) / 2
    expected = (1.0 + 1.0 / np.sqrt(2.0)) / 4.0
    assert born_probability(PHI_PLUS, ea, eb) == pytest.approx(expected, abs=1e-12)


def test_born_maximally_mixed_factorizes(rng):
    state = np.eye(4) / 4.0
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        ea = a @ a.T
        eb = b @ b.T
        expected = np.trace(ea) * np.trace(eb) / 4.0
        assert born_probability(state, ea, eb) == pytest.approx(expected, abs=1e-10)


def test_born_probability_sums_to_one_over_complete_povms(rng):
    state = np.outer(*(2 * [rng.normal(size=4) + 1j * rng.normal(size=4)]))
    state = state.conj().T @ state
    state = state / np.trace(state)
    pa = povm_from_observable(SIGMA_X)
    pb = povm_from_observable(SIGMA_MINUS)
    total = sum(
        born_probability(state, ea, eb) for ea in pa.effects for eb in pb.effects
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_born_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        born_probability(PHI_PLUS, np.eye(2), np.eye(3))


def test_born_nonreal_result():
    # Non-Hermitian "effects" drive the trace complex:
    # <phi+| A (x) B |phi+> = tr(A B^T) / 2 = i/2 here.
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonrealResult):
        born_probability(PHI_PLUS, skew, 1j * skew)


def test_max_eigenvalue_pauli():
    assert max_eigenvalue(SIGMA_Z) == pytest.approx(1.0, abs=1e-12)


def test_max_eigenvalue_zero_matrix():
    assert max_eigenvalue(np.zeros((3, 3))) == 0.0


def test_max_eigenvalue_chsh_operator():
    op = (
        np.kron(SIGMA_Z, SIGMA_PLUS)
        + np.kron(SIGMA_Z, SIGMA_MINUS)
        + np.kron(SIGMA_X, SIGMA_PLUS)
        - np.kron(SIGMA_X, SIGMA_MINUS)
    )
    assert max_eigenvalue(op) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)


def test_max_eigenvalue_shift_covariance(rng):
    for _ in range(20):
        d = int(rng.integers(2, 6))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (a + a.conj().T) / 2
        c = float(rng.uniform(-10, 10))
        assert max_eigenvalue(c * np.eye(d) + h) == pytest.approx(
            c + max_eigenvalue(h), abs=1e-9
        )


def test_max_eigenvalue_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        max_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_validate_povm_accepts_projective():
    effects = ((IDENTITY_2 + SIGMA_Z) / 2, (IDENTITY_2 - SIGMA_Z) / 2)
    assert Povm(effects).n_outcomes == 2


def test_validate_povm_flags_overcomplete():
    with pytest.raises(ValueError, match="invalid POVM: completeness"):
        Povm((np.eye(2), np.eye(2)))


def test_validate_povm_flags_incomplete_single_effect():
    with pytest.raises(ValueError, match="invalid POVM: completeness"):
        Povm(((IDENTITY_2 + SIGMA_Z) / 2,))


def test_validate_povm_flags_negative_effect():
    with pytest.raises(ValueError, match="invalid POVM: effect 0: negative eigenvalue"):
        Povm((SIGMA_Z, IDENTITY_2 - SIGMA_Z))


def test_povm_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="invalid POVM: effect 1: dimension 3 != 2"):
        Povm((np.eye(2), np.eye(3)))


def test_povm_names_the_first_failing_effect_across_dimensions():
    # Effects are checked in order, each by every rule: a rule one effect breaks
    # is named ahead of a later effect of another dimension, and a dimension
    # ahead of a later broken rule.
    skew = np.array([[0.5, 0.3], [0.0, 0.5]])
    for effect, message in ((skew, "not Hermitian (defect 3.000e-01)"),
                            (SIGMA_Z, "negative eigenvalue -1.000e+00"),
                            (2 * IDENTITY_2, "eigenvalue 2.000000 exceeds 1")):
        with pytest.raises(ValueError) as error:
            Povm((IDENTITY_2 / 2, effect, np.eye(3)))
        assert str(error.value) == f"invalid POVM: effect 1: {message}"
    with pytest.raises(ValueError) as error:
        Povm((IDENTITY_2 / 2, np.eye(3), skew))
    assert str(error.value) == "invalid POVM: effect 1: dimension 3 != 2"


def test_povm_rejects_nan_and_garbage():
    with pytest.raises(ValueError, match="NaN or Inf"):
        Povm((np.full((2, 2), np.nan), "not a matrix"))
    with pytest.raises(ValueError, match="complex"):
        Povm((np.eye(2), "not a matrix"))
    with pytest.raises(ValueError, match="invalid POVM: no effects given"):
        Povm(())


def test_povm_construction_rejects_invalid():
    with pytest.raises(ValueError, match="invalid POVM"):
        Povm((np.eye(2), np.eye(2)))


def test_each_matrix_is_coerced_once(monkeypatch):
    calls = []
    coerce = qcore.as_complex_matrix

    def counting(m):
        calls.append(m)
        return coerce(m)

    monkeypatch.setattr(qcore, "as_complex_matrix", counting)
    DensityMatrix(np.eye(4) / 4)
    assert len(calls) == 1
    calls.clear()
    Povm(((IDENTITY_2 + SIGMA_Z) / 2, (IDENTITY_2 - SIGMA_Z) / 2, np.zeros((2, 2))))
    assert len(calls) == 3


# Validation raises that no other test reaches, one call each: with its raise removed, each
# call returns or raises something else.
VALIDATION_RAISES = [
    pytest.param(lambda: qcore.as_complex_matrix(np.zeros((2, 3))), DimensionMismatch,
                 "expected a square matrix, got shape (2, 3)", id="matrix-not-square"),
    pytest.param(lambda: qcore.as_complex_matrix(np.zeros((0, 0))), DimensionMismatch,
                 "matrix dimension must be >= 1", id="matrix-empty"),
    pytest.param(lambda: Ket([]), DimensionMismatch, "ket dimension must be >= 1",
                 id="ket-empty"),
    pytest.param(lambda: Ket([np.nan, 1.0]), ValueError, "ket contains NaN or Inf amplitudes",
                 id="ket-not-finite"),
]


@pytest.mark.parametrize("call,error,message", VALIDATION_RAISES)
def test_each_validation_raise_is_pinned(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def test_ket_requires_unit_norm():
    with pytest.raises(ValueError):
        Ket(np.array([1.0, 1.0]))


def test_density_matrix_requires_unit_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))


def test_density_matrix_requires_positivity():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_requires_hermitian():
    m = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(NotHermitian):
        DensityMatrix(m)


def test_density_rules_over_a_stack_name_the_worst_offender():
    # DensityMatrix and the noise sweep share one check: a stack breaking a rule
    # fails as DensityMatrix does on its worst offender, and the rules go in
    # order over the whole stack, Hermiticity first.
    good = np.eye(2) / 2
    bad = [(np.array([[0.5, 0.3], [0.0, 0.5]]), np.array([[0.5, 0.2], [0.0, 0.5]])),
           (np.eye(2), np.eye(2) * 0.95),
           (np.diag([1.5, -0.5]), np.diag([1.2, -0.2]))]
    for worst, milder in bad:
        with pytest.raises((NotHermitian, ValueError)) as single:
            DensityMatrix(worst)
        with pytest.raises(type(single.value)) as stacked:
            qcore._check_density(np.array([good, milder, worst, milder], dtype=complex))
        assert str(stacked.value) == str(single.value)
    with pytest.raises(NotHermitian):
        qcore._check_density(np.array([pair[0] for pair in bad[::-1]], dtype=complex))
    qcore._check_density(np.array([good, np.diag([1.0, 0.0])], dtype=complex))


def test_values_frozen_after_construction():
    state = maximally_entangled_ket(2).density()
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 9.0
