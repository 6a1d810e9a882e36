"""Dense complex linear algebra and Born-rule evaluation.

States, measurement effects and observables are plain ``numpy`` arrays of
``complex128``; the light dataclasses below (:class:`Ket`,
:class:`DensityMatrix`, :class:`Povm`) add construction-time validation and
freeze their arrays so every value is immutable after construction.  Past
that boundary, effects are stacked as ``[input, outcome, i, j]`` arrays.  All
functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonrealResult, NotHermitian

# Centralized tolerances.  Dimensions in play are at most a few thousand, so
# double precision leaves ample headroom.
STRUCTURAL_TOL = 1e-10   # POVM positivity/completeness, density-matrix PSD floor
HERMITIAN_TOL = 1e-12    # max |M - M^dagger| for Hermitian-flagged matrices
NORM_TOL = 1e-12         # ket norm / density trace deviation
IMAG_TOL = 1e-8          # largest tolerated imaginary residue of a probability

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# Diagonal/antidiagonal measurement directions saturating the CHSH maximum.
SIGMA_PLUS = (SIGMA_Z + SIGMA_X) / np.sqrt(2.0)
SIGMA_MINUS = (SIGMA_Z - SIGMA_X) / np.sqrt(2.0)


def _frozen(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square 2-D complex array with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise DimensionMismatch("matrix dimension must be >= 1")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix contains NaN or Inf entries")
    return arr


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation of ``m`` from its conjugate transpose."""
    arr = as_complex_matrix(m)
    return float(np.max(np.abs(arr - arr.conj().T)))


def require_hermitian(m, tol: float = HERMITIAN_TOL, what: str = "matrix") -> np.ndarray:
    arr = as_complex_matrix(m)
    defect = hermiticity_defect(arr)
    if defect > tol:
        raise NotHermitian(f"{what} deviates from Hermiticity by {defect:.3e}")
    return arr


def stack_effects(povms) -> np.ndarray:
    """Effects of a POVM list as one array indexed ``[input, outcome, i, j]``."""
    return np.array([p.effects for p in povms])


def effect_products(alice, bob) -> np.ndarray:
    """Stacked effect products ``K[x, y, a, b] = alice[x, a] (x) bob[y, b]``
    with the left factor most significant.  This broadcast multiply matches
    ``np.kron`` bit for bit; ``einsum`` does not on complex effects."""
    (m_a, o_a, d_a, _), (m_b, o_b, d_b, _) = alice.shape, bob.shape
    products = alice[:, None, :, None, :, None, :, None] * bob[None, :, None, :, None, :, None, :]
    return products.reshape(m_a, m_b, o_a, o_b, d_a * d_b, d_a * d_b)


def born_probability(state, effect_a, effect_b) -> float:
    """Probability tr[(effect_a (x) effect_b) rho] of a joint measurement
    outcome: the single-entry reference that the batched
    :func:`~paraself.strategies.single_copy_table` must match bit for bit.

    ``state`` may be a :class:`DensityMatrix` or a raw matrix whose dimension
    equals dim(effect_a) * dim(effect_b).  An imaginary residue above
    ``IMAG_TOL`` raises :class:`NonrealResult`; smaller residues are
    discarded.
    """
    rho = state.matrix if isinstance(state, DensityMatrix) else as_complex_matrix(state)
    ea = as_complex_matrix(effect_a)
    eb = as_complex_matrix(effect_b)
    if rho.shape[0] != ea.shape[0] * eb.shape[0]:
        raise DimensionMismatch(
            f"state dim {rho.shape[0]} != {ea.shape[0]} * {eb.shape[0]}"
        )
    value = complex(np.trace(np.kron(ea, eb) @ rho))
    if abs(value.imag) > IMAG_TOL:
        raise NonrealResult(f"probability has imaginary part {value.imag:.3e}")
    return float(value.real)


def max_eigenvalue(h) -> float:
    """Largest eigenvalue of a Hermitian matrix (absolute accuracy well below
    1e-9 via LAPACK)."""
    arr = require_hermitian(h, what="eigenvalue input")
    return float(np.linalg.eigvalsh(arr)[-1])


def validate_povm(effects, tol: float = STRUCTURAL_TOL) -> list[str]:
    """Check a candidate POVM given as a sequence of effect matrices.

    Returns a list of human-readable violations (empty list means valid):
    Hermiticity of each effect, eigenvalues within [-tol, 1 + tol], and
    completeness (effects summing to the identity within ``tol`` entrywise).
    Never raises on invalid input.
    """
    violations: list[str] = []
    mats = []
    for k, e in enumerate(effects):
        try:
            mats.append(as_complex_matrix(e))
        except (DimensionMismatch, ValueError) as exc:
            violations.append(f"effect {k}: {exc}")
    if violations or not mats:
        if not mats:
            violations.append("no effects given")
        return violations
    dim = mats[0].shape[0]
    mismatched = False
    for k, e in enumerate(mats):
        if e.shape[0] != dim:
            violations.append(f"effect {k}: dimension {e.shape[0]} != {dim}")
            mismatched = True
            continue
        defect = hermiticity_defect(e)
        if defect > tol:
            violations.append(f"effect {k}: not Hermitian (defect {defect:.3e})")
            continue
        eigs = np.linalg.eigvalsh((e + e.conj().T) / 2)
        if eigs[0] < -tol:
            violations.append(f"effect {k}: negative eigenvalue {eigs[0]:.3e}")
        if eigs[-1] > 1 + tol:
            violations.append(f"effect {k}: eigenvalue {eigs[-1]:.6f} exceeds 1")
    if mismatched:
        # The completeness sum is undefined across mismatched dimensions.
        return violations
    total = sum(mats)
    defect = float(np.max(np.abs(total - np.eye(dim))))
    if defect > tol:
        violations.append(f"completeness: effects sum deviates from identity by {defect:.3e}")
    return violations


@dataclass(frozen=True)
class Ket:
    """Normalized pure-state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if arr.size < 1:
            raise DimensionMismatch("ket dimension must be >= 1")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("ket contains NaN or Inf amplitudes")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"ket norm {norm} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _frozen(arr))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = as_complex_matrix(self.matrix)
        defect = hermiticity_defect(arr)
        if defect > HERMITIAN_TOL:
            raise NotHermitian(f"density matrix deviates from Hermiticity by {defect:.3e}")
        trace = complex(np.trace(arr))
        if abs(trace - 1.0) > NORM_TOL:
            raise ValueError(f"density matrix trace {trace} deviates from 1")
        min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2)[0])
        if min_eig < -STRUCTURAL_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "matrix", _frozen(arr))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Povm:
    """Ordered list of measurement effects, one per outcome."""

    effects: tuple

    def __post_init__(self):
        effects = tuple(as_complex_matrix(e) for e in self.effects)
        violations = validate_povm(effects)
        if violations:
            raise ValueError("invalid POVM: " + "; ".join(violations))
        object.__setattr__(self, "effects", tuple(_frozen(e) for e in effects))

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]


def povm_from_observable(observable) -> Povm:
    """Two-outcome projective POVM of a +/-1 observable.  Outcome index 0
    corresponds to eigenvalue +1 throughout the package."""
    obs = require_hermitian(observable, what="observable")
    eye = np.eye(obs.shape[0])
    return Povm(((eye + obs) / 2, (eye - obs) / 2))


def maximally_entangled_ket(local_dim: int = 2) -> Ket:
    """The state sum_k |kk> / sqrt(d) on a d x d bipartite space."""
    if local_dim < 1:
        raise DimensionMismatch("local dimension must be >= 1")
    amp = np.zeros(local_dim * local_dim, dtype=complex)
    for k in range(local_dim):
        amp[k * local_dim + k] = 1.0 / np.sqrt(local_dim)
    return Ket(amp)
