"""Reference functions that only tests call, kept apart from the package.

Each is a plain single-entry or per-call form of something the package
computes in bulk: the Born rule of one outcome pair, the largest eigenvalue
of a Hermitian matrix, mixed-radix joint indices, the value of an expression
on a single-copy table, a two-outcome correlator, one copy's marginal in one
numpy sum, the raising form of one copy's ``conditional_means`` entry, the
expression and text writers, and a local deterministic strategy.  The qubit
identity, which only the qubit tests build effects from, lives here too.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from paraself.bell import (
    BellExpression,
    CorrelationTable,
    Scheme,
    conditional_means,
    table_to_json_chunks,
)
from paraself.errors import (
    DimensionMismatch,
    NonrealResult,
    SchemeInputMismatch,
    ShapeMismatch,
)
from paraself.qcore import IMAG_TOL, DensityMatrix, Povm, as_complex_matrix, require_hermitian
from paraself.strategies import SingleCopyStrategy

IDENTITY_2 = np.eye(2, dtype=complex)


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


def encode_joint(digits: Sequence[int], arities: Sequence[int]) -> int:
    """Mixed-radix encoding, copy 1 (first digit) least significant."""
    if len(digits) != len(arities):
        raise ShapeMismatch("digit/arity length mismatch")
    index = 0
    weight = 1
    for d, r in zip(digits, arities):
        if not 0 <= d < r:
            raise ValueError(f"digit {d} out of range for arity {r}")
        index += d * weight
        weight *= r
    return index


def decode_joint(index: int, arities: Sequence[int]) -> tuple:
    """Inverse of :func:`encode_joint`."""
    if not 0 <= index < math.prod(arities):
        raise ValueError(f"joint index {index} out of range")
    digits = []
    for r in arities:
        digits.append(index % r)
        index //= r
    return tuple(digits)


def evaluate(expr: BellExpression, table: CorrelationTable) -> float:
    """Value of a linear expression on a single-copy table.

    Summation uses ``math.fsum`` (exactly rounded), so the result is
    independent of coefficient ordering and of padding zeros; the classical
    bound below relies on this to match an exhaustive oracle exactly.
    """
    if table.n_copies != 1:
        raise ShapeMismatch("evaluate expects a single-copy table")
    if table.input_arities[0] != expr.m or table.output_arities[0] != expr.o:
        raise ShapeMismatch(
            f"expression ({expr.m} inputs, {expr.o} outputs) does not match table "
            f"({table.input_arities[0]}, {table.output_arities[0]})"
        )
    return math.fsum((expr.coeffs * table.probs).ravel())


def correlator(table: CorrelationTable, x: int, y: int) -> float:
    """Two-outcome correlator sum_ab (-1)^(a+b) p(a,b|x,y) of a single-copy
    binary table, by ``math.fsum``: the oracle for theorem 2's correlators."""
    if table.n_copies != 1 or table.output_arities[0] != 2:
        raise ShapeMismatch("correlators require a single-copy binary-outcome table")
    m = table.input_arities[0]
    if not (0 <= x < m and 0 <= y < m):
        raise ShapeMismatch(f"inputs ({x}, {y}) out of range for {m} settings")
    p = table.probs
    return math.fsum(
        (-1.0) ** (a + b) * p[x, y, a, b] for a in range(2) for b in range(2)
    )


def copy_marginal(table: CorrelationTable, i: int) -> CorrelationTable:
    """Single-copy marginal of copy ``i`` of a broadcast table: the other
    copies' outputs summed out by one ``numpy.sum``, in its own order."""
    n, oa = table.n_copies, table.output_arities
    probs = table.probs.reshape(table.probs.shape[:2] + oa[::-1] * 2)  # [x, y, a_n..a_1, b_n..b_1]
    others = tuple(2 + k for k in range(2 * n) if k % n != n - i)
    return CorrelationTable(Scheme.BROADCAST, table.input_arities[:1], oa[i - 1:i],
                            probs.sum(axis=others))


def j_value(table: CorrelationTable, exprs: Sequence[BellExpression], i: int) -> float:
    """Uniform average of the conditional values of copy ``i`` with
    ``exprs[i - 1]`` (one expression per copy) over all ``o^(2(i-1))``
    prefixes; for ``i = 1`` this is exactly the expression value on the
    copy-1 marginal.  Any undefined prefix raises
    :class:`ZeroPrefixProbability` (the certification condition quantifies
    over every prefix)."""
    value, error = conditional_means([table], exprs)[0][i - 1]
    if error is not None:
        raise error
    return value


def expression_to_json_dict(expr: BellExpression) -> dict:
    return {
        "m": expr.m,
        "o": expr.o,
        "coeffs": expr.coeffs.tolist(),
        "label": expr.label,
    }


def table_to_json_text(table: CorrelationTable, provenance: dict | None = None) -> str:
    """The chunks of :func:`table_to_json_chunks` joined into one string."""
    return "".join(table_to_json_chunks(table, provenance))


def local_deterministic(alice_outputs: Sequence[int], bob_outputs: Sequence[int],
                        o: int, label: str = "deterministic") -> SingleCopyStrategy:
    """Classical strategy answering a(x), b(y) deterministically, realized on
    trivial one-dimensional local systems."""
    m = len(alice_outputs)
    if len(bob_outputs) != m:
        raise SchemeInputMismatch("assignments must have equal length")
    one = np.ones((1, 1))
    zero = np.zeros((1, 1))

    def povm_for(answer: int) -> Povm:
        return Povm(tuple(one if k == answer else zero for k in range(o)))

    return SingleCopyStrategy(
        state=DensityMatrix(one),
        alice=tuple(povm_for(int(a)) for a in alice_outputs),
        bob=tuple(povm_for(int(b)) for b in bob_outputs),
        m=m,
        o=o,
        label=label,
    )


def scaled(expr: BellExpression, factor: float) -> BellExpression:
    """``expr`` with every coefficient multiplied by ``factor``."""
    return BellExpression(expr.m, expr.o, factor * expr.coeffs, expr.label)
