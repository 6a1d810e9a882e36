"""Bell expressions, correlation tables, and the nonlinear functionals used
for parallel certification.

A linear Bell expression is a coefficient tensor ``coeffs[x, y, a, b]`` over a
single-copy scenario with ``m`` inputs and ``o`` outputs per party; its value
on a table is ``sum coeffs * p(a,b|x,y)``.  For a broadcast multi-copy table
the *conditional value* of copy ``i`` at a prefix is the expression evaluated
on the distribution of copy ``i`` conditioned on the joint outputs of copies
``1..i-1`` (outputs of copies beyond ``i`` are marginalized first).  Two
functions give all of them:

* ``conditional_kernel`` sums out the copies beyond ``i`` once and returns
  the conditional distribution of copy ``i`` and the prefix probability for
  every prefix at once; the full-statistics certifier reads it directly;
* ``conditional_mean`` averages the conditional values over all prefixes and
  names the first prefix where one is undefined.  Simultaneous maximality of
  these averages for every copy is the certification target of the broadcast
  scheme; ``j_value`` is the same average, raising on an undefined prefix.

For per-copy-input tables, ``averaged_j_percopy`` instead averages the
expression value of copy ``i`` over all settings of the other copies' inputs.

Joint output (and, for the per-copy scheme, joint input) indices are encoded
mixed-radix with copy 1 least significant.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    ArityError,
    EnumerationTooLarge,
    ShapeMismatch,
    TableEntryError,
    TableFormatError,
    ZeroPrefixProbability,
)
from .qcore import kron

if TYPE_CHECKING:  # pragma: no cover
    from .strategies import SingleCopyStrategy

# Prefixes with probability at or below this floor make conditional values
# undefined; certification demands strict positivity but fixes no numeric
# floor, so one is pinned here.
POSITIVITY_THRESHOLD = 1e-12

# Hard cap on deterministic-strategy enumeration (o^(2m) assignments).
ENUMERATION_CAP = 10**8

_NORMALIZATION_TOL = 1e-10
_ENTRY_TOL = 1e-12


class Scheme(Enum):
    """How n copies receive their inputs: one input per party broadcast to
    all copies, or one input per copy per party."""

    BROADCAST = "broadcast"
    PER_COPY = "percopy"


@dataclass(frozen=True)
class BellExpression:
    """Coefficient tensor of a linear Bell expression.

    ``coeffs`` has shape ``(m, m, o, o)`` indexed ``[x, y, a, b]``.
    """

    m: int
    o: int
    coeffs: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if self.m < 1 or self.o < 1:
            raise ShapeMismatch("m and o must be positive")
        if arr.shape != (self.m, self.m, self.o, self.o):
            raise ShapeMismatch(
                f"coefficient shape {arr.shape} != {(self.m, self.m, self.o, self.o)}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients contain NaN or Inf")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def scaled(self, factor: float) -> "BellExpression":
        return BellExpression(self.m, self.o, factor * self.coeffs, self.label)


def chsh_expression() -> BellExpression:
    """CHSH in probability form: coefficient (-1)^(a+b) (-1)^(xy).

    Local deterministic value at most 2; quantum maximum 2*sqrt(2).
    """
    c = np.zeros((2, 2, 2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        c[x, y, a, b] = (-1.0) ** (a + b) * (-1.0) ** (x * y)
    return BellExpression(2, 2, c, label="chsh")


def chsh_game_expression() -> BellExpression:
    """Winning probability of the xy-game, averaged over uniform inputs:
    coefficient 1/4 on outcomes with a XOR b = x AND y.

    Local deterministic value at most 3/4; quantum maximum (2+sqrt(2))/4.
    """
    c = np.zeros((2, 2, 2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        if (a ^ b) == (x & y):
            c[x, y, a, b] = 0.25
    return BellExpression(2, 2, c, label="chsh-game")


def tilted_chsh_expression(alpha: float) -> BellExpression:
    """One-parameter tilted family: CHSH plus ``alpha`` times Alice's first
    marginal, symmetrized over Bob's inputs.

    Local deterministic value at most 2 + alpha; quantum maximum
    sqrt(8 + 2 alpha^2).  Maximal violation singles out a partially
    entangled two-qubit state for 0 < alpha < 2.
    """
    c = chsh_expression().coeffs.copy()
    for y, a, b in itertools.product(range(2), repeat=3):
        c[0, y, a, b] += (alpha / 2.0) * (-1.0) ** a
    return BellExpression(2, 2, c, label=f"tilted-chsh({alpha:g})")


def builtin_expression(name: str) -> BellExpression:
    """Resolve a built-in expression by name: ``chsh``, ``chsh-game``, or
    ``tilted-chsh(alpha)``."""
    text = name.strip()
    if text == "chsh":
        return chsh_expression()
    if text == "chsh-game":
        return chsh_game_expression()
    if text.startswith("tilted-chsh(") and text.endswith(")"):
        try:
            alpha = float(text[len("tilted-chsh("):-1])
        except ValueError:
            raise KeyError(f"bad tilted-chsh parameter in {name!r}") from None
        return tilted_chsh_expression(alpha)
    raise KeyError(f"unknown built-in expression {name!r}")


@dataclass(frozen=True)
class CorrelationTable:
    """Joint conditional distribution p(a, b | x, y) for n copies.

    ``probs`` has shape ``(X, Y, A, B)`` with ``A = B = prod(output_arities)``
    and, depending on the scheme, ``X = Y = m`` (broadcast, all copies share
    the input) or ``X = Y = prod(input_arities)`` (per-copy inputs).  Joint
    indices are mixed-radix with copy 1 least significant.
    """

    scheme: Scheme
    input_arities: tuple
    output_arities: tuple
    probs: np.ndarray

    def __post_init__(self):
        ia = tuple(int(v) for v in self.input_arities)
        oa = tuple(int(v) for v in self.output_arities)
        if len(ia) != len(oa) or not ia:
            raise ArityError("output_arities" if not oa else "input_arities",
                             "input and output arities must be nonempty and equal length")
        if any(v < 1 for v in ia + oa):
            raise ArityError("input_arities" if min(ia) < 1 else "output_arities",
                             "arities must be positive")
        if self.scheme is Scheme.BROADCAST and len(set(ia)) != 1:
            raise ArityError("input_arities", "broadcast tables require a single shared input arity")
        n_in = ia[0] if self.scheme is Scheme.BROADCAST else math.prod(ia)
        n_out = math.prod(oa)
        arr = np.asarray(self.probs, dtype=float)
        if arr.shape != (n_in, n_in, n_out, n_out):
            raise ShapeMismatch(
                f"probability tensor shape {arr.shape} != {(n_in, n_in, n_out, n_out)}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("probabilities contain NaN or Inf")
        if float(arr.min()) < -_ENTRY_TOL or float(arr.max()) > 1 + _ENTRY_TOL:
            bad = np.argwhere((arr < -_ENTRY_TOL) | (arr > 1 + _ENTRY_TOL))[0]
            raise TableEntryError(tuple(int(v) for v in bad), "probability outside [0, 1]")
        deviation = np.abs(arr.sum(axis=(2, 3)) - 1.0)
        if float(deviation.max()) > _NORMALIZATION_TOL:
            off = np.argwhere(deviation > _NORMALIZATION_TOL)[0]
            raise TableEntryError(tuple(int(v) for v in off), "entries do not sum to 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "input_arities", ia)
        object.__setattr__(self, "output_arities", oa)
        object.__setattr__(self, "probs", arr)

    @property
    def n_copies(self) -> int:
        return len(self.output_arities)


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


def copy_marginal(table: CorrelationTable, i: int) -> CorrelationTable:
    """Single-copy marginal of copy ``i`` of a broadcast table (other copies'
    outputs summed out)."""
    if table.scheme is not Scheme.BROADCAST:
        raise ShapeMismatch("copy marginals are defined for broadcast tables")
    if not 1 <= i <= table.n_copies:
        raise ShapeMismatch(f"copy index {i} out of range 1..{table.n_copies}")
    oa = table.output_arities
    low = math.prod(oa[: i - 1])
    oi = oa[i - 1]
    high = math.prod(oa[i:])
    m = table.input_arities[0]
    r = table.probs.reshape(m, m, high, oi, low, high, oi, low)
    probs = r.sum(axis=(2, 4, 5, 7))
    return CorrelationTable(Scheme.BROADCAST, (m,), (oi,), probs)


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
    binary table."""
    if table.n_copies != 1 or table.output_arities[0] != 2:
        raise ShapeMismatch("correlators require a single-copy binary-outcome table")
    m = table.input_arities[0]
    if not (0 <= x < m and 0 <= y < m):
        raise ShapeMismatch(f"inputs ({x}, {y}) out of range for {m} settings")
    p = table.probs
    return math.fsum(
        (-1.0) ** (a + b) * p[x, y, a, b] for a in range(2) for b in range(2)
    )


def conditional_kernel(table: CorrelationTable, i: int) -> tuple:
    """Conditional distributions of copy ``i`` of a broadcast table for every
    prefix at once.

    Returns ``(cond, prefix_prob)``.  ``prefix_prob[x, y, prefix_a, prefix_b]``
    is the probability of the joint outputs ``prefix_a``, ``prefix_b`` of
    copies ``1..i-1`` at inputs ``(x, y)``, with copies beyond ``i``
    marginalized out.  ``cond[x, y, prefix_a, prefix_b, a_i, b_i]`` is the
    distribution of copy ``i`` conditioned on that prefix, normalized wherever
    the prefix probability exceeds the positivity threshold and zero
    elsewhere.  The table is reshaped and summed once for all prefixes.
    """
    if table.scheme is not Scheme.BROADCAST:
        raise ShapeMismatch("conditional functionals are defined for broadcast tables")
    if not 1 <= i <= table.n_copies:
        raise ShapeMismatch(f"copy index {i} out of range 1..{table.n_copies}")
    oa = table.output_arities
    low = math.prod(oa[: i - 1])
    oi = oa[i - 1]
    high = math.prod(oa[i:])
    m = table.input_arities[0]
    r = table.probs.reshape(m, m, high, oi, low, high, oi, low)
    # A contiguous (a_i, b_i) block per prefix makes each prefix probability
    # the same pairwise sum that marginalizing one prefix at a time yields.
    block = np.ascontiguousarray(r.sum(axis=(2, 5)).transpose(0, 1, 3, 5, 2, 4))
    prefix_prob = block.sum(axis=(4, 5))
    positive = prefix_prob > POSITIVITY_THRESHOLD
    safe = np.where(positive, prefix_prob, 1.0)
    cond = np.where(positive[..., None, None], block / safe[..., None, None], 0.0)
    return cond, prefix_prob


def _row_fsums(products: np.ndarray, rows: int) -> np.ndarray:
    """Exactly rounded sum of each of ``rows`` leading blocks of ``products``."""
    return np.array([math.fsum(row) for row in products.reshape(rows, -1).tolist()])


def _check_copy_shape(table: CorrelationTable, expr: BellExpression, i: int) -> None:
    if table.scheme is not Scheme.BROADCAST:
        raise ShapeMismatch("conditional functionals are defined for broadcast tables")
    if not 1 <= i <= table.n_copies:
        raise ShapeMismatch(f"copy index {i} out of range 1..{table.n_copies}")
    if expr.m != table.input_arities[0]:
        raise ShapeMismatch(
            f"expression has {expr.m} inputs, table has {table.input_arities[0]}"
        )
    if expr.o != table.output_arities[i - 1]:
        raise ShapeMismatch(
            f"expression has {expr.o} outputs, copy {i} has {table.output_arities[i - 1]}"
        )


def conditional_mean(table: CorrelationTable, expr: BellExpression, i: int) -> tuple:
    """Sum of the defined conditional values of copy ``i`` over all prefixes,
    divided by the full prefix count ``prod(o_j, j < i)**2``, together with
    the :class:`ZeroPrefixProbability` of the first undefined prefix in
    row-major ``(prefix_a, prefix_b)`` order (``None`` when every prefix is
    defined).  For ``i = 1`` this is the expression value on the copy-1
    marginal.

    A prefix's conditional value is one ``fsum`` over the expression times its
    conditional distribution; it is undefined when the prefix probability is
    at or below the positivity threshold at an input pair that carries a
    nonzero coefficient.
    """
    _check_copy_shape(table, expr, i)
    if i == 1:
        return evaluate(expr, copy_marginal(table, 1)), None
    cond, prefix_prob = conditional_kernel(table, i)
    low = cond.shape[2]
    products = (expr.coeffs[:, :, None, None] * cond).transpose(2, 3, 0, 1, 4, 5)
    values = _row_fsums(products, low * low).reshape(low, low)
    # undefined[prefix_a, prefix_b, x, y]
    undefined = np.any(expr.coeffs != 0.0, axis=(2, 3)) & (
        prefix_prob <= POSITIVITY_THRESHOLD).transpose(2, 3, 0, 1)
    defined = ~undefined.any(axis=(2, 3))
    error = None
    if not defined.all():
        pa, pb, x, y = (int(v) for v in np.argwhere(undefined)[0])
        error = ZeroPrefixProbability(i, pa, pb, x, y, float(prefix_prob[x, y, pa, pb]))
    return math.fsum(values[defined].tolist()) / float(values.size), error


def j_value(table: CorrelationTable, expr: BellExpression, i: int) -> float:
    """Uniform average of the conditional values of copy ``i`` over all
    ``o^(2(i-1))`` prefixes; for ``i = 1`` this is exactly the expression
    value on the copy-1 marginal.  Any undefined prefix raises
    :class:`ZeroPrefixProbability` (the certification condition quantifies
    over every prefix)."""
    value, error = conditional_mean(table, expr, i)
    if error is not None:
        raise error
    return value


def averaged_j_percopy(table: CorrelationTable, exprs: Sequence[BellExpression],
                       i: int) -> float:
    """Expression value of copy ``i`` of a per-copy-input table, averaged
    uniformly over all settings of the other copies' inputs.

    For each fixed setting of the other inputs, the value is
    ``sum over (x_i, y_i, a_i, b_i)`` of the copy-``i`` coefficient times the
    copy-``i`` marginal probability (other copies' outputs summed out).
    """
    if table.scheme is not Scheme.PER_COPY:
        raise ShapeMismatch("averaged functionals are defined for per-copy tables")
    if len(exprs) != table.n_copies:
        raise ShapeMismatch(f"{len(exprs)} expressions given for {table.n_copies} copies")
    if not 1 <= i <= table.n_copies:
        raise ShapeMismatch(f"copy index {i} out of range 1..{table.n_copies}")
    expr = exprs[i - 1]
    ma = table.input_arities
    oa = table.output_arities
    if expr.m != ma[i - 1] or expr.o != oa[i - 1]:
        raise ShapeMismatch(
            f"expression for copy {i} has arities ({expr.m}, {expr.o}), "
            f"copy has ({ma[i - 1]}, {oa[i - 1]})"
        )
    low_m = math.prod(ma[: i - 1])
    mi = ma[i - 1]
    high_m = math.prod(ma[i:])
    low_o = math.prod(oa[: i - 1])
    oi = oa[i - 1]
    high_o = math.prod(oa[i:])
    r = table.probs.reshape(
        high_m, mi, low_m, high_m, mi, low_m, high_o, oi, low_o, high_o, oi, low_o
    )
    # Other copies' outputs are always summed out; one row per setting
    # (hx, lx, hy, ly) of the other copies' inputs.
    marg = r.sum(axis=(6, 8, 9, 11)).transpose(0, 2, 3, 5, 1, 4, 6, 7)
    settings = (low_m * high_m) ** 2
    return math.fsum(_row_fsums(expr.coeffs * marg, settings).tolist()) / float(settings)


@dataclass(frozen=True)
class BoundResult:
    """A bound value together with the witness that attains it, so the bound
    can be re-checked independently."""

    value: float
    witness: dict


def _assignment_value(coeffs: np.ndarray, alice: Sequence[int], bob: Sequence[int]) -> float:
    m = coeffs.shape[0]
    return math.fsum(coeffs[x, y, alice[x], bob[y]] for x in range(m) for y in range(m))


def classical_bound(expr: BellExpression) -> BoundResult:
    """Exact maximum over all local deterministic strategies a(x), b(y).

    Alice's o^m assignments are enumerated; for each, Bob's optimal response
    decomposes per input y (exact column sums via fsum).  The reported value
    is the fsum over the selected coefficients, which agrees exactly with
    :func:`evaluate` on the witness's deterministic table.
    """
    m, o = expr.m, expr.o
    if o ** (2 * m) > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"o^(2m) = {o}^{2 * m} exceeds cap {ENUMERATION_CAP}"
        )
    c = expr.coeffs
    best_value = -math.inf
    best_alice = None
    best_bob = None
    for alice in itertools.product(range(o), repeat=m):
        bob = tuple(
            max(range(o), key=lambda b: math.fsum(c[x, y, alice[x], b] for x in range(m)))
            for y in range(m)
        )
        value = _assignment_value(c, alice, bob)
        if value > best_value:
            best_value = value
            best_alice = alice
            best_bob = bob
    return BoundResult(
        value=best_value,
        witness={
            "kind": "deterministic-assignment",
            "alice": list(best_alice),
            "bob": list(best_bob),
        },
    )


def bell_operator(expr: BellExpression, alice, bob) -> np.ndarray:
    """Operator sum coeffs[x,y,a,b] M_{a|x} (x) N_{b|y} for POVM lists
    ``alice``/``bob`` (one POVM per input)."""
    if len(alice) != expr.m or len(bob) != expr.m:
        raise ShapeMismatch("number of POVMs does not match expression inputs")
    d = alice[0].effects[0].shape[0] * bob[0].effects[0].shape[0]
    op = np.zeros((d, d), dtype=complex)
    for x, y, a, b in itertools.product(range(expr.m), range(expr.m),
                                        range(expr.o), range(expr.o)):
        coeff = expr.coeffs[x, y, a, b]
        if coeff != 0.0:
            op += coeff * kron(alice[x].effects[a], bob[y].effects[b])
    return op


def quantum_value_fixed_measurements(expr: BellExpression,
                                     s: "SingleCopyStrategy") -> BoundResult:
    """Best value achievable with the strategy's measurements over all
    states: the largest eigenvalue of the associated operator.  The witness
    is the optimizing state vector."""
    if expr.m != s.m or expr.o != s.o:
        raise ShapeMismatch(
            f"expression arities ({expr.m}, {expr.o}) do not match strategy "
            f"({s.m}, {s.o})"
        )
    op = bell_operator(expr, s.alice, s.bob)
    eigenvalues, eigenvectors = np.linalg.eigh(op)
    top = eigenvectors[:, -1]
    return BoundResult(
        value=float(eigenvalues[-1]),
        witness={
            "kind": "eigenvector",
            "amplitudes": [[float(v.real), float(v.imag)] for v in top],
        },
    )



# ---------------------------------------------------------------------------
# JSON serialization.  Floats are written with Python's shortest round-trip
# representation, so re-reading a file reproduces every double bit-exactly.

def _is_json_int(value) -> bool:
    """True for a JSON integer; ``bool`` is an ``int`` subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def expression_to_json_dict(expr: BellExpression) -> dict:
    return {
        "m": expr.m,
        "o": expr.o,
        "coeffs": expr.coeffs.tolist(),
        "label": expr.label,
    }


def expression_from_json_dict(data: dict) -> BellExpression:
    if not isinstance(data, dict):
        raise TableFormatError("", "expression must be a JSON object")
    for key in ("m", "o", "coeffs"):
        if key not in data:
            raise TableFormatError(f"/{key}", "missing required key")
    unknown = set(data) - {"m", "o", "coeffs", "label"}
    if unknown:
        raise TableFormatError(f"/{sorted(unknown)[0]}", "unknown key")
    for key in ("m", "o"):
        if not _is_json_int(data[key]):
            raise TableFormatError(f"/{key}", "arities must be integers")
    m, o = data["m"], data["o"]
    try:
        coeffs = np.asarray(data["coeffs"], dtype=float)
    except (TypeError, ValueError, OverflowError):  # an integer beyond float range
        raise TableFormatError("/coeffs", "coefficients must be a nested numeric array") from None
    if coeffs.shape != (m, m, o, o):
        raise TableFormatError("/coeffs", f"shape {coeffs.shape} != {(m, m, o, o)}")
    try:
        return BellExpression(m, o, coeffs, label=str(data.get("label", "")))
    except (ShapeMismatch, ValueError) as exc:
        raise TableFormatError("/coeffs", str(exc)) from None


_TABLE_KEYS = {"format", "encoding", "n_copies", "scheme", "input_arities",
               "output_arities", "probs", "provenance"}

TABLE_FORMAT = "paraself-table"
JOINT_ENCODING = "mixed-radix-copy1-lsd"


def _table_fields(table: CorrelationTable, probs, provenance: dict | None) -> dict:
    return {
        "format": TABLE_FORMAT,
        "encoding": JOINT_ENCODING,
        "n_copies": table.n_copies,
        "scheme": table.scheme.value,
        "input_arities": list(table.input_arities),
        "output_arities": list(table.output_arities),
        "probs": probs,
        "provenance": provenance or {},
    }


def table_to_json_dict(table: CorrelationTable, provenance: dict | None = None) -> dict:
    return _table_fields(table, table.probs.tolist(), provenance)


def _probs_json_text(probs: np.ndarray) -> str:
    """The nested ``probs`` list as ``json.dumps(..., indent=2)`` lays it out
    under a top-level key.  Each distinct value is formatted once: a composed
    table holds few distinct floats among up to millions of entries."""
    # Distinct bit patterns, so that -0.0 keeps its sign.
    bits = probs.view(np.uint64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    reprs = np.array([float.__repr__(v) for v in distinct.view(np.float64).tolist()],
                     dtype=object)
    text = reprs[inverse.reshape(probs.shape)]
    for axis in range(probs.ndim - 1, -1, -1):
        item = "\n" + " " * (2 * axis + 4)
        close = "\n" + " " * (2 * axis + 2) + "]"
        rows = text.reshape(-1, text.shape[-1]).tolist()
        text = np.array(["[" + item + ("," + item).join(row) + close for row in rows],
                        dtype=object).reshape(text.shape[:-1])
    return text.item()


def table_to_json_text(table: CorrelationTable, provenance: dict | None = None) -> str:
    """``json.dumps(table_to_json_dict(table, provenance), indent=2) + "\\n"``,
    byte for byte, without building the nested list of floats."""
    text = json.dumps(_table_fields(table, 0, provenance), indent=2)
    # Only fixed keys and integers precede "probs", so its placeholder is the
    # first match even when the provenance holds the same text.
    head, _, tail = text.partition('"probs": 0')
    return "".join((head, '"probs": ', _probs_json_text(table.probs), tail, "\n"))


def table_from_json_dict(data: dict) -> CorrelationTable:
    """Parse and validate a serialized table; failures carry a JSON pointer to
    the offending element."""
    if not isinstance(data, dict):
        raise TableFormatError("", "table must be a JSON object")
    for key in ("n_copies", "scheme", "input_arities", "output_arities", "probs"):
        if key not in data:
            raise TableFormatError(f"/{key}", "missing required key")
    unknown = set(data) - _TABLE_KEYS
    if unknown:
        raise TableFormatError(f"/{sorted(unknown)[0]}", "unknown key")
    if data.get("format", TABLE_FORMAT) != TABLE_FORMAT:
        raise TableFormatError("/format", f"expected {TABLE_FORMAT!r}")
    if data.get("encoding", JOINT_ENCODING) != JOINT_ENCODING:
        raise TableFormatError("/encoding", f"expected {JOINT_ENCODING!r}")
    try:
        scheme = Scheme(data["scheme"])
    except ValueError:
        raise TableFormatError("/scheme", f"unknown scheme {data['scheme']!r}") from None
    for key in ("input_arities", "output_arities"):
        if not (isinstance(data[key], list) and all(map(_is_json_int, data[key]))):
            raise TableFormatError(f"/{key}", "arities must be integer lists")
    if not _is_json_int(data["n_copies"]):
        raise TableFormatError("/n_copies", "must be an integer")
    try:
        probs = np.asarray(data["probs"], dtype=float)
    except (TypeError, ValueError, OverflowError):  # an integer beyond float range
        raise TableFormatError("/probs", "probabilities must be a nested numeric array") from None
    try:
        table = CorrelationTable(scheme, data["input_arities"], data["output_arities"], probs)
    except ArityError as exc:
        raise TableFormatError(f"/{exc.field}", str(exc)) from None
    except TableEntryError as exc:
        pointer = "".join(f"/{v}" for v in exc.index)
        raise TableFormatError(f"/probs{pointer}", exc.reason) from None
    except (ShapeMismatch, ValueError) as exc:
        raise TableFormatError("/probs", str(exc)) from None
    if data["n_copies"] != table.n_copies:
        raise TableFormatError("/n_copies", f"does not match {table.n_copies} output arities")
    return table
