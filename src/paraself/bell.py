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
  scheme.  ``conditional_means`` gives them for every copy of a stack of
  tables with one row-sum call.

For per-copy-input tables, ``averaged_j_percopy`` instead averages the
expression value of copy ``i`` over all settings of the other copies' inputs.

Their values are row sums equal to ``math.fsum`` bit for bit, all rows at
once.  ``copy_marginal``, ``averaged_j_percopy`` and the kernel (keeping
``(a_i, prefix)`` as one output) sum out other copies with ``_copy_outputs``,
in exactly the order of numpy's one-shot reduction over the high and low axes of
``(x, y, high_a, a_i, low_a, high_b, b_i, low_b)``: each ``low_b`` run, then the
run sums in row-major ``(high_a, low_a, high_b)`` order; tests pin it with ``==``.
Prefix probabilities are ``_pairwise_sum``s; ``reachable`` alone judges them.

Joint output (and, for the per-copy scheme, joint input) indices are encoded
mixed-radix with copy 1 least significant.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import (
    ArityError,
    EnumerationTooLarge,
    ShapeMismatch,
    TableEntryError,
    TableFormatError,
    ZeroPrefixProbability,
)
from .qcore import effect_products, stack_effects

if TYPE_CHECKING:  # pragma: no cover
    from .strategies import SingleCopyStrategy

# Prefixes with probability at or below this floor make conditional values
# undefined; certification demands strict positivity but fixes no numeric
# floor, so one is pinned here.  Only ``reachable`` compares against it.
POSITIVITY_THRESHOLD = 1e-12

# Hard cap on deterministic-strategy enumeration (o^(2m) assignments).
ENUMERATION_CAP = 10**8

# Largest sum of absolute coefficients: below the largest double by a factor
# 2^63 for prefix and setting counts; checked scaled, so it cannot overflow.
COEFF_SUM_LIMIT = 2.0 ** 960

_NORMALIZATION_TOL = 1e-10
_ENTRY_TOL = 1e-12
_MARGINAL_CHUNK = 1 << 16  # table entries summed at a time by a copy marginal


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
        if not math.fsum(np.abs(arr).ravel() / COEFF_SUM_LIMIT) <= 1.0:
            raise ValueError("absolute coefficients sum to more than 2**960")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


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


def _builtin_spec(name: str) -> tuple:
    """``(family, alpha)`` of a built-in expression name: ``("chsh", None)``,
    ``("chsh-game", None)`` or ``("tilted-chsh", alpha)``.  Any other name
    raises ``KeyError``."""
    text = name.strip()
    if text in ("chsh", "chsh-game"):
        return text, None
    if text.startswith("tilted-chsh(") and text.endswith(")"):
        try:
            return "tilted-chsh", float(text[len("tilted-chsh("):-1])
        except ValueError:
            raise KeyError(f"bad tilted-chsh parameter in {name!r}") from None
    raise KeyError(f"unknown built-in expression {name!r}")


def builtin_expression(name: str) -> BellExpression:
    """Resolve a built-in expression by name: ``chsh``, ``chsh-game``, or
    ``tilted-chsh(alpha)``."""
    family, alpha = _builtin_spec(name)
    if family == "tilted-chsh":
        return tilted_chsh_expression(alpha)
    return chsh_expression() if family == "chsh" else chsh_game_expression()


def builtin_quantum_maximum(name: str) -> float:
    """Quantum maximum of the built-in expression ``name`` in closed form:
    sqrt(8) for ``chsh``, (2 + sqrt(2))/4 for ``chsh-game`` and
    sqrt(8 + 2 alpha^2) for ``tilted-chsh(alpha)`` with 0 <= alpha < 2
    (Acin, Massar, Pironio, PRL 108, 100402 (2012)).  A name that is not a
    built-in raises ``KeyError``; a tilt outside [0, 2) raises ``ValueError``."""
    family, alpha = _builtin_spec(name)
    if family == "chsh":
        return math.sqrt(8.0)
    if family == "chsh-game":
        return (2.0 + math.sqrt(2.0)) / 4.0
    if not 0.0 <= alpha < 2.0:
        raise ValueError(f"tilt parameter {alpha} outside [0, 2)")
    return math.sqrt(8.0 + 2.0 * alpha * alpha)


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


def _copy_split(table: CorrelationTable, i: int, scheme: Scheme = Scheme.BROADCAST,
                expr: BellExpression | None = None) -> tuple:
    """``(low, o_i, high)``: the joint output arity of the copies before copy
    ``i``, that of copy ``i`` and that of the copies after it.  Raises
    :class:`ShapeMismatch` unless ``table`` has ``scheme`` and a copy ``i``,
    and, given ``expr``, that copy has the expression's input and output
    arities."""
    if table.scheme is not scheme:
        raise ShapeMismatch(f"this functional is defined for {scheme.value} tables")
    if not 1 <= i <= table.n_copies:
        raise ShapeMismatch(f"copy index {i} out of range 1..{table.n_copies}")
    ia, oa = table.input_arities, table.output_arities
    if expr is not None and (expr.m, expr.o) != (ia[i - 1], oa[i - 1]):
        raise ShapeMismatch(f"expression for copy {i} has arities ({expr.m}, {expr.o}), "
                            f"copy has ({ia[i - 1]}, {oa[i - 1]})")
    return math.prod(oa[: i - 1]), oa[i - 1], math.prod(oa[i:])


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` bit for bit, sign of zero included, as whole-array adds in
    numpy's pairwise order: under 8 entries in sequence; up to 128, 8 accumulators, the
    tree ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the rest in sequence; above, halves."""
    n = x.shape[-1]
    if n == 1:
        return x[..., 0] + 0.0  # a zero sum is +0.0, as numpy gives it
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(x[..., :half]) + _pairwise_sum(x[..., half:])
    terms = x.reshape(-1, n).T  # entry axis first, so every add is one long loop
    if n < 8:
        total, tail = terms[0] + terms[1], 2
    else:
        tail = n - n % 8
        lanes = terms[:8] if tail == 8 else np.add(terms[:8], terms[8:16],
                                                   out=np.empty((8,) + terms.shape[1:]))
        for k in range(16, tail, 8):
            lanes += terms[k:k + 8]
        pairs = lanes[0::2] + lanes[1::2]
        total = pairs[0::2] + pairs[1::2]
        total = total[0] + total[1]
    for k in range(tail, n):
        total += terms[k]
    total += 0.0  # a zero sum is +0.0, as numpy gives it
    return total.reshape(x.shape[:-1])


def _copy_outputs(probs: np.ndarray, low: int, oi: int, high: int) -> np.ndarray:
    """``p(a_i, b_i | x, y)`` for every leading index and input pair of ``probs``, summed in
    numpy's one-shot order (see the module docstring) ``_MARGINAL_CHUNK`` entries at a time."""
    if oi == 1:  # nothing is kept, so numpy sums each row as one run
        return probs.sum(axis=(-2, -1), keepdims=True)
    rows = probs.reshape(-1, high, oi, low, high, oi, low)
    out = np.empty((oi, oi, len(rows)))
    step = max(1, _MARGINAL_CHUNK // rows[0].size)
    for start in range(0, len(rows), step):
        runs = _pairwise_sum(rows[start:start + step])
        # Row index last: a long-run copy, then whole rows added in sequence.
        np.add.reduce(runs.transpose(1, 3, 4, 2, 5, 0).reshape(high * low * high, oi, oi, -1),
                      axis=0, out=out[..., start:start + step])
    return out.transpose(2, 0, 1).reshape(probs.shape[:-2] + (oi, oi))


def copy_marginal(table: CorrelationTable, i: int) -> CorrelationTable:
    """Single-copy marginal of copy ``i`` of a broadcast table (other copies'
    outputs summed out in numpy's one-shot order; see the module docstring)."""
    low, oi, high = _copy_split(table, i)
    probs = _copy_outputs(table.probs, low, oi, high)
    return CorrelationTable(Scheme.BROADCAST, table.input_arities[:1], (oi,), probs)


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
    cond, prefix_prob = _prefix_kernel(table.probs[None], *_copy_split(table, i))
    return cond[0], prefix_prob[0]


def reachable(prob: np.ndarray) -> np.ndarray:
    """Where a probability is above the positivity floor, so conditioning on it is defined."""
    return prob > POSITIVITY_THRESHOLD


def _prefix_kernel(probs: np.ndarray, low: int, oi: int, high: int) -> tuple:
    """:func:`conditional_kernel` of each table ``probs[k]`` of a stack, with
    ``k`` leading both results."""
    joint = _copy_outputs(probs, 1, oi * low, high).reshape(probs.shape[:3] + (oi, low, oi, low))
    # A contiguous (a_i, b_i) block per prefix makes each prefix probability
    # the same pairwise sum that marginalizing one prefix at a time yields.
    block = np.ascontiguousarray(joint.transpose(0, 1, 2, 4, 6, 3, 5))
    prefix_prob = _pairwise_sum(block.reshape(block.shape[:5] + (oi * oi,)))
    positive = reachable(prefix_prob)
    safe = np.where(positive, prefix_prob, 1.0)
    cond = np.where(positive[..., None, None], block / safe[..., None, None], 0.0)
    return cond, prefix_prob


def _two_sum_tree(level: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Sum of the ``2^k`` rows of ``level`` by a tree of TwoSums, adding halves.  The
    exact errors of its additions go to ``errors`` (of the same shape, last row zero),
    so the sum plus the sum of ``errors`` is the exact sum of ``level``."""
    errors[-1], done = 0.0, 0
    while len(level) > 1:
        h = len(level) // 2
        a, b = level[:h], level[h:]
        level = a + b
        virtual = level - a
        np.add(a - (level - virtual), b - virtual, out=errors[done:done + h])
        done += h
    return level[0].copy()  # with no additions, level[0] is the caller's row


def _row_fsums(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of the 2-D ``rows``, bit for bit, for all rows at once.

    A TwoSum tree over the term axis gives the float sum ``s`` and every exact error; a
    second tree sums those to ``e`` and leaves a remainder (Ogita, Rump, Oishi, SIAM J.
    Sci. Comput. 26, 1955 (2005)).  ``s + e`` is kept where the remainder cannot move it
    across a midpoint between doubles; other rows, and rows with a term that is not finite
    or could overflow a partial sum, go to ``math.fsum``.  A zero sum is ``+0.0``."""
    count, n = rows.shape
    leaves = np.empty((1 << max(n - 1, 0).bit_length(), count))
    leaves[:n], leaves[n:] = rows.T, 0.0
    large = ~(np.abs(leaves).max(axis=0) <= 2.0 ** 1020 / len(leaves))
    leaves[:, large] = 0.0
    errors, last = np.empty_like(leaves), np.empty((2, count))
    s = _two_sum_tree(leaves, errors)
    e = _two_sum_tree(errors, leaves)  # the leaves now hold the remainder
    r, t = _two_sum_tree(np.array([s, e]), last), last[0]  # exact: s + e = r + t
    rest = 2.0 * np.abs(leaves).sum(axis=0)  # bounds the remainder's sum
    # Below 2^-1020, half the gap to the next double may not be a double.
    up, down = np.nextafter(r, np.inf) - r, r - np.nextafter(r, -np.inf)
    keep = (rest == 0.0) | ((np.abs(r) >= 2.0 ** -1020)
                            & (t + rest < 0.5 * up) & (t - rest > -0.5 * down))
    out = r + 0.0  # -0.0 becomes +0.0
    redo = np.flatnonzero(large | ~keep)
    out[redo] = [math.fsum(row) for row in rows[redo].tolist()]
    return out


def conditional_mean(table: CorrelationTable, expr: BellExpression, i: int) -> tuple:
    """Sum of the defined conditional values of copy ``i`` over all prefixes,
    divided by the full prefix count ``prod(o_j, j < i)**2``, together with
    the :class:`ZeroPrefixProbability` of the first undefined prefix in
    row-major ``(prefix_a, prefix_b)`` order (``None`` when every prefix is
    defined).  For ``i = 1`` this is the expression value on the copy-1
    marginal.

    A prefix's conditional value is the exactly rounded sum of the expression
    times its conditional distribution; it is undefined when the prefix
    probability is at or below the positivity threshold at an input pair that
    carries a nonzero coefficient.
    """
    return _conditional_means([table], [(i, expr)])[0][0]


def conditional_means(tables: Sequence[CorrelationTable],
                      exprs: Sequence[BellExpression]) -> list:
    """:func:`conditional_mean` of every copy ``i`` of each of ``tables`` (which share
    scheme and arities) with ``exprs[i - 1]``, one list per table, from one row-sum call."""
    if len(exprs) != tables[0].n_copies:
        raise ShapeMismatch(f"{len(exprs)} expressions given for {tables[0].n_copies} copies")
    return _conditional_means(tables, list(enumerate(exprs, 1)))


def _conditional_means(tables: Sequence[CorrelationTable], copies: list) -> list:
    """``[[conditional_mean(table, expr, i) for i, expr in copies] for table in tables]``."""
    splits = [_copy_split(tables[0], i, expr=expr) for i, expr in copies]
    if len({(t.scheme, t.input_arities, t.output_arities) for t in tables}) > 1:
        raise ShapeMismatch("stacked tables differ in scheme or arities")
    probs = tables[0].probs[None] if len(tables) == 1 else np.stack([t.probs for t in tables])
    # One row per table and prefix of each copy, one term per (x, y, a_i, b_i); zeros pad
    # the rows of copies with fewer outputs, and leave each sum as it is.
    ends = np.cumsum([len(probs) * low * low for low, _, _ in splits])
    rows = np.zeros((ends[-1], max(expr.coeffs.size for _, expr in copies)))
    undefined = []
    for (i, expr), (low, oi, high), end in zip(copies, splits, ends):
        if i == 1:  # the copy-1 marginal: one prefix, always defined
            cond = _copy_outputs(probs, 1, oi, high)[:, :, :, None, None]
            prefix_prob = np.ones(cond.shape[:5])
        else:
            cond, prefix_prob = _prefix_kernel(probs, low, oi, high)
        products = (expr.coeffs[:, :, None, None] * cond).transpose(0, 3, 4, 1, 2, 5, 6)
        rows[end - len(probs) * low * low:end, :expr.coeffs.size] = products.reshape(
            len(probs) * low * low, -1)
        bad = ~reachable(prefix_prob).transpose(0, 3, 4, 1, 2)
        # undefined[k, prefix_a, prefix_b, x, y]
        undefined.append((bad & np.any(expr.coeffs != 0.0, axis=(2, 3)), prefix_prob))
    sums, means = _row_fsums(rows), [[] for _ in tables]
    for (i, _), end, (bad, prefix_prob) in zip(copies, ends, undefined):
        defined = ~bad.any(axis=(3, 4)).reshape(len(tables), -1)
        values = sums[end - defined.size:end].reshape(defined.shape)
        for k, row in enumerate(np.where(defined, values, 0.0).tolist()):
            first = None
            if not defined[k].all():
                pa, pb, x, y = (int(v) for v in np.argwhere(bad[k])[0])
                first = ZeroPrefixProbability(i, pa, pb, x, y, float(prefix_prob[k, x, y, pa, pb]))
            means[k].append((math.fsum(row) / float(len(row)), first))
    return means


def averaged_j_percopy(table: CorrelationTable, exprs: Sequence[BellExpression],
                       i: int) -> float:
    """Expression value of copy ``i`` of a per-copy-input table, averaged
    uniformly over all settings of the other copies' inputs.

    For each fixed setting of the other inputs, the value is
    ``sum over (x_i, y_i, a_i, b_i)`` of the copy-``i`` coefficient times the
    copy-``i`` marginal probability (other copies' outputs summed out in
    numpy's one-shot order; see the module docstring).
    """
    if len(exprs) != table.n_copies:
        raise ShapeMismatch(f"{len(exprs)} expressions given for {table.n_copies} copies")
    # Slicing never raises; _copy_split checks i before it reads the expression.
    low, oi, high = _copy_split(table, i, Scheme.PER_COPY, *exprs[i - 1:i])
    ma = table.input_arities
    low_m, mi, high_m = math.prod(ma[: i - 1]), ma[i - 1], math.prod(ma[i:])
    # One row per setting (hx, lx, hy, ly) of the other copies' inputs.
    marg = _copy_outputs(table.probs, low, oi, high).reshape(
        high_m, mi, low_m, high_m, mi, low_m, oi, oi).transpose(0, 2, 3, 5, 1, 4, 6, 7)
    settings = (low_m * high_m) ** 2
    values = _row_fsums((exprs[i - 1].coeffs * marg).reshape(settings, -1))
    return math.fsum(values.tolist()) / float(settings)


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
    is the fsum over the selected coefficients, which agrees exactly with the
    fsum of the coefficients times the witness's deterministic table.
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
    """Operator sum coeffs[x,y,a,b] M_{a|x} (x) N_{b|y} for effects stacked
    as ``alice[x, a]``/``bob[y, b]`` (see :func:`~paraself.qcore.stack_effects`).
    Terms with a nonzero coefficient are added in (x, y, a, b) order."""
    if alice.shape[:2] != (expr.m, expr.o) or bob.shape[:2] != (expr.m, expr.o):
        raise ShapeMismatch("effect stacks do not match expression arities")
    terms = expr.coeffs[..., None, None] * effect_products(alice, bob)
    op = np.zeros(terms.shape[-2:], dtype=complex)
    for index in zip(*np.nonzero(expr.coeffs)):
        op += terms[index]
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
    op = bell_operator(expr, stack_effects(s.alice), stack_effects(s.bob))
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


def _probs_json_chunks(probs: np.ndarray) -> Iterator[str]:
    """The nested ``probs`` list as ``json.dumps(..., indent=2)`` lays it out
    under a top-level key, one input row ``x`` per chunk.  Each distinct value
    is formatted once: a composed table holds few distinct floats among up to
    millions of entries."""
    # Distinct bit patterns, so that -0.0 keeps its sign.
    bits = probs.view(np.uint64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    reprs = np.array([float.__repr__(v) for v in distinct.view(np.float64).tolist()],
                     dtype=object)
    inverse = inverse.reshape(probs.shape)
    for x in range(probs.shape[0]):
        text = reprs[inverse[x]]
        for axis in range(probs.ndim - 1, 0, -1):
            item = "\n" + " " * (2 * axis + 4)
            close = "\n" + " " * (2 * axis + 2) + "]"
            rows = text.reshape(-1, text.shape[-1]).tolist()
            text = np.array(["[" + item + ("," + item).join(row) + close for row in rows],
                            dtype=object).reshape(text.shape[:-1])
        yield ("[" if x == 0 else ",") + "\n    " + text.item()
    yield "\n  ]"


def table_to_json_chunks(table: CorrelationTable,
                         provenance: dict | None = None) -> Iterator[str]:
    """``json.dumps(table_to_json_dict(table, provenance), indent=2) + "\\n"``,
    byte for byte, as a stream of chunks holding one input row ``x`` of
    ``probs`` each, without building the nested list of floats."""
    text = json.dumps(_table_fields(table, 0, provenance), indent=2)
    # Only fixed keys and integers precede "probs", so its placeholder is the
    # first match even when the provenance holds the same text.
    head, _, tail = text.partition('"probs": 0')
    yield head + '"probs": '
    yield from _probs_json_chunks(table.probs)
    yield tail + "\n"


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
