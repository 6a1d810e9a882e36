"""Bell expressions, correlation tables, and the nonlinear functionals used
for parallel certification.

A linear Bell expression is a coefficient tensor ``coeffs[x, y, a, b]`` over a
single-copy scenario with ``m`` inputs and ``o`` outputs per party; its value
on a table is ``sum coeffs * p(a,b|x,y)``.  A multi-copy table scores each
copy ``i`` on its own: its value is the expression's value on one row of copy
``i``'s distributions, averaged over the rows.

* Broadcast rows are the prefixes, the joint outputs of copies ``1..i-1``: a
  row is copy ``i``'s distribution conditioned on one (later copies summed
  out first), and copy 1's one row is its marginal.  Simultaneous maximality
  of these averages for every copy is the certification target of the
  broadcast scheme.
* Per-copy rows are the settings of the other copies' inputs: a row is copy
  ``i``'s marginal at one setting, always defined.

``conditional_means`` gives the averages of every copy of a stack of tables
of either scheme, and names the first row where a value is undefined;
theorems 1, 3 and 4 each make one such call, and the noise sweep one
``_stack_means`` call on each batch's stack of validated tables.  One
function, ``_conditioned_terms``, conditions every copy into one ``[term, row]``
buffer with ``(a_i, b_i, x_i, y_i)`` terms, which the means weight and theorem 2
compares with its reference; row sums, equal to ``math.fsum`` bit for bit,
read it where it lies.  It walks the stack once (``_copy_joints``), summing
out one copy at a time, the last first, adding its ``(a_j, b_j)`` slabs in
row-major order into the array the next sum reads; so rounding grows with the
number of copies, not of entries, and tests pin the order with ``==``.
Per-copy walks keep each copy's own marginal and move the rows last once, so
every slab add is contiguous.  A prefix probability is the sum of its block,
and ``reachable`` alone judges it, once per copy: the conditioning divides
without a mask when every prefix of the stack is reachable, and otherwise
hands its mask to the callers.

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
_PERCOPY_MAX_COPIES = 31  # the per-copy walk lays a chunk out on 2n + 1 of numpy's 64 axes


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
            raise ArityError("m" if self.m < 1 else "o", "arities must be positive")
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
    entangled two-qubit state for 0 < alpha < 2.  A tilt that is not finite,
    or too large for ``COEFF_SUM_LIMIT``, raises a ``ValueError`` naming it.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"tilt parameter {alpha} is not finite")
    c = chsh_expression().coeffs.copy()
    for y, a, b in itertools.product(range(2), repeat=3):
        c[0, y, a, b] += (alpha / 2.0) * (-1.0) ** a
    try:
        return BellExpression(2, 2, c, label=f"tilted-chsh({alpha:g})")
    except ValueError as exc:  # only the coefficient sum can fail
        raise ValueError(f"tilt parameter {alpha} too large: {exc}") from None


def check_tilt(alpha: float) -> None:
    """Raise ``ValueError`` unless 0 <= alpha < 2, the tilts for which ``tilted-chsh(alpha)`` has
    its closed-form quantum maximum and reference strategy."""
    if not 0.0 <= alpha < 2.0:
        raise ValueError(f"tilt parameter {alpha} outside [0, 2)")


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
    check_tilt(alpha)
    return math.sqrt(8.0 + 2.0 * alpha * alpha)


def _check_probs(arr: np.ndarray) -> None:
    """Raise unless every entry of the ``[..., X, Y, A, B]`` stack ``arr`` is finite
    (``ValueError``) and within ``[0, 1]``, and every ``(A, B)`` block sums to 1; a
    :class:`TableEntryError` names the first offending entry, then block, in row-major order.
    ``min`` and ``max`` carry a NaN through, so the passes over valid tables are reductions,
    with no temporary of the stack's size."""
    if not (float(arr.min()) >= -_ENTRY_TOL and float(arr.max()) <= 1 + _ENTRY_TOL):
        if not np.isfinite(arr).all():
            raise ValueError("probabilities contain NaN or Inf")
        bad = np.argwhere((arr < -_ENTRY_TOL) | (arr > 1 + _ENTRY_TOL))[0]
        raise TableEntryError(tuple(int(v) for v in bad), "probability outside [0, 1]")
    deviation = np.abs(arr.sum(axis=(-2, -1)) - 1.0)
    if float(deviation.max()) > _NORMALIZATION_TOL:
        off = np.argwhere(deviation > _NORMALIZATION_TOL)[0]
        raise TableEntryError(tuple(int(v) for v in off), "entries do not sum to 1")


@dataclass(frozen=True)
class CorrelationTable:
    """Joint conditional distribution p(a, b | x, y) for n copies.

    ``probs`` has shape ``(X, Y, A, B)`` with ``A = B = prod(output_arities)``
    and, depending on the scheme, ``X = Y = m`` (broadcast, all copies share
    the input) or ``X = Y = prod(input_arities)`` (per-copy inputs).  Joint
    indices are mixed-radix with copy 1 least significant.  The constructor
    validates ``probs`` in one pass and keeps a read-only copy of it.
    """

    scheme: Scheme
    input_arities: tuple
    output_arities: tuple
    probs: np.ndarray

    def __post_init__(self, copy: bool = True):
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
        if self.scheme is Scheme.PER_COPY and len(oa) > _PERCOPY_MAX_COPIES:
            raise ArityError("n_copies",
                             f"a per-copy table holds at most {_PERCOPY_MAX_COPIES} copies")
        n_in = ia[0] if self.scheme is Scheme.BROADCAST else math.prod(ia)
        n_out = math.prod(oa)
        arr = np.asarray(self.probs, dtype=float)
        if arr.shape != (n_in, n_in, n_out, n_out):
            raise ShapeMismatch(
                f"probability tensor shape {arr.shape} != {(n_in, n_in, n_out, n_out)}"
            )
        _check_probs(arr)
        if copy:  # the caller may still hold, and write to, what it passed
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "input_arities", ia)
        object.__setattr__(self, "output_arities", oa)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _adopt(cls, scheme: Scheme, input_arities, output_arities,
               probs: np.ndarray) -> CorrelationTable:
        """The table of ``probs``, a fresh float array that nothing else holds: validated like
        any other, then made read-only in place instead of copied."""
        table = cls.__new__(cls)
        # As the frozen dataclass's own __init__ sets its fields.
        table.__dict__.update(scheme=scheme, input_arities=input_arities,
                              output_arities=output_arities, probs=probs)
        table.__post_init__(copy=False)
        return table

    @property
    def n_copies(self) -> int:
        return len(self.output_arities)


def _add_slabs(slabs: list, out: np.ndarray) -> None:
    """Write the sum of ``slabs`` into ``out``, adding them one by one in order."""
    if len(slabs) > 1:
        np.add(slabs[0], slabs[1], out=out)
    else:
        np.copyto(out, slabs[0])
    for slab in slabs[2:]:
        out += slab


def _copy_joints(probs: np.ndarray, oa: tuple, own: bool) -> list:
    """Entry ``j - 1`` is the joint ``p(a_1..a_j, b_1..b_j | x, y)`` of copies ``1..j`` of each
    table ``probs[k]`` of a stack with output arities ``oa``, or with ``own`` copy ``j``'s own
    marginal; indexed ``[k, x, y, a, b]``.  Copies are summed out from the last, one at a time,
    ``_MARGINAL_CHUNK`` table entries at a time, by :func:`_add_slabs` into what the next reads.
    With ``own``, stage ``c`` holds the own marginals in progress of copies ``n..c+1`` as
    ``[a_j, b_j, a_c, b_c, ..., a_1, b_1, rows]``, the last one the joint of copies ``1..c+1``.
    A chunk is transposed once into stage ``n - 1`` (stage 0 is copied out); summing out copy
    ``c`` fills the head of stage ``c - 1``, summing copy ``c + 1`` out of that joint its tail."""
    n = len(oa)
    lows = [math.prod(oa[:j]) for j in range(n + 1)]
    rows = probs.reshape(-1, lows[n], lows[n])
    step = min(len(rows), max(1, _MARGINAL_CHUNK // rows[0].size))
    if own:
        heads = [sum(o * o for o in oa[c:]) for c in range(n)]  # entries of each stage
        stacked = np.empty((heads[0], len(rows)))  # stage 0 of every chunk
        interleave = [axis for c in range(1, n + 1) for axis in (c, n + c)] + [0]
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            if start == 0 or len(chunk) < step:  # the stages of a chunk and the sums between
                stages = [np.empty((heads[c], lows[c] ** 2 * len(chunk))) for c in range(n)]
                sums = []
                for c in range(n - 1, 0, -1):  # sum out copy c from stage c into stage c - 1
                    oc, above, head = oa[c - 1], oa[c], heads[c]
                    stage, below = stages[c].reshape(head, oc * oc, -1), stages[c - 1]
                    sums += [([stage[:, ab] for ab in range(oc * oc)], below[:head]),
                             (list(stage[head - above * above:]), below[head:])]
            layout = chunk.reshape((len(chunk),) + oa[::-1] * 2).transpose(interleave)
            np.copyto(stages[-1].reshape(layout.shape, copy=False), layout)
            for slabs, out in sums:
                _add_slabs(slabs, out)
            stacked[:, start:start + len(chunk)] = stages[0]
        parts = np.split(stacked, np.cumsum([o * o for o in oa[::-1]])[:-1])[::-1]
        return [part.T.reshape(probs.shape[:3] + (o, o)) for part, o in zip(parts, oa)]
    # Without ``own``, the joint of every copy is the table itself.
    out = [np.empty((len(rows), lows[j], lows[j])) for j in range(1, n)] + [rows]
    for start in range(0, len(rows), step):
        for j in range(n - 1, 0, -1):  # sum out copy j + 1
            split = out[j][start:start + step].reshape(-1, oa[j], lows[j], oa[j], lows[j])
            _add_slabs([split[:, a, :, b] for a, b in itertools.product(range(oa[j]), repeat=2)],
                       out[j - 1][start:start + step])
    return [kept.reshape(probs.shape[:3] + kept.shape[1:]) for kept in out]


def reachable(prob: np.ndarray) -> np.ndarray:
    """Where a probability is above the positivity floor, so conditioning on it is defined."""
    return prob > POSITIVITY_THRESHOLD


def _two_sum_tree(level: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Sum of the ``2^k`` rows of ``level`` (``k >= 1``) by a tree of TwoSums, adding halves.
    The exact errors of its additions go to ``errors`` (of the same shape, last row zero),
    so the sum plus the sum of ``errors`` is the exact sum of ``level``."""
    errors[-1], done = 0.0, 0
    while len(level) > 1:
        h = len(level) // 2
        a, b = level[:h], level[h:]
        level = a + b
        virtual = level - a
        np.add(a - (level - virtual), b - virtual, out=errors[done:done + h])
        done += h
    return level[0]


def _row_fsums(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` over the ``2^k >= 2`` terms on the first axis of ``terms`` for every row (index
    of the other axes), bit for bit, in blocks of ``_MARGINAL_CHUNK`` entries along the last axis,
    read where they lie: the ``[term, row]`` buffer of :func:`_conditioned_terms` or a view of it.

    A TwoSum tree over the term axis gives the float sum ``s`` and every exact error; a
    second tree sums those to ``e`` and leaves a remainder (Ogita, Rump, Oishi, SIAM J.
    Sci. Comput. 26, 1955 (2005)).  ``s + e`` is kept where the remainder cannot move it
    across a midpoint between doubles; other rows, and rows with a term that is not finite
    or could overflow a partial sum (of the trees or of ``fsum``), go to ``math.fsum``.
    A zero sum is ``+0.0``."""
    out = np.empty(terms.shape[1:])
    step = max(1, _MARGINAL_CHUNK // (len(terms) * math.prod(out.shape[:-1])))
    for start in range(0, out.shape[-1], step):
        _block_fsums(terms[..., start:start + step], out[..., start:start + step])
    return out


def _block_fsums(block: np.ndarray, sums: np.ndarray) -> None:
    """:func:`_row_fsums` of one block into ``sums``; no temporary outlives the call."""
    errors = np.empty(block.shape)
    large = ~(np.abs(block, out=errors).max(axis=0) <= 2.0 ** 1020 / len(block))
    with np.errstate(over="ignore", invalid="ignore"):  # only in the rows that are large
        s = _two_sum_tree(block, errors)
        e = _two_sum_tree(errors, errors)  # in place (their last row is zero): the remainder
        rest = 2.0 * np.abs(errors).sum(axis=0)  # bounds the remainder's sum
        r, t = _two_sum_tree(np.array([s, e]), errors[:2]), errors[0]  # s + e = r + t
        # Below 2^-1020, half the gap to the next double may not be a double.
        up, down = np.nextafter(r, np.inf) - r, r - np.nextafter(r, -np.inf)
        keep = (rest == 0.0) | ((np.abs(r) >= 2.0 ** -1020)
                                & (t + rest < 0.5 * up) & (t - rest > -0.5 * down))
    np.add(r, 0.0, out=sums)  # -0.0 becomes +0.0
    redo = np.nonzero(large | ~keep)
    sums[redo] = [math.fsum(row) for row in block[(slice(None),) + redo].T.tolist()]


def _conditioned_terms(probs: np.ndarray, scheme: Scheme, ia: tuple, oa: tuple) -> tuple:
    """``(terms, spans)``: every copy ``1..n`` of each table ``probs[k]`` of a stack of one scheme
    and input and output arities ``ia`` and ``oa``, conditioned from one walk into the zeroed
    ``[term, row]`` array ``terms``.  Copy ``i``'s terms are ``(a_i, b_i, x_i, y_i)``, zeros pad
    them to ``2^k >= 2``, and its rows ``[k, *rows]`` lie at ``terms[:, start:start + count]``.
    Broadcast rows are the prefixes ``(row_a, row_b)``: copy ``i``'s block of the joint of copies
    ``1..i`` divided by its sum, ``prefix_prob``, where that is :func:`reachable` (zero
    elsewhere).  Copy 1's one row is its marginal, and per-copy rows, the other copies' inputs
    ``(high_a, low_a, high_b, low_b)``, copy ``i``'s marginal; their ``prefix_prob`` is ``None``.
    ``spans`` holds each copy's ``(start, count, mask, prefix_prob)``: ``mask`` is the one
    :func:`reachable` call of its stack, or ``None`` when every prefix is reachable, in which
    case the divide takes no ``where=`` mask."""
    counts = [len(probs) * (probs.shape[1] // m if scheme is Scheme.PER_COPY
                            else math.prod(oa[:i])) ** 2 for i, m in enumerate(ia)]
    terms = np.zeros((max(2, 1 << (max((m * o) ** 2 for m, o in zip(ia, oa)) - 1).bit_length()),
                      sum(counts)))
    joints = _copy_joints(probs, oa, own=scheme is Scheme.PER_COPY)
    spans, start = [], 0
    for i, (mi, oi, joint, count) in enumerate(zip(ia, oa, joints, counts), 1):
        prefix_prob = mask = None  # joint: [k, x_i, y_i, *rows, a_i, b_i]
        if scheme is Scheme.PER_COPY:
            low_m, high_m = math.prod(ia[: i - 1]), math.prod(ia[i:])
            joint = joint.reshape(-1, high_m, mi, low_m, high_m, mi, low_m, oi, oi).transpose(
                0, 2, 5, 1, 3, 4, 6, 7, 8)
        elif i == 1:
            joint = joint[:, :, :, None, None]
        else:
            prefix_prob = joints[i - 2]
            low = prefix_prob.shape[-1]
            joint = joint.reshape(prefix_prob.shape[:3] + (oi, low, oi, low)).transpose(
                0, 1, 2, 4, 6, 3, 5)
        block = terms[:(mi * oi) ** 2, start:start + count]
        out = block.reshape((oi, oi, mi, mi) + joint.shape[:1] + joint.shape[3:-2],
                            copy=False).transpose(4, 2, 3, *range(5, joint.ndim), 0, 1)
        if prefix_prob is None:
            np.copyto(out, joint)
        elif (mask := reachable(prefix_prob)).all():
            mask = None
            np.divide(joint, prefix_prob[..., None, None], out=out)
        else:
            np.divide(joint, prefix_prob[..., None, None], out=out, where=mask[..., None, None])
        spans.append((start, count, mask, prefix_prob))
        start += count
    return terms, spans


def conditional_means(tables: Sequence[CorrelationTable],
                      exprs: Sequence[BellExpression]) -> list:
    """``(mean, first)`` of every copy ``i`` of each of ``tables`` (which share scheme and
    arities) with ``exprs[i - 1]``, one list per table, from one walk over the stack.

    A row's value is the exactly rounded sum of the expression times copy ``i``'s distribution
    on that row, conditioned into the one ``[term, row]`` buffer of :func:`_conditioned_terms`
    and weighted there, whose rows are summed in blocks.
    ``mean`` is the sum of the defined values over the rows divided by the full row count: the
    ``prod(o_j, j < i)**2`` prefixes (broadcast; copy 1's mean is its marginal's value) or the
    other copies' input settings (per-copy).  A prefix's value is undefined when its
    probability is not :func:`reachable` at an input pair that carries a nonzero coefficient;
    ``first`` is the :class:`ZeroPrefixProbability` of the first undefined prefix in row-major
    ``(prefix_a, prefix_b)`` order, or ``None``.
    """
    if not tables:
        raise ShapeMismatch("no tables given")
    table = tables[0]
    if len({(t.scheme, t.input_arities, t.output_arities) for t in tables}) > 1:
        raise ShapeMismatch("stacked tables differ in scheme or arities")
    probs = table.probs[None] if len(tables) == 1 else np.stack([t.probs for t in tables])
    return _stack_means(probs, table.scheme, table.input_arities, table.output_arities, exprs)


def _stack_means(probs: np.ndarray, scheme: Scheme, ia: tuple, oa: tuple,
                 exprs: Sequence[BellExpression]) -> list:
    """:func:`conditional_means` of the validated tables ``probs[k]`` of a stack of one scheme
    and input and output arities ``ia`` and ``oa``, each copy's :func:`_conditioned_terms` span
    weighted in place.  Only a copy whose mask shows an unreachable prefix gets undefined rows,
    zeroed, and a first offender: the first undefined ``(prefix_a, prefix_b, x, y)`` of each
    table in row-major order."""
    if len(exprs) != len(oa):
        raise ShapeMismatch(f"{len(exprs)} expressions given for {len(oa)} copies")
    for i, expr in enumerate(exprs, 1):
        if (expr.m, expr.o) != (ia[i - 1], oa[i - 1]):
            raise ShapeMismatch(f"expression for copy {i} has arities ({expr.m}, {expr.o}), "
                                f"copy has ({ia[i - 1]}, {oa[i - 1]})")
    terms, spans = _conditioned_terms(probs, scheme, ia, oa)
    for (start, count, _, _), expr in zip(spans, exprs):
        weights = expr.coeffs.transpose(2, 3, 0, 1).reshape(-1, 1)  # as the (a, b, x, y) terms
        terms[:len(weights), start:start + count] *= weights
    sums, means = _row_fsums(terms), [[] for _ in range(len(probs))]
    for i, ((start, count, mask, prefix_prob), expr) in enumerate(zip(spans, exprs), 1):
        values = sums[start:start + count].reshape(len(probs), -1)
        if mask is not None:  # bad[k, row_a, row_b, x, y]
            bad = ~mask.transpose(0, 3, 4, 1, 2) & np.any(expr.coeffs, axis=(2, 3))
            defined = ~bad.any(axis=(3, 4)).reshape(values.shape)
            values = np.where(defined, values, 0.0)
        for k, row in enumerate(values.tolist()):
            first = None
            if mask is not None and not defined[k].all():  # the first True of bad[k], row-major
                pa, pb, x, y = (int(v) for v in np.unravel_index(np.argmax(bad[k]), bad[k].shape))
                first = ZeroPrefixProbability(i, pa, pb, x, y, float(prefix_prob[k, x, y, pa, pb]))
            means[k].append((math.fsum(row) / float(len(row)), first))
    return means


@dataclass(frozen=True)
class BoundResult:
    """A bound value together with the witness that attains it, so the bound
    can be re-checked independently."""

    value: float
    witness: dict


def classical_bound(expr: BellExpression) -> BoundResult:
    """Exact maximum over all local deterministic strategies a(x), b(y).

    Alice's o^m assignments are enumerated; for each, Bob's optimal response
    decomposes per input y (exact column sums via fsum).  The reported value
    is the fsum over the selected coefficients, which agrees exactly with the
    fsum of the coefficients times the witness's deterministic table.
    """
    m, o, c = expr.m, expr.o, expr.coeffs
    if o ** (2 * m) > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"o^(2m) = {o}^{2 * m} exceeds cap {ENUMERATION_CAP}")
    best_value, best_alice, best_bob = -math.inf, None, None
    for alice in itertools.product(range(o), repeat=m):
        bob = tuple(max(range(o), key=lambda b: math.fsum(c[x, y, alice[x], b] for x in range(m)))
                    for y in range(m))
        value = math.fsum(c[x, y, alice[x], bob[y]] for x in range(m) for y in range(m))
        if value > best_value:
            best_value, best_alice, best_bob = value, alice, bob
    return BoundResult(best_value, {"kind": "deterministic-assignment",
                                    "alice": list(best_alice), "bob": list(best_bob)})


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
        raise ShapeMismatch(f"expression arities ({expr.m}, {expr.o}) do not match strategy "
                            f"({s.m}, {s.o})")
    op = bell_operator(expr, stack_effects(s.alice), stack_effects(s.bob))
    eigenvalues, eigenvectors = np.linalg.eigh(op)
    witness = {"kind": "eigenvector",
               "amplitudes": [[float(v.real), float(v.imag)] for v in eigenvectors[:, -1]]}
    return BoundResult(float(eigenvalues[-1]), witness)


# ---------------------------------------------------------------------------
# JSON serialization.  Floats are written with Python's shortest round-trip
# representation, so re-reading a file reproduces every double bit-exactly.

def _is_json_int(value) -> bool:
    """True for a JSON integer; ``bool`` is an ``int`` subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(data, what: str, required: tuple, optional: tuple) -> None:
    """Raise a :class:`TableFormatError` unless ``data``, a parsed ``what``, is a JSON object
    with every key of ``required`` (naming the first missing) and no other but ``optional``'s."""
    if not isinstance(data, dict):
        raise TableFormatError("", f"{what} must be a JSON object")
    for key in required:
        if key not in data:
            raise TableFormatError(f"/{key}", "missing required key")
    unknown = set(data) - set(required + optional)
    if unknown:
        raise TableFormatError(f"/{sorted(unknown)[0]}", "unknown key")


def expression_from_json_dict(data: dict) -> BellExpression:
    _check_keys(data, "expression", ("m", "o", "coeffs"), ("label",))
    for key in ("m", "o"):
        if not _is_json_int(data[key]):
            raise TableFormatError(f"/{key}", "arities must be integers")
    m, o = data["m"], data["o"]
    try:
        coeffs = np.asarray(data["coeffs"], dtype=float)
    except (TypeError, ValueError, OverflowError):  # an integer beyond float range
        raise TableFormatError("/coeffs", "coefficients must be a nested numeric array") from None
    try:
        return BellExpression(m, o, coeffs, label=str(data.get("label", "")))
    except ArityError as exc:
        raise TableFormatError(f"/{exc.field}", str(exc)) from None
    except (ShapeMismatch, ValueError) as exc:
        raise TableFormatError("/coeffs", str(exc)) from None


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
    under a top-level key, as a stream of pieces, one input row ``x`` at a time.
    A composed table repeats rows: within a row ``x``, the ``(y, a)`` rows of
    ``b`` entries are told apart by their bytes (so ``-0.0`` keeps its sign),
    each distinct one is formatted once from its distinct values, and each
    distinct ``y`` block is joined once and yielded again wherever it repeats."""
    n_y, n_a, n_b = probs.shape[1:]
    b_item, a_item, y_item = ("\n" + " " * k for k in (10, 8, 6))
    b_sep, a_sep, y_sep = "," + b_item, "," + a_item, "," + y_item
    for x, rows in enumerate(probs.view(np.uint64).reshape(-1, n_y * n_a, n_b)):
        first = {}  # each distinct row's bytes to its index, in order of first sight
        ids = [first.setdefault(key, len(first))
               for key in rows.view(f"V{rows.itemsize * n_b}").ravel().tolist()]
        rows = np.frombuffer(b"".join(first), dtype=np.uint64).reshape(-1, n_b)
        distinct, inverse = np.unique(rows, return_inverse=True)
        reprs = np.array([float.__repr__(v) for v in distinct.view(np.float64).tolist()],
                         dtype=object)
        texts = ["[" + b_item + b_sep.join(r) + a_item + "]"
                 for r in reprs[inverse.reshape(rows.shape)].tolist()]
        yield ("[" if x == 0 else ",") + "\n    ["
        shared = {}
        for y in range(n_y):
            key = (y == 0, *ids[y * n_a:(y + 1) * n_a])  # a row's first block has no comma
            text = shared.get(key)
            if text is None:
                text = ((y_item if y == 0 else y_sep) + "[" + a_item
                        + a_sep.join([texts[i] for i in key[1:]]) + y_item + "]")
                shared[key] = text
            yield text
        yield "\n    ]"
    yield "\n  ]"


def table_to_json_chunks(table: CorrelationTable,
                         provenance: dict | None = None) -> Iterator[str]:
    """``json.dumps(table_to_json_dict(table, provenance), indent=2) + "\\n"``,
    byte for byte, as a stream of pieces that repeat the text of repeated rows
    (see :func:`_probs_json_chunks`), without building the nested list of
    floats or any input row's whole text."""
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
    return _table_from_json_dict(data, adopt=False)


def _table_from_json_dict(data: dict, adopt: bool) -> CorrelationTable:
    """``table_from_json_dict``; with ``adopt``, a float array ``probs`` that
    nothing else holds, as the CLI's reader builds it, is not copied."""
    _check_keys(data, "table", ("n_copies", "scheme", "input_arities", "output_arities", "probs"),
                ("format", "encoding", "provenance"))
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
    try:  # a fresh array, or with ``adopt`` the float array passed, which the table adopts
        probs = (np.asarray if adopt else np.array)(data["probs"], dtype=float)
    except (TypeError, ValueError, OverflowError):  # an integer beyond float range
        raise TableFormatError("/probs", "probabilities must be a nested numeric array") from None
    try:
        table = CorrelationTable._adopt(scheme, data["input_arities"], data["output_arities"],
                                        probs)
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
