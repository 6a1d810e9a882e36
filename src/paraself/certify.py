"""Protocol-level certification verdicts and noise sweeps.

A certifier takes an observed correlation table and checks, copy by copy,
whether the relevant conditional or averaged expression values sit at their
targets.  Certification here is exact-statistics with a numerical tolerance
knob: ``tol`` is numerical slack, not noise robustness, and defaults to 1e-8.
Every certifier raises ``ValueError`` for a ``tol`` that is negative or not
finite, and for a target that is not finite.

Theorem 1 is theorem 3 with one expression and target for every copy.
Theorems 3 and 4 share one report from one :func:`~paraself.bell.conditional_means`
call (one walk, one row-sum call); its rows are the prefixes of earlier outputs
(broadcast) or the other copies' input settings (per-copy).  Theorem 2 compares the
same conditioned ``[term, row]`` buffer with its reference, and reads deviations and
correlators from it and one row-sum call.
The noise sweep stacks a batch of visibilities: one stack of checked states,
one Born rule, one product, one validation of the stacked tables and one walk
serve the whole batch, and no table object is built.

Reports never short-circuit: every copy is evaluated so diagnostics are
complete; the one exception is theorem 2 with a reference that is not strictly
positive, which returns copy 1 only.  A copy whose conditional values are
undefined because some prefix has (numerically) zero probability is reported
with the average taken over the well-defined prefixes (keeping the full prefix
count as divisor) plus a diagnostic naming the offending prefixes; the verdict
is then

* ``fail`` if any copy with fully defined values deviates beyond ``tol``
  (definitive rejection wins over a precondition complaint),
* ``precondition-violated`` if no copy cleanly fails but some copy has
  undefined prefixes (or another protocol precondition is broken),
* ``pass`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bell import (
    BellExpression,
    CorrelationTable,
    Scheme,
    _check_probs,
    _conditioned_terms,
    _row_fsums,
    _stack_means,
    conditional_means,
    reachable,
)
from .errors import SchemeInputMismatch, ShapeMismatch
from .qcore import _check_density
from .strategies import (SingleCopyStrategy, _isotropic_states, born_tables, broadcast_product,
                         check_copies, check_visibilities)

DEFAULT_TOL = 1e-8

_SWEEP_BATCH = 1 << 16  # table entries composed and evaluated at a time by a sweep

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_PRECONDITION = "precondition-violated"


@dataclass(frozen=True)
class CopyCheck:
    """Per-copy certification record: the computed value (or check
    statistic), its target, and the absolute margin."""

    index: int
    value: float
    target: float
    margin: float
    precondition_ok: bool = True


@dataclass(frozen=True)
class CertificationReport:
    verdict: str
    per_copy: tuple
    diagnostics: tuple

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "copies": [
                {"i": c.index, "value": c.value, "target": c.target, "margin": c.margin}
                for c in self.per_copy
            ],
            "diagnostics": list(self.diagnostics),
        }


def _finish_report(checks: list, diagnostics: list, tol: float) -> CertificationReport:
    clean_failure = any(c.precondition_ok and c.margin > tol for c in checks)
    precondition_issue = any(not c.precondition_ok for c in checks)
    if clean_failure:
        verdict = VERDICT_FAIL
    elif precondition_issue:
        verdict = VERDICT_PRECONDITION
    else:
        verdict = VERDICT_PASS
    return CertificationReport(verdict, tuple(checks), tuple(diagnostics))


def _check_tol(tol: float) -> None:
    # A NaN tol would pass every table: ``margin > nan`` is always false.
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")


def _check_targets(table: CorrelationTable, betas: Sequence[float], tol: float) -> tuple:
    """``betas`` as a tuple of floats, after checking ``tol`` and that there is one finite
    target per copy; :func:`~paraself.bell.conditional_means` counts the expressions."""
    _check_tol(tol)
    betas = tuple(float(b) for b in betas)
    if len(betas) != table.n_copies:
        raise ShapeMismatch(f"need {table.n_copies} targets, got {len(betas)}")
    if not all(math.isfinite(b) for b in betas):
        raise ValueError(f"targets must be finite, got {list(betas)!r}")
    return betas


def certify_theorem1(table: CorrelationTable, expr: BellExpression, beta: float,
                     tol: float = DEFAULT_TOL) -> CertificationReport:
    """Broadcast certification with one expression and one target: theorem 3
    with ``expr`` and ``beta`` for every copy."""
    return certify_theorem3(table, (expr,) * table.n_copies, (beta,) * table.n_copies, tol)


def certify_theorem3(table: CorrelationTable, exprs: Sequence[BellExpression],
                     betas: Sequence[float], tol: float = DEFAULT_TOL) -> CertificationReport:
    """Broadcast certification with copy-specific expressions and targets:
    every copy's prefix-averaged conditional value must equal its target and
    every prefix must have strictly positive probability.  All expressions
    must share the table's input arity; output arities may differ per copy."""
    if table.scheme is not Scheme.BROADCAST:
        raise SchemeInputMismatch("conditional certification requires a broadcast table")
    return _certify_means(table, exprs, betas, tol)


def _certify_means(table: CorrelationTable, exprs: Sequence[BellExpression],
                   betas: Sequence[float], tol: float) -> CertificationReport:
    """Theorem 3's or 4's report: each copy's conditional or averaged value against its target."""
    betas = _check_targets(table, betas, tol)
    kind = "value" if table.scheme is Scheme.BROADCAST else "averaged value"
    checks: list[CopyCheck] = []
    diagnostics: list[str] = []
    means = conditional_means([table], tuple(exprs))[0]
    for i, ((value, first), target) in enumerate(zip(means, betas), 1):
        ok = first is None
        if not ok:
            diagnostics.append(
                f"copy {i}: conditional values undefined on zero-probability "
                f"prefixes (first offender: prefix (a={first.prefix_a}, "
                f"b={first.prefix_b}) at inputs (x={first.x}, y={first.y})); "
                f"reported value averages the well-defined prefixes"
            )
        margin = abs(value - target)
        if ok and margin > tol:
            diagnostics.append(
                f"copy {i}: {kind} {value!r} deviates from target {target!r} "
                f"by {margin:.3e} (tol {tol:.1e})"
            )
        checks.append(CopyCheck(i, value, target, margin, precondition_ok=ok))
    return _finish_report(checks, diagnostics, tol)


def certify_theorem2(table: CorrelationTable, reference: CorrelationTable,
                     tol: float = DEFAULT_TOL) -> CertificationReport:
    """Full-statistics certification: the copy-1 marginal and every
    conditional distribution of every later copy must equal the single-copy
    reference entrywise.

    The reference must be single-copy with strictly positive entries.  The
    per-copy check statistic is the largest entrywise deviation (target 0)
    over the ``[a, b, x, y, row]`` head of the one conditioned ``[term, row]``
    buffer of copy 1's marginal and every later copy's prefixes.  One loop
    over the copies' spans reads each copy's deviation, worst prefix,
    unreachable prefixes (from the mask its conditioning returns, so no
    prefix is judged twice) and correlator deviation, and writes its lines.
    A copy with an unreachable prefix scores at least 1.0; its deviation
    counts only the prefixes reachable at every input pair.  Such copies
    follow all others, so for binary outcomes copy 1's correlators and each
    earlier copy's largest correlator deviation come from one row-sum call
    (equal to ``math.fsum``) over the rows before the first of them where they
    lie, the ``(0, 1)`` and ``(1, 0)`` rows negated in place for it and back
    (exact), and the reference's from ``math.fsum``.
    """
    _check_tol(tol)
    if table.scheme is not Scheme.BROADCAST:
        raise SchemeInputMismatch("full-statistics certification requires a broadcast table")
    if reference.n_copies != 1:
        raise ShapeMismatch("reference must be a single-copy table")
    m, o = reference.input_arities[0], reference.output_arities[0]
    if table.input_arities[0] != m or any(v != o for v in table.output_arities):
        raise ShapeMismatch("table copies do not match the reference arities")
    positive = reachable(reference.probs)
    if not positive.all():
        x, y, a, b = (int(v) for v in np.argwhere(~positive)[0])
        diagnostic = (f"reference entry p({a},{b}|{x},{y}) is not strictly positive; "
                      f"conditional comparisons are ill-posed")
        return _finish_report([CopyCheck(1, 0.0, 0.0, 0.0, precondition_ok=False)],
                              [diagnostic], tol)

    diagnostics: list[str] = []
    terms, spans = _conditioned_terms(table.probs[None], table.scheme, table.input_arities,
                                      table.output_arities)
    rows = terms[:o * o * m * m].reshape(o, o, m, m, -1)  # [a, b, x, y, row]
    ref = reference.probs.transpose(2, 3, 0, 1)[..., None]
    # A prefix unreachable at (x, y) has an unreachable extension there, so the copies with
    # an unreachable prefix follow the others, whose rows [0, end) print correlators.
    end = next((s for s, _, mask, _ in spans if mask is not None), rows.shape[-1]) if o == 2 else 0
    if end:
        ref_corr = np.array([[math.fsum((p * [[1, -1], [-1, 1]]).flat) for p in probs]
                             for probs in reference.probs])  # [x, y]
        corr_terms = rows[..., :end].reshape(4, m, m, end, copy=False)  # [ab, x, y, row], a view
        np.negative(corr_terms[1:3], out=corr_terms[1:3])  # the -1 signs of ab = 01, 10: exact
        corr = _row_fsums(corr_terms)  # [x, y, row]
        np.negative(corr_terms[1:3], out=corr_terms[1:3])  # undone, as exactly
        corr_dev = np.abs(corr - ref_corr[:, :, None])
        diagnostics += [f"correlator({x},{y}): copy-1 {float(corr[x, y, 0])!r}, "
                        f"reference {float(ref_corr[x, y])!r}" for x in range(m) for y in range(m)]
    rows -= ref  # in place, now that the correlators are read
    row_dev = np.abs(rows, out=rows).max(axis=(0, 1, 2, 3))
    worst = []  # of copies 1..n
    for i, (start, count, mask, _) in enumerate(spans, 1):
        dev, low = row_dev[start:start + count], o ** (i - 1)
        if i > 1 and start < end:
            copy_dev = corr_dev[:, :, start:start + count].max(axis=2).tolist()
            diagnostics += [f"conditional correlator({x},{y}) copy {i}: max deviation "
                            f"{copy_dev[x][y]:.3e} over all prefixes"
                            for x in range(m) for y in range(m)]
        if mask is None:
            worst.append(float(dev.max()))
            if i > 1 and worst[-1] > tol:
                row = int(np.argmax(dev))  # the first worst prefix
                diagnostics.append(f"copy {i}: max conditional deviation {worst[-1]:.6e} at "
                                   f"prefix (a={row // low}, b={row % low})")
            continue
        # A strictly positive reference makes every prefix reachable in the honest
        # experiment, so unreachable prefixes are a failure in their own right, not merely
        # a precondition gap; the deviation counts the prefixes reachable at every (x, y).
        defined = mask[0].all(axis=(0, 1)).ravel()
        worst.append(float(dev.max(initial=1.0, where=defined)))
        bad = np.flatnonzero(~defined)
        diagnostics.append(f"copy {i}: {len(bad)} prefixes unreachable (first: (a={bad[0] // low}, "
                           f"b={bad[0] % low})) although the reference is strictly positive")
    if worst[0] > tol:
        diagnostics.append(f"copy 1: max marginal deviation {worst[0]:.6e}")
    return _finish_report([CopyCheck(i, w, 0.0, w) for i, w in enumerate(worst, 1)],
                          diagnostics, tol)


def certify_theorem4(table: CorrelationTable, exprs: Sequence[BellExpression],
                     betas: Sequence[float], tol: float = DEFAULT_TOL) -> CertificationReport:
    """Per-copy-input certification: the input-averaged expression value of
    every copy must equal its target."""
    if table.scheme is not Scheme.PER_COPY:
        raise SchemeInputMismatch("averaged certification requires a per-copy table")
    return _certify_means(table, exprs, betas, tol)


def sweep_noise(strategy: SingleCopyStrategy, n: int, expr: BellExpression,
                nus: Sequence[float]) -> list:
    """Compose ``n`` identically noisy copies for each visibility and report
    all per-copy averaged conditional values.

    Rows are returned in ascending visibility.  Visibilities are evaluated as
    stacked tables in batches of at most ``_SWEEP_BATCH`` entries, so the
    tables held at once do not grow with their number.  Each batch's stack is
    validated once, by the checks a table's constructor makes, and walked
    once; no table object is built.  Rows equal the
    ``conditional_means`` values of ``compose([apply_isotropic_noise(strategy, nu)] * n)``
    bit for bit; the first undefined prefix (lowest visibility, then copy)
    raises the :class:`ZeroPrefixProbability` that ``conditional_means`` names.
    """
    check_copies(n)
    nus = sorted(float(v) for v in nus)
    check_visibilities(nus)
    m, o = strategy.m, strategy.o
    # Entries per visibility: its joint table or its Born rule's temporary.
    step = max(1, _SWEEP_BATCH // (m * m * max(o ** (2 * n), (o * strategy.state.dim) ** 2)))
    rows = []
    for start in range(0, len(nus), step):
        batch = nus[start:start + step]
        states = _isotropic_states(strategy, batch)
        _check_density(states)
        probs = broadcast_product([born_tables(strategy, states)] * n)
        _check_probs(probs)
        for nu, copies in zip(batch, _stack_means(probs, Scheme.BROADCAST, (m,) * n, (o,) * n,
                                                  [expr] * n)):
            errors = [error for _, error in copies if error is not None]
            if errors:
                raise errors[0]
            rows.append({"nu": nu, "j_values": [value for value, _ in copies]})
    return rows
