"""Protocol-level certification verdicts and noise sweeps.

A certifier takes an observed correlation table and checks, copy by copy,
whether the relevant conditional or averaged expression values sit at their
targets.  Certification here is exact-statistics with a numerical tolerance
knob: ``tol`` is numerical slack, not noise robustness, and defaults to 1e-8.
Every certifier raises ``ValueError`` for a ``tol`` that is negative or not
finite, and for a target that is not finite.

Theorem 1 is theorem 3 with one expression and target for every copy.
Theorems 3 and 4 share one report from one :func:`~paraself.bell.conditional_means`
call (one walk, row sums in blocks); its rows are the prefixes of earlier outputs
(broadcast) or the other copies' input settings (per-copy).  Theorem 2 walks once too.
The noise sweep stacks a batch of visibilities: one stack of checked states,
one Born rule, one product and one ``conditional_means`` call serve the whole
batch, and every table is validated.

Reports never short-circuit: every copy is evaluated so diagnostics are
complete.  A copy whose conditional values are undefined because some prefix
has (numerically) zero probability is reported with the average taken over
the well-defined prefixes (keeping the full prefix count as divisor) plus a
diagnostic naming the offending prefixes; the verdict is then

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
    _conditioned,
    _copy_kernels,
    conditional_means,
    correlator,
    reachable,
)
from .errors import SchemeInputMismatch, ShapeMismatch
from .qcore import _check_density
from .strategies import (SingleCopyStrategy, _isotropic_states, born_tables, broadcast_product,
                         check_copies)

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


def _check_targets(table: CorrelationTable, exprs: Sequence[BellExpression],
                   betas: Sequence[float], tol: float) -> tuple:
    """``(exprs, betas)`` as tuples, after checking ``tol`` and that there is
    one expression and one finite target per copy."""
    _check_tol(tol)
    n = table.n_copies
    exprs = tuple(exprs)
    betas = tuple(float(b) for b in betas)
    if len(exprs) != n or len(betas) != n:
        raise ShapeMismatch(f"need {n} expressions and targets, got {len(exprs)}/{len(betas)}")
    if not all(math.isfinite(b) for b in betas):
        raise ValueError(f"targets must be finite, got {list(betas)!r}")
    return exprs, betas


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
    exprs, betas = _check_targets(table, exprs, betas, tol)
    kind = "value" if table.scheme is Scheme.BROADCAST else "averaged value"
    checks: list[CopyCheck] = []
    diagnostics: list[str] = []
    means = conditional_means([table], exprs)[0]
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
    per-copy check statistic is the largest entrywise deviation (target 0).
    For binary-outcome scenarios, the four reference correlators and their
    observed copy-1 counterparts are reported as named diagnostics.
    """
    _check_tol(tol)
    if table.scheme is not Scheme.BROADCAST:
        raise SchemeInputMismatch("full-statistics certification requires a broadcast table")
    if reference.n_copies != 1:
        raise ShapeMismatch("reference must be a single-copy table")
    m, o = reference.input_arities[0], reference.output_arities[0]
    if table.input_arities[0] != m or any(v != o for v in table.output_arities):
        raise ShapeMismatch("table copies do not match the reference arities")
    checks: list[CopyCheck] = []
    diagnostics: list[str] = []
    if not reachable(reference.probs).all():
        x, y, a, b = (int(v) for v in np.argwhere(~reachable(reference.probs))[0])
        diagnostics.append(
            f"reference entry p({a},{b}|{x},{y}) is not strictly positive; "
            f"conditional comparisons are ill-posed"
        )
        checks.append(CopyCheck(1, 0.0, 0.0, 0.0, precondition_ok=False))
        return _finish_report(checks, diagnostics, tol)

    kernels = _copy_kernels([table])
    marginal = CorrelationTable(Scheme.BROADCAST, (m,), (o,), next(kernels)[0][0, :, :, 0, 0])
    dev1 = float(np.max(np.abs(marginal.probs - reference.probs)))
    checks.append(CopyCheck(1, dev1, 0.0, dev1))
    if o == 2:
        diagnostics += [f"correlator({x},{y}): copy-1 {correlator(marginal, x, y)!r}, "
                        f"reference {correlator(reference, x, y)!r}"
                        for x in range(m) for y in range(m)]

    parity_signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    for i, (joint, prob) in enumerate(kernels, 2):
        cond, prefix_prob = _conditioned(joint, prob, np.zeros_like(joint))[0], prob[0]
        unreachable = (~reachable(prefix_prob)).any(axis=(0, 1))
        # deviation[prefix_a, prefix_b]: largest entrywise deviation from the
        # reference, 0 on unreachable prefixes.  argmax keeps the first
        # worst prefix in row-major order.
        deviation = np.where(
            unreachable, 0.0,
            np.abs(cond - reference.probs[:, :, None, None]).max(axis=(0, 1, 4, 5)))
        worst_prefix = divmod(int(np.argmax(deviation)), deviation.shape[1])
        worst = float(deviation[worst_prefix])
        if o == 2 and not unreachable.any():
            ref_corr = (reference.probs * parity_signs).sum(axis=(2, 3))
            cond_corr = (cond * parity_signs).sum(axis=(4, 5))
            corr_dev = np.abs(cond_corr - ref_corr[:, :, None, None]).max(axis=(2, 3))
            diagnostics += [f"conditional correlator({x},{y}) copy {i}: max deviation "
                            f"{corr_dev[x, y]:.3e} over all prefixes"
                            for x in range(m) for y in range(m)]
        if unreachable.any():
            # A strictly positive reference makes every prefix reachable in
            # the honest experiment, so unreachable prefixes are a failure in
            # their own right, not merely a precondition gap.
            worst = max(worst, 1.0)
            first_a, first_b = (int(v) for v in np.argwhere(unreachable)[0])
            diagnostics.append(
                f"copy {i}: {int(unreachable.sum())} prefixes unreachable "
                f"(first: (a={first_a}, b={first_b})) although "
                f"the reference is strictly positive"
            )
        elif worst > tol:
            diagnostics.append(
                f"copy {i}: max conditional deviation {worst:.6e} at prefix "
                f"(a={worst_prefix[0]}, b={worst_prefix[1]})"
            )
        checks.append(CopyCheck(i, worst, 0.0, worst))
    if checks[0].margin > tol:
        diagnostics.append(f"copy 1: max marginal deviation {checks[0].margin:.6e}")
    return _finish_report(checks, diagnostics, tol)


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
    tables held at once do not grow with their number.  Rows equal the
    ``conditional_means`` values of ``compose([apply_isotropic_noise(strategy, nu)] * n)``
    bit for bit; the first undefined prefix (lowest visibility, then copy)
    raises the :class:`ZeroPrefixProbability` that ``conditional_means`` names.
    """
    check_copies(n)
    nus = sorted(float(v) for v in nus)
    if any(not 0.0 <= v <= 1.0 for v in nus):
        raise ValueError("visibilities must lie in [0, 1]")
    m, o = strategy.m, strategy.o
    # Entries per visibility: its joint table or its Born rule's temporary.
    step = max(1, _SWEEP_BATCH // (m * m * max(o ** (2 * n), (o * strategy.state.dim) ** 2)))
    rows = []
    for start in range(0, len(nus), step):
        batch = nus[start:start + step]
        states = _isotropic_states(strategy, batch)
        _check_density(states)
        tables = [CorrelationTable(Scheme.BROADCAST, (m,) * n, (o,) * n, probs)
                  for probs in broadcast_product([born_tables(strategy, states)] * n)]
        for nu, copies in zip(batch, conditional_means(tables, [expr] * n)):
            errors = [error for _, error in copies if error is not None]
            if errors:
                raise errors[0]
            rows.append({"nu": nu, "j_values": [value for value, _ in copies]})
    return rows
