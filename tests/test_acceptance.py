"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are emitted.  Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import math
import time

import numpy as np

from paraself.bell import (
    BellExpression,
    CorrelationTable,
    Scheme,
    chsh_expression,
    chsh_game_expression,
    classical_bound,
    copy_marginal,
    correlator,
    evaluate,
    expression_from_json_dict,
    expression_to_json_dict,
    j_value,
    quantum_value_fixed_measurements,
    table_from_json_dict,
    table_to_json_dict,
    tilted_chsh_expression,
)
from paraself.certify import (
    certify_theorem1,
    certify_theorem2,
    certify_theorem3,
    certify_theorem4,
    sweep_noise,
)
from paraself.strategies import (
    adversary_copy,
    adversary_shared_randomness,
    chsh_reference,
    compose,
    fullstats_reference,
    local_deterministic,
    single_copy_table,
    tilted_chsh_reference,
)

from conftest import conditional_values, deterministic_table_probs, random_strategy

CHSH_MAX = 2.0 * np.sqrt(2.0)
GAME_MAX = 0.8535533906  # (2 + sqrt(2)) / 4 to ten decimals


def _check(number: int, name: str, conditions):
    ok = all(passed for _, passed in conditions)
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    failed = [label for label, passed in conditions if not passed]
    assert not failed, f"criterion {number} ({name}) failed: {failed}"


def test_criterion_1_chsh_maximum_and_classical_bound():
    start = time.monotonic()
    table = single_copy_table(chsh_reference())
    value = evaluate(chsh_expression(), table)
    bound = classical_bound(chsh_expression()).value
    elapsed = time.monotonic() - start
    _check(1, "chsh maximum", [
        ("quantum value 2*sqrt(2) +- 1e-9", abs(value - CHSH_MAX) <= 1e-9),
        ("classical bound exactly 2", bound == 2.0),
        ("runtime < 1 s", elapsed < 1.0),
    ])


def test_criterion_2_game_score_and_bound():
    start = time.monotonic()
    table = single_copy_table(chsh_reference())
    score = evaluate(chsh_game_expression(), table)
    bound = classical_bound(chsh_game_expression()).value
    elapsed = time.monotonic() - start
    _check(2, "game score", [
        ("winning probability 0.8535533906 +- 1e-9", abs(score - GAME_MAX) <= 1e-9),
        ("classical game bound exactly 0.75", bound == 0.75),
        ("runtime < 1 s", elapsed < 1.0),
    ])


def test_criterion_3_honest_broadcast_values():
    conditions = []
    start = time.monotonic()
    for n in (2, 3, 4):
        table = compose([chsh_reference()] * n, Scheme.BROADCAST)
        for i in range(1, n + 1):
            value = j_value(table, chsh_expression(), i)
            conditions.append(
                (f"n={n} i={i} within 1e-8", abs(value - CHSH_MAX) <= 1e-8)
            )
    elapsed = time.monotonic() - start
    conditions.append(("runtime < 30 s", elapsed < 30.0))
    _check(3, "honest parallel values", conditions)


def _adversary_expected_mean(kind: str, n: int, i: int) -> float:
    """Independent oracle for the adversarial prefix averages.

    Every reachable prefix forces a deterministic point (copying) or a
    uniform parity class (shared randomness); either way the conditional
    value is +-2 with the sign of the prefix parity, and the signs cancel in
    the uniform average.  The sum runs over reachable prefixes only; the
    divisor is the full prefix count.
    """
    total = 0.0
    count_full = 4 ** (i - 1)
    for digits_a in itertools.product(range(2), repeat=i - 1):
        for digits_b in itertools.product(range(2), repeat=i - 1):
            if kind == "copy":
                if len(set(digits_a)) > 1 or len(set(digits_b)) > 1:
                    continue
                sign = (-1.0) ** (digits_a[0] + digits_b[0])
            else:
                parities = {a ^ b for a, b in zip(digits_a, digits_b)}
                if len(parities) > 1:
                    continue
                sign = (-1.0) ** parities.pop()
            total += 2.0 * sign
    return total / count_full


def test_criterion_4_adversary_rejection():
    conditions = []
    builders = {"copy": adversary_copy, "shared-randomness": adversary_shared_randomness}
    for kind, build in builders.items():
        for n in (2, 3):
            table = build(n)
            for i in range(1, n + 1):
                score = evaluate(chsh_game_expression(), copy_marginal(table, i))
                conditions.append((
                    f"{kind} n={n} pair {i} score 0.8535533906 +- 1e-9",
                    abs(score - GAME_MAX) <= 1e-9,
                ))
            report = certify_theorem1(table, chsh_expression(), CHSH_MAX, tol=1e-8)
            conditions.append((f"{kind} n={n} verdict fail", report.verdict == "fail"))
            for i in range(2, n + 1):
                reported = report.per_copy[i - 1].value
                expected = _adversary_expected_mean(
                    "copy" if kind == "copy" else "sr", n, i
                )
                conditions.append((
                    f"{kind} n={n} J{i} = 0 +- 1e-9",
                    abs(reported) <= 1e-9 and abs(expected) <= 1e-15,
                ))
            # Where all prefixes are reachable the strict average must agree.
            strict = j_value(table, chsh_expression(), 2)
            conditions.append((f"{kind} n={n} strict J2 = 0", abs(strict) <= 1e-9))
    _check(4, "adversary rejection", conditions)


def test_criterion_5_full_statistics_certification():
    gamma, delta = np.pi / 4, np.pi / 6
    strategy = fullstats_reference(gamma, delta)
    reference = single_copy_table(strategy)
    table = compose([strategy] * 2, Scheme.BROADCAST)
    report = certify_theorem2(table, reference, tol=1e-8)
    targets = {
        (0, 0): np.cos(gamma),
        (0, 1): -np.cos(delta),
        (1, 0): np.sin(gamma),
        (1, 1): np.sin(delta),
    }
    conditions = [
        ("verdict pass", report.verdict == "pass"),
        ("max deviation <= 1e-9", max(c.value for c in report.per_copy) <= 1e-9),
    ]
    for (x, y), target in targets.items():
        conditions.append((
            f"correlator({x},{y}) = {target:.7f} +- 1e-9",
            abs(correlator(reference, x, y) - target) <= 1e-9,
        ))
    _check(5, "full-statistics certification", conditions)


def test_criterion_6_mixed_copies_with_oracle_target():
    tilted = tilted_chsh_expression(0.5)
    strategy = tilted_chsh_reference(0.5, tilted)
    beta2 = quantum_value_fixed_measurements(tilted, strategy).value
    table = compose([chsh_reference(), strategy], Scheme.BROADCAST)
    report = certify_theorem3(
        table, [chsh_expression(), tilted], [CHSH_MAX, beta2], tol=1e-6
    )
    # Independent bound oracle: all 16 deterministic assignments, evaluated
    # through the same linear functional as any other table.
    exhaustive = max(
        evaluate(
            tilted,
            CorrelationTable(Scheme.BROADCAST, (2,), (2,),
                             deterministic_table_probs(2, 2, alice, bob)),
        )
        for alice in itertools.product(range(2), repeat=2)
        for bob in itertools.product(range(2), repeat=2)
    )
    _check(6, "combined copy certification", [
        ("verdict pass", report.verdict == "pass"),
        ("tilted classical bound 2.5 by enumeration", exhaustive == 2.5),
        ("classical_bound agrees", classical_bound(tilted).value == exhaustive),
        ("quantum exceeds classical by >= 0.05", beta2 - exhaustive >= 0.05),
    ])


def test_criterion_7_percopy_certification():
    honest = compose([chsh_reference()] * 2, Scheme.PER_COPY)
    report = certify_theorem4(
        honest, [chsh_expression()] * 2, [CHSH_MAX] * 2, tol=1e-8
    )
    dets = [
        local_deterministic([0, 0], [0, 1], o=2),
        local_deterministic([1, 0], [0, 0], o=2),
    ]
    det_table = compose(dets, Scheme.PER_COPY)
    det_report = certify_theorem4(
        det_table, [chsh_expression()] * 2, [CHSH_MAX] * 2, tol=1e-8
    )
    conditions = [
        ("honest verdict pass", report.verdict == "pass"),
        ("honest margins <= 1e-8",
         all(c.margin <= 1e-8 for c in report.per_copy)),
        ("deterministic verdict fail", det_report.verdict == "fail"),
        ("deterministic values <= 2 + 1e-9",
         all(c.value <= 2.0 + 1e-9 for c in det_report.per_copy)),
    ]
    _check(7, "per-copy certification", conditions)


def test_criterion_8_noise_sweep_linearity():
    nus = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = sweep_noise(chsh_reference(), 2, chsh_expression(), nus)
    conditions = [
        (f"J1({row['nu']}) = {row['nu']} * 2*sqrt(2) +- 1e-9",
         abs(row["j_values"][0] - row["nu"] * CHSH_MAX) <= 1e-9)
        for row in rows
    ]
    _check(8, "noise sweep linearity", conditions)


def test_criterion_9a_normalization_and_nonsignaling_batch():
    rng = np.random.default_rng(90)
    failures = 0
    cases = 0
    for k in range(100):
        scheme = Scheme.BROADCAST if k % 2 == 0 else Scheme.PER_COPY
        n = int(rng.integers(1, 4))
        if scheme is Scheme.BROADCAST:
            m = int(rng.integers(2, 4))
            copies = [random_strategy(rng, m=m, projective=bool(rng.integers(2)))
                      for _ in range(n)]
        else:
            copies = [random_strategy(rng, projective=bool(rng.integers(2)))
                      for _ in range(n)]
        table = compose(copies, scheme)
        probs = table.probs
        norm_ok = np.max(np.abs(probs.sum(axis=(2, 3)) - 1.0)) <= 1e-10
        alice = probs.sum(axis=3)
        bob = probs.sum(axis=2)
        ns_ok = (np.max(np.abs(alice - alice[:, :1, :])) <= 1e-10
                 and np.max(np.abs(bob - bob[:1, :, :])) <= 1e-10)
        cases += 1
        if not (norm_ok and ns_ok):
            failures += 1
    _check(9, "properties: normalization/no-signaling (100 cases)", [
        ("100 cases run", cases == 100),
        ("all normalized and no-signaling at 1e-10", failures == 0),
    ])


def test_criterion_9b_conditional_inertness_batch():
    rng = np.random.default_rng(91)
    checked = 0
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        copies = [random_strategy(rng, m=m, projective=True) for _ in range(n)]
        table = compose(copies, Scheme.BROADCAST)
        i = int(rng.integers(2, n + 1))
        o_i = copies[i - 1].o
        expr = BellExpression(m, o_i, rng.normal(size=(m, m, o_i, o_i)), label="probe")
        single_value = evaluate(expr, single_copy_table(copies[i - 1]))
        low = math.prod(c.o for c in copies[: i - 1])
        values = conditional_values(table, expr, i)
        assert values.shape == (low, low)
        worst = max(worst, float(np.max(np.abs(values - single_value))))
        checked += 1
    _check(9, "properties: conditional inertness (100 cases)", [
        ("100 cases run", checked == 100),
        ("every prefix within 1e-9 of the single-copy value", worst <= 1e-9),
    ])


def test_criterion_9c_classical_bound_oracle_batch():
    rng = np.random.default_rng(92)
    mismatches = 0
    for _ in range(100):
        m = int(rng.integers(2, 4))
        o = int(rng.integers(2, 4))
        expr = BellExpression(m, o, rng.normal(size=(m, m, o, o)), label="rand")
        oracle = max(
            evaluate(
                expr,
                CorrelationTable(Scheme.BROADCAST, (m,), (o,),
                                 deterministic_table_probs(m, o, alice, bob)),
            )
            for alice in itertools.product(range(o), repeat=m)
            for bob in itertools.product(range(o), repeat=m)
        )
        if classical_bound(expr).value != oracle:
            mismatches += 1
    _check(9, "properties: classical bound vs exhaustive oracle (100 cases)", [
        ("exact agreement on every case", mismatches == 0),
    ])


def test_criterion_9d_file_format_roundtrip_batch():
    rng = np.random.default_rng(93)
    failures = 0
    for k in range(100):
        if k % 2 == 0:
            n = int(rng.integers(1, 3))
            copies = [random_strategy(rng, m=2, projective=True) for _ in range(n)]
            table = compose(copies, Scheme.BROADCAST)
            first = json.dumps(table_to_json_dict(table, {"case": k}))
            reread = table_from_json_dict(json.loads(first))
            second = json.dumps(table_to_json_dict(reread, {"case": k}))
            if first != second or not np.array_equal(reread.probs, table.probs):
                failures += 1
        else:
            m = int(rng.integers(2, 4))
            o = int(rng.integers(2, 4))
            expr = BellExpression(m, o, rng.normal(size=(m, m, o, o)), label=f"e{k}")
            first = json.dumps(expression_to_json_dict(expr))
            reread = expression_from_json_dict(json.loads(first))
            second = json.dumps(expression_to_json_dict(reread))
            if first != second or not np.array_equal(reread.coeffs, expr.coeffs):
                failures += 1
    _check(9, "properties: file-format round-trip determinism (100 cases)", [
        ("bitwise-identical serialization on every case", failures == 0),
    ])
