"""Certification verdicts for all four protocols, plus noise sweeps."""

import functools
import itertools
import json

import numpy as np
import pytest

from paraself import certify
from paraself.bell import (
    BellExpression,
    CorrelationTable,
    Scheme,
    builtin_expression,
    builtin_quantum_maximum,
    chsh_expression,
    quantum_value_fixed_measurements,
    reachable,
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
from paraself.errors import SchemeInputMismatch, UnsupportedDimension, ZeroPrefixProbability
from paraself.qcore import SIGMA_X, SIGMA_Z, Ket, povm_from_observable
from paraself.strategies import (
    MAX_COPIES,
    SingleCopyStrategy,
    adversary_copy,
    adversary_shared_randomness,
    apply_isotropic_noise,
    build_preset_strategy,
    chsh_reference,
    compose,
    fullstats_reference,
    parse_strategy_spec,
    single_copy_table,
    tilted_chsh_reference,
)

from conftest import (certification, kernels, random_projective_povm, random_state,
                      random_strategy, traced_peak)
from reference import correlator, j_value, local_deterministic

CHSH_MAX = 2.0 * np.sqrt(2.0)


@pytest.mark.parametrize("n", [2, 3])
def test_theorem1_honest_copies_pass(n):
    table = compose([chsh_reference()] * n, Scheme.BROADCAST)
    report = certify_theorem1(table, chsh_expression(), CHSH_MAX, tol=1e-8)
    assert report.verdict == "pass"
    assert all(c.margin <= 1e-9 for c in report.per_copy)
    assert len(report.per_copy) == n


@pytest.mark.parametrize("build", [adversary_copy, adversary_shared_randomness])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_theorem1_rejects_adversaries(build, n):
    table = build(n)
    report = certify_theorem1(table, chsh_expression(), CHSH_MAX, tol=1e-8)
    assert report.verdict == "fail"
    for check in report.per_copy[1:]:
        assert check.value < CHSH_MAX - 0.8
        assert abs(check.value) <= 1e-9
    assert any("copy 2" in d for d in report.diagnostics)


def test_theorem1_adversary_copy_reports_j2_zero():
    report = certify_theorem1(adversary_copy(2), chsh_expression(), CHSH_MAX)
    assert report.per_copy[1].value == pytest.approx(0.0, abs=1e-9)


def test_theorem1_noisy_copies_fail():
    noisy = apply_isotropic_noise(chsh_reference(), 0.99)
    table = compose([noisy] * 2, Scheme.BROADCAST)
    report = certify_theorem1(table, chsh_expression(), CHSH_MAX, tol=1e-8)
    assert report.verdict == "fail"
    assert report.per_copy[0].value == pytest.approx(0.99 * CHSH_MAX, abs=1e-9)


def test_theorem1_precondition_verdict_on_unreachable_prefixes():
    # Copy 1 answers deterministically, so its own value sits exactly at the
    # deterministic target while most copy-2 prefixes never occur: the only
    # complaint is the positivity precondition.
    det = local_deterministic([0, 0], [0, 0], o=2)
    table = compose([det, det], Scheme.BROADCAST)
    report = certify_theorem1(table, chsh_expression(), 2.0, tol=1e-8)
    assert report.verdict == "precondition-violated"
    assert report.per_copy[0].margin <= 1e-12
    assert not report.per_copy[1].precondition_ok
    assert any("zero-probability" in d for d in report.diagnostics)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_soundness_every_builtin_reference(n):
    # chsh via the single-expression certifier
    table = compose([chsh_reference()] * n, Scheme.BROADCAST)
    report = certify_theorem1(table, chsh_expression(), CHSH_MAX)
    assert report.verdict == "pass"
    assert all(c.margin <= 1e-9 for c in report.per_copy)

    # tilted(0.5) via the copy-specific certifier with the oracle target
    expr = tilted_chsh_expression(0.5)
    s = tilted_chsh_reference(0.5, expr)
    beta = quantum_value_fixed_measurements(expr, s).value
    table = compose([s] * n, Scheme.BROADCAST)
    report = certify_theorem3(table, [expr] * n, [beta] * n)
    assert report.verdict == "pass"
    assert all(c.margin <= 1e-9 for c in report.per_copy)

    # fullstats via the full-statistics certifier
    fs = fullstats_reference(np.pi / 4, np.pi / 6)
    report = certify_theorem2(compose([fs] * n, Scheme.BROADCAST),
                              single_copy_table(fs))
    assert report.verdict == "pass"
    assert all(c.margin <= 1e-9 for c in report.per_copy)


# Largest theorem-1 margin of lambda * chsh^n + (1 - lambda) * adversary at
# lambda = 1 - 1e-6, as measured (3 significant digits) and pinned as a
# documented expectation: the adversary's weight of 1e-6 is amplified with n,
# to 2.8e-6 at n = 2 and about 160 times that at n = 6.
NEAR_HONEST_MARGINS = {
    adversary_copy: {2: 2.83e-6, 3: 1.13e-5, 4: 3.96e-5, 5: 1.35e-4, 6: 4.48e-4},
    adversary_shared_randomness: {2: 2.83e-6, 3: 1.13e-5, 4: 3.96e-5, 5: 1.36e-4, 6: 4.63e-4},
}
MIX_WEIGHTS = (0.5, 0.99, 1 - 1e-6)


def _soundness_tables(n):
    """Honest chsh^n, its mixes with both adversaries and deterministic local
    copies, by name."""
    honest = compose([chsh_reference()] * n, Scheme.BROADCAST)
    tables = {"honest": honest}
    for build in NEAR_HONEST_MARGINS:
        for lam in MIX_WEIGHTS:
            probs = lam * honest.probs + (1 - lam) * build(n).probs
            tables[f"{build.__name__}-{lam!r}"] = CorrelationTable(
                Scheme.BROADCAST, honest.input_arities, honest.output_arities, probs)
    tables["local"] = compose([local_deterministic([0, 0], [0, 0], o=2)] * n, Scheme.BROADCAST)
    return tables


@pytest.mark.parametrize("n", range(2, MAX_COPIES + 1))
def test_theorem1_soundness_over_n(n):
    verdicts = {name: certify_theorem1(table, chsh_expression(), CHSH_MAX)
                for name, table in _soundness_tables(n).items()}
    assert {name: r.verdict for name, r in verdicts.items()} == {
        name: "pass" if name == "honest" else "fail" for name in verdicts}
    for build, margins in NEAR_HONEST_MARGINS.items():
        report = verdicts[f"{build.__name__}-{MIX_WEIGHTS[-1]!r}"]
        assert max(c.margin for c in report.per_copy) == pytest.approx(margins[n], rel=5e-3)


def test_certify_cli_exits_1_only_on_fail(tmp_path):
    from click.testing import CliRunner

    from paraself.cli import main

    for name, table in _soundness_tables(3).items():
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table_to_json_dict(table)))
        result = CliRunner().invoke(main, ["certify", "--table", str(path), "--protocol",
                                           "theorem1", "--bell", "chsh",
                                           "--beta", "2.8284271247461903"])
        verdict = json.loads(result.stdout)["verdict"]
        assert (verdict, result.exit_code) == (("pass", 0) if name == "honest" else ("fail", 1))


def test_theorem2_conditional_correlators_reported():
    fs = fullstats_reference(np.pi / 4, np.pi / 6)
    report = certify_theorem2(compose([fs] * 2, Scheme.BROADCAST),
                              single_copy_table(fs))
    assert any(d.startswith("conditional correlator(1,1) copy 2")
               for d in report.diagnostics)


def test_theorem1_and_theorem3_agree_on_equal_copies():
    table = compose([chsh_reference()] * 3, Scheme.BROADCAST)
    expr = chsh_expression()
    r1 = certify_theorem1(table, expr, CHSH_MAX)
    r3 = certify_theorem3(table, [expr] * 3, [CHSH_MAX] * 3)
    assert r1 == r3
    assert r1.to_json_dict() == r3.to_json_dict()


def test_theorem1_requires_equal_output_arities():
    # Mixed-arity broadcast tables go through the copy-specific certifier.
    from conftest import random_projective_povm, random_state
    from paraself.strategies import SingleCopyStrategy

    rng = np.random.default_rng(3)
    s3 = SingleCopyStrategy(
        random_state(3, 3, rng),
        tuple(random_projective_povm(3, rng) for _ in range(2)),
        tuple(random_projective_povm(3, rng) for _ in range(2)),
        m=2, o=3, label="qutrit",
    )
    from paraself.errors import ShapeMismatch

    table = compose([chsh_reference(), s3], Scheme.BROADCAST)
    with pytest.raises(ShapeMismatch):
        certify_theorem1(table, chsh_expression(), CHSH_MAX)


def test_theorem2_honest_fullstats_pass():
    reference = single_copy_table(fullstats_reference(np.pi / 4, np.pi / 6))
    table = compose([fullstats_reference(np.pi / 4, np.pi / 6)] * 2, Scheme.BROADCAST)
    report = certify_theorem2(table, reference, tol=1e-8)
    assert report.verdict == "pass"
    assert all(c.value <= 1e-9 for c in report.per_copy)
    assert any(d.startswith("correlator(0,0)") for d in report.diagnostics)


def test_theorem2_rejects_copy_style_adversary():
    # Same copying attack as for the CHSH strategy, built on the two-angle
    # reference: measure once, duplicate the outputs.
    reference = single_copy_table(fullstats_reference(np.pi / 4, np.pi / 6))
    p1 = reference.probs
    probs = np.zeros((2, 2, 4, 4))
    for a, b in itertools.product(range(2), repeat=2):
        probs[:, :, a * 3, b * 3] = p1[:, :, a, b]
    from paraself.bell import CorrelationTable

    table = CorrelationTable(Scheme.BROADCAST, (2, 2), (2, 2), probs)
    report = certify_theorem2(table, reference, tol=1e-8)
    assert report.verdict == "fail"
    # Conditioned on the first pair, the second is a point mass.
    assert report.per_copy[1].value > 0.4


def test_theorem2_detects_perturbed_reference():
    gamma = np.pi / 4
    table = compose([fullstats_reference(gamma, np.pi / 6)] * 2, Scheme.BROADCAST)
    reference = single_copy_table(fullstats_reference(gamma - 1e-3, np.pi / 6))
    report = certify_theorem2(table, reference, tol=1e-6)
    assert report.verdict == "fail"
    # Correlator deviation ~ sin(gamma) * 1e-3 spreads over four entries.
    assert report.per_copy[0].value == pytest.approx(
        np.sin(gamma) * 1e-3 / 4, rel=0.2
    )
    assert any("deviation" in d for d in report.diagnostics)


def test_theorem2_requires_positive_reference():
    det = local_deterministic([0, 0], [0, 0], o=2)
    reference = single_copy_table(det)
    table = compose([det, det], Scheme.BROADCAST)
    report = certify_theorem2(table, reference)
    assert report.verdict == "precondition-violated"
    assert any("strictly positive" in d for d in report.diagnostics)


def _theorem2_oracle(table, reference):
    """``(deviations, lines)``: each copy's largest entrywise deviation from the
    reference and the correlator lines theorem 2 prints, recomputed from the
    conditioned blocks of the walk, each correlator by the ``math.fsum`` oracle.
    A copy with an unreachable prefix gets no deviation and no lines."""
    m, o = reference.input_arities[0], reference.output_arities[0]
    pairs = list(itertools.product(range(m), repeat=2))
    ref = {xy: correlator(reference, *xy) for xy in pairs} if o == 2 else {}
    deviations, lines = [], []
    for i, (cond, prefix_prob) in enumerate(kernels([table]), 1):
        cond, prefixes = cond[0], list(np.ndindex(prefix_prob.shape[3:]))
        if not reachable(prefix_prob).all():
            deviations.append(None)
            continue
        deviations.append(float(np.abs(cond - reference.probs[:, :, None, None]).max()))
        blocks = [CorrelationTable(Scheme.BROADCAST, (m,), (o,), cond[:, :, pa, pb])
                  for pa, pb in prefixes]
        for x, y in pairs if o == 2 else []:
            values = [correlator(block, x, y) for block in blocks]
            if i == 1:
                lines.append(f"correlator({x},{y}): copy-1 {values[0]!r}, "
                             f"reference {ref[x, y]!r}")
            else:
                worst = max(abs(v - ref[x, y]) for v in values)
                lines.append(f"conditional correlator({x},{y}) copy {i}: max deviation "
                             f"{worst:.3e} over all prefixes")
    return deviations, lines


def _qutrit_strategy():
    rng = np.random.default_rng(12)
    return SingleCopyStrategy(
        random_state(3, 3, rng),
        tuple(random_projective_povm(3, rng) for _ in range(2)),
        tuple(random_projective_povm(3, rng) for _ in range(2)),
        m=2, o=3, label="qutrit",
    )


@pytest.mark.parametrize("name, n", [*(("fullstats", n) for n in range(2, 6)),
                                     ("three-setting", 3), ("qutrit", 3)])
def test_theorem2_reports_the_oracle_values(name, n):
    # Every correlator theorem 2 prints, of copy 1, of the reference and of
    # every prefix, is the fsum of its conditioned block; on these fullstats
    # tables a numpy parity sum misses the reference's (0, 1) by an ulp.  Every
    # deviation is the largest entrywise one; three outcomes print no
    # correlators.
    strategy = {"fullstats": lambda: fullstats_reference(0.1, 0.2),
                "three-setting": _three_setting_strategy, "qutrit": _qutrit_strategy}[name]()
    m, o = strategy.m, strategy.o
    table, reference = compose([strategy] * n, Scheme.BROADCAST), single_copy_table(strategy)
    report = certify_theorem2(table, reference)
    deviations, lines = _theorem2_oracle(table, reference)
    assert report.verdict == "pass"
    assert [c.value for c in report.per_copy] == deviations
    assert [d for d in report.diagnostics if "correlator" in d] == lines
    assert len(lines) == (n * m * m if o == 2 else 0)


def _sparse_broadcast_table(rng, m, o, n, first):
    """Random broadcast table whose copies ``1..first - 2`` take every output pair at every
    input pair and whose later copies take one random output pair per outputs of those, so
    copy ``first`` is the first with an unreachable prefix (for ``first >= 2``)."""
    low, high = o ** (first - 2), o ** (n - first + 2)
    probs = np.zeros((m, m, high, low, high, low))  # [x, y, a_high, a_low, b_high, b_low]
    for x, y, pa, pb in itertools.product(range(m), range(m), range(low), range(low)):
        probs[x, y, rng.integers(high), pa, rng.integers(high), pb] = rng.uniform(0.1, 1.0)
    probs /= probs.sum(axis=(2, 3, 4, 5), keepdims=True)
    return CorrelationTable(Scheme.BROADCAST, (m,) * n, (o,) * n, probs.reshape(
        m, m, high * low, high * low))


def _unreachable_line(table, i):
    """Theorem 2's line for copy ``i``'s prefixes of zero probability at some input pair,
    summed from the table, or ``None`` when there are none."""
    m, o, n = table.input_arities[0], table.output_arities[0], table.n_copies
    low, high = o ** (i - 1), o ** (n - i + 1)
    prefix_prob = table.probs.reshape(m, m, high, low, high, low).sum(axis=(2, 4))
    bad = np.flatnonzero((prefix_prob == 0).any(axis=(0, 1)))
    return None if not len(bad) else (
        f"copy {i}: {len(bad)} prefixes unreachable (first: (a={bad[0] // low}, "
        f"b={bad[0] % low})) although the reference is strictly positive")


def test_theorem2_prints_no_correlators_for_a_copy_with_unreachable_prefixes():
    # Three copies that repeat copy 1's outputs: copy 2 is a point mass on
    # each reachable prefix, and copy 3's prefixes with differing copies 1
    # and 2 are unreachable, so only copy 2 prints conditional correlators,
    # and only for two outcomes.  Three outcomes pad their 36 terms to 64.
    for strategy in (fullstats_reference(0.1, 0.2), _qutrit_strategy()):
        m, o = strategy.m, strategy.o
        reference = single_copy_table(strategy)
        probs = np.zeros((m, m, o ** 3, o ** 3))
        for a, b in itertools.product(range(o), repeat=2):
            probs[:, :, a * (1 + o + o * o), b * (1 + o + o * o)] = reference.probs[:, :, a, b]
        table = CorrelationTable(Scheme.BROADCAST, (m,) * 3, (o,) * 3, probs)
        report = certify_theorem2(table, reference)
        deviations, lines = _theorem2_oracle(table, reference)
        assert report.verdict == "fail"
        assert [c.value for c in report.per_copy] == deviations[:2] + [1.0]
        assert [d for d in report.diagnostics if "correlator" in d] == lines
        pairs = list(itertools.product(range(m), repeat=2))
        assert [line.split(":")[0] for line in lines] == (
            [f"correlator({x},{y})" for x, y in pairs]
            + [f"conditional correlator({x},{y}) copy 2" for x, y in pairs] if o == 2 else [])
        assert f"copy 3: {o ** 4 - o ** 2} prefixes unreachable (first: (a=0, b=1)) although " \
               "the reference is strictly positive" in report.diagnostics
    # Random sparse tables: a prefix unreachable at some inputs has an unreachable
    # extension there, so every copy from the first with one has one, scores 1.0 and
    # prints no correlators, and the correlator lines stop at that copy.
    rng = np.random.default_rng(25)
    for _ in range(40):
        m, o = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        n = int(rng.integers(2, 5 if o == 2 else 4))
        first = int(rng.integers(2, n + 1))
        table = _sparse_broadcast_table(rng, m, o, n, first)
        reference = rng.uniform(0.1, 1.0, (m, m, o, o))
        reference = CorrelationTable(Scheme.BROADCAST, (m,), (o,),
                                     reference / reference.sum(axis=(2, 3), keepdims=True))
        report = certify_theorem2(table, reference)
        deviations, lines = _theorem2_oracle(table, reference)
        unreachable = [_unreachable_line(table, i) for i in range(2, n + 1)]
        assert [line is not None for line in unreachable] == [i >= first for i in range(2, n + 1)]
        assert [d for d in report.diagnostics if "unreachable" in d] == unreachable[first - 2:]
        assert deviations[first - 1:] == [None] * (n - first + 1)
        assert [c.value for c in report.per_copy] == (deviations[:first - 1]
                                                      + [1.0] * (n - first + 1))
        assert [d for d in report.diagnostics if "correlator" in d] == lines
        assert len(lines) == ((first - 1) * m * m if o == 2 else 0)
    # Entries may dip below zero by the table's tolerance, so a conditional can leave
    # [0, 1] on a prefix reachable at some inputs only: copy 2's prefix (0, 0) is
    # unreachable at (0, 0) and conditions to 1.5 and -0.5 at (1, 1).  Such a prefix
    # counts as unreachable, not in the deviation.
    probs = np.full((2, 2, 4, 4), 1 / 16)
    probs[0, 0], probs[1, 1] = 0.0, 0.0
    probs[0, 0, 1, 1] = probs[0, 0, 3, 3] = 0.5
    probs[1, 1, 0, 0], probs[1, 1, 2, 0] = 3e-12, -1e-12
    probs[1, 1, 1, 1] = probs[1, 1, 3, 3] = 0.5 - 1e-12
    table = CorrelationTable(Scheme.BROADCAST, (2, 2), (2, 2), probs)
    report = certify_theorem2(table, CorrelationTable(Scheme.BROADCAST, (2,), (2,),
                                                      np.full((2, 2, 2, 2), 0.25)))
    assert [c.value for c in report.per_copy] == [0.75, 1.0]
    assert "copy 2: 3 prefixes unreachable (first: (a=0, b=0)) although the reference is " \
           "strictly positive" in report.diagnostics


@pytest.mark.parametrize("case", ["theorem1-chsh6", "theorem3-mix6",
                                  "theorem2-fullstats(0.1,0.2)^5",
                                  "theorem2-fullstats(0.7,0.78)^6"])
def test_honest_tables_pass_at_the_cap(case):
    # What these certifications allocate are rows of tests/test_memory.py.
    run, _ = certification(case)
    assert run().verdict == "pass"


def test_theorem3_mixed_copies_pass_with_oracle_targets():
    tilted = tilted_chsh_expression(0.5)
    s = tilted_chsh_reference(0.5, tilted)
    beta2 = quantum_value_fixed_measurements(tilted, s).value
    table = compose([chsh_reference(), s], Scheme.BROADCAST)
    report = certify_theorem3(table, [chsh_expression(), tilted], [CHSH_MAX, beta2],
                              tol=1e-6)
    assert report.verdict == "pass"


def test_theorem3_swapped_copies_fail_both():
    tilted = tilted_chsh_expression(0.5)
    s = tilted_chsh_reference(0.5, tilted)
    beta2 = quantum_value_fixed_measurements(tilted, s).value
    table = compose([s, chsh_reference()], Scheme.BROADCAST)
    report = certify_theorem3(table, [chsh_expression(), tilted], [CHSH_MAX, beta2],
                              tol=1e-6)
    assert report.verdict == "fail"
    assert all(c.margin > 1e-2 for c in report.per_copy)
    # Copies composed in every other order than the expressions at n = 3 and
    # 4: each misplaced copy fails its expression, each copy in place passes.
    names = ["chsh", "tilted-chsh(0.5)", "tilted-chsh(1)", "tilted-chsh(1.5)"]
    strategies = [build_preset_strategy(*parse_strategy_spec(name)) for name in names]
    for n in (3, 4):
        exprs = [builtin_expression(name) for name in names[:n]]
        betas = [builtin_quantum_maximum(name) for name in names[:n]]
        for order in itertools.permutations(range(n)):
            if order == tuple(range(n)):
                continue
            table = compose([strategies[k] for k in order], Scheme.BROADCAST)
            report = certify_theorem3(table, exprs, betas)
            assert report.verdict == "fail", order
            for k, check in zip(order, report.per_copy):
                misplaced = k != check.index - 1
                assert (check.margin > 1e-2) if misplaced else (check.margin < 1e-12), \
                    (order, check)


@pytest.mark.parametrize("n", range(1, 6))
def test_theorem4_honest_percopy_passes_over_n(n):
    table = compose([chsh_reference()] * n, Scheme.PER_COPY)
    report = certify_theorem4(table, [chsh_expression()] * n, [CHSH_MAX] * n)
    assert report.verdict == "pass"
    assert all(c.margin < 1e-12 for c in report.per_copy)


@pytest.mark.parametrize("n", range(1, MAX_COPIES + 1))
def test_white_noise_fails_with_numeric_target_over_n(n):
    # A visibility just below 1 lowers every copy's value to nu * 2 sqrt(2):
    # theorem 1 fails at every supported n, theorem 4 up to n = 5 (a per-copy
    # table holds 8.4 MB at n = 5 and 134 MB at n = 6).
    for nu in (0.99, 0.999):
        noisy = [apply_isotropic_noise(chsh_reference(), nu)] * n
        reports = [certify_theorem1(compose(noisy, Scheme.BROADCAST), chsh_expression(),
                                    CHSH_MAX)]
        if n <= 5:
            reports.append(certify_theorem4(compose(noisy, Scheme.PER_COPY),
                                            [chsh_expression()] * n, [CHSH_MAX] * n))
        for report in reports:
            assert report.verdict == "fail", (nu, report)
            assert all(c.value == pytest.approx(nu * CHSH_MAX, abs=1e-9)
                       for c in report.per_copy), (nu, report)


def test_theorem4_honest_pair_passes():
    table = compose([chsh_reference()] * 2, Scheme.PER_COPY)
    report = certify_theorem4(table, [chsh_expression()] * 2, [CHSH_MAX] * 2,
                              tol=1e-8)
    assert report.verdict == "pass"
    assert all(c.margin <= 1e-9 for c in report.per_copy)


def test_theorem4_heterogeneous_targets():
    tilted = tilted_chsh_expression(0.5)
    s = tilted_chsh_reference(0.5, tilted)
    beta2 = quantum_value_fixed_measurements(tilted, s).value
    table = compose([chsh_reference(), s], Scheme.PER_COPY)
    report = certify_theorem4(table, [chsh_expression(), tilted], [CHSH_MAX, beta2],
                              tol=1e-6)
    assert report.verdict == "pass"


def _three_setting_strategy():
    from paraself.qcore import SIGMA_X, SIGMA_Z, maximally_entangled_ket, povm_from_observable
    from paraself.strategies import SingleCopyStrategy

    def obs(theta):
        return np.cos(theta) * SIGMA_Z + np.sin(theta) * SIGMA_X

    return SingleCopyStrategy(
        state=maximally_entangled_ket(2).density(),
        alice=tuple(povm_from_observable(obs(t)) for t in (0.0, np.pi / 2, np.pi / 4)),
        bob=tuple(povm_from_observable(obs(t)) for t in (np.pi / 8, -np.pi / 8, 3 * np.pi / 8)),
        m=3,
        o=2,
        label="three-setting",
    )


def test_theorem4_mixed_input_arities():
    from paraself.bell import BellExpression
    from reference import evaluate
    from paraself.strategies import single_copy_table

    s3 = _three_setting_strategy()
    rng = np.random.default_rng(11)
    expr3 = BellExpression(3, 2, rng.normal(size=(3, 3, 2, 2)), label="rand3in")
    targets = [
        evaluate(chsh_expression(), single_copy_table(chsh_reference())),
        evaluate(expr3, single_copy_table(s3)),
    ]
    table = compose([chsh_reference(), s3], Scheme.PER_COPY)
    assert table.input_arities == (2, 3)
    assert table.probs.shape == (6, 6, 4, 4)
    report = certify_theorem4(table, [chsh_expression(), expr3], targets, tol=1e-9)
    assert report.verdict == "pass"
    # Swapping the copy order leaves the expressions misaligned with the
    # per-copy arities.
    from paraself.errors import ShapeMismatch

    swapped = compose([s3, chsh_reference()], Scheme.PER_COPY)
    with pytest.raises(ShapeMismatch):
        certify_theorem4(swapped, [chsh_expression(), expr3], targets)


def test_theorem3_mixed_output_arities():
    from conftest import random_projective_povm, random_state
    from paraself.bell import BellExpression
    from reference import evaluate
    from paraself.strategies import SingleCopyStrategy, single_copy_table

    rng = np.random.default_rng(12)
    s3 = SingleCopyStrategy(
        random_state(3, 3, rng),
        tuple(random_projective_povm(3, rng) for _ in range(2)),
        tuple(random_projective_povm(3, rng) for _ in range(2)),
        m=2, o=3, label="qutrit",
    )
    expr3 = BellExpression(2, 3, rng.normal(size=(2, 2, 3, 3)), label="rand3out")
    targets = [
        evaluate(expr3, single_copy_table(s3)),
        2.0 * np.sqrt(2.0),
    ]
    table = compose([s3, chsh_reference()], Scheme.BROADCAST)
    report = certify_theorem3(table, [expr3, chsh_expression()], targets, tol=1e-9)
    assert report.verdict == "pass"


def test_theorem4_rejects_local_deterministic():
    dets = [
        local_deterministic([0, 0], [0, 1], o=2),
        local_deterministic([1, 0], [0, 0], o=2),
    ]
    table = compose(dets, Scheme.PER_COPY)
    report = certify_theorem4(table, [chsh_expression()] * 2, [CHSH_MAX] * 2)
    assert report.verdict == "fail"
    assert all(c.value <= 2.0 + 1e-9 for c in report.per_copy)


def _one_pair_percopy(n):
    """Per-copy table of one chsh pair that reads copy 1's inputs only, and whose outcomes
    every later copy repeats."""
    p1 = single_copy_table(chsh_reference()).probs
    x1 = np.arange(2 ** n) % 2  # copy 1's input, least significant in a joint input
    ones = 2 ** n - 1
    probs = np.zeros((2 ** n,) * 4)
    for a, b in itertools.product(range(2), repeat=2):
        probs[:, :, a * ones, b * ones] = p1[x1[:, None], x1[None, :], a, b]
    return CorrelationTable(Scheme.PER_COPY, (2,) * n, (2,) * n, probs)


@pytest.mark.parametrize("n", range(2, 6))
def test_theorem4_rejects_one_pair_repeated_over_n(n, tmp_path):
    # Copy 1 is the honest pair; a later copy's outcomes ignore its own inputs, so its
    # averaged value is 2 * (sum of copy 1's correlators) / 4 = 1/sqrt(2).
    table = _one_pair_percopy(n)
    report = certify_theorem4(table, [chsh_expression()] * n, [CHSH_MAX] * n)
    assert report.verdict == "fail"
    assert [c.value for c in report.per_copy] == pytest.approx(
        [CHSH_MAX] + [1 / np.sqrt(2)] * (n - 1), abs=1e-12)
    if n == 3:
        from click.testing import CliRunner

        from paraself.cli import main

        path = tmp_path / "table.json"
        path.write_text(json.dumps(table_to_json_dict(table)))
        result = CliRunner().invoke(main, ["certify", "--table", str(path), "--protocol",
                                           "theorem4", "--bell", "chsh",
                                           "--beta", "2.8284271247461903"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["verdict"] == "fail"


def test_theorem4_requires_percopy_scheme():
    table = compose([chsh_reference()] * 2, Scheme.BROADCAST)
    with pytest.raises(SchemeInputMismatch):
        certify_theorem4(table, [chsh_expression()] * 2, [CHSH_MAX] * 2)


def test_reports_are_deterministic():
    table = adversary_shared_randomness(3)
    first = certify_theorem1(table, chsh_expression(), CHSH_MAX)
    second = certify_theorem1(table, chsh_expression(), CHSH_MAX)
    assert first == second


def test_report_json_shape():
    table = compose([chsh_reference()] * 2, Scheme.BROADCAST)
    report = certify_theorem1(table, chsh_expression(), CHSH_MAX)
    data = report.to_json_dict()
    assert set(data) == {"verdict", "copies", "diagnostics"}
    assert [c["i"] for c in data["copies"]] == [1, 2]
    assert set(data["copies"][0]) == {"i", "value", "target", "margin"}


def test_sweep_noise_endpoints_and_linearity():
    rows = sweep_noise(chsh_reference(), 2, chsh_expression(),
                       [1.0, 0.0, 0.5, 0.25, 0.75])
    assert [r["nu"] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for row in rows:
        for value in row["j_values"]:
            assert value == pytest.approx(row["nu"] * CHSH_MAX, abs=1e-9)
    assert rows[-1]["j_values"] == pytest.approx([CHSH_MAX] * 2, abs=1e-9)
    assert rows[0]["j_values"][0] == pytest.approx(0.0, abs=1e-12)


def test_sweep_noise_nondecreasing_in_visibility():
    rows = sweep_noise(chsh_reference(), 2, chsh_expression(),
                       np.linspace(0, 1, 9))
    for i in range(2):
        values = [r["j_values"][i] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_sweep_noise_validates_arguments():
    with pytest.raises(ValueError):
        sweep_noise(chsh_reference(), 2, chsh_expression(), [1.2])
    with pytest.raises(SchemeInputMismatch):
        sweep_noise(chsh_reference(), 9, chsh_expression(), [0.5])


def test_sweep_noise_states_are_the_noise_channels_bit_for_bit(monkeypatch):
    # The sweep builds one stack of noisy states per batch; each equals the
    # state apply_isotropic_noise builds alone, and nu * rho + (1 - nu) * I/4
    # evaluated on its own, bit for bit.
    states, born = [], certify.born_tables

    def born_tables(s, rhos):
        states.extend(rhos)
        return born(s, rhos)

    monkeypatch.setattr(certify, "born_tables", born_tables)
    nus = sorted([k / 20 for k in range(21)] + [0.0, 1.0])
    for strategy in (chsh_reference(), tilted_chsh_reference(0.5, tilted_chsh_expression(0.5))):
        states.clear()
        assert len(sweep_noise(strategy, 2, builtin_expression("chsh"), nus)) == len(nus)
        rho = strategy.state.matrix
        for nu, state in zip(nus, states, strict=True):
            assert state.tobytes() == apply_isotropic_noise(strategy, nu).state.matrix.tobytes()
            assert state.tobytes() == (nu * rho + (1.0 - nu) * np.eye(4) / 4.0).tobytes()


@pytest.mark.parametrize("budget,batches", [("module", 1), (1024, 6)])
def test_sweep_noise_validates_each_batch_once(monkeypatch, budget, batches):
    # One check of the stacked tables per batch (four visibilities per batch
    # at n = 2 under the small budget), and no table object per visibility.
    if budget != "module":
        monkeypatch.setattr(certify, "_SWEEP_BATCH", budget)
    stacks, check = [], certify._check_probs
    monkeypatch.setattr(certify, "_check_probs",
                        lambda probs: stacks.append(len(probs)) or check(probs))
    built = []
    monkeypatch.setattr(CorrelationTable, "__post_init__",
                        lambda self, copy=True: built.append(self))
    nus = [k / 20 for k in range(21)]
    assert len(sweep_noise(chsh_reference(), 2, chsh_expression(), nus)) == 21
    assert len(stacks) == batches and sum(stacks) == 21
    assert built == []


def test_sweep_noise_checks_visibilities_before_the_dimension(rng):
    qutrits = random_strategy(rng, m=2, o=3)
    expr = BellExpression(2, 3, np.ones((2, 2, 3, 3)))
    with pytest.raises(ValueError, match=r"^visibility 1\.5 outside \[0, 1\]$"):
        sweep_noise(qutrits, 2, expr, [0.5, 1.5])
    with pytest.raises(UnsupportedDimension):
        sweep_noise(qutrits, 2, expr, [0.5])
    assert sweep_noise(qutrits, 2, expr, []) == []


def _sweep_loop(strategy, n, expr, nus):
    """The per-visibility sweep: compose, validate and evaluate one table per
    visibility."""
    rows = []
    for nu in sorted(float(v) for v in nus):
        table = compose([apply_isotropic_noise(strategy, nu)] * n, Scheme.BROADCAST)
        rows.append({"nu": nu, "j_values": [j_value(table, [expr] * n, i)
                                            for i in range(1, n + 1)]})
    return rows


def _outcome(call, *args):
    """Rows, or the type, message and fields of the ZeroPrefixProbability raised."""
    try:
        return call(*args)
    except ZeroPrefixProbability as exc:
        return type(exc), str(exc), vars(exc)


@functools.lru_cache(maxsize=None)
def _sweep_reference(spec, n):
    return _sweep_loop(build_preset_strategy(*parse_strategy_spec(spec)), n,
                       builtin_expression("chsh"), SWEEP_NUS)


# Unsorted, with duplicates, both endpoints and -0.0; 20 visibilities are more
# than one batch holds at n = 5 (and at every n under the small budget).
SWEEP_NUS = [0.35, 1.0, 0.0, 0.8, 0.35, 0.05, 1.0, 0.6, 0.999, 0.2,
             0.0, 0.45, 0.9, 0.125, -0.0, 0.7, 0.35, 0.55, 0.3, 0.95]


@pytest.mark.parametrize("budget", ["module", 2048])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("spec", ["chsh", "tilted-chsh(0.5)", "fullstats(0.1,0.2)"])
def test_sweep_noise_equals_per_visibility_loop(monkeypatch, spec, n, budget):
    # Batched rows are the loop's bit for bit, whatever the batch boundaries.
    if budget != "module":
        monkeypatch.setattr(certify, "_SWEEP_BATCH", budget)
    batches, born = [], certify.born_tables

    def born_tables(s, rhos):
        batches.append(len(rhos))
        return born(s, rhos)

    monkeypatch.setattr(certify, "born_tables", born_tables)
    strategy = build_preset_strategy(*parse_strategy_spec(spec))
    rows = sweep_noise(strategy, n, builtin_expression("chsh"), SWEEP_NUS)
    reference = _sweep_reference(spec, n)
    assert rows == reference
    assert repr(rows) == repr(reference)  # also the sign of every zero
    assert sum(batches) == len(SWEEP_NUS)
    if budget != "module" or n == 5:
        assert len(batches) > 1


def _product_state_strategy():
    """|00> measured in Z and X by both parties: at full visibility every
    prefix with a Z outcome 1 has probability exactly 0."""
    povms = (povm_from_observable(SIGMA_Z), povm_from_observable(SIGMA_X))
    return SingleCopyStrategy(state=Ket([1.0, 0.0, 0.0, 0.0]).density(),
                              alice=povms, bob=povms, m=2, o=2, label="product")


@pytest.mark.parametrize("budget", ["module", 1])
@pytest.mark.parametrize("strategy,n,nus", [
    (_product_state_strategy(), 3, [1.0, 0.5, 0.0, 1.0, 0.9]),
    # Two undefined visibilities (both 1, exact zeros) share the first of two batches with
    # the defined 0 and 0.3, which come first.
    (_product_state_strategy(), 6, [1.0, 0.3, 1.0, 0.0, 1.0]),
])
def test_sweep_noise_raises_the_loops_first_undefined_prefix(monkeypatch, strategy, n, nus,
                                                             budget):
    if budget != "module":
        monkeypatch.setattr(certify, "_SWEEP_BATCH", budget)
    expr = chsh_expression()
    expected = _outcome(_sweep_loop, strategy, n, expr, nus)
    assert isinstance(expected, tuple)
    assert _outcome(sweep_noise, strategy, n, expr, nus) == expected


def test_sweep_noise_memory_does_not_grow_with_visibilities(monkeypatch):
    # The kernel passes of 2,001 visibilities at n = 6 take seconds (about
    # 20 s under tracemalloc), so the kernel is replaced by a stub that
    # records how many tables it is handed at once; what is traced is the
    # sweep's own batching: states, Born rule, product, validated tables, rows.
    stacks = []

    def means(probs, scheme, ia, oa, exprs):
        stacks.append(len(probs))
        return [[(float(k + i), None) for i in range(1, len(exprs) + 1)]
                for k in range(len(probs))]

    monkeypatch.setattr(certify, "_stack_means", means)
    peaks, largest = [], []
    for count in (21, 2001):
        nus = [k / (count - 1) for k in range(count)]
        rows = []
        peaks.append(traced_peak(lambda: rows.extend(
            sweep_noise(chsh_reference(), 6, chsh_expression(), nus))))
        assert len(rows) == count
        largest.append(max(stacks))
        stacks.clear()
    assert largest[1] == largest[0] < 21
    assert peaks[1] <= 2 * peaks[0]


def test_certify_file_roundtrip_identical_report():
    import json

    table = compose([chsh_reference()] * 2, Scheme.BROADCAST)
    reread = table_from_json_dict(
        json.loads(json.dumps(table_to_json_dict(table)))
    )
    direct = certify_theorem1(table, chsh_expression(), CHSH_MAX)
    loaded = certify_theorem1(reread, chsh_expression(), CHSH_MAX)
    assert json.dumps(direct.to_json_dict()) == json.dumps(loaded.to_json_dict())


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_certifiers_reject_unusable_tol(tol):
    # A NaN tol would pass every table, since no margin compares above NaN.
    broadcast = compose([chsh_reference()] * 2, Scheme.BROADCAST)
    percopy = compose([chsh_reference()] * 2, Scheme.PER_COPY)
    reference = single_copy_table(chsh_reference())
    ce = chsh_expression()
    calls = (
        lambda: certify_theorem1(broadcast, ce, CHSH_MAX, tol),
        lambda: certify_theorem2(broadcast, reference, tol),
        lambda: certify_theorem3(broadcast, [ce] * 2, [CHSH_MAX] * 2, tol),
        lambda: certify_theorem4(percopy, [ce] * 2, [CHSH_MAX] * 2, tol),
    )
    for call in calls:
        with pytest.raises(ValueError, match="tol"):
            call()


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), float("-inf")])
def test_certifiers_reject_non_finite_targets(beta):
    broadcast = compose([apply_isotropic_noise(chsh_reference(), 0.5)] * 3, Scheme.BROADCAST)
    percopy = compose([chsh_reference()] * 2, Scheme.PER_COPY)
    ce = chsh_expression()
    calls = (
        lambda: certify_theorem1(broadcast, ce, beta),
        lambda: certify_theorem3(broadcast, [ce] * 3, [CHSH_MAX, beta, CHSH_MAX]),
        lambda: certify_theorem4(percopy, [ce] * 2, [beta, CHSH_MAX]),
    )
    for call in calls:
        with pytest.raises(ValueError, match="targets"):
            call()
