"""Command-line interface: subcommands, file formats, exit codes."""

import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from paraself import bell, certify, cli, strategies
from paraself.bell import (
    CorrelationTable,
    Scheme,
    chsh_expression,
    table_to_json_chunks,
    table_to_json_dict,
)
from paraself.certify import certify_theorem1
from paraself.cli import main
from paraself.errors import ConfigError
from paraself.strategies import chsh_reference, compose

from reference import expression_to_json_dict, local_deterministic

CHSH_MAX = 2.0 * np.sqrt(2.0)
BETA = "2.8284271247461903"


@pytest.fixture
def runner():
    return CliRunner()


def _simulate(runner, tmp_path, *args):
    out = tmp_path / "table.json"
    result = runner.invoke(main, ["simulate", "--out", str(out), *args])
    assert result.exit_code == 0, result.output
    return out, json.loads(out.read_text())


def test_simulate_writes_normalized_table(runner, tmp_path):
    _, data = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "2",
                        "--scheme", "broadcast")
    assert data["n_copies"] == 2
    assert data["scheme"] == "broadcast"
    assert data["encoding"] == "mixed-radix-copy1-lsd"
    probs = np.asarray(data["probs"])
    assert probs.shape == (2, 2, 4, 4)
    assert np.max(np.abs(probs.sum(axis=(2, 3)) - 1.0)) <= 1e-10


def test_simulate_adversary_copy_zero_rows(runner, tmp_path):
    _, data = _simulate(runner, tmp_path, "--strategy", "adversary-copy",
                        "--copies", "2")
    probs = np.asarray(data["probs"])
    # Joint output (a1, a2) = (0, 1) encodes to 2 and never occurs.
    assert np.all(probs[:, :, 2, :] == 0.0)
    assert np.all(probs[:, :, 1, :] == 0.0)


def test_simulate_noise_scales_first_copy_value(runner, tmp_path):
    out, data = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "2",
                          "--noise", "0.9")
    from paraself.bell import table_from_json_dict
    from reference import j_value

    table = table_from_json_dict(data)
    assert j_value(table, [chsh_expression()] * 2, 1) == pytest.approx(
        0.9 * CHSH_MAX, abs=1e-9
    )
    assert data["provenance"]["noise"] == 0.9


def test_simulate_rejects_unknown_strategy(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "--strategy", "bogus"])
    assert result.exit_code == 2
    assert result.output.startswith("error: config:")


def test_simulate_rejects_conflicting_copies(runner):
    result = runner.invoke(main, [
        "simulate", "--strategy", "chsh", "--strategy", "chsh", "--copies", "3",
    ])
    assert result.exit_code == 2
    assert "--copies" in result.output


def test_simulate_rejects_fractional_adversary_copies(runner):
    result = runner.invoke(main, ["simulate", "--strategy", "adversary-copy(2.7)"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: config:")


def test_simulate_rejects_oversized_composition(runner):
    result = runner.invoke(main, ["simulate", "--strategy", "chsh", "--copies", "7"])
    assert result.exit_code == 3
    assert result.output.startswith("error: composition:")


COPIES_COMMANDS = {"simulate": ["simulate", "--strategy", "chsh"],
                   "sweep": ["sweep", "--strategy", "chsh", "--nus", "0,1"]}


@pytest.mark.parametrize("command", sorted(COPIES_COMMANDS))
@pytest.mark.parametrize("copies, code, line", [
    (0, 2, "error: config: --copies: copy count must be >= 1, got 0"),
    (-3, 2, "error: config: --copies: copy count must be >= 1, got -3"),
    (7, 3, "error: composition: 7 copies exceed the cap of 6"),
], ids=["0", "-3", "7"])
def test_copies_out_of_range_same_for_every_command(runner, command, copies, code, line):
    """One copy-count check: below 1 is an option error, above the cap a
    composition error, worded alike by every command."""
    result = runner.invoke(main, [*COPIES_COMMANDS[command], "--copies", str(copies)])
    assert result.exit_code == code
    assert result.stdout == ""
    assert result.stderr == line + "\n"


def test_certify_pass_fail_exit_codes(runner, tmp_path):
    honest, _ = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "2")
    result = runner.invoke(main, [
        "certify", "--table", str(honest), "--protocol", "theorem1",
        "--bell", "chsh", "--beta", "2.8284271247461903",
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["verdict"] == "pass"

    adv = tmp_path / "adv.json"
    result = runner.invoke(main, ["simulate", "--strategy", "adversary-copy(2)",
                                  "--out", str(adv)])
    assert result.exit_code == 0
    result = runner.invoke(main, [
        "certify", "--table", str(adv), "--protocol", "theorem1",
        "--bell", "chsh", "--beta", "2.8284271247461903",
    ])
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["verdict"] == "fail"
    assert any("copy 2" in d for d in report["diagnostics"])


def test_certify_precondition_exit_code(runner, tmp_path):
    det = local_deterministic([0, 0], [0, 0], o=2)
    table = compose([det, det], Scheme.BROADCAST)
    path = tmp_path / "det.json"
    path.write_text(json.dumps(table_to_json_dict(table)))
    result = runner.invoke(main, [
        "certify", "--table", str(path), "--protocol", "theorem1",
        "--bell", "chsh", "--beta", "2.0",
    ])
    assert result.exit_code == 4
    assert json.loads(result.output)["verdict"] == "precondition-violated"


def test_certify_malformed_file_reports_pointer(runner, tmp_path):
    honest, data = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "2")
    data["probs"][0][0][0][0] = 2.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, [
        "certify", "--table", str(bad), "--protocol", "theorem1",
        "--bell", "chsh", "--beta", "2.8",
    ])
    assert result.exit_code == 2
    assert result.output.startswith("error: input:")
    assert "/probs/0/0" in result.output


def test_certify_empty_arities_is_input_error(runner, tmp_path):
    _, data = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "1")
    data["input_arities"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, [
        "certify", "--table", str(bad), "--protocol", "theorem1",
        "--bell", "chsh", "--beta", "2.8",
    ])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: input:")


def test_certify_theorem2_via_reference_file(runner, tmp_path):
    honest, _ = _simulate(runner, tmp_path, "--strategy",
                          "fullstats(0.7853981633974483,0.5235987755982988)",
                          "--copies", "2")
    ref = tmp_path / "ref.json"
    result = runner.invoke(main, [
        "simulate", "--strategy", "fullstats(0.7853981633974483,0.5235987755982988)",
        "--copies", "1", "--out", str(ref),
    ])
    assert result.exit_code == 0
    result = runner.invoke(main, [
        "certify", "--table", str(honest), "--protocol", "theorem2",
        "--reference", str(ref),
    ])
    assert result.exit_code == 0, result.output


def test_certify_theorem3_oracle_betas_from_expressions(runner, tmp_path):
    table, _ = _simulate(runner, tmp_path, "--strategy", "chsh",
                         "--strategy", "tilted-chsh(0.5)")
    result = runner.invoke(main, [
        "certify", "--table", str(table), "--protocol", "theorem3",
        "--bell", "chsh", "--bell", " tilted-chsh(0.5) ",
        "--beta", "oracle", "--tol", "1e-6",
    ])
    assert result.exit_code == 0, result.output
    # Each target is the closed-form maximum of its expression.
    targets = [c["target"] for c in json.loads(result.stdout)["copies"]]
    assert targets == [np.sqrt(8.0), np.sqrt(8.5)]


def _lying_provenance_table(runner, tmp_path, n=3):
    """A noisy chsh^n table whose provenance names, for every copy, the tilted
    strategy whose CHSH value with those measurements is the noisy value."""
    table, data = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", str(n),
                            "--noise", "0.9")
    lie = {"name": "tilted-chsh", "params": [1.7715550342423128]}
    data["provenance"] = {"strategies": [lie] * n, "noise": None}
    table.write_text(json.dumps(data, indent=2))
    return table, data


@pytest.mark.parametrize("n", [2, 3, 6])
def test_certify_oracle_ignores_lying_provenance(runner, tmp_path, n):
    # The file being judged must not choose its own target.
    table, _ = _lying_provenance_table(runner, tmp_path, n)
    result = runner.invoke(main, ["certify", "--table", str(table), "--protocol", "theorem1",
                                  "--bell", "chsh", "--beta", "oracle"])
    assert result.exit_code == 1, result.output
    report = json.loads(result.stdout)
    assert report["verdict"] == "fail"
    assert [c["target"] for c in report["copies"]] == [2.8284271247461903] * n


def test_certify_output_does_not_depend_on_provenance(runner, tmp_path):
    table, data = _lying_provenance_table(runner, tmp_path)
    args = ["certify", "--table", str(table), "--protocol", "theorem3", "--bell", "chsh",
            "--beta", "oracle"]
    outputs = []
    for provenance in ({"strategies": [{"name": "chsh", "params": []}] * 3, "noise": 0.9},
                       data["provenance"], {}, "garbage", [1, None], 7):
        table.write_text(json.dumps({**data, "provenance": provenance}))
        result = runner.invoke(main, args)
        outputs.append((result.exit_code, result.stdout, result.stderr))
    assert outputs[0][0] == 1
    assert outputs == [outputs[0]] * len(outputs)


@pytest.mark.parametrize("bell", ["expression-file", "tilted-chsh(2)", "tilted-chsh(-0.1)"])
def test_certify_oracle_needs_a_closed_form(runner, tmp_path, bell):
    table, _ = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "2")
    if bell == "expression-file":
        bell = tmp_path / "chsh-expr.json"
        bell.write_text(json.dumps(expression_to_json_dict(chsh_expression())))
    result = runner.invoke(main, ["certify", "--table", str(table), "--protocol", "theorem3",
                                  "--bell", str(bell), "--beta", "oracle"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: config: --beta: oracle: ")
    assert result.stderr.endswith("give the target as a number\n")
    assert len(result.stderr.splitlines()) == 1


def test_certify_oracle_beta_with_replicated_copies(runner, tmp_path):
    table, data = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "3")
    assert len(data["provenance"]["strategies"]) == 3
    result = runner.invoke(main, [
        "certify", "--table", str(table), "--protocol", "theorem1",
        "--bell", "chsh", "--beta", "oracle",
    ])
    assert result.exit_code == 0, result.output


def test_certify_theorem4_percopy(runner, tmp_path):
    table, _ = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "2",
                         "--scheme", "percopy")
    result = runner.invoke(main, [
        "certify", "--table", str(table), "--protocol", "theorem4",
        "--bell", "chsh", "--beta", "2.8284271247461903",
    ])
    assert result.exit_code == 0, result.output


def test_certify_rejects_protocol_irrelevant_flags(runner, tmp_path):
    table, _ = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "2")
    ref = tmp_path / "ref.json"
    result = runner.invoke(main, ["simulate", "--strategy", "chsh", "--copies", "1",
                                  "--out", str(ref)])
    assert result.exit_code == 0
    result = runner.invoke(main, [
        "certify", "--table", str(table), "--protocol", "theorem1",
        "--bell", "chsh", "--beta", "2.8", "--reference", str(ref),
    ])
    assert result.exit_code == 2
    assert "--reference" in result.output
    result = runner.invoke(main, [
        "certify", "--table", str(table), "--protocol", "theorem2",
        "--reference", str(ref), "--bell", "chsh",
    ])
    assert result.exit_code == 2


def test_certify_roundtrip_matches_in_memory(runner, tmp_path):
    path, data = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "2")
    report_path = tmp_path / "report.json"
    result = runner.invoke(main, [
        "certify", "--table", str(path), "--protocol", "theorem1",
        "--bell", "chsh", "--beta", "2.8284271247461903", "--out", str(report_path),
    ])
    assert result.exit_code == 0
    in_memory = certify_theorem1(
        compose([chsh_reference()] * 2, Scheme.BROADCAST),
        chsh_expression(), 2.8284271247461903,
    )
    assert json.loads(report_path.read_text()) == in_memory.to_json_dict()


def test_simulate_output_is_deterministic(runner, tmp_path):
    first, _ = _simulate(runner, tmp_path, "--strategy", "tilted-chsh(0.5)",
                         "--copies", "2")
    text_first = first.read_text()
    second = tmp_path / "again.json"
    result = runner.invoke(main, ["simulate", "--strategy", "tilted-chsh(0.5)",
                                  "--copies", "2", "--out", str(second)])
    assert result.exit_code == 0
    assert second.read_text() == text_first


def test_simulate_percopy_file_matches_stdlib_encoder(runner, tmp_path):
    from paraself.bell import table_from_json_dict

    out, data = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "3",
                          "--scheme", "percopy")
    table = table_from_json_dict(data)
    expected = json.dumps(table_to_json_dict(table, data["provenance"]), indent=2) + "\n"
    assert out.read_bytes() == expected.encode()


def test_bounds_chsh(runner):
    result = runner.invoke(main, ["bounds", "--bell", "chsh"])
    assert result.exit_code == 0
    assert "classical 2" in result.output
    assert "quantum 2.828427125" in result.output


def test_bounds_game(runner):
    result = runner.invoke(main, ["bounds", "--bell", "chsh-game"])
    assert result.exit_code == 0
    assert "classical 0.75" in result.output
    assert "quantum 0.8535533906" in result.output


@pytest.mark.parametrize("spec,quantum", [(" chsh", "2.828427125"),
                                          (" tilted-chsh(0.5)", "2.915475947")])
def test_bounds_default_strategy_from_stripped_spec(runner, spec, quantum):
    # The reference strategy is chosen from the same parse that resolves the
    # expression, so surrounding spaces do not drop the quantum line.
    result = runner.invoke(main, ["bounds", "--bell", spec])
    assert result.exit_code == 0, result.output
    assert result.stdout == runner.invoke(main, ["bounds", "--bell", spec.strip()]).stdout
    assert result.stdout.splitlines()[1] == f"quantum {quantum}"


@pytest.mark.parametrize("tilt", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("args,option", [
    (["simulate", "--strategy", "tilted-chsh({})"], "--strategy"),
    (["sweep", "--copies", "2", "--strategy", "tilted-chsh({})", "--nus", "0,1"], "--strategy"),
    (["bounds", "--bell", "chsh", "--strategy", "tilted-chsh({})"], "--strategy"),
    (["bounds", "--bell", "tilted-chsh({})"], "--bell"),
    (["sweep", "--copies", "2", "--bell", "tilted-chsh({})", "--nus", "0,1"], "--bell"),
])
def test_a_non_finite_tilt_is_named(runner, args, option, tilt):
    # The expression is built before any range check on the tilt, so the tilt
    # is checked where the expression is, not reported as bad coefficients.
    result = runner.invoke(main, [a.format(tilt) for a in args])
    assert result.exit_code == 2
    assert result.output == f"error: config: {option}: tilt parameter {tilt} is not finite\n"


@pytest.mark.parametrize("tilt", ["1e308", "-1e308", "2", "-0.5"])
@pytest.mark.parametrize("args", [
    ["simulate", "--strategy", "tilted-chsh({})"],
    ["sweep", "--copies", "2", "--strategy", "tilted-chsh({})", "--nus", "0,1"],
    ["bounds", "--bell", "chsh", "--strategy", "tilted-chsh({})"],
])
def test_an_out_of_range_tilt_is_named_on_every_strategy_path(runner, args, tilt):
    # The range is checked before the expression is built, which a huge tilt
    # overflows; under --bell any finite tilt is an expression, so a huge one
    # is named as too large for its coefficients.
    result = runner.invoke(main, [a.format(tilt) for a in args])
    assert result.exit_code == 2
    assert result.output == (f"error: config: --strategy: tilt parameter {float(tilt)} "
                             "outside [0, 2)\n")
    result = runner.invoke(main, ["bounds", "--bell", f"tilted-chsh({tilt})"])
    if abs(float(tilt)) > 2:
        assert result.exit_code == 2
        assert result.output == (f"error: config: --bell: tilt parameter {float(tilt)} too "
                                 "large: absolute coefficients sum to more than 2**960\n")


@pytest.mark.parametrize("spec,classical", [("tilted-chsh(2)", "4"),
                                             ("tilted-chsh(-0.5)", "2.5")])
def test_bounds_tilt_without_reference_prints_classical_only(runner, tmp_path, spec, classical):
    # The classical bound exists for any tilt; the reference strategy only
    # for 0 <= alpha < 2, so these print and serialize the classical line alone.
    result = runner.invoke(main, ["bounds", "--bell", spec])
    assert result.exit_code == 0, result.output
    assert result.stdout == f"classical {classical}\n"
    out = tmp_path / "bounds.json"
    result = runner.invoke(main, ["bounds", "--bell", spec, "--witness", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[0] == f"classical {classical}"
    assert list(json.loads(result.stdout.split("\n", 1)[1])) == ["classical"]
    payload = json.loads(out.read_text())
    assert list(payload) == ["classical"]
    assert payload["classical"]["value"] == float(classical)


def test_bounds_custom_zero_expression(runner, tmp_path):
    from paraself.bell import BellExpression

    path = tmp_path / "zero.json"
    expr = BellExpression(2, 2, np.zeros((2, 2, 2, 2)), label="zero")
    path.write_text(json.dumps(expression_to_json_dict(expr)))
    result = runner.invoke(main, ["bounds", "--bell", str(path),
                                  "--strategy", "chsh"])
    assert result.exit_code == 0
    assert "classical 0" in result.output
    assert "quantum 0" in result.output


def test_bounds_witness_serialization(runner):
    result = runner.invoke(main, ["bounds", "--bell", "chsh", "--witness"])
    assert result.exit_code == 0
    payload = json.loads(result.output.split("\n", 2)[2])
    assert payload["classical"]["kind"] == "deterministic-assignment"
    assert payload["quantum"]["kind"] == "eigenvector"


def test_bounds_enumeration_too_large(runner, tmp_path):
    from paraself.bell import BellExpression

    m, o = 14, 2
    path = tmp_path / "big.json"
    expr = BellExpression(m, o, np.zeros((m, m, o, o)), label="big")
    path.write_text(json.dumps(expression_to_json_dict(expr)))
    result = runner.invoke(main, ["bounds", "--bell", str(path)])
    assert result.exit_code == 3
    assert result.output.startswith("error: enumeration:")


def test_sweep_single_visibility(runner):
    result = runner.invoke(main, ["sweep", "--strategy", "chsh", "--copies", "2",
                                  "--nus", "1.0"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "nu,J1,J2"
    assert lines[1] == "1,2.82842712475,2.82842712475"


def test_sweep_zero_and_half(runner):
    result = runner.invoke(main, ["sweep", "--strategy", "chsh", "--copies", "2",
                                  "--nus", "0.0,0.5"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[1].startswith("0,0,0")
    assert lines[2] == "0.5,1.41421356237,1.41421356237"


def test_sweep_range_syntax(runner):
    result = runner.invoke(main, ["sweep", "--strategy", "chsh", "--copies", "2",
                                  "--nus", "0:1:0.25"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 6
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.25", "0.5", "0.75", "1"]


def test_sweep_rejects_malformed_range(runner):
    # 0:1:1e-9 would expand to 10^9 visibilities; it must be refused up front.
    for nus in ("0:1:0:5", "0:1:1e-9"):
        result = runner.invoke(main, ["sweep", "--strategy", "chsh", "--copies", "2",
                                      "--nus", nus])
        assert result.exit_code == 2
        assert result.output.startswith("error: config:")
        assert len(result.output.splitlines()) == 1


@pytest.mark.parametrize("nus,line", [
    ("nan:1:0.1", "range start nan is not finite"),
    ("-inf:1:0.1", "range start -inf is not finite"),
    ("0:inf:0.1", "range stop inf is not finite"),
    ("0:1:nan", "range step nan is not finite"),
    ("0:1:-inf", "range step -inf is not finite"),
    ("0:1:1e-9", "range has more than 10001 points"),
    ("-1e308:1e308:1e-300", "range has more than 10001 points"),
])
def test_sweep_names_a_non_finite_range_value(runner, nus, line):
    # A NaN step passes a positivity test and a NaN or infinite bound makes
    # the point count NaN or infinite, so each is named before the count.
    result = runner.invoke(main, ["sweep", "--strategy", "chsh", "--copies", "2",
                                  "--nus", nus])
    assert result.exit_code == 2
    assert result.output == f"error: config: --nus: {line}\n"


def test_error_lines_are_single_machine_parseable(runner):
    result = runner.invoke(main, ["simulate", "--strategy", "fullstats(2.0,0.1)"])
    assert result.exit_code == 3
    lines = [l for l in result.output.splitlines() if l]
    assert len(lines) == 1
    assert lines[0].startswith("error: ")


@pytest.mark.parametrize("option,value", [
    ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"),
    ("--beta", "nan"), ("--beta", "inf"),
])
def test_certify_rejects_non_finite_tol_and_beta(runner, tmp_path, option, value):
    # The table fails at the default tol, so only a NaN could make it pass.
    table, _ = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "3",
                         "--noise", "0.5")
    args = {"--tol": "1e-8", "--beta": "2.8284271247461903", option: value}
    result = runner.invoke(main, [
        "certify", "--table", str(table), "--protocol", "theorem1", "--bell", "chsh",
        "--beta", args["--beta"], "--tol", args["--tol"],
    ])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: config: {option}: ")
    assert len(result.stderr.splitlines()) == 1


_THEOREM3 = ["certify", "--table", "{table}", "--protocol", "theorem3"]


@pytest.mark.parametrize("args,option,owner,text", [
    (["certify", "--table", "{table}", "--protocol", "theorem1", "--bell", "chsh",
      "--beta", BETA, "--tol", "nan"],
     "--tol", lambda: certify._check_tol(math.nan), "tol must be finite and non-negative, got nan"),
    (["simulate", "--strategy", "chsh", "--copies", "2", "--noise", "1.5"],
     "--noise", lambda: strategies.check_visibilities([1.5]), "visibility 1.5 outside [0, 1]"),
    (["sweep", "--copies", "2", "--nus", "0,1.5"],
     "--nus", lambda: strategies.check_visibilities([0.0, 1.5]), "visibility 1.5 outside [0, 1]"),
    (["sweep", "--copies", "2", "--nus", "0:2:1"],
     "--nus", lambda: strategies.check_visibilities([0.0, 1.0, 2.0]),
     "visibility 2.0 outside [0, 1]"),
    (_THEOREM3 + ["--bell", "chsh", "--bell", "chsh", "--beta", BETA],
     "--bell", lambda: cli._each_copy("--bell", [0, 0], 3, "expressions"),
     "2 expressions for 3 copies"),
    (_THEOREM3 + ["--bell", "chsh", "--beta", BETA, "--beta", BETA],
     "--beta", lambda: cli._each_copy("--beta", [0, 0], 3, "targets"), "2 targets for 3 copies"),
    (_THEOREM3 + ["--bell", "chsh", "--beta", "inf"],
     "--beta", lambda: certify._check_targets(compose([chsh_reference()] * 3, Scheme.BROADCAST),
                                              [math.inf] * 3, certify.DEFAULT_TOL),
     "targets must be finite, got [inf, inf, inf]"),
    (["simulate", "--strategy", "chsh", "--strategy", "chsh", "--strategy", "chsh",
      "--copies", "2"],
     "--copies", lambda: cli._each_copy("--copies", [0, 0, 0], 2, "strategies"),
     "3 strategies for 2 copies"),
], ids=["tol", "noise", "nus-list", "nus-range", "bell-count", "beta-count", "beta-finite",
        "copies-count"])
def test_each_option_rule_is_reported_in_its_owners_words(runner, tmp_path, args, option,
                                                          owner, text):
    # The CLI reaches each rule through the one function that owns it, so the
    # error line carries that function's own message after the option.
    with pytest.raises((ValueError, ConfigError)) as info:
        owner()
    if isinstance(info.value, ConfigError):
        assert info.value.field == option
        assert str(info.value) == f"{option}: {text}"
    else:
        assert str(info.value) == text
    table, _ = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "3")
    result = runner.invoke(main, [a.format(table=table) for a in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: config: {option}: {text}\n"


@pytest.mark.parametrize("option,extra", [
    ("--bell", ["--bell", "chsh-game", "--beta", "0.1"]),
    ("--beta", ["--beta", "0.1"]),
])
def test_certify_theorem1_takes_one_expression_and_target(runner, tmp_path, option, extra):
    # Theorem 1 has one expression and one target for every copy; a second
    # --bell or --beta used to be ignored, so this pair printed pass.
    table, _ = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "2")
    base = ["certify", "--table", str(table), "--protocol", "theorem1", "--bell", "chsh",
            "--beta", "2.8284271247461903"]
    result = runner.invoke(main, base + extra)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: config: {option}: theorem1 takes one value")
    assert len(result.stderr.splitlines()) == 1
    oracle = runner.invoke(main, base[:-1] + ["oracle"])
    assert oracle.exit_code == 0, oracle.output


def _trivial_table(scheme: str, n: int) -> dict:
    """The valid ``n``-copy table with one input and one output per copy."""
    return {"n_copies": n, "scheme": scheme, "input_arities": [1] * n,
            "output_arities": [1] * n, "probs": [[[[1.0]]]]}


def test_a_percopy_file_with_more_copies_than_the_walk_indexes_is_an_input_error(
        runner, tmp_path):
    # The per-copy walk lays a chunk out on 2n + 1 axes, more than numpy
    # allows at 32 copies; such a file used to exit 1 with a traceback.
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"m": 1, "o": 1, "coeffs": [[[[1.0]]]]}))
    table = tmp_path / "table.json"
    for scheme, protocol, n in (("percopy", "theorem4", 31), ("broadcast", "theorem1", 32),
                                ("broadcast", "theorem1", 2000)):
        table.write_text(json.dumps(_trivial_table(scheme, n)))
        result = runner.invoke(main, ["certify", "--table", str(table), "--protocol", protocol,
                                      "--bell", str(one), "--beta", "1"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["verdict"] == "pass"
    limit = bell._PERCOPY_MAX_COPIES
    table.write_text(json.dumps(_trivial_table("percopy", limit + 1)))
    result = runner.invoke(main, ["certify", "--table", str(table), "--protocol", "theorem4",
                                  "--bell", str(one), "--beta", "1"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (f"error: input: /n_copies: a per-copy table holds at most "
                             f"{limit} copies\n")


def _probs_bits(data: dict) -> np.ndarray:
    return np.array(data["probs"], dtype=float).view(np.uint64)


def _loads_spy(monkeypatch) -> list:
    """The keyword names and text length of each ``json.loads`` call the CLI makes."""
    calls, loads = [], json.loads

    def spy(text, **kw):
        calls.append((sorted(kw), len(text)))
        return loads(text, **kw)

    monkeypatch.setattr(cli.json, "loads", spy)
    return calls


def test_reading_a_composed_table_parses_each_distinct_row_once(runner, tmp_path, monkeypatch):
    # The row path hands json.loads each distinct row's text once, a small
    # share of the file, and its array is bit for bit that of a plain parse.
    out, plain = _simulate(runner, tmp_path, "--strategy", "chsh", "--copies", "4",
                           "--scheme", "percopy", "--noise", "0.9")
    calls = _loads_spy(monkeypatch)
    data = cli._read_rows(out)
    assert data["probs"].dtype == np.float64 and data["probs"].flags.c_contiguous
    assert np.array_equal(data["probs"].view(np.uint64), _probs_bits(plain))
    assert {k: v for k, v in data.items() if k != "probs"} == \
        {k: v for k, v in plain.items() if k != "probs"}
    assert len(calls) == 3
    assert sum(length for _, length in calls) < out.stat().st_size // 10
    # The table adopts that array instead of copying it.
    handed, read_rows = [], cli._read_rows
    monkeypatch.setattr(cli, "_read_rows", lambda path: handed.append(read_rows(path)) or handed[0])
    assert cli._load_table(str(out), "--table").probs is handed[0]["probs"]


def test_reading_edge_literals_matches_a_plain_parse(runner, tmp_path):
    # Signed zeros stay apart, subnormals and the largest double survive,
    # 1e400 reads as inf, and integer entries stay ints in the plain parse
    # and become the doubles np.array makes of them on the row path.
    literals = ["-0.0", "0.0", "5e-324", "1.7976931348623157e308", "1e400", "0", "1", "-0.00",
                "0.5", "5E-1"]
    block = "[[{v}, {v}], [{v}, 0.25]]"
    text = ('{"probs": [' + ", ".join(f"[{block}, {block}]".format(v=v) for v in literals)
            + "]}")
    path = tmp_path / "edges.json"
    path.write_text(text)
    plain = json.loads(text)
    data, rows = cli._read_json(path), cli._read_rows(path)
    assert np.array_equal(_probs_bits(data), _probs_bits(plain))
    assert ([type(v) for v in np.array(data["probs"], dtype=object).ravel()]
            == [type(v) for v in np.array(plain["probs"], dtype=object).ravel()])
    assert rows["probs"].dtype == np.float64
    assert np.array_equal(rows["probs"].view(np.uint64), _probs_bits(plain))
    # Validation rejects the inf exactly as it does after a plain parse.
    table = {"n_copies": 1, "scheme": "broadcast", "input_arities": [1],
             "output_arities": [2], "probs": [[[[0.5, 0.0], [0.5, 1e400]]]]}
    path.write_text(json.dumps(table).replace("Infinity", "1e400"))
    result = runner.invoke(main, ["certify", "--table", str(path), "--protocol", "theorem1",
                                  "--bell", "chsh", "--beta", "2"])
    assert result.exit_code == 2
    assert result.stderr == "error: input: /probs: probabilities contain NaN or Inf\n"


def _many_distinct_table(tmp_path) -> Path:
    """A valid per-copy table whose 65,536 entries are all distinct floats."""
    rng = np.random.default_rng(26)
    probs = rng.random((16, 16, 16, 16)) + 0.5
    probs /= probs.sum(axis=(2, 3), keepdims=True)
    table = CorrelationTable(Scheme.PER_COPY, [2] * 4, [2] * 4, probs)
    path = tmp_path / "distinct.json"
    path.write_text("".join(table_to_json_chunks(table)))
    assert len(np.unique(table.probs)) > 4096
    return path


def test_a_table_with_more_distinct_floats_than_the_cache_is_parsed_plainly(
        tmp_path, monkeypatch):
    # Its 4,096-plus distinct floats never repeat a row, so the row path reads
    # one block and declines, and the plain parse reads the table.
    path = _many_distinct_table(tmp_path)
    assert path.stat().st_size > 4 * cli._READ_BLOCK
    sizes, real_open = [], open

    class CountedReads(io.BytesIO):
        def read(self, size=-1):
            sizes.append(size)
            return super().read(size)

    def spy_open(file, mode="r", *args, **kwargs):
        if mode != "rb":
            return real_open(file, mode, *args, **kwargs)
        with real_open(file, mode) as f:
            return CountedReads(f.read())

    monkeypatch.setattr(cli, "open", spy_open, raising=False)
    table = cli._load_table(str(path), "--table")
    assert sizes == [cli._READ_BLOCK]
    assert np.array_equal(table.probs.view(np.uint64),
                          _probs_bits(json.loads(path.read_text())))


def test_a_declined_table_file_is_parsed_once(runner, tmp_path, monkeypatch):
    # The row path declines the file before any json.loads call, and the plain
    # parse then reads its text once, whatever the number of distinct floats.
    path = _many_distinct_table(tmp_path)
    calls = _loads_spy(monkeypatch)
    result = runner.invoke(main, ["certify", "--table", str(path), "--protocol", "theorem4",
                                  "--bell", "chsh", "--beta", "2"])
    assert calls == [([], path.stat().st_size)]
    assert result.exit_code == 1 and result.stderr == ""
    assert json.loads(result.stdout)["verdict"] == "fail"


def _bad_number_before_the_cap(text: str) -> str:
    return text.replace('"probs": [\n    [\n      [\n        [\n          0.',
                        '"probs": [\n    [\n      [\n        [\n          01.', 1)


@pytest.mark.parametrize("corrupt", [
    pytest.param(_bad_number_before_the_cap, id="leading-zero-before-cap"),
    pytest.param(lambda text: text[:-100] + "1.5e+" + text[-100:], id="bad-exponent-after-cap"),
    pytest.param(lambda text: text[:len(text) // 2] + "]" + text[len(text) // 2:],
                 id="missing-delimiter-after-cap"),
    pytest.param(lambda text: text.replace("]", ",]", 1), id="trailing-comma-before-cap"),
    pytest.param(lambda text: "[" * 100_000, id="deep-nesting"),
])
def test_a_malformed_number_gives_the_plain_parsers_error_line(runner, tmp_path, corrupt):
    path = _many_distinct_table(tmp_path)
    text = corrupt(path.read_text())
    path.write_text(text)
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        line = f"error: input: invalid JSON in {path}: {exc}\n"
    result = runner.invoke(main, ["certify", "--table", str(path), "--protocol", "theorem4",
                                  "--bell", "chsh", "--beta", "2"])
    assert result.exit_code == 2
    assert result.stderr == line


def test_simulate_streams_table_file(runner, tmp_path):
    # Rows are formatted and written one input row at a time, so the whole
    # text is never held at once; the peak is a row of tests/test_memory.py.
    out = tmp_path / "percopy4.json"
    result = runner.invoke(main, ["simulate", "--strategy", "chsh", "--copies", "4",
                                  "--scheme", "percopy", "--out", str(out)])
    assert result.exit_code == 0, result.output


def _error_exits_in_code() -> list:
    rows = []
    for kinds, code, category in cli.ERROR_EXITS:
        for kind in kinds if isinstance(kinds, tuple) else (kinds,):
            prefix = "click." if kind.__module__.startswith("click") else ""
            rows.append((prefix + kind.__name__, code, category))
    return sorted(rows)


def _error_exits_in_readme() -> list:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = []
    for names, code, category in re.findall(r"^\| (.*) \| (\d) \| `(\w+)` \|$", text, re.M):
        for name in re.findall(r"`([\w.]+)`", re.sub(r"\([^)]*\)", "", names)):
            rows.append((name, int(code), category))
    return sorted(rows)


def _error_exits_in_docstring() -> list:
    lines = cli.__doc__.split("exception ")[1].split("\n\n")[0].splitlines()[1:]
    rows = []
    for line in lines:
        start = re.match(r"    (\S.*?)\s+(\d)\s+(\w+)$", line)
        if start:
            rows.append([start[1], int(start[2]), start[3]])
        else:
            rows[-1][0] += " " + line.strip()
    return sorted((name, code, category) for names, code, category in rows
                  for name in re.findall(r"[\w.]+", re.sub(r"\([^)]*\)", "", names)))


@pytest.mark.parametrize("documented", [_error_exits_in_readme, _error_exits_in_docstring],
                         ids=["readme", "cli-docstring"])
def test_exit_code_tables_match_error_exits(documented):
    assert documented() == _error_exits_in_code()
