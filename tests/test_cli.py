"""Command-line interface: subcommands, file formats, exit codes."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from paraself.bell import (
    Scheme,
    chsh_expression,
    expression_to_json_dict,
    table_to_json_dict,
)
from paraself.certify import certify_theorem1
from paraself.cli import main
from paraself.strategies import chsh_reference, compose, local_deterministic

CHSH_MAX = 2.0 * np.sqrt(2.0)


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
    from paraself.bell import j_value, table_from_json_dict

    table = table_from_json_dict(data)
    assert j_value(table, chsh_expression(), 1) == pytest.approx(
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


def test_certify_theorem3_oracle_betas_from_provenance(runner, tmp_path):
    table, _ = _simulate(runner, tmp_path, "--strategy", "chsh",
                         "--strategy", "tilted-chsh(0.5)")
    result = runner.invoke(main, [
        "certify", "--table", str(table), "--protocol", "theorem3",
        "--bell", "chsh", "--bell", "tilted-chsh(0.5)",
        "--beta", "oracle", "--tol", "1e-6",
    ])
    assert result.exit_code == 0, result.output


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
