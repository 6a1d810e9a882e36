"""The CLI's exit-code contract, checked on inputs that used to break it and
on mutated files and option values.

Exit 0, 1 or 4 comes with output on stdout (for ``certify``, a JSON report
whose verdict matches the code).  Every other exit is 2 or 3, with nothing on
stdout, exactly one ``error:`` line on stderr and no traceback.

Option values are drawn mostly from what click's declared option types
accept (integers for ``--copies``, floats for ``--tol``); a value click cannot
convert is a usage error, which keeps the same contract.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from paraself.bell import (
    BellExpression,
    CorrelationTable,
    Scheme,
    chsh_expression,
    table_to_json_dict,
)
from paraself import cli
from paraself.cli import main
from paraself.strategies import chsh_reference, compose, fullstats_reference

from reference import expression_to_json_dict, local_deterministic

VERDICT_EXITS = {"pass": 0, "fail": 1, "precondition-violated": 4}
BETA = "2.8284271247461903"


def _run(args):
    return CliRunner().invoke(main, [str(a) for a in args])


def _assert_contract(result, command):
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exc_info
    assert "Traceback" not in result.output
    if result.exit_code in VERDICT_EXITS.values():
        if command == "certify":
            report = json.loads(result.stdout)
            assert VERDICT_EXITS[report["verdict"]] == result.exit_code
        else:
            assert result.exit_code == 0
            assert result.stdout
            if command == "simulate":
                json.loads(result.stdout)
    else:
        assert result.exit_code in (2, 3), result.output
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error: ")


def _table_doc(strategies, scheme=Scheme.BROADCAST):
    table = compose(strategies, scheme)
    prov = {"strategies": [{"name": "chsh", "params": []}] * len(strategies), "noise": None}
    return json.loads(json.dumps(table_to_json_dict(table, prov)))


def _entries(edits: dict) -> list:
    """A uniform one-copy binary table with the entries ``edits`` set; every
    row containing one no longer sums to 1."""
    probs = np.full((2, 2, 2, 2), 0.25)
    for index, value in edits.items():
        probs[index] = value
    return probs.tolist()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    paths = {"dir": root, "chsh2": root / "chsh2.json", "non_utf8": root / "latin1.json",
             "m2o3": root / "m2o3.json", "m3": root / "m3.json"}
    paths["chsh2"].write_text(json.dumps(_table_doc([chsh_reference()] * 2)))
    paths["chsh1"] = root / "chsh1.json"
    paths["chsh1"].write_text(json.dumps(_table_doc([chsh_reference()])))
    paths["percopy2"] = root / "percopy2.json"
    paths["percopy2"].write_text(json.dumps(_table_doc([chsh_reference()] * 2, Scheme.PER_COPY)))
    # A valid one-copy table of three outcomes, and two-copy chsh tables edited by hand.
    paths["o3"] = root / "o3.json"
    paths["o3"].write_text(json.dumps(table_to_json_dict(
        CorrelationTable(Scheme.BROADCAST, (2,), (3,), np.full((2, 2, 3, 3), 1 / 9)))))
    for key, edit in (("unequal_inputs", {"input_arities": [2, 3]}),
                      ("three_copies", {"n_copies": 3})):
        paths[key] = root / f"{key}.json"
        paths[key].write_text(json.dumps({**_table_doc([chsh_reference()] * 2), **edit}))
    # Deterministic local copies: copy 2's prefixes with an outcome 1 are unreachable.
    det = local_deterministic([0, 0], [0, 0], o=2)
    paths["det2"] = root / "det2.json"
    paths["det2"].write_text(json.dumps(table_to_json_dict(compose([det] * 2, Scheme.BROADCAST))))
    paths["non_utf8"].write_bytes(b'{"m": 2, "label": "\xe9"}')
    paths["deep"] = root / "deep.json"
    paths["deep"].write_text("[" * 100_000 + "]" * 100_000)
    for key, m, o in (("m2o3", 2, 3), ("m3", 3, 2)):
        expr = BellExpression(m, o, np.ones((m, m, o, o)), label=key)
        paths[key].write_text(json.dumps(expression_to_json_dict(expr)))
    # CHSH signs at 1.7e308: finite, but their sums overflow.
    paths["huge_coeffs"] = root / "huge_coeffs.json"
    paths["huge_coeffs"].write_text(json.dumps(
        {"m": 2, "o": 2, "coeffs": (chsh_expression().coeffs * 1.7e308).tolist()}))
    nan_coeffs = chsh_expression().coeffs.copy()
    nan_coeffs[0, 0, 0, 0] = float("nan")
    paths["nan_coeffs"] = root / "nan_coeffs.json"
    paths["nan_coeffs"].write_text(json.dumps({"m": 2, "o": 2, "coeffs": nan_coeffs.tolist()}))
    # A JSON integer of 4,301 digits: json.loads refuses to convert it.
    paths["long_int"] = root / "long_int.json"
    paths["long_int"].write_text('{"m": ' + "1" * 4301 + "}")
    # Files blamed at their root: cut off mid-object, and an array.
    paths["truncated"] = root / "truncated.json"
    paths["truncated"].write_text('{"m": ')
    paths["array"] = root / "array.json"
    paths["array"].write_text("[1, 2]")
    # One-copy chsh tables edited by hand.
    for key, edit in (("float_arities", {"input_arities": [2.9], "output_arities": [2.5]}),
                      ("string_n_copies", {"n_copies": "1"}),
                      ("bool_arity", {"input_arities": [True]}),
                      ("huge_entry", {"probs": [[[[10 ** 400, 0], [0, 0]]] * 2] * 2}),
                      ("nan_entry", {"probs": _entries({(1, 1, 1, 1): float("nan"),
                                                        (0, 1, 0, 0): 1.5})}),
                      ("two_out_of_range", {"probs": _entries({(1, 0, 1, 1): -0.5,
                                                               (0, 1, 0, 0): 1.5})})):
        paths[key] = root / f"{key}.json"
        paths[key].write_text(json.dumps({**_table_doc([chsh_reference()]), **edit}))
    return paths


def _certify_theorem1(table):
    return ["certify", "--table", table, "--protocol", "theorem1", "--bell", "chsh",
            "--beta", BETA]


CERTIFY_CHSH2 = _certify_theorem1("{chsh2}")


# Inputs that once escaped as a traceback with exit 1, printed their message
# inside quotes, were accepted although malformed, blamed the wrong JSON
# pointer or printed click's multi-line usage block.
ESCAPED_INPUTS = [
    pytest.param(["simulate", "--strategy", "chsh", "--out", "{dir}/missing/x.json"],
                 2, "io", id="simulate-out-in-missing-dir"),
    pytest.param(CERTIFY_CHSH2 + ["--out", "{dir}/missing/r.json"],
                 2, "io", id="certify-out-in-missing-dir"),
    pytest.param(["certify", "--table", "{dir}", "--protocol", "theorem1", "--bell", "chsh",
                  "--beta", BETA], 2, "io", id="certify-table-is-directory"),
    pytest.param(["certify", "--table", "{non_utf8}", "--protocol", "theorem1",
                  "--bell", "chsh", "--beta", BETA], 2, "io", id="certify-table-not-utf8"),
    pytest.param(["bounds", "--bell", "{non_utf8}"], 2, "io", id="bounds-bell-not-utf8"),
    pytest.param(["certify", "--table", "{chsh2}", "--protocol", "theorem3",
                  "--bell", "{m2o3}", "--beta", BETA],
                 3, "composition", id="certify-expression-arity-mismatch"),
    pytest.param(["certify", "--table", "{chsh2}", "--protocol", "theorem3",
                  "--bell", "{m2o3}", "--beta", "oracle"],
                 2, "config", id="certify-oracle-expression-file"),
    pytest.param(["bounds", "--bell", "{m3}", "--strategy", "chsh"],
                 3, "composition", id="bounds-strategy-arity-mismatch"),
    pytest.param(["bounds", "--bell", "tilted-chsh(nan)"], 2, "config", id="bounds-tilted-nan"),
    pytest.param(["certify", "--table", "{chsh2}", "--protocol", "theorem1",
                  "--bell", "tilted-chsh(inf)", "--beta", BETA],
                 2, "config", id="certify-tilted-inf"),
    pytest.param(["bounds", "--bell", "chsh", "--strategy", "tilted-chsh(0.5"],
                 2, "config", id="bounds-strategy-unbalanced"),
    pytest.param(["certify", "--table", "{deep}", "--protocol", "theorem1", "--bell", "chsh",
                  "--beta", BETA], 2, "input", id="certify-table-nested-too-deep"),
    pytest.param(_certify_theorem1("{long_int}"), 2, "input", id="certify-table-long-integer"),
    pytest.param(["bounds", "--bell", "{long_int}"], 2, "input", id="bounds-bell-long-integer"),
    pytest.param(_certify_theorem1("{float_arities}"), 2, "input: /input_arities",
                 id="certify-float-arities"),
    pytest.param(_certify_theorem1("{string_n_copies}"), 2, "input: /n_copies",
                 id="certify-string-n-copies"),
    pytest.param(_certify_theorem1("{bool_arity}"), 2, "input: /input_arities",
                 id="certify-bool-arity"),
    pytest.param(_certify_theorem1("{huge_entry}"), 2, "input: /probs", id="certify-huge-entry"),
    pytest.param(_certify_theorem1("{nan_entry}"), 2, "input: /probs", id="certify-nan-entry"),
    pytest.param(["certify", "--table", "{chsh2}", "--protocol", "theorem1",
                  "--bell", "{huge_coeffs}", "--beta", BETA],
                 2, "input: /coeffs", id="certify-coefficients-overflow"),
    pytest.param(["sweep", "--copies", "2", "--bell", "{huge_coeffs}", "--nus", "0,1"],
                 2, "input: /coeffs", id="sweep-coefficients-overflow"),
    pytest.param(["bounds", "--bell", "{huge_coeffs}"], 2, "input: /coeffs",
                 id="bounds-coefficients-overflow"),
    pytest.param(["bounds"], 2, "config", id="bounds-without-bell"),
    pytest.param(["simulate", "--strategy", "chsh", "--copies", "x"], 2, "config",
                 id="simulate-non-integer-copies"),
    pytest.param(["frobnicate"], 2, "config", id="unknown-subcommand"),
    pytest.param(["--bogus"], 2, "config", id="group-unknown-option"),
    pytest.param(["simulate", "--strategy", "chsh", "--copies", str(2 ** 62)],
                 3, "composition", id="simulate-copies-beyond-cap"),
    pytest.param(["simulate", "--strategy", "chsh", "--seed", "1"], 2, "config",
                 id="simulate-seed-is-gone"),
]


@pytest.mark.parametrize("args,code,category", ESCAPED_INPUTS)
def test_escaped_inputs_give_one_error_line(files, args, code, category):
    result = _run([a.format(**files) for a in args])
    _assert_contract(result, args[0])
    assert result.exit_code == code
    assert result.stderr.startswith(f"error: {category}: ")
    assert '"' not in result.stderr


def _theorem2(table, reference):
    return ["certify", "--table", table, "--protocol", "theorem2", "--reference", reference]


ADVERSARY = ["simulate", "--strategy", "adversary-copy(2)"]
SWEEP = ["sweep", "--copies", "2", "--nus"]


# Error lines one CLI call away from a valid command, pinned whole.
ERROR_LINES = [
    pytest.param(_theorem2("{chsh2}", "{dir}/missing.json"), 2,
                 "error: config: --reference: file not found: {dir}/missing.json",
                 id="theorem2-reference-not-found"),
    pytest.param(_theorem2("{chsh2}", "{chsh1}")[:-2], 2,
                 "error: config: --reference: required for theorem2",
                 id="theorem2-without-reference"),
    pytest.param(ADVERSARY + ["--strategy", "chsh"], 2,
                 "error: config: --strategy: adversary presets cannot be combined",
                 id="adversary-combined"),
    pytest.param(ADVERSARY + ["--copies", "3"], 2,
                 "error: config: --copies: conflicts with the adversary's n parameter",
                 id="adversary-copies-disagree"),
    pytest.param(["simulate", "--strategy", "adversary-copy"], 2,
                 "error: config: --copies: adversary-copy needs a copy count",
                 id="adversary-without-copy-count"),
    pytest.param(ADVERSARY + ["--noise", "0.9"], 2,
                 "error: config: --noise: not applicable to adversary tables",
                 id="adversary-noise"),
    pytest.param(ADVERSARY + ["--scheme", "percopy"], 2,
                 "error: config: --scheme: adversary tables are broadcast-shaped",
                 id="adversary-percopy"),
    pytest.param(_certify_theorem1("{chsh2}")[:-1] + ["x"], 2,
                 "error: config: --beta: values must be numbers or the token 'oracle'",
                 id="beta-non-numeric"),
    pytest.param(SWEEP + ["a:1:0.1"], 2,
                 "error: config: --nus: non-numeric range bound in 'a:1:0.1'",
                 id="nus-non-numeric-bound"),
    pytest.param(SWEEP + ["0:1:0"], 2, "error: config: --nus: range step must be positive",
                 id="nus-zero-step"),
    pytest.param(SWEEP + ["1:0:0.1"], 2, "error: config: --nus: empty range",
                 id="nus-empty-range"),
    pytest.param(["simulate", "--strategy", "fullstats(0.1)"], 2,
                 "error: config: --strategy: fullstats takes exactly two parameters "
                 "(gamma, delta)", id="fullstats-one-angle"),
    pytest.param(["bounds", "--bell", "{nan_coeffs}"], 2,
                 "error: input: /coeffs: coefficients contain NaN or Inf",
                 id="expression-nan-coefficient"),
    pytest.param(_certify_theorem1("{unequal_inputs}"), 2,
                 "error: input: /input_arities: broadcast tables require a single shared "
                 "input arity", id="broadcast-unequal-input-arities"),
    pytest.param(_certify_theorem1("{three_copies}"), 2,
                 "error: input: /n_copies: does not match 2 output arities",
                 id="n-copies-disagree"),
    pytest.param(["certify", "--table", "{percopy2}", "--protocol", "theorem3", "--bell", "chsh",
                  "--beta", BETA], 3,
                 "error: composition: conditional certification requires a broadcast table",
                 id="theorem3-percopy"),
    pytest.param(_theorem2("{percopy2}", "{chsh1}"), 3,
                 "error: composition: full-statistics certification requires a broadcast table",
                 id="theorem2-percopy"),
    pytest.param(_theorem2("{chsh2}", "{chsh2}"), 3,
                 "error: composition: reference must be a single-copy table",
                 id="theorem2-two-copy-reference"),
    pytest.param(_theorem2("{chsh2}", "{o3}"), 3,
                 "error: composition: table copies do not match the reference arities",
                 id="theorem2-reference-arities"),
]


@pytest.mark.parametrize("args,code,line", ERROR_LINES)
def test_each_error_line_is_pinned(files, args, code, line):
    result = _run([a.format(**files) for a in args])
    assert (result.exit_code, result.stdout) == (code, "")
    assert result.stderr.splitlines() == [line.format(**files)]


TRUNCATED = "error: input: invalid JSON in {truncated}: Expecting value: line 1 column 7 (char 6)"


# The root of a file has the empty JSON pointer, which the message leaves out.
@pytest.mark.parametrize("args,line", [
    pytest.param(_certify_theorem1("{truncated}"), TRUNCATED, id="certify-table-invalid-json"),
    pytest.param(_certify_theorem1("{array}"), "error: input: table must be a JSON object",
                 id="certify-table-array"),
    pytest.param(["bounds", "--bell", "{truncated}"], TRUNCATED, id="bounds-bell-invalid-json"),
    pytest.param(["bounds", "--bell", "{array}"], "error: input: expression must be a JSON object",
                 id="bounds-bell-array"),
])
def test_root_errors_name_no_pointer(files, args, line):
    result = _run([a.format(**files) for a in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [line.format(**files)]


# An expression file's non-positive m or o is named at its own key.
@pytest.mark.parametrize("doc,line", [
    pytest.param({"m": 0, "o": 2, "coeffs": []}, "error: input: /m: arities must be positive",
                 id="m-zero"),
    pytest.param({"m": 2, "o": -1, "coeffs": []}, "error: input: /o: arities must be positive",
                 id="o-negative"),
    pytest.param({"m": -1, "o": 0, "coeffs": []}, "error: input: /m: arities must be positive",
                 id="both"),
])
def test_expression_arity_errors_name_their_key(tmp_path, doc, line):
    path = tmp_path / "expression.json"
    path.write_text(json.dumps(doc))
    result = _run(["bounds", "--bell", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [line]


# A table's entries are checked for NaN or Inf, then for the range [0, 1],
# then for row sums, and the first offender in row-major order is named.
@pytest.mark.parametrize("table,line", [
    ("{nan_entry}", "error: input: /probs: probabilities contain NaN or Inf"),
    ("{two_out_of_range}", "error: input: /probs/0/1/0/0: probability outside [0, 1]"),
])
def test_table_entry_errors_name_the_first_offender(files, table, line):
    result = _run(_certify_theorem1(table.format(**files)))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [line]


# Theorem 2 compares against a reference table and takes neither expressions
# nor targets; the error names the option that was given.
@pytest.mark.parametrize("option,value", [("--bell", "chsh"), ("--beta", "1")])
def test_theorem2_names_the_option_it_refuses(files, option, value):
    result = _run(["certify", "--table", files["chsh2"], "--protocol", "theorem2",
                   "--reference", files["chsh1"], option, value])
    _assert_contract(result, "certify")
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"error: config: {option}: theorem2 compares against --reference, "
        f"not expressions/targets"]


# Under --bell a finite tilt outside [0, 2) is still an expression, but one so
# large that its coefficients overflow is named as a tilt, on every path that
# builds it: bounds, certify with a number, certify with the oracle, sweep.
@pytest.mark.parametrize("tilt", ["1e308", "-1e308"])
@pytest.mark.parametrize("args", [
    pytest.param(["bounds", "--bell", "tilted-chsh({})"], id="bounds"),
    pytest.param(["certify", "--table", "{chsh2}", "--protocol", "theorem1",
                  "--bell", "tilted-chsh({})", "--beta", "2"], id="certify"),
    pytest.param(["certify", "--table", "{chsh2}", "--protocol", "theorem1",
                  "--bell", "tilted-chsh({})", "--beta", "oracle"], id="certify-oracle"),
    pytest.param(["sweep", "--copies", "2", "--bell", "tilted-chsh({})", "--nus", "0,1"],
                 id="sweep"),
])
def test_a_huge_tilt_under_bell_is_named(files, args, tilt):
    result = _run([a.format(tilt, **files) for a in args])
    _assert_contract(result, args[0])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"error: config: --bell: tilt parameter {float(tilt)} too large: absolute coefficients "
        "sum to more than 2**960"]


# One command per exit code, and both error categories of exit 2.
PROCESS_CASES = [
    pytest.param(["simulate", "--strategy", "chsh", "--copies", "2", "--out", "{out}"], 0,
                 id="0-simulate-out"),
    pytest.param(["certify", "--table", "{chsh2}", "--protocol", "theorem1", "--bell", "chsh",
                  "--beta", "2.5"], 1, id="1-verdict-fail"),
    pytest.param(CERTIFY_CHSH2 + ["--tol", "-1"], 2, id="2-config"),
    pytest.param(_certify_theorem1("{truncated}"), 2, id="2-input"),
    pytest.param(["simulate", "--strategy", "chsh", "--copies", "7"], 3, id="3-composition"),
    pytest.param(["certify", "--table", "{det2}", "--protocol", "theorem1", "--bell", "chsh",
                  "--beta", "2"], 4, id="4-precondition"),
]


@pytest.mark.parametrize("args,code", PROCESS_CASES)
def test_a_real_process_matches_the_runner(files, tmp_path, args, code):
    # ``python -m paraself.cli`` goes through ``run``, which freezes the heap before ``main``;
    # what the process prints, writes and exits with is what ``main`` gives in process.
    def outputs(out):
        return [a.format(**files, out=out) for a in args]

    result = _run(outputs(tmp_path / "runner.out"))
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "paraself.cli",
                           *outputs(tmp_path / "process.out")],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (result.exit_code, result.stdout, result.stderr)
    assert result.exit_code == code
    if "{out}" in args:
        assert (tmp_path / "process.out").read_bytes() == (tmp_path / "runner.out").read_bytes()


def test_the_process_entry_freezes_the_heap_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main"))
    cli.run()
    assert calls == ["freeze", "main"]


# ---------------------------------------------------------------------------
# Mutated inputs: each example starts from a valid command and changes none,
# one or several of its files and option values.

JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 10)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _or_valid(valid, other):
    """``valid`` about two times in three, else a draw from ``other``."""
    return st.one_of(st.just(valid), st.just(valid), other)


@st.composite
def mutated(draw, base):
    """``base`` (a JSON document) after zero to three random edits: a key set
    to any JSON value or deleted, an entry of a nested list replaced, or the
    whole document replaced."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(0, 3))):
        if not isinstance(doc, dict) or draw(st.integers(0, 9)) == 0:
            return draw(JSON_VALUES)
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        action = draw(st.sampled_from(["set", "delete", "nested", "nested"]))
        if action == "delete":
            doc.pop(key, None)
        elif action == "set" or not isinstance(doc.get(key), list) or not doc[key]:
            doc[key] = draw(JSON_VALUES)
        else:
            target = doc[key]
            while True:
                k = draw(st.integers(0, len(target) - 1))
                if not isinstance(target[k], list) or not target[k] or draw(st.booleans()):
                    target[k] = draw(JSON_VALUES)
                    break
                target = target[k]
    return doc


def _write(draw, path, base):
    """Write a mutated ``base`` to ``path``, now and then cut short."""
    text = json.dumps(draw(mutated(base)))
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    path.write_text(text)
    return path


FULLSTATS = fullstats_reference(0.1, 0.2)
TABLES = {
    "chsh2": _table_doc([chsh_reference()] * 2),
    "percopy2": _table_doc([chsh_reference()] * 2, Scheme.PER_COPY),
    "fullstats2": _table_doc([FULLSTATS] * 2),
    "fullstats1": _table_doc([FULLSTATS]),
}
PROTOCOL_TABLES = {"theorem1": "chsh2", "theorem2": "fullstats2", "theorem3": "chsh2",
                   "theorem4": "percopy2"}
EXPRESSION = expression_to_json_dict(chsh_expression())

FLOAT_TEXT = st.floats(allow_nan=True, allow_infinity=True).map(repr)
TOLS = _or_valid("1e-8", st.sampled_from(["0", "nan", "-1", "inf", "-0.0", "abc"]) | FLOAT_TEXT)
BETAS = st.lists(_or_valid(BETA, st.sampled_from(["oracle", "nan", "-inf", "x", "", "2"])
                           | FLOAT_TEXT | st.text(max_size=4)), min_size=0, max_size=3)
STRATEGIES = _or_valid("chsh", st.sampled_from([
    "tilted-chsh(0.5)", "tilted-chsh(1.999)", "tilted-chsh(0)", "tilted-chsh(-0.5)",
    "tilted-chsh(2)", "tilted-chsh(nan)", "tilted-chsh(5)", "tilted-chsh(0.5",
    "tilted-chsh()", "fullstats(0.1,0.2)", "fullstats(2,0.1)", "fullstats(a,b)",
    "adversary-copy(2)", "adversary-copy(2.7)", "adversary-shared-randomness", "chsh(1)",
    "bogus", "", "(", ")",
]) | st.text(alphabet="chs()-,.0123456789", max_size=6))
# Three copies at most: a per-copy table of six is 134 MB of floats.
COPIES = _or_valid(2, st.sampled_from([None, -1, 0, 1, 3, 7, "x"]))
NUS = _or_valid("0,0.5,1", st.sampled_from([
    "0:1:0.25", "nan", "inf", "0:1:0", "1:0:0.1", "0:1:1e-9", "a", "", ":", "0:nan:0.1",
    "-1,2", "0:1", "0.5,,"]) | st.text(alphabet="0123456789.:,-nai", max_size=6))
BELL_NAMES = st.sampled_from(["chsh-game", "tilted-chsh(0.5)", "tilted-chsh(1.999)",
                              "tilted-chsh(0)", "tilted-chsh(-0.5)", "tilted-chsh(2)",
                              "tilted-chsh(nan)", "tilted-chsh(-inf)", "tilted-chsh(x)",
                              "nope", ""])


def _bell(draw, files, k=0):
    """A --bell value: ``chsh``, another built-in name or a mutated
    expression file."""
    kind = draw(_or_valid("chsh", st.sampled_from(["name", "file"])))
    if kind == "file":
        return _write(draw, files["dir"] / f"expr{k}.json", EXPRESSION)
    return kind if kind == "chsh" else draw(BELL_NAMES)


@given(data=st.data())
def test_certify_contract_on_mutated_tables(files, data):
    draw = data.draw
    protocol = draw(st.sampled_from(sorted(PROTOCOL_TABLES)))
    # Up to two of the inputs are broken; the rest keep their valid value.
    broken = draw(st.sets(st.sampled_from(["table", "reference", "tol", "bell", "beta"]),
                          max_size=2))

    def table_file(field, key):
        path = files["dir"] / f"{field}.json"
        if field in broken:
            return _write(draw, path, TABLES[key])
        path.write_text(json.dumps(TABLES[key]))
        return path

    tol = draw(TOLS) if "tol" in broken else "1e-8"
    args = ["certify", "--protocol", protocol, "--tol", tol,
            "--table", table_file("table", PROTOCOL_TABLES[protocol])]
    if protocol == "theorem2":
        args += ["--reference", table_file("reference", "fullstats1")]
    else:
        bells = ["chsh"]
        if "bell" in broken:
            bells = [_bell(draw, files, k) for k in range(draw(st.integers(0, 3)))]
        betas = ["oracle"] if protocol == "theorem3" else [BETA]
        if "beta" in broken:
            betas = draw(BETAS)
        args += [a for b in bells for a in ("--bell", b)]
        args += [a for b in betas for a in ("--beta", b)]
    _assert_contract(_run(args), "certify")


@given(data=st.data())
def test_simulate_contract_on_option_values(files, data):
    draw = data.draw
    args = ["simulate", "--scheme", draw(_or_valid("broadcast", st.just("percopy")))]
    for spec in draw(st.lists(STRATEGIES, min_size=1, max_size=3)):
        args += ["--strategy", spec]
    copies = draw(COPIES)
    if copies is not None:
        args += ["--copies", copies]
    if draw(st.booleans()):
        args += ["--noise", draw(_or_valid("0.9", FLOAT_TEXT))]
    _assert_contract(_run(args), "simulate")


@given(data=st.data())
def test_bounds_and_sweep_contract_on_mutated_expressions(files, data):
    draw = data.draw
    command = draw(st.sampled_from(["bounds", "sweep"]))
    args = [command, "--bell", _bell(draw, files)]
    if command == "sweep":
        args += ["--nus", draw(NUS), "--copies", draw(COPIES.filter(lambda n: n is not None))]
        args += ["--strategy", draw(STRATEGIES)]
    elif draw(st.booleans()):
        args += ["--strategy", draw(STRATEGIES)]
    _assert_contract(_run(args), command)
