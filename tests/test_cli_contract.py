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

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from paraself.bell import (
    BellExpression,
    Scheme,
    chsh_expression,
    table_to_json_dict,
)
from paraself.cli import main
from paraself.strategies import chsh_reference, compose, fullstats_reference

from reference import expression_to_json_dict

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


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    paths = {"dir": root, "chsh2": root / "chsh2.json", "non_utf8": root / "latin1.json",
             "m2o3": root / "m2o3.json", "m3": root / "m3.json"}
    paths["chsh2"].write_text(json.dumps(_table_doc([chsh_reference()] * 2)))
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
    # A JSON integer of 4,301 digits: json.loads refuses to convert it.
    paths["long_int"] = root / "long_int.json"
    paths["long_int"].write_text('{"m": ' + "1" * 4301 + "}")
    # One-copy chsh tables edited by hand.
    for key, edit in (("float_arities", {"input_arities": [2.9], "output_arities": [2.5]}),
                      ("string_n_copies", {"n_copies": "1"}),
                      ("bool_arity", {"input_arities": [True]}),
                      ("huge_entry", {"probs": [[[[10 ** 400, 0], [0, 0]]] * 2] * 2})):
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
