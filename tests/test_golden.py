"""Golden CLI outputs and certifier reports.

Every case in ``CASES`` runs one ``paraself`` command through click's
``CliRunner``.  All cases share one scratch directory and run in order, so a
``certify`` reads the table an earlier ``simulate`` wrote.  Each must
reproduce byte for byte the stdout, stderr and exit code recorded in
``tests/golden/cli/<name>.json``, and the sha256 of every file it wrote
through ``--out``.  ``REPORT_NAMES`` names in-process certifier calls on the
inputs of the benchmark's ``library-certify`` workload at n <= 4, and on its
two per-copy chsh^5 tables (the only n = 5 reports); their
``to_json_dict()`` is compared as JSON text with
``tests/golden/reports/<name>.json``.  Floats are written with ``repr``, so a
change of one ulp in any reported value or table entry shows.

The tests never rewrite a golden.  To record them afresh, run from the
repository root

    PYTHONPATH=src python tests/test_golden.py

which prints the name of every golden whose bytes changed; list each, and
why, with the change.
"""

import hashlib
import json
import math
import os
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from paraself import bell, certify, strategies
from paraself.bell import Scheme
from paraself.cli import main

GOLDEN = Path(__file__).parent / "golden"
BETA = "2.8284271247461903"
CHSH_MAX = 2.0 * math.sqrt(2.0)


def _theorem1(table):
    return ["certify", "--table", table, "--protocol", "theorem1", "--bell", "chsh",
            "--beta", BETA]


def _theorem4(table):
    return ["certify", "--table", table, "--protocol", "theorem4", "--bell", "chsh",
            "--beta", BETA]


def _cases():
    cases = []
    for n in (1, 2, 3, 4, 6):
        cases.append((f"simulate-chsh{n}", ["simulate", "--strategy", "chsh", "--copies",
                                             str(n), "--out", f"chsh{n}.json"]))
        cases.append((f"theorem1-chsh{n}", _theorem1(f"chsh{n}.json")))
    for name in ("adversary-copy", "adversary-shared-randomness"):
        cases.append((f"simulate-{name}6", ["simulate", "--strategy", f"{name}(6)",
                                             "--out", f"{name}6.json"]))
        cases.append((f"theorem1-{name}6", _theorem1(f"{name}6.json")))
    for alpha in ("0.47", "0.5"):
        tilted = f"tilted-chsh({alpha})"
        cases.append((f"simulate-mix{alpha}", ["simulate", "--strategy", "chsh",
                                               "--strategy", tilted, "--out",
                                               f"mix{alpha}.json"]))
        cases.append((f"theorem3-mix{alpha}", [
            "certify", "--table", f"mix{alpha}.json", "--protocol", "theorem3",
            "--bell", "chsh", "--bell", tilted, "--beta", "oracle"]))
    for n in (1, 2, 3, 4, 6):
        cases.append((f"simulate-fullstats{n}", [
            "simulate", "--strategy", "fullstats(0.1,0.2)", "--copies", str(n),
            "--out", f"fullstats{n}.json"]))
    for n in (4, 6):
        cases.append((f"theorem2-fullstats{n}", [
            "certify", "--table", f"fullstats{n}.json", "--protocol", "theorem2",
            "--reference", "fullstats1.json"]))
    cases.append(("simulate-fullstats-percopy3", [
        "simulate", "--strategy", "fullstats(0.1,0.2)", "--copies", "3", "--scheme",
        "percopy", "--out", "fullstats-percopy3.json"]))
    for label, noise in (("", []), ("-noise0.3", ["--noise", "0.3"]),
                         ("-noise0.912", ["--noise", "0.912"])):
        cases.append((f"simulate-percopy4{label}", [
            "simulate", "--strategy", "chsh", "--copies", "4", "--scheme", "percopy",
            *noise, "--out", f"percopy4{label}.json"]))
        cases.append((f"theorem4-percopy4{label}", _theorem4(f"percopy4{label}.json")))
    cases += [
        ("simulate-percopy2-stdout", ["simulate", "--strategy", "chsh", "--copies", "2",
                                      "--scheme", "percopy"]),
        ("sweep-chsh4", ["sweep", "--copies", "4", "--nus", "0:1:0.05"]),
        ("bounds-chsh", ["bounds", "--bell", "chsh"]),
        ("bounds-tilted0.5", ["bounds", "--bell", "tilted-chsh(0.5)"]),
        ("bounds-tilted1.999", ["bounds", "--bell", "tilted-chsh(1.999)"]),
        ("bounds-witness-chsh", ["bounds", "--bell", "chsh", "--witness",
                                 "--out", "bounds-chsh.json"]),
        ("bounds-witness-chsh-game", ["bounds", "--bell", "chsh-game", "--witness",
                                      "--out", "bounds-chsh-game.json"]),
        ("theorem1-two-expressions", [
            "certify", "--table", "chsh2.json", "--protocol", "theorem1",
            "--bell", "chsh", "--bell", "chsh-game", "--beta", BETA, "--beta", "0.1"]),
        ("group-unknown-option", ["--bogus"]),
        ("group-bare", []),
        ("group-help", ["--help"]),
    ]
    return cases


CASES = _cases()


def _written(args):
    return [args[k + 1] for k, a in enumerate(args[:-1]) if a == "--out"]


def _run_cases(workdir: Path) -> dict:
    """Run every case in ``workdir``; ``{name: golden record}``."""
    results = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, args in CASES:
            result = CliRunner().invoke(main, args, prog_name="paraself")
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                (name, result.exc_info)
            results[name] = {
                "args": args,
                "exit_code": result.exit_code,
                "stdout": result.stdout,
                "stderr": result.stderr,
                "files": {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                          for path in _written(args)},
            }
    finally:
        os.chdir(here)
    return results


def _reports() -> dict:
    """In-process reports, theorem1-4, keyed by golden name."""
    chsh = strategies.chsh_reference()
    ce = bell.chsh_expression()
    te = bell.tilted_chsh_expression(0.5)
    tilted = strategies.tilted_chsh_reference(0.5, te)
    tilted_max = bell.quantum_value_fixed_measurements(te, tilted).value
    fullstats = strategies.fullstats_reference(0.1, 0.2)
    noisy = strategies.apply_isotropic_noise(chsh, 0.9)
    noisy5 = strategies.apply_isotropic_noise(chsh, 0.912)
    mix = [chsh, tilted, chsh, tilted]
    broadcast, percopy = Scheme.BROADCAST, Scheme.PER_COPY
    return {
        "theorem1-chsh4": lambda: certify.certify_theorem1(
            strategies.compose([chsh] * 4, broadcast), ce, CHSH_MAX),
        "theorem1-adversary-copy4": lambda: certify.certify_theorem1(
            strategies.adversary_copy(4), ce, CHSH_MAX),
        "theorem1-adversary-shared4": lambda: certify.certify_theorem1(
            strategies.adversary_shared_randomness(4), ce, CHSH_MAX),
        "theorem2-fullstats4": lambda: certify.certify_theorem2(
            strategies.compose([fullstats] * 4, broadcast),
            strategies.single_copy_table(fullstats)),
        "theorem3-mix4": lambda: certify.certify_theorem3(
            strategies.compose(mix, broadcast), [ce, te, ce, te],
            [CHSH_MAX, tilted_max, CHSH_MAX, tilted_max], 1e-6),
        "theorem4-chsh4": lambda: certify.certify_theorem4(
            strategies.compose([chsh] * 4, percopy), [ce] * 4, [CHSH_MAX] * 4),
        "theorem4-chsh4-noisy": lambda: certify.certify_theorem4(
            strategies.compose([noisy] * 4, percopy), [ce] * 4, [CHSH_MAX] * 4),
        "theorem4-chsh5": lambda: certify.certify_theorem4(
            strategies.compose([chsh] * 5, percopy), [ce] * 5, [CHSH_MAX] * 5),
        "theorem4-chsh5-noisy": lambda: certify.certify_theorem4(
            strategies.compose([noisy5] * 5, percopy), [ce] * 5, [CHSH_MAX] * 5),
    }


REPORT_NAMES = ("theorem1-chsh4", "theorem1-adversary-copy4", "theorem1-adversary-shared4",
                "theorem2-fullstats4", "theorem3-mix4", "theorem4-chsh4",
                "theorem4-chsh4-noisy", "theorem4-chsh5", "theorem4-chsh5-noisy")


def _report_text(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


@pytest.fixture(scope="module")
def cli_results(tmp_path_factory):
    return _run_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_cli_golden(cli_results, name):
    want = json.loads((GOLDEN / "cli" / f"{name}.json").read_text())
    got = cli_results[name]
    for key in ("args", "exit_code", "stdout", "stderr", "files"):
        assert got[key] == want[key], key


@pytest.fixture(scope="module")
def report_calls():
    calls = _reports()
    assert tuple(calls) == REPORT_NAMES
    return calls


@pytest.mark.parametrize("name", REPORT_NAMES)
def test_report_golden(report_calls, name):
    want = (GOLDEN / "reports" / f"{name}.json").read_text()
    assert _report_text(report_calls[name]()) == want


def record() -> None:
    """Write every golden from the current code, and print the name of each
    one whose bytes changed."""
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        texts = {f"cli/{name}": json.dumps(record_, indent=2) + "\n"
                 for name, record_ in _run_cases(Path(workdir)).items()}
    texts.update({f"reports/{name}": _report_text(call()) for name, call in _reports().items()})
    for name, text in texts.items():
        path = GOLDEN / f"{name}.json"
        if not path.exists() or path.read_bytes() != text.encode():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode())
            print(name)


if __name__ == "__main__":
    sys.exit(record())
