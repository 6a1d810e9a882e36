"""The table reader's row path (``cli._read_rows``) against a reader that is
plain ``json.loads``: ``certify`` gives the same stdout, stderr and exit code
on every ``simulate`` output and on fixed mutations of them, and the row path
takes exactly the files it should."""

import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from paraself import cli
from paraself.bell import table_from_json_dict, table_to_json_chunks
from paraself.cli import main
from paraself.errors import TableFormatError

BETA = "2.8284271247461903"

# The strategy options of each simulated table at n copies; adversaries are
# broadcast-shaped only and the tilted mix is one tilted copy among chsh ones.
STRATEGIES = {
    "chsh": lambda n: ["--strategy", "chsh", "--copies", str(n)],
    "noisy-chsh": lambda n: ["--strategy", "chsh", "--copies", str(n), "--noise", "0.9"],
    "fullstats": lambda n: ["--strategy", "fullstats(0.1,0.2)", "--copies", str(n)],
    "tilted-mix": lambda n: ["--strategy", "tilted-chsh(0.5)"] + ["--strategy", "chsh"] * (n - 1),
}
ADVERSARIES = ["adversary-copy", "adversary-shared-randomness"]


def _simulate(tmp_path, name: str, *args) -> str:
    path = tmp_path / f"{name}.json"
    result = CliRunner().invoke(main, ["simulate", "--out", str(path), *args])
    assert result.exit_code == 0, result.output
    return path.read_text()


def _plain_read_json(path):
    text = path.read_text()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise TableFormatError("", f"invalid JSON in {path}: {exc}") from None


def _certify(path, protocol: str) -> tuple:
    result = CliRunner().invoke(main, ["certify", "--table", str(path), "--protocol", protocol,
                                       "--bell", "chsh", "--beta", BETA])
    return result.exit_code, result.stdout, result.stderr, type(result.exception)


def _compare(monkeypatch, path, protocol: str) -> bool:
    """Assert ``certify`` on ``path`` matches the plain reader's; return
    whether the row path takes the file."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_rows", lambda path: None)
        m.setattr(cli, "_read_json", _plain_read_json)
        plain = _certify(path, protocol)
    assert _certify(path, protocol) == plain
    return cli._read_rows(path) is not None


def _cases():
    for name, options in STRATEGIES.items():
        for scheme in ("broadcast", "percopy"):
            for n in range(1, 5):
                yield pytest.param(name, n, scheme, [*options(n), "--scheme", scheme],
                                   id=f"{name}-{scheme}{n}")
    for name in ADVERSARIES:
        for n in range(2, 5):
            yield pytest.param(name, n, "broadcast", ["--strategy", f"{name}({n})"],
                               id=f"{name}{n}")


@pytest.mark.parametrize("name, n, scheme, args", _cases())
def test_certify_reads_every_simulate_output_as_a_plain_parse(tmp_path, monkeypatch,
                                                              name, n, scheme, args):
    path = tmp_path / "table.json"
    path.write_text(_simulate(tmp_path, "source", *args))
    took = _compare(monkeypatch, path, "theorem4" if scheme == "percopy" else "theorem1")
    assert took == (name != "fullstats")  # composed rows repeat, fullstats rows never do


def _region(text: str) -> tuple:
    """Start and end of the text from the top-level probs value up to the next quote."""
    start = text.index('"probs": ') + len('"probs": ')
    return start, text.index('"', start)


def _in_probs(text: str, edit) -> str:
    start, end = _region(text)
    return text[:start] + edit(text[start:end]) + text[end:]


def _first_row(probs: str) -> str:
    """The first innermost row, brackets included."""
    close = probs.index("]")
    return probs[probs.rindex("[", 0, close):close + 1]


def _each_first_row(edit):
    """Apply ``edit`` to every occurrence of the first row, which repeats."""
    return lambda text: _in_probs(text, lambda p: p.replace(_first_row(p), edit(_first_row(p))))


def _each_row(edit):
    """Apply ``edit`` to every innermost row, so that the lists holding them stay even."""
    return lambda text: _in_probs(text, lambda p: re.sub(r"\[[^][]*\]", lambda m: edit(m[0]), p))


def _each_literal(replacement: str):
    """Put ``replacement`` for every occurrence of the first row's first literal."""
    def edit(probs):
        literal = re.search(r"-?\d[\d.eE+-]*", probs)[0]
        return re.sub(rf"(?<![\d.eE+-]){re.escape(literal)}(?![\d.eE+-])", replacement, probs)
    return lambda text: _in_probs(text, edit)


def _provenance(entry: str):
    return lambda text: text.replace('"provenance": {', '"provenance": {' + entry + ", ", 1)


def _missing_comma(probs: str) -> str:
    """Drop the comma after a row unlike the first, and end its list with one
    more row, so that the nesting stays regular."""
    first = _first_row(probs)
    row = next(m for m in re.finditer(r"(\[[^][]*\]),(?=\s*\[)", probs) if m[1] != first)
    end = re.compile(r"\]\s*\]").search(probs, row.end()).start() + 1
    return probs[:row.end() - 1] + probs[row.end():end] + ", " + first + probs[end:]


def _utf16_keys(text: str) -> str:
    """The keys before probs, with ``"probs": NaN``, spelled in UTF-16-LE, whose
    NUL second byte makes ``json.loads`` of bytes guess that codec; after them,
    inside a UTF-16 string, the probs value in ASCII."""
    start, end = _region(text)
    keys = (text[:start] + 'NaN, "provenance": "').encode("utf-16-le").decode("ascii")
    return keys + '"probs": ' + text[start:end].rstrip().rstrip(",") + '"\0}\0'


# Edits of a per-copy noisy chsh^3 file (exit 1, fail) whose rows repeat, each
# with whether the row path takes the result.
MUTATIONS = {
    "huge-int": (_each_literal("1" + "0" * 400), False),
    "nan": (_each_literal("NaN"), True),
    "true": (_each_literal("true"), True),
    "null": (_each_literal("null"), True),
    "object": (_each_literal("{}"), False),
    "ragged-row": (_each_first_row(lambda row: row[:row.rindex(",")] + "]"), False),
    "missing-comma": (lambda text: _in_probs(text, _missing_comma), False),
    "empty-row": (_each_first_row(lambda row: "[]"), False),
    "number-before-rows": (_each_row(lambda row: "0, " + row), False),
    "number-after-rows": (_each_row(lambda row: row + ", 0"), False),
    "crlf": (lambda text: text.replace("\n", "\r\n"), True),
    "tabs": (lambda text: text.replace("  ", "\t"), True),
    "form-feed-between-rows": (lambda text: text.replace(",\n        [", ",\f        ["), False),
    "form-feed-in-row": (lambda text: text.replace(",\n          ", ",\f          "), False),
    "vertical-tab-closing": (lambda text: text.replace("\n      ]", "\v      ]"), False),
    "non-ascii-provenance": (_provenance('"note": "é"'), False),
    "escaped-provenance": (_provenance('"note": "\\u00e9"'), False),
    "bracket-in-string": (_provenance('"note": "]]["'), True),
    "nan-in-provenance": (_provenance('"note": NaN'), False),
    "utf16-keys": (_utf16_keys, False),
}


@pytest.fixture(scope="module")
def noisy(tmp_path_factory) -> str:
    return _simulate(tmp_path_factory.mktemp("noisy"), "noisy", "--strategy", "chsh",
                     "--copies", "3", "--scheme", "percopy", "--noise", "0.9")


@pytest.fixture(scope="module")
def honest_probs(tmp_path_factory) -> str:
    text = _simulate(tmp_path_factory.mktemp("honest"), "honest", "--strategy", "chsh",
                     "--copies", "3", "--scheme", "percopy")
    start, end = _region(text)
    return text[start:end].rstrip().rstrip(",")


@pytest.mark.parametrize("edit, takes", MUTATIONS.values(), ids=MUTATIONS)
def test_certify_reads_a_mutated_file_as_a_plain_parse(tmp_path, monkeypatch, noisy, edit, takes):
    path = tmp_path / "table.json"
    text = edit(noisy)
    assert text != noisy
    path.write_bytes(text.encode())
    assert _compare(monkeypatch, path, "theorem4") == takes


def _second_probs(value: str):
    return lambda text: text[:text.rindex("}")] + ', "probs": ' + value + "}\n"


@pytest.mark.parametrize("placement", ["second-top-level", "nested-before", "second-nan",
                                       "string-before"])
def test_only_the_last_top_level_probs_counts(tmp_path, monkeypatch, noisy, honest_probs,
                                              placement):
    # json.loads keeps the last of duplicate keys, and a nested "probs" or one
    # in a string is no table: the row path declines each, and the verdict is
    # the plain parse's.
    if placement == "nested-before":
        text = '{\n  "provenance": {"probs": ' + honest_probs + "}," + noisy[1:]
    elif placement == "string-before":  # a table in a string after "probs", the value, and NaN
        text = ('{\n  "provenance": {"by": "probs", "note": "' + re.sub(r"\s", "", honest_probs)
                + '"},' + _in_probs(noisy, lambda probs: "NaN, ")[1:])
    else:
        text = _second_probs(honest_probs if placement == "second-top-level" else "NaN")(noisy)
    path = tmp_path / "table.json"
    path.write_text(text)
    assert _compare(monkeypatch, path, "theorem4") is False


@pytest.mark.parametrize("block", [4099, 5003, 7919, 1 << 13])
def test_rows_split_across_block_boundaries(tmp_path, monkeypatch, noisy, block):
    monkeypatch.setattr(cli, "_READ_BLOCK", block)
    path = tmp_path / "table.json"
    path.write_text(noisy)
    assert len(noisy) > 10 * block
    assert _compare(monkeypatch, path, "theorem4") is True


def _perturbed(text: str, start: int, rng) -> str:
    """The per-copy table file ``text`` with every entry of the input rows ``x >= start``
    scaled by its own random factor near 1 and each setting renormalised, so that no row
    there repeats, as in a measured table."""
    data = json.loads(text)
    probs = np.array(data["probs"])
    scaled = probs[start:] * rng.uniform(0.9, 1.1, probs[start:].shape)
    probs[start:] = scaled / scaled.sum(axis=(-2, -1), keepdims=True)
    data["probs"] = probs
    return "".join(table_to_json_chunks(table_from_json_dict(data), data["provenance"]))


@pytest.mark.parametrize("start, block, takes", [(0, cli._READ_BLOCK, False), (1, 4099, True)],
                         ids=["all-rows-distinct", "first-input-row-repeats"])
def test_rows_that_never_repeat_read_as_a_plain_parse(tmp_path, monkeypatch, rng, noisy,
                                                      start, block, takes):
    # The row path declines a file whose first block repeats no row, and takes
    # one whose first block, here inside input row x = 0, does, however
    # distinct the rows after it.
    monkeypatch.setattr(cli, "_READ_BLOCK", block)
    path = tmp_path / "table.json"
    path.write_text(_perturbed(noisy, start, rng))
    assert _compare(monkeypatch, path, "theorem4") is takes
