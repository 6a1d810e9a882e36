"""One memory contract for every stage of every command.

Each row of ``CONTRACT`` bounds what one operation allocates: run once more
after a first, untraced run (so imports and caches stay out), its
``tracemalloc`` peak must stay under ``multiple * base + constant`` bytes.
``base`` is the bytes of the table (or stack of tables) the operation builds,
reads, walks or writes, or of the file that ``simulate`` writes.  The constant
covers fixed costs that a small table does not amortise, such as the row
reader's read block.  A row's bound was set just above the peak measured when
the row was added or last tightened; a change that moves a peak updates its
row and says why.

To print every row's measured peak, its multiple of the base and the margin
left to its bound, without changing any bound, run from the repository root

    PYTHONPATH=src python tests/test_memory.py
"""

import math
import sys
import tempfile
from collections import deque
from pathlib import Path

import pytest
from click.testing import CliRunner

from paraself import cli
from paraself.bell import (
    CorrelationTable,
    Scheme,
    _conditioned_terms,
    _table_from_json_dict,
    chsh_expression,
    conditional_means,
    table_to_json_chunks,
    table_to_json_dict,
)
from paraself.certify import certify_theorem4
from paraself.strategies import chsh_reference, compose, fullstats_reference

from conftest import certification, traced_peak

KIB = 1 << 10

# operation: (multiple, constant_bytes)
CONTRACT = {
    # The per-copy walk sums the table a chunk at a time, for the walk itself,
    # the copies' means and a theorem 4 certification.
    "walk-percopy-chsh5": (1 / 4, 0),
    "means-percopy-chsh5": (1 / 4, 0),
    "theorem4-percopy-chsh5": (1 / 4, 0),
    # Row sums free each block's temporaries before the next: the means of a
    # stack of 16 broadcast chsh^6 tables, whose rows take eleven blocks of at
    # most 2,048 rows, hold the stack and its conditioned buffer.
    "means-broadcast-chsh6x16": (3.2, 0),
    # One conditioned [term, row] buffer, a third larger than the table at
    # o = 2, and its row sums' temporaries.  Theorem 2 on fullstats^6 certifies
    # all six copies (every prefix reachable) and sums no rows: it subtracts
    # its reference from the buffer in place and takes the largest deviation.
    "theorem1-chsh6": (6.0, 0),
    "theorem3-mix6": (6.0, 0),
    "theorem2-fullstats(0.1,0.2)^5": (3.85, 0),
    "theorem2-fullstats(0.1,0.2)^6": (2.75, 0),
    "theorem2-fullstats(0.7,0.78)^6": (2.75, 0),
    # Composing keeps the product and its last factor; at n = 5 numpy's fixed
    # 128 KiB broadcasting buffers do not count.
    "compose-percopy-chsh5": (1.25, 0),
    "compose-broadcast-chsh6": (2.4, 0),
    # A fresh array, or one handed over in a dict, is validated in place.
    "adopt-percopy-chsh5": (1 / 8, 0),
    "read-dict-percopy-chsh4": (1 / 8, 0),
    # Each input row's distinct rows are formatted once and streamed.
    "write-percopy-chsh4": (1 / 2, 0),
    "simulate-percopy-chsh4": (2.0, 0),
    # The row path holds a read block and each distinct row once (broadcast
    # rows repeat little); a file it declines after one block is parsed whole,
    # its text and nested lists held.
    "load-percopy-chsh4": (3.0, 0),
    "load-broadcast-chsh6": (8.4, 256 * KIB),
    "load-declined-fullstats-percopy4": (9.0, 0),
}

CHSH = chsh_reference()
CHSH5 = [chsh_expression()] * 5
CHSH_MAX = 2.0 * math.sqrt(2.0)


def _percopy(n: int, strategy=CHSH) -> CorrelationTable:
    return compose([strategy] * n, Scheme.PER_COPY)


def _on(table: CorrelationTable | list, call) -> tuple:
    return lambda: call(table), table


def _walk(table: CorrelationTable):
    return _conditioned_terms(table.probs[None], table.scheme, table.input_arities,
                              table.output_arities)


def _adopt(table: CorrelationTable) -> tuple:
    fresh = table.probs.copy()
    return lambda: CorrelationTable._adopt(table.scheme, table.input_arities,
                                           table.output_arities, fresh), table


def _read_dict(table: CorrelationTable) -> tuple:
    data = table_to_json_dict(table)
    data["probs"] = table.probs.copy()
    return lambda: _table_from_json_dict(data, adopt=True), table


def _load(tmp_path: Path, table: CorrelationTable) -> tuple:
    path = tmp_path / "table.json"
    path.write_text("".join(table_to_json_chunks(table)))
    return lambda: cli._load_table(str(path), "--table"), table


def _simulate(tmp_path: Path) -> tuple:
    out = tmp_path / "percopy4.json"

    def run():
        result = CliRunner().invoke(cli.main, ["simulate", "--strategy", "chsh", "--copies",
                                               "4", "--scheme", "percopy", "--out", str(out)])
        assert result.exit_code == 0, result.output

    return run, out


# operation: tmp_path -> (run, the table or file whose bytes are the base)
OPERATIONS = {
    "walk-percopy-chsh5": lambda tmp: _on(_percopy(5), _walk),
    "means-percopy-chsh5": lambda tmp: _on(_percopy(5), lambda t: conditional_means([t], CHSH5)),
    "theorem4-percopy-chsh5": lambda tmp: _on(
        _percopy(5), lambda t: certify_theorem4(t, CHSH5, [CHSH_MAX] * 5)),
    "means-broadcast-chsh6x16": lambda tmp: _on(
        [compose([CHSH] * 6, Scheme.BROADCAST)] * 16,
        lambda tables: conditional_means(tables, [chsh_expression()] * 6)),
    **{case: lambda tmp, case=case: certification(case)
       for case in ("theorem1-chsh6", "theorem3-mix6", "theorem2-fullstats(0.1,0.2)^5",
                    "theorem2-fullstats(0.1,0.2)^6", "theorem2-fullstats(0.7,0.78)^6")},
    "compose-percopy-chsh5": lambda tmp: _on(_percopy(5), lambda t: _percopy(5)),
    "compose-broadcast-chsh6": lambda tmp: _on(compose([CHSH] * 6, Scheme.BROADCAST),
                                               lambda t: compose([CHSH] * 6, Scheme.BROADCAST)),
    "adopt-percopy-chsh5": lambda tmp: _adopt(_percopy(5)),
    "read-dict-percopy-chsh4": lambda tmp: _read_dict(_percopy(4)),
    "write-percopy-chsh4": lambda tmp: _on(
        _percopy(4), lambda t: deque(table_to_json_chunks(t), maxlen=0)),
    "simulate-percopy-chsh4": _simulate,
    "load-percopy-chsh4": lambda tmp: _load(tmp, _percopy(4)),
    "load-broadcast-chsh6": lambda tmp: _load(tmp, compose([CHSH] * 6, Scheme.BROADCAST)),
    "load-declined-fullstats-percopy4": lambda tmp: _load(
        tmp, _percopy(4, fullstats_reference(0.1, 0.2))),
}


def measure(operation: str, tmp_path: Path) -> tuple:
    """``(peak, base)``: the traced peak of ``operation`` on its second run, and its base."""
    run, sized = OPERATIONS[operation](tmp_path)
    run()
    peak = traced_peak(run)
    if isinstance(sized, Path):
        return peak, sized.stat().st_size
    return peak, sum(t.probs.nbytes for t in (sized if isinstance(sized, list) else [sized]))


@pytest.mark.parametrize("operation", CONTRACT)
def test_peak_within_contract(operation, tmp_path):
    multiple, constant = CONTRACT[operation]
    peak, base = measure(operation, tmp_path)
    assert peak < multiple * base + constant, (peak, peak / base)


def report() -> None:
    """Print each row's measured peak, its multiple of the base, the row's
    bound and the growth left before the peak reaches it."""
    print(f"{'operation':34} {'base':>10} {'peak':>10} {'x base':>7} {'bound':>10} {'margin':>7}")
    for operation, (multiple, constant) in CONTRACT.items():
        with tempfile.TemporaryDirectory() as workdir:
            peak, base = measure(operation, Path(workdir))
        bound = multiple * base + constant
        print(f"{operation:34} {base:10d} {peak:10d} {peak / base:7.3f} {bound:10.0f} "
              f"{bound / peak - 1:7.1%}")


if __name__ == "__main__":
    sys.exit(report())
