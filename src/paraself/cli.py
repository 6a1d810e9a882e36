"""Command-line front end: build strategies, compose tables, run certifiers,
dump reports and sweeps.

``certify`` exits with its verdict: 0 pass, 1 fail, 4 precondition-violated;
the other commands exit 0 on success.  Errors become exit codes in one place,
``_ErrorBoundary``, which prints the single line ``error: <category>:
<message>`` to stderr for the first matching row of ``ERROR_EXITS``:

    exception                                      exit  category
    ConfigError (an option value)                  2     config
    click.UsageError (a missing option, an option  2     config
      value of the wrong type, an unknown command
      or option)
    TableFormatError (a table or expression file)  2     input
    OSError, UnicodeDecodeError                    2     io
    EnumerationTooLarge                            3     enumeration
    SchemeInputMismatch, UnsupportedDimension,     3     composition
      InvalidAngles, ShapeMismatch,
      ZeroPrefixProbability

Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import bell, certify, strategies
from .bell import Scheme
from .errors import (
    ConfigError,
    EnumerationTooLarge,
    InvalidAngles,
    SchemeInputMismatch,
    ShapeMismatch,
    TableFormatError,
    UnsupportedDimension,
    ZeroPrefixProbability,
)

# Bound on the visibilities a start:stop:step range may expand to.
MAX_SWEEP_POINTS = 10_001

VERDICT_EXITS = {certify.VERDICT_PASS: 0, certify.VERDICT_FAIL: 1,
                 certify.VERDICT_PRECONDITION: 4}

# (exception types, exit code, category); the first matching row wins.
ERROR_EXITS = (
    ((ConfigError, click.UsageError), 2, "config"),
    (TableFormatError, 2, "input"),
    ((OSError, UnicodeDecodeError), 2, "io"),
    (EnumerationTooLarge, 3, "enumeration"),
    ((SchemeInputMismatch, UnsupportedDimension, InvalidAngles, ShapeMismatch,
      ZeroPrefixProbability), 3, "composition"),
)


class _ErrorBoundary(click.Group):
    """Group that reports an ``ERROR_EXITS`` exception, raised while parsing
    its own options or running a subcommand, as one ``error:`` line and exits
    with the row's code."""

    def parse_args(self, ctx, args):
        if not args:  # bare ``paraself`` prints click's help text
            return super().parse_args(ctx, args)
        return self._report_errors(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return self._report_errors(super().invoke, ctx)

    @staticmethod
    def _report_errors(call, *args):
        try:
            return call(*args)
        except Exception as exc:
            for kinds, code, category in ERROR_EXITS:
                if isinstance(exc, kinds):
                    # click's str() of an error omits the option it names
                    message = (exc.format_message() if isinstance(exc, click.ClickException)
                               else exc)
                    click.echo(f"error: {category}: {message}", err=True)
                    sys.exit(code)
            raise


def _parse(option: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` on a user-supplied value of ``option``; its
    ``KeyError`` or ``ValueError`` becomes a ``ConfigError`` naming the option."""
    try:
        return fn(*args, **kwargs)
    except (KeyError, ValueError) as exc:
        raise ConfigError(option, str(exc.args[0] if exc.args else exc)) from None


def _emit(chunks, out: str | None):
    """Write ``chunks``, one string or an iterable of strings, to ``out`` or to stdout with one
    ``writelines``, not a ``click.echo`` per chunk, which scans each for ANSI codes and flushes."""
    stdout = out is None or out == "-"
    with contextlib.nullcontext(click.get_text_stream("stdout")) if stdout else open(out, "w") as f:
        f.writelines((chunks,) if isinstance(chunks, str) else chunks)
        f.flush()


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


# Bytes of a table file read at a time; a file whose first block repeats no row is parsed plainly.
_READ_BLOCK = 1 << 18
_JSON_SPACE = b" \t\n\r"


def _read_rows(path: Path) -> dict | None:
    """The table file at ``path`` as ``json.loads`` gives it, with ``probs`` already the float array
    ``np.array`` makes of it, or ``None`` where the plain parse must read it.  A composed table
    repeats rows, so the top-level ``probs`` is split at ``]`` into pieces that each end at most
    one innermost row, and only distinct ones are parsed: their rows in one ``json.loads`` and a
    skeleton of row ids that carries the nesting in another, so the array is ``values[ids]``.
    The rest is parsed with ``NaN`` for ``probs``.  The file is read ``_READ_BLOCK`` bytes at a
    time and declined if it is not ASCII, holds a backslash or NUL, has no ``"probs":`` key in its
    first block, repeats no row there or fails to parse or convert, so that the plain parse words
    every error."""
    seen, ids, head, carry, tail = {}, [], None, b"", []
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(_READ_BLOCK), b""):
            if not block.isascii() or b"\\" in block or b"\0" in block:  # NUL: json.detect_encoding
                return None
            if tail:
                tail.append(block)
                continue
            if head is None:  # with no backslash, a "probs" that a colon follows is a key
                key = block.find(b'"probs"')
                start = block.find(b"[", key) if key >= 0 else -1
                if start < 0 or block[key + 7:start].translate(None, _JSON_SPACE) != b":":
                    return None
                head, block = block[:start], block[start:]
            quote = block.find(b'"')
            if quote >= 0:  # no string holds a quote, so the first one past probs ends it
                block, tail = block[:quote], [block[quote:]]
            pieces = block.split(b"]")
            pieces[0] = carry + pieces[0]
            carry = pieces.pop()
            if not ids:
                opening = [piece for piece in pieces if b"[" in piece]
                if len(set(opening)) == len(opening):
                    return None
            ids += [seen.setdefault(piece, len(seen)) for piece in pieces]
    if head is None:
        return None
    rows, skeleton = {}, []  # each distinct row's text to its id
    for piece in seen:  # ``prefix [row`` becomes ``prefix id``, eating the row's ``]``
        prefix, bracket, row = piece.rpartition(b"[")
        if not bracket:  # a piece that closes an outer list holds only whitespace
            if piece.translate(None, _JSON_SPACE):
                return None
            skeleton.append(b"]")
        else:  # a row follows ``[`` or ``,``; with neither, its id would run into the last one
            prefix = prefix.translate(None, _JSON_SPACE)
            if not prefix or prefix.translate(None, b"[,"):
                return None
            skeleton.append(prefix + b"%d" % rows.setdefault(row, len(rows)))
    placeholder = []  # what the parse of ``NaN`` in place of probs returns, the one time it is met
    try:
        fields = json.loads(head + b"NaN" + carry + b"".join(tail),
                            parse_constant=lambda name: placeholder.append(name) or placeholder)
        if not (isinstance(fields, dict) and fields.get("probs") is placeholder
                and placeholder == ["NaN"]):
            return None
        index = np.array(json.loads(b"".join([skeleton[i] for i in ids])), dtype=np.intp)
        values = np.array(json.loads(b"[[" + b"],[".join(rows) + b"]]"), dtype=float)
        fields["probs"] = values[index]
    except (ValueError, TypeError, OverflowError, RecursionError, IndexError):
        return None
    return fields


def _read_json(path: Path):
    text = path.read_text()  # its UnicodeDecodeError, also a ValueError, is an io error
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep a nesting, too long an int
        raise TableFormatError("", f"invalid JSON in {path}: {exc}") from None


def _load_expression(spec: str) -> bell.BellExpression:
    """Resolve --bell: a built-in name or a path to an expression JSON."""
    try:
        return bell.builtin_expression(spec)
    except KeyError:
        pass
    except ValueError as exc:
        raise ConfigError("--bell", str(exc)) from None
    if not Path(spec).exists():
        raise ConfigError("--bell", f"{spec!r} is neither a built-in nor a file")
    return bell.expression_from_json_dict(_read_json(Path(spec)))


def _load_table(path: str, option: str) -> bell.CorrelationTable:
    if not Path(path).exists():
        raise ConfigError(option, f"file not found: {path}")
    return bell._table_from_json_dict(_read_rows(Path(path)) or _read_json(Path(path)),
                                      adopt=True)


def _each_copy(option: str, values: list, n: int, noun: str) -> list:
    """``values`` for each of ``n`` copies: one value stands for every copy, else one each."""
    if len(values) == 1:
        return values * n
    if len(values) != n:
        raise ConfigError(option, f"{len(values)} {noun} for {n} copies")
    return values


def _parse_strategy_specs(specs, copies):
    """Turn --strategy/--copies into either a list of single-copy strategies
    or an adversary table spec.  Returns (strategies, adversary, entries)
    where ``entries`` lists the effective per-copy presets for provenance."""
    parsed = [_parse("--strategy", strategies.parse_strategy_spec, spec) for spec in specs]
    if copies is not None:  # before the per-copy lists are built
        _parse("--copies", strategies.check_copies, copies)
    adversaries = [name for name, _ in parsed if name in strategies.ADVERSARIES]
    if adversaries:
        if len(parsed) != 1:
            raise ConfigError("--strategy", "adversary presets cannot be combined")
        name, args = parsed[0]
        if args and (len(args) != 1 or not args[0].is_integer()):
            raise ConfigError("--strategy", f"{name} takes one integer copy count")
        if args and copies is not None and int(args[0]) != copies:
            raise ConfigError("--copies", "conflicts with the adversary's n parameter")
        n = int(args[0]) if args else copies
        if n is None:
            raise ConfigError("--copies", f"{name} needs a copy count")
        return None, (name, n), [{"name": name, "params": [n]}]
    pairs = [(spec, _parse("--strategy", strategies.build_preset_strategy, *spec))
             for spec in parsed]
    if copies is not None:
        pairs = _each_copy("--copies", pairs, copies, "strategies")
    entries = [{"name": name, "params": list(args)} for (name, args), _ in pairs]
    return [strategy for _, strategy in pairs], None, entries


def _single_copy_strategy(option: str, spec: str):
    """Build the single-copy preset ``spec`` given through ``option``."""
    name, args = _parse(option, strategies.parse_strategy_spec, spec)
    if name in strategies.ADVERSARIES:
        raise ConfigError(option, f"{name} is a whole table, not a single-copy strategy")
    return _parse(option, strategies.build_preset_strategy, name, args)


@click.group(cls=_ErrorBoundary)
def main():
    """Simulate parallel Bell experiments and certify correlation tables."""


@main.command()
@click.option("--strategy", "strategy_specs", multiple=True, required=True,
              help="Strategy preset, repeatable: chsh, tilted-chsh(a), "
                   "fullstats(g,d), adversary-copy(n), adversary-shared-randomness(n).")
@click.option("--copies", type=int, default=None, help="Number of copies.")
@click.option("--scheme", type=click.Choice(["broadcast", "percopy"]),
              default="broadcast", show_default=True)
@click.option("--noise", type=float, default=None,
              help="Visibility of white noise applied to every copy.")
@click.option("--out", default=None, help="Output path (default: stdout).")
def simulate(strategy_specs, copies, scheme, noise, out):
    """Compose copies into a joint correlation table and write it as JSON."""
    built, adversary, entries = _parse_strategy_specs(strategy_specs, copies)
    if noise is not None:
        _parse("--noise", strategies.check_visibilities, [noise])
    if adversary is not None:
        if noise is not None:
            raise ConfigError("--noise", "not applicable to adversary tables")
        if scheme != "broadcast":
            raise ConfigError("--scheme", "adversary tables are broadcast-shaped")
        table = strategies.ADVERSARIES[adversary[0]](adversary[1])
    else:
        if noise is not None:
            built = [strategies.apply_isotropic_noise(s, noise) for s in built]
        table = strategies.compose(built, Scheme(scheme))
    prov = {"strategies": entries, "noise": noise}
    _emit(bell.table_to_json_chunks(table, prov), out)


def _resolve_expressions(bell_specs, n: int):
    if not bell_specs:
        raise ConfigError("--bell", "at least one expression is required")
    return _each_copy("--bell", [_load_expression(s) for s in bell_specs], n, "expressions")


def _resolve_targets(beta_specs, bell_specs, n: int):
    """--beta values, or the single token 'oracle' for the closed-form quantum
    maximum of each copy's built-in --bell expression; the table never sets
    its own target, and an expression file needs a number."""
    if list(beta_specs) == ["oracle"]:
        try:
            targets = [bell.builtin_quantum_maximum(spec) for spec in bell_specs]
        except (KeyError, ValueError) as exc:
            raise ConfigError("--beta", f"oracle: {exc.args[0]}; "
                                        "give the target as a number") from None
    else:
        try:
            targets = [float(b) for b in beta_specs]
        except ValueError:
            raise ConfigError("--beta", "values must be numbers or the token 'oracle'") from None
    return _each_copy("--beta", targets, n, "targets")


@main.command("certify")
@click.option("--table", "table_path", required=True, help="Table JSON to certify.")
@click.option("--protocol", type=click.Choice(
    ["theorem1", "theorem2", "theorem3", "theorem4"]), required=True)
@click.option("--bell", "bell_specs", multiple=True,
              help="Expression name or JSON path (repeatable for per-copy lists).")
@click.option("--beta", "beta_specs", multiple=True,
              help="Target value(s), or 'oracle' for the quantum maximum of each "
                   "built-in expression (an expression file needs a number).")
@click.option("--reference", "reference_path", default=None,
              help="Single-copy reference table (theorem2 only).")
@click.option("--tol", type=float, default=certify.DEFAULT_TOL, show_default=True,
              help="Numerical slack (not noise robustness).")
@click.option("--out", default=None, help="Report path (default: stdout).")
def certify_cmd(table_path, protocol, bell_specs, beta_specs, reference_path, tol, out):
    """Certify a table file; the exit code reflects the verdict (0 pass,
    1 fail, 4 precondition-violated)."""
    _parse("--tol", certify._check_tol, tol)
    table = _load_table(table_path, "--table")
    if protocol == "theorem2":
        if reference_path is None:
            raise ConfigError("--reference", "required for theorem2")
        for option, specs in (("--bell", bell_specs), ("--beta", beta_specs)):
            if specs:
                raise ConfigError(option, "theorem2 compares against --reference, "
                                          "not expressions/targets")
        reference = _load_table(reference_path, "--reference")
        report = certify.certify_theorem2(table, reference, tol)
    else:
        if reference_path is not None:
            raise ConfigError("--reference", f"not used by {protocol}")
        if protocol == "theorem1":
            for option, specs in (("--bell", bell_specs), ("--beta", beta_specs)):
                if len(specs) > 1:
                    raise ConfigError(option, f"theorem1 takes one value, got {len(specs)}")
        # Theorem 1 is theorem 3 once its one expression and target stand for every copy.
        exprs = _resolve_expressions(bell_specs, table.n_copies)
        targets = _resolve_targets(beta_specs, bell_specs, table.n_copies)
        _parse("--beta", certify._check_targets, table, targets, tol)
        theorem = certify.certify_theorem4 if protocol == "theorem4" else certify.certify_theorem3
        report = theorem(table, exprs, targets, tol)
    _emit(_json_text(report.to_json_dict()), out)
    sys.exit(VERDICT_EXITS[report.verdict])


@main.command()
@click.option("--bell", "bell_spec", required=True,
              help="Expression name or JSON path.")
@click.option("--strategy", "strategy_spec", default=None,
              help="Strategy preset supplying fixed measurements for the "
                   "quantum value (defaults to the matching reference for "
                   "built-in expressions; tilted-chsh has one for 0 <= alpha <= 1.9998).")
@click.option("--witness", is_flag=True, help="Serialize the optimizers as JSON.")
@click.option("--out", default=None, help="Optional JSON output path.")
def bounds(bell_spec, strategy_spec, witness, out):
    """Print the classical bound and, when measurements are available, the
    fixed-measurement quantum value (both at 10 significant digits); a tilt
    outside [0, 1.9998] has no reference measurements."""
    expr = _load_expression(bell_spec)
    results = {"classical": bell.classical_bound(expr)}
    strategy = None
    if strategy_spec is not None:
        strategy = _single_copy_strategy("--strategy", strategy_spec)
    else:  # the preset of a built-in; an expression file or a tilt outside [0, 1.9998] has none
        with contextlib.suppress(KeyError, ValueError):
            family, alpha = bell._builtin_spec(bell_spec)
            strategy = strategies.build_preset_strategy(
                "chsh" if family == "chsh-game" else family, () if alpha is None else (alpha,))
    if strategy is not None:
        results["quantum"] = bell.quantum_value_fixed_measurements(expr, strategy)
    for name, result in results.items():
        click.echo(f"{name} {result.value:.10g}")
    if witness:
        _emit(_json_text({name: result.witness for name, result in results.items()}), None)
    if out is not None:
        _emit(_json_text({name: {"value": result.value, "witness": result.witness}
                          for name, result in results.items()}), out)


def _parse_nus(text: str) -> list:
    """Comma list ('0,0.5,1') or range syntax 'start:stop:step' of
    visibilities in [0, 1]."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("--nus", f"range syntax is start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(v) for v in parts)
        except ValueError:
            raise ConfigError("--nus", f"non-numeric range bound in {text!r}") from None
        for name, value in (("start", start), ("stop", stop), ("step", step)):
            if not math.isfinite(value):
                raise ConfigError("--nus", f"range {name} {value} is not finite")
        if step <= 0:
            raise ConfigError("--nus", "range step must be positive")
        steps = (stop + 1e-12 - start) / step
        if not steps < MAX_SWEEP_POINTS:  # also rejects a count that overflows
            raise ConfigError("--nus", f"range has more than {MAX_SWEEP_POINTS} points")
        values = []
        for k in range(max(int(steps), 0) + 2):  # one spare point for rounding
            v = start + k * step
            if v > stop + 1e-12:
                break
            values.append(min(v, stop))
        if not values:
            raise ConfigError("--nus", "empty range")
    else:
        try:
            values = [float(v) for v in text.split(",") if v.strip() != ""]
        except ValueError:
            raise ConfigError("--nus", f"non-numeric entry in {text!r}") from None
        if not values:
            raise ConfigError("--nus", "no visibilities given")
    _parse("--nus", strategies.check_visibilities, values)
    return values


@main.command()
@click.option("--strategy", "strategy_spec", default="chsh", show_default=True,
              help="Single-copy strategy preset to sweep.")
@click.option("--copies", type=int, required=True)
@click.option("--bell", "bell_spec", default="chsh", show_default=True)
@click.option("--nus", required=True,
              help="Visibilities: comma list or start:stop:step range.")
@click.option("--out", default=None, help="CSV path (default: stdout).")
def sweep(strategy_spec, copies, bell_spec, nus, out):
    """Sweep the white-noise visibility and tabulate all per-copy values as
    CSV (12 significant digits)."""
    values = _parse_nus(nus)
    expr = _load_expression(bell_spec)
    strategy = _single_copy_strategy("--strategy", strategy_spec)
    _parse("--copies", strategies.check_copies, copies)
    rows = certify.sweep_noise(strategy, copies, expr, values)
    lines = ["nu," + ",".join(f"J{i}" for i in range(1, copies + 1))]
    for r in rows:
        lines.append(",".join([f"{r['nu']:.12g}"] +
                              [f"{v:.12g}" for v in r["j_values"]]))
    _emit("\n".join(lines) + "\n", out)


def run():
    """``paraself`` and ``python -m paraself.cli``: ``main`` with the import-time heap frozen,
    so no collection, up to and at exit, walks the objects numpy, click and the package built."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
