"""Reference values computed apart from paraself, and the checks that hold
the program's outputs to them.

Nothing here calls into paraself: honest tables are rebuilt entry by entry
from the analytic single-copy formulas with explicit mixed-radix digit
decoding (copy 1 least significant), and values are compared with their
closed forms.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import math

import numpy as np

CHSH_MAX = 2.0 * math.sqrt(2.0)
DEFAULT_TOL = 1e-8   # the CLI's documented default --tol
ORACLE_TOL = 1e-6    # the --tol used with see-saw targets
TABLE_TOL = 1e-12    # entrywise; products of at most six doubles
SWEEP_TOL = 1e-9     # sweep CSV carries 12 significant digits


class CheckError(Exception):
    """An output of the program disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def chsh_single(nu: float = 1.0) -> np.ndarray:
    """p(a, b | x, y) = (1 + nu (-1)^(a+b+xy) / sqrt 2) / 4."""
    x, y, a, b = np.indices((2, 2, 2, 2))
    return (1.0 + nu * (-1.0) ** (a + b + x * y) / math.sqrt(2.0)) / 4.0


def fullstats_single(gamma: float, delta: float) -> np.ndarray:
    """Uniform marginals with correlators (cos g, -cos d, sin g, sin d)."""
    corr = np.array([[math.cos(gamma), -math.cos(delta)],
                     [math.sin(gamma), math.sin(delta)]])
    x, y, a, b = np.indices((2, 2, 2, 2))
    return (1.0 + (-1.0) ** (a + b) * corr[x, y]) / 4.0


def tilted_max(alpha: float) -> float:
    """Quantum maximum sqrt(8 + 2 alpha^2) of the tilted CHSH family."""
    return math.sqrt(8.0 + 2.0 * alpha * alpha)


def tilted_coeffs(alpha: float) -> np.ndarray:
    """CHSH plus alpha times Alice's first marginal, split over Bob's inputs."""
    x, y, a, b = np.indices((2, 2, 2, 2))
    return (-1.0) ** (a + b + x * y) + (x == 0) * (alpha / 2.0) * (-1.0) ** a


def _digits(count: int, radix: int, n: int) -> np.ndarray:
    """``digits[j, k]`` is digit k of joint index j, copy 1 first."""
    j = np.arange(count)[:, None]
    return (j // radix ** np.arange(n)[None, :]) % radix


def broadcast_product(singles) -> np.ndarray:
    """Joint broadcast table of independent copies with single-copy tables
    ``singles`` (copy 1 first, equal arities)."""
    n = len(singles)
    m, o = singles[0].shape[0], singles[0].shape[2]
    d = _digits(o ** n, o, n)
    probs = np.ones((m, m, o ** n, o ** n))
    for k, single in enumerate(singles):
        probs *= single[:, :, d[:, k][:, None], d[:, k][None, :]]
    return probs


def percopy_product(single: np.ndarray, n: int) -> np.ndarray:
    """Joint per-copy table of n copies of ``single``."""
    m, o = single.shape[0], single.shape[2]
    dx = _digits(m ** n, m, n)
    do = _digits(o ** n, o, n)
    probs = np.ones((m ** n, m ** n, o ** n, o ** n))
    for k in range(n):
        probs *= single[dx[:, k][:, None, None, None], dx[:, k][None, :, None, None],
                        do[:, k][None, None, :, None], do[:, k][None, None, None, :]]
    return probs


def copy_marginals(probs: np.ndarray, n: int) -> list:
    """Single-copy marginals of an n-copy broadcast table with equal output
    arities, copy 1 first."""
    m, size = probs.shape[0], probs.shape[2]
    o = round(size ** (1.0 / n))
    # Copy 1 is the fastest digit, so it is the last axis after reshaping.
    r = np.asarray(probs).reshape((m, m) + (o,) * n + (o,) * n)
    marginals = []
    for k in range(n):
        keep_a, keep_b = 2 + n - 1 - k, 2 + 2 * n - 1 - k
        axes = tuple(ax for ax in range(2, 2 + 2 * n) if ax not in (keep_a, keep_b))
        marginals.append(r.sum(axis=axes))
    return marginals


def check_probs(probs, expected: np.ndarray, what: str) -> None:
    probs = np.asarray(probs, dtype=float)
    require(probs.shape == expected.shape,
            f"{what}: shape {probs.shape}, expected {expected.shape}")
    dev = float(np.max(np.abs(probs - expected)))
    require(dev <= TABLE_TOL, f"{what}: entries deviate from the reference by {dev:.3e}")


def check_table_json(data: dict, scheme: str, n: int, expected: np.ndarray | None = None,
                     marginals: dict | None = None, product: bool = False) -> np.ndarray:
    """A table file: its scheme and copy count, then every entry against
    ``expected``, the named copies' marginals (``{copy: table}``) against
    their references, and with ``product`` that the table is the product of
    its own marginals.  Returns the probabilities."""
    require(isinstance(data, dict), "table is not a JSON object")
    require(data.get("scheme") == scheme, f"scheme {data.get('scheme')!r}, expected {scheme!r}")
    require(data.get("n_copies") == n, f"n_copies {data.get('n_copies')!r}, expected {n}")
    probs = np.asarray(data["probs"], dtype=float)
    if expected is not None:
        check_probs(probs, expected, f"{scheme} table of {n} copies")
    if marginals or product:
        own = copy_marginals(probs, n)
        for copy, reference in (marginals or {}).items():
            check_probs(own[copy - 1], reference, f"copy-{copy} marginal")
        if product:
            check_probs(probs, broadcast_product(own), "product of the copy marginals")
    return probs


def check_report(report: dict, verdict: str, values, tol: float) -> None:
    """Verdict, then every copy's value against its expected value (None:
    not checked)."""
    require(isinstance(report, dict), "report is not a JSON object")
    got = report.get("verdict")
    require(got == verdict, f"verdict {got!r}, expected {verdict!r}")
    copies = report.get("copies", [])
    require(len(copies) == len(values), f"{len(copies)} copies, expected {len(values)}")
    for k, (entry, want) in enumerate(zip(copies, values), 1):
        value = entry["value"]
        require(want is None or abs(value - want) <= tol,
                f"copy {k}: value {value!r}, expected {want!r} within {tol:g}")


def check_exit(code: int, expected: int, stderr: str = "") -> None:
    tail = stderr.strip().splitlines()[-1:] if stderr else []
    require(code == expected, f"exit {code}, expected {expected} {' '.join(tail)}".strip())


def sweep_nus(points: int) -> list:
    return [k / (points - 1) for k in range(points)]


def check_sweep_rows(rows, nus, n: int) -> None:
    """Rows of ``(nu, [J1..Jn])``: ascending visibilities, every value nu 2 sqrt 2."""
    require(len(rows) == len(nus), f"{len(rows)} sweep rows, expected {len(nus)}")
    for (nu, values), want_nu in zip(rows, nus):
        require(abs(nu - want_nu) <= SWEEP_TOL, f"sweep row nu={nu!r}, expected {want_nu!r}")
        require(len(values) == n, f"sweep row nu={nu!r}: {len(values)} values, expected {n}")
        for k, value in enumerate(values, 1):
            require(abs(value - want_nu * CHSH_MAX) <= SWEEP_TOL,
                    f"sweep row nu={nu!r}: J{k} = {value!r}, expected {want_nu * CHSH_MAX!r}")


def parse_sweep_csv(text: str, n: int) -> list:
    lines = text.strip().splitlines()
    header = "nu," + ",".join(f"J{k}" for k in range(1, n + 1))
    require(bool(lines) and lines[0] == header, f"sweep header {lines[:1]!r}, expected {header!r}")
    rows = []
    for line in lines[1:]:
        fields = [float(v) for v in line.split(",")]
        rows.append((fields[0], fields[1:]))
    return rows


def check_bounds_output(stdout: str) -> None:
    want = [f"classical {2.0:.10g}", f"quantum {CHSH_MAX:.10g}"]
    got = stdout.strip().splitlines()
    require(got == want, f"bounds printed {got!r}, expected {want!r}")


def born_table(state: np.ndarray, alice, bob) -> np.ndarray:
    """p(a, b | x, y) = sum A_ij B_kl rho[(j,l),(i,k)] for effect lists
    ``alice[x][a]`` and ``bob[y][b]``."""
    da, db = alice[0][0].shape[0], bob[0][0].shape[0]
    rho4 = np.asarray(state).reshape(da, db, da, db)
    m, o = len(alice), len(alice[0])
    probs = np.empty((m, m, o, o))
    for x in range(m):
        for y in range(m):
            for a in range(o):
                for b in range(o):
                    probs[x, y, a, b] = np.einsum(
                        "ij,kl,jlik->", alice[x][a], bob[y][b], rho4).real
    return probs


def check_tilted_strategy(state, alice, bob, alpha: float) -> None:
    """The strategy reaches sqrt(8 + 2 alpha^2) on the tilted expression."""
    value = float(np.sum(tilted_coeffs(alpha) * born_table(state, alice, bob)))
    require(abs(value - tilted_max(alpha)) <= ORACLE_TOL,
            f"tilted-chsh({alpha}) strategy reaches {value!r}, expected {tilted_max(alpha)!r}")
