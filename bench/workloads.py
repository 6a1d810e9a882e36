"""The workloads: what each one sets up and which operations make up one of
its cycles.  Every cycle runs the same operations; only their order and the
seed-drawn parameters (alpha, nu, copy layout) come from the seed, and the
program sees them only as CLI arguments, files or call arguments.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from checks import CHSH_MAX, DEFAULT_TOL, ORACLE_TOL

BENCH = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
FULLSTATS = (0.1, 0.2)
FULLSTATS_SPEC = "fullstats(0.1,0.2)"
SWEEP_POINTS = 21
BETA = repr(CHSH_MAX)
EXIT = {"pass": 0, "fail": 1}

# Operations that fail on every run because of a fault in the program.  They
# are counted in ``failed`` and leave ``correct`` true.
KNOWN_FAULTS = {
    "theorem2-fullstats6": (
        "certify_theorem2 compares prefix probabilities with the absolute "
        "POSITIVITY_THRESHOLD = 1e-12; prefixes of an honest 6-copy "
        "fullstats(0.1,0.2) table fall to about 3e-15, so the honest table fails"),
}


@dataclass
class Op:
    """One operation: ``run`` is the timed program work, ``check`` raises
    :class:`checks.CheckError` when its output is wrong."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Context:
    root: Path
    work: Path
    rng: random.Random
    trace: bool
    span_files: list = field(default_factory=list)
    table_bytes: int = 0

    def python(self, *args) -> subprocess.CompletedProcess:
        """A child interpreter that sees the checkout's ``src`` on its path."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        return subprocess.run([sys.executable, *args], cwd=self.root, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)

    def cli(self, *args) -> subprocess.CompletedProcess:
        """One ``paraself`` command in its own process; traced runs start it
        through the launcher, which records spans into its own file."""
        if not self.trace:
            return self.python("-m", "paraself.cli", *args)
        spans = self.work / f"spans-{len(self.span_files):05d}.npz"
        self.span_files.append(spans)
        return self.python(str(BENCH / "launch.py"), str(spans), *args)


def _simulate(ctx: Context, kind: str, out: Path, args, scheme: str, n: int, **table_checks) -> Op:
    def run():
        out.unlink(missing_ok=True)
        proc = ctx.cli("simulate", *args, "--out", str(out))
        if out.exists():
            ctx.table_bytes += out.stat().st_size
        return proc

    def check(proc):
        checks.check_exit(proc.returncode, 0, proc.stderr)
        checks.check_table_json(json.loads(out.read_text()), scheme, n, **table_checks)

    return Op(kind, run, check)


def _certify(ctx: Context, kind: str, args, verdict: str, values, tol: float) -> Op:
    def check(proc):
        checks.check_exit(proc.returncode, EXIT[verdict], proc.stderr)
        checks.check_report(json.loads(proc.stdout), verdict, values, tol)

    return Op(kind, lambda: ctx.cli("certify", *args), check)


class CliSession:
    """A user's session of ``paraself`` commands, one process each."""

    name = "cli-session"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.alpha = round(ctx.rng.uniform(0.4, 0.6), 2)
        tilted = f"tilted-chsh({self.alpha})"
        self.mix = ["chsh", tilted] if ctx.rng.random() < 0.5 else [tilted, "chsh"]
        self.params = {"alpha": self.alpha, "mix": self.mix}
        self.tables = ctx.work / "tables"
        self.tables.mkdir(parents=True, exist_ok=True)
        self.reference = self.tables / "fullstats-1.json"
        self.setup_proc = None
        self.units = self._units()

    def setup(self):
        """Import the CLI and write the one-copy theorem2 reference."""
        self.setup_proc = self.ctx.cli("simulate", "--strategy", FULLSTATS_SPEC,
                                       "--copies", "1", "--out", str(self.reference))

    def verify_setup(self):
        checks.check_exit(self.setup_proc.returncode, 0, self.setup_proc.stderr)
        checks.check_table_json(json.loads(self.reference.read_text()), "broadcast", 1,
                                checks.fullstats_single(*FULLSTATS))

    def _units(self) -> list:
        ctx, t = self.ctx, self.tables
        units = []
        chsh = checks.chsh_single()
        for n in (2, 4, 6):
            out = t / f"chsh-{n}.json"
            units.append([
                _simulate(ctx, f"simulate-chsh{n}", out, ["--strategy", "chsh", "--copies", str(n)],
                          "broadcast", n, expected=checks.broadcast_product([chsh] * n)),
                _certify(ctx, f"theorem1-chsh{n}",
                         ["--table", str(out), "--protocol", "theorem1", "--bell", "chsh", "--beta", BETA],
                         "pass", [CHSH_MAX] * n, DEFAULT_TOL),
            ])
        for name in ("adversary-copy", "adversary-shared-randomness"):
            out = t / f"{name}-6.json"
            units.append([
                _simulate(ctx, f"simulate-{name}6", out, ["--strategy", f"{name}(6)"],
                          "broadcast", 6, marginals={1: chsh}),
                _certify(ctx, f"theorem1-{name}6",
                         ["--table", str(out), "--protocol", "theorem1", "--bell", "chsh", "--beta", BETA],
                         "fail", [CHSH_MAX] + [None] * 5, DEFAULT_TOL),
            ])
        out = t / "mix-2.json"
        chsh_copy = self.mix.index("chsh") + 1
        units.append([
            _simulate(ctx, "simulate-mix2", out, [a for s in self.mix for a in ("--strategy", s)],
                      "broadcast", 2, marginals={chsh_copy: chsh}, product=True),
            _certify(ctx, "theorem3-mix2",
                     ["--table", str(out), "--protocol", "theorem3",
                      *[a for s in self.mix for a in ("--bell", s)],
                      "--beta", "oracle", "--tol", "1e-6"],
                     "pass", [CHSH_MAX if s == "chsh" else checks.tilted_max(self.alpha)
                              for s in self.mix], ORACLE_TOL),
        ])
        out = t / "fullstats-4.json"
        units.append([
            _simulate(ctx, "simulate-fullstats4", out, ["--strategy", FULLSTATS_SPEC, "--copies", "4"],
                      "broadcast", 4,
                      expected=checks.broadcast_product([checks.fullstats_single(*FULLSTATS)] * 4)),
            _certify(ctx, "theorem2-fullstats4",
                     ["--table", str(out), "--protocol", "theorem2", "--reference", str(self.reference)],
                     "pass", [0.0] * 4, DEFAULT_TOL),
        ])
        out = t / "percopy-4.json"
        units.append([
            _simulate(ctx, "simulate-percopy4", out,
                      ["--strategy", "chsh", "--copies", "4", "--scheme", "percopy"],
                      "percopy", 4, expected=checks.percopy_product(chsh, 4)),
            _certify(ctx, "theorem4-percopy4",
                     ["--table", str(out), "--protocol", "theorem4", "--bell", "chsh", "--beta", BETA],
                     "pass", [CHSH_MAX] * 4, DEFAULT_TOL),
        ])
        csv = t / "sweep.csv"

        def sweep():
            csv.unlink(missing_ok=True)
            return ctx.cli("sweep", "--copies", "4", "--nus", "0:1:0.05", "--out", str(csv))

        def check_sweep(proc):
            checks.check_exit(proc.returncode, 0, proc.stderr)
            checks.check_sweep_rows(checks.parse_sweep_csv(csv.read_text(), 4),
                                    checks.sweep_nus(SWEEP_POINTS), 4)

        def check_bounds(proc):
            checks.check_exit(proc.returncode, 0, proc.stderr)
            checks.check_bounds_output(proc.stdout)

        units.append([Op("sweep-n4", sweep, check_sweep)])
        units.append([Op("bounds-chsh", lambda: ctx.cli("bounds", "--bell", "chsh"), check_bounds)])
        return units

    def cycle(self) -> list:
        units = list(self.units)
        self.ctx.rng.shuffle(units)
        return [op for unit in units for op in unit]


class PercopyFiles:
    """Per-copy n=5 tables written to a file and certified from it."""

    name = "percopy-files"
    copies = 5

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.nu = round(ctx.rng.uniform(0.85, 0.95), 3)
        self.params = {"nu": self.nu}
        self.out = ctx.work / "tables" / f"percopy-{self.copies}.json"
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.expected = {nu: checks.percopy_product(checks.chsh_single(nu), self.copies)
                         for nu in (1.0, self.nu)}
        self.setup_proc = None

    def setup(self):
        """Start an interpreter and import the CLI, as every command does."""
        self.setup_proc = self.ctx.python("-c", "import paraself.cli")

    def verify_setup(self):
        checks.check_exit(self.setup_proc.returncode, 0, self.setup_proc.stderr)

    def _job(self, nu: float) -> Op:
        ctx, out, n = self.ctx, self.out, self.copies
        noise = [] if nu == 1.0 else ["--noise", str(nu)]
        verdict = "pass" if nu == 1.0 else "fail"

        def run():
            out.unlink(missing_ok=True)
            sim = ctx.cli("simulate", "--strategy", "chsh", "--copies", str(n), "--scheme", "percopy",
                          *noise, "--out", str(out))
            if out.exists():
                ctx.table_bytes += out.stat().st_size
            cert = ctx.cli("certify", "--table", str(out), "--protocol", "theorem4",
                           "--bell", "chsh", "--beta", BETA)
            return sim, cert

        def check(result):
            sim, cert = result
            try:
                checks.check_exit(sim.returncode, 0, sim.stderr)
                checks.check_table_json(json.loads(out.read_text()), "percopy", n,
                                        expected=self.expected[nu])
            finally:
                out.unlink(missing_ok=True)
            checks.check_exit(cert.returncode, EXIT[verdict], cert.stderr)
            checks.check_report(json.loads(cert.stdout), verdict, [nu * CHSH_MAX] * n, DEFAULT_TOL)

        return Op("job-honest" if nu == 1.0 else "job-noisy", run, check)

    def cycle(self) -> list:
        return [self._job(1.0), self._job(self.nu)]


class LibraryCertify:
    """In-process calls on the largest tables the copy cap allows."""

    name = "library-certify"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.alpha = round(ctx.rng.uniform(0.4, 0.6), 2)
        self.nu = round(ctx.rng.uniform(0.85, 0.95), 3)
        self.tilted_copies = sorted(ctx.rng.sample(range(1, 7), 3))
        self.params = {"alpha": self.alpha, "nu": self.nu, "tilted_copies": self.tilted_copies}
        self.inputs: dict = {}
        self.ops: list = []

    def setup(self):
        """Build every input table, the see-saw strategy among them."""
        from paraself import bell, strategies

        broadcast, percopy = bell.Scheme.BROADCAST, bell.Scheme.PER_COPY
        chsh = strategies.chsh_reference()
        tilted_expr = bell.tilted_chsh_expression(self.alpha)
        tilted = strategies.tilted_chsh_reference(self.alpha, tilted_expr, seed=0)
        fullstats = strategies.fullstats_reference(*FULLSTATS)
        noisy = strategies.apply_isotropic_noise(chsh, self.nu)
        mix = [tilted if k in self.tilted_copies else chsh for k in range(1, 7)]
        self.inputs = {
            "chsh": chsh,
            "chsh_expr": bell.chsh_expression(),
            "tilted_expr": tilted_expr,
            "tilted": tilted,
            "chsh6": strategies.compose([chsh] * 6, broadcast),
            "adversary-copy6": strategies.adversary_copy(6),
            "adversary-shared6": strategies.adversary_shared_randomness(6),
            "mix6": strategies.compose(mix, broadcast),
            "reference": strategies.single_copy_table(fullstats),
            "fullstats5": strategies.compose([fullstats] * 5, broadcast),
            "fullstats6": strategies.compose([fullstats] * 6, broadcast),
            "percopy5": strategies.compose([chsh] * 5, percopy),
            "percopy5-noisy": strategies.compose([noisy] * 5, percopy),
        }

    def verify_setup(self):
        t = self.inputs
        chsh = checks.chsh_single()
        fullstats = checks.fullstats_single(*FULLSTATS)
        checks.check_probs(t["chsh6"].probs, checks.broadcast_product([chsh] * 6), "chsh^6")
        for name in ("adversary-copy6", "adversary-shared6"):
            checks.check_probs(checks.copy_marginals(t[name].probs, 6)[0], chsh, f"{name} copy 1")
        checks.check_probs(t["reference"].probs, fullstats, "fullstats reference")
        for n in (5, 6):
            checks.check_probs(t[f"fullstats{n}"].probs, checks.broadcast_product([fullstats] * n),
                               f"fullstats^{n}")
        checks.check_probs(t["percopy5"].probs, checks.percopy_product(chsh, 5), "per-copy chsh^5")
        checks.check_probs(t["percopy5-noisy"].probs,
                           checks.percopy_product(checks.chsh_single(self.nu), 5),
                           f"per-copy chsh^5 at nu={self.nu}")
        self._check_tilted(t["tilted"])
        marginals = checks.copy_marginals(t["mix6"].probs, 6)
        for k in range(1, 7):
            if k not in self.tilted_copies:
                checks.check_probs(marginals[k - 1], chsh, f"mix copy {k}")
        checks.check_probs(t["mix6"].probs, checks.broadcast_product(marginals), "mix^6 product")

    def _check_tilted(self, strategy):
        checks.check_tilted_strategy(strategy.state.matrix,
                                     [p.effects for p in strategy.alice],
                                     [p.effects for p in strategy.bob], self.alpha)

    def cycle(self) -> list:
        if not self.ops:
            self.ops = self._ops()
        ops = list(self.ops)
        self.ctx.rng.shuffle(ops)
        return ops

    def _ops(self) -> list:
        from paraself import certify, strategies

        t = self.inputs
        ce, te = t["chsh_expr"], t["tilted_expr"]
        nus = checks.sweep_nus(SWEEP_POINTS)
        mix_exprs = [te if k in self.tilted_copies else ce for k in range(1, 7)]
        mix_targets = [checks.tilted_max(self.alpha) if k in self.tilted_copies else CHSH_MAX
                       for k in range(1, 7)]

        def report(verdict, values, tol=DEFAULT_TOL):
            return lambda r: checks.check_report(r.to_json_dict(), verdict, values, tol)

        def check_sweep(rows):
            checks.check_sweep_rows([(r["nu"], r["j_values"]) for r in rows], nus, 4)

        return [
            Op("theorem1-chsh6", lambda: certify.certify_theorem1(t["chsh6"], ce, CHSH_MAX),
               report("pass", [CHSH_MAX] * 6)),
            Op("theorem1-adversary-copy6",
               lambda: certify.certify_theorem1(t["adversary-copy6"], ce, CHSH_MAX),
               report("fail", [CHSH_MAX] + [None] * 5)),
            Op("theorem1-adversary-shared6",
               lambda: certify.certify_theorem1(t["adversary-shared6"], ce, CHSH_MAX),
               report("fail", [CHSH_MAX] + [None] * 5)),
            Op("theorem3-mix6",
               lambda: certify.certify_theorem3(t["mix6"], mix_exprs, mix_targets, ORACLE_TOL),
               report("pass", mix_targets, ORACLE_TOL)),
            Op("theorem2-fullstats5", lambda: certify.certify_theorem2(t["fullstats5"], t["reference"]),
               report("pass", [0.0] * 5)),
            Op("theorem2-fullstats6", lambda: certify.certify_theorem2(t["fullstats6"], t["reference"]),
               report("pass", [0.0] * 6)),
            Op("theorem4-chsh5",
               lambda: certify.certify_theorem4(t["percopy5"], [ce] * 5, [CHSH_MAX] * 5),
               report("pass", [CHSH_MAX] * 5)),
            Op("theorem4-chsh5-noisy",
               lambda: certify.certify_theorem4(t["percopy5-noisy"], [ce] * 5, [CHSH_MAX] * 5),
               report("fail", [self.nu * CHSH_MAX] * 5)),
            Op("sweep-n4", lambda: certify.sweep_noise(t["chsh"], 4, ce, nus), check_sweep),
            Op("tilted-reference",
               lambda: strategies.tilted_chsh_reference(self.alpha, te, seed=0), self._check_tilted),
        ]


WORKLOADS = {w.name: w for w in (CliSession, LibraryCertify, PercopyFiles)}
