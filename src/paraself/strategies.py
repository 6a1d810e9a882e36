"""Reference measurement strategies, parallel composition, adversarial
constructions, and the isotropic noise channel.

A :class:`SingleCopyStrategy` bundles one shared bipartite state with one
POVM per input per party.  ``compose`` turns a list of copies into a joint
:class:`~paraself.bell.CorrelationTable` under either input scheme; the two
``adversary_*`` constructors build the broadcast-shaped tables obtainable
from a *single* shared pair that nevertheless reproduce the honest per-pair
game score.  Adversary tables are constructed in closed form from the
single-copy probabilities (no sampling), so every test against them is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bell import (
    BellExpression,
    CorrelationTable,
    Scheme,
    check_tilt,
    tilted_chsh_expression,
)
from .errors import (
    CopyCountError,
    InvalidAngles,
    NonrealResult,
    SchemeInputMismatch,
    UnsupportedDimension,
)
from .qcore import (
    IMAG_TOL,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    Ket,
    Povm,
    effect_products,
    maximally_entangled_ket,
    povm_from_observable,
    stack_effects,
)

# Joint tables grow as o^(2n) m^2; six copies per party is the desk-scale cap.
MAX_COPIES = 6


def check_copies(n: int, least: int = 1) -> None:
    """Reject a copy count below ``least`` (:class:`CopyCountError`) or above
    ``MAX_COPIES`` (:class:`SchemeInputMismatch`); callers check before they
    allocate."""
    if n < least:
        raise CopyCountError(f"copy count must be >= {least}, got {n}")
    if n > MAX_COPIES:
        raise SchemeInputMismatch(f"{n} copies exceed the cap of {MAX_COPIES}")


@dataclass(frozen=True)
class SingleCopyStrategy:
    """One shared state plus per-input measurement effect lists.

    Outcome index 0 corresponds to observable eigenvalue +1 wherever a POVM
    is built from a +/-1 observable.
    """

    state: DensityMatrix
    alice: tuple
    bob: tuple
    m: int
    o: int
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.state, DensityMatrix):
            raise TypeError("state is not a DensityMatrix")
        alice = tuple(self.alice)
        bob = tuple(self.bob)
        if len(alice) != self.m or len(bob) != self.m:
            raise SchemeInputMismatch(
                f"expected {self.m} POVMs per party, got {len(alice)}/{len(bob)}"
            )
        for side, povms in (("alice", alice), ("bob", bob)):
            for x, p in enumerate(povms):
                if not isinstance(p, Povm):
                    raise TypeError(f"{side}[{x}] is not a Povm")
                if p.n_outcomes != self.o:
                    raise SchemeInputMismatch(
                        f"{side}[{x}] has {p.n_outcomes} effects, expected {self.o}"
                    )
        d_a = alice[0].dim
        d_b = bob[0].dim
        if any(p.dim != d_a for p in alice) or any(p.dim != d_b for p in bob):
            raise SchemeInputMismatch("effect dimensions differ between inputs")
        if self.state.dim != d_a * d_b:
            raise SchemeInputMismatch(
                f"state dim {self.state.dim} != {d_a} * {d_b}"
            )
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)


def _qubit_pair(state: Ket, bob0: np.ndarray, bob1: np.ndarray, label: str) -> SingleCopyStrategy:
    """Two-qubit strategy on ``state``: Alice measures Z and X, Bob the +/-1 observables
    ``bob0`` and ``bob1``."""
    povms = tuple(povm_from_observable(obs) for obs in (SIGMA_Z, SIGMA_X, bob0, bob1))
    return SingleCopyStrategy(state.density(), povms[:2], povms[2:], m=2, o=2, label=label)


def chsh_reference() -> SingleCopyStrategy:
    """Maximally entangled pair measured along Z/X (Alice) and the diagonal
    directions (Bob); attains the CHSH quantum maximum 2*sqrt(2)."""
    return _qubit_pair(maximally_entangled_ket(2), SIGMA_PLUS, SIGMA_MINUS, "chsh")


def fullstats_reference(gamma: float, delta: float) -> SingleCopyStrategy:
    """Two-angle strategy on the maximally entangled pair whose four
    correlators are (cos gamma, -cos delta, sin gamma, sin delta).

    Requires gamma != delta and gamma, delta in (0, pi/4].  Bob's second
    observable is sin(delta) X - cos(delta) Z; the outcome labeling is fixed
    so that the correlator targets above come out with the stated signs.
    """
    if not (0.0 < gamma <= np.pi / 4 and 0.0 < delta <= np.pi / 4):
        raise InvalidAngles(f"angles ({gamma}, {delta}) outside (0, pi/4]")
    if gamma == delta:
        raise InvalidAngles("angles must differ")
    return _qubit_pair(maximally_entangled_ket(2),
                       np.cos(gamma) * SIGMA_Z + np.sin(gamma) * SIGMA_X,
                       np.sin(delta) * SIGMA_X - np.cos(delta) * SIGMA_Z,
                       f"fullstats({gamma:g},{delta:g})")


def check_visibilities(nus: Sequence[float]) -> None:
    """Raise ``ValueError`` naming the first visibility outside [0, 1]; NaN is outside."""
    for nu in nus:
        if not 0.0 <= nu <= 1.0:
            raise ValueError(f"visibility {nu} outside [0, 1]")


def apply_isotropic_noise(s: SingleCopyStrategy, nu: float) -> SingleCopyStrategy:
    """Replace the shared state by nu * rho + (1 - nu) * I/4 for a visibility
    ``nu`` in [0, 1]; measurements are unchanged.  Only two-qubit
    (dimension-4) states are supported."""
    check_visibilities([nu])
    return replace(s, state=DensityMatrix(_isotropic_states(s, [nu])[0]),
                   label=f"{s.label}+noise({nu:g})")


def _isotropic_states(s: SingleCopyStrategy, nus: Sequence[float]) -> np.ndarray:
    """The unchecked states ``nu * rho + (1 - nu) * I/4`` of ``s`` for each visibility,
    stacked ``[k, 4, 4]``; only two-qubit (dimension-4) states are supported."""
    if s.state.dim != 4:
        raise UnsupportedDimension("isotropic noise implemented for two-qubit states, "
                                   f"got dim {s.state.dim}")
    nus = np.asarray(nus, dtype=float)[:, None, None]
    return nus * s.state.matrix + (1.0 - nus) * np.eye(4) / 4.0


def born_tables(s: SingleCopyStrategy, rhos: np.ndarray) -> np.ndarray:
    """Born-rule probabilities ``p[k, x, y, a, b]`` of the measurements of
    ``s`` on each state ``rhos[k]``, every entry of the stack at once."""
    krons = effect_products(stack_effects(s.alice), stack_effects(s.bob))
    values = np.trace(krons @ rhos[:, None, None, None, None], axis1=-2, axis2=-1)
    residue = float(np.max(np.abs(values.imag)))
    if residue > IMAG_TOL:
        raise NonrealResult(f"probability has imaginary part {residue:.3e}")
    # Each entry sums d^2 products of the effect product's entries (moduli at most 1) and the
    # state's (moduli summing to at most d) over 2d - 1 additions: with the rounding of the
    # inputs it is within (2d + 4) d u (u = 2^-53, 5.3e-15 at d = 4) of the exact value, so an
    # entry within that bound of zero is round-off of an exact zero and becomes 0.0.
    d = rhos.shape[-1]
    probs = np.clip(values.real, 0.0, 1.0)
    probs[probs <= (2 * d + 4) * d * np.finfo(float).eps / 2] = 0.0
    return probs


def single_copy_table(s: SingleCopyStrategy) -> CorrelationTable:
    """Born-rule table p(a, b | x, y) of one strategy, every entry at once."""
    return CorrelationTable._adopt(Scheme.BROADCAST, (s.m,), (s.o,),
                                   born_tables(s, s.state.matrix[None])[0])


def broadcast_product(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Broadcast product ``p[..., x, y, a, b]`` of the arrays ``tables[i][..., x, y, a_i, b_i]``
    of each copy, over any leading stack axes; copy 1 is least significant."""
    probs = tables[0]
    for t in tables[1:]:
        joint = np.einsum("...xyab,...xycd->...xyacbd", t, probs)
        probs = joint.reshape(joint.shape[:-4] + (joint.shape[-4] * joint.shape[-3], -1))
    return probs


def compose(strategies: Sequence[SingleCopyStrategy], scheme: Scheme) -> CorrelationTable:
    """Joint table of independent copies.

    Broadcast: every copy receives the shared inputs (x, y), so all copies
    must have the same number of inputs; the joint probability is the product
    of single-copy probabilities at those inputs.  Per-copy: inputs are joint
    mixed-radix indices as well, and copy i sees only (x_i, y_i).  Copy 1 is
    least significant in every joint index.
    """
    strategies = list(strategies)
    check_copies(len(strategies))
    tables = [single_copy_table(s).probs for s in strategies]
    output_arities = tuple(s.o for s in strategies)
    if scheme is Scheme.BROADCAST:
        m = strategies[0].m
        if any(s.m != m for s in strategies):
            raise SchemeInputMismatch("broadcast composition requires equal input counts")
        return CorrelationTable._adopt(scheme, (m,) * len(strategies), output_arities,
                                       broadcast_product(tables))
    if scheme is Scheme.PER_COPY:
        probs = tables[0]
        for t in tables[1:]:
            # np.kron makes the newer copy most significant on every axis.
            probs = np.kron(t, probs)
        input_arities = tuple(s.m for s in strategies)
        return CorrelationTable._adopt(scheme, input_arities, output_arities, probs)
    raise SchemeInputMismatch(f"unknown scheme {scheme!r}")


def _copied_pair(n: int, shared: bool) -> CorrelationTable:
    """Broadcast-shaped table of ``n`` copies of one chsh pair's outcomes ``(a, b)``, written to
    every output slot as ``(a * 1...1, b * 1...1)`` and both XORed with the same mask: with
    ``shared``, every one of the ``2^n`` masks at weight ``2^-n``, else the one mask 0."""
    check_copies(n, 2)
    size = 2 ** n
    masks = np.arange(size if shared else 1)
    p1 = single_copy_table(chsh_reference()).probs / len(masks)  # exact: a power of two
    probs = np.zeros((2, 2, size, size))
    for a, b in itertools.product(range(2), repeat=2):  # one (a, b) puts each mask in its own cell
        probs[:, :, masks ^ (a * (size - 1)), masks ^ (b * (size - 1))] += p1[:, :, a, b, None]
    return CorrelationTable._adopt(Scheme.BROADCAST, (2,) * n, (2,) * n, probs)


def adversary_copy(n: int) -> CorrelationTable:
    """Broadcast-shaped table from a single shared pair whose one outcome is
    copied into all n output slots.

    Every per-pair marginal reproduces the honest game score, but outputs are
    perfectly correlated across copies: conditioning on the first pair makes
    every later pair deterministic.
    """
    return _copied_pair(n, shared=False)


def adversary_shared_randomness(n: int) -> CorrelationTable:
    """Copying adversary with outputs XORed against i.i.d. uniform shared
    bits, which makes every local marginal uniform (1/2^n) while preserving
    each pair's parity a_i XOR b_i.

    Closed form: p(a, b | x, y) = P(parity s | x, y) / 2^n whenever all pairs
    share the parity s, and 0 otherwise.
    """
    return _copied_pair(n, shared=True)


def tilted_chsh_reference(alpha: float, coefficients: BellExpression,
                          seed: int = 0) -> SingleCopyStrategy:
    """Two-qubit strategy attaining the quantum maximum sqrt(8 + 2 alpha^2)
    of ``tilted_chsh_expression(alpha)``, in closed form (Acin, Massar,
    Pironio, PRL 108, 100402 (2012); Bamps, Pironio, PRA 91, 052111 (2015)).

    The state is cos(theta)|00> + sin(theta)|11> with
    sin(2 theta) = sqrt((4 - alpha^2) / (4 + alpha^2)); Alice measures Z and
    X, Bob cos(mu) Z +/- sin(mu) X with tan(mu) = sin(2 theta).
    ``coefficients`` must equal ``tilted_chsh_expression(alpha).coeffs`` bit
    for bit, since the formula maximizes only that family; ``seed`` is
    unused.
    """
    check_tilt(alpha)
    want = tilted_chsh_expression(alpha).coeffs
    if not np.array_equal(coefficients.coeffs.view(np.uint64), want.view(np.uint64)):
        raise ValueError(f"coefficients are not those of tilted-chsh({alpha:g})")
    # atan2 of (sin 2 theta, cos 2 theta) stays well conditioned as alpha -> 0.
    theta = 0.5 * math.atan2(math.sqrt(4.0 - alpha * alpha), alpha * math.sqrt(2.0))
    mu = math.atan(math.sin(2.0 * theta))
    bob0, bob1 = (math.cos(mu) * SIGMA_Z + sign * math.sin(mu) * SIGMA_X for sign in (1.0, -1.0))
    return _qubit_pair(Ket([math.cos(theta), 0.0, 0.0, math.sin(theta)]), bob0, bob1,
                       f"tilted-chsh({alpha:g})")


# ---------------------------------------------------------------------------
# Named presets, addressable as "name" or "name(arg, ...)".

def parse_strategy_spec(text: str) -> tuple:
    """Split a preset spec like ``tilted-chsh(0.5)`` into (name, args)."""
    text = text.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise KeyError(f"unbalanced parentheses in {text!r}")
        name, _, inner = text[:-1].partition("(")
        args = tuple(float(v) for v in inner.split(",")) if inner.strip() else ()
        return name.strip(), args
    return text, ()


def build_preset_strategy(name: str, args: Sequence[float]) -> SingleCopyStrategy:
    """Construct a single-copy strategy preset by name.  Adversary presets
    are whole tables, not single-copy strategies; see ``ADVERSARIES``."""
    if name == "chsh":
        if args:
            raise KeyError("chsh takes no parameters")
        return chsh_reference()
    if name == "tilted-chsh":
        if len(args) != 1:
            raise KeyError("tilted-chsh takes exactly one parameter (alpha)")
        alpha = float(args[0])
        # The range before the expression, which a huge tilt overflows; a tilt
        # that is not finite is the expression's to name.
        if math.isfinite(alpha):
            check_tilt(alpha)
        return tilted_chsh_reference(alpha, tilted_chsh_expression(alpha))
    if name == "fullstats":
        if len(args) != 2:
            raise KeyError("fullstats takes exactly two parameters (gamma, delta)")
        return fullstats_reference(float(args[0]), float(args[1]))
    raise KeyError(f"unknown strategy preset {name!r}")


# Adversary table presets by name; each takes the copy count.
ADVERSARIES = {"adversary-copy": adversary_copy,
               "adversary-shared-randomness": adversary_shared_randomness}
