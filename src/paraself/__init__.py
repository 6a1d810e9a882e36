"""Simulation and certification of parallel bipartite Bell experiments.

The package simulates bipartite measurement strategies, composes independent
copies into joint correlation tables under broadcast or per-copy input
schemes, and certifies (or rejects) such tables through conditional and
input-averaged Bell expression values evaluated copy by copy.
"""

from .bell import (
    BellExpression,
    BoundResult,
    CorrelationTable,
    Scheme,
    bell_operator,
    builtin_expression,
    builtin_quantum_maximum,
    chsh_expression,
    chsh_game_expression,
    classical_bound,
    expression_from_json_dict,
    quantum_value_fixed_measurements,
    table_from_json_dict,
    table_to_json_chunks,
    table_to_json_dict,
    tilted_chsh_expression,
)
from .certify import (
    CertificationReport,
    certify_theorem1,
    certify_theorem2,
    certify_theorem3,
    certify_theorem4,
    sweep_noise,
)
from .qcore import (
    DensityMatrix,
    Ket,
    Povm,
    stack_effects,
)
from .strategies import (
    SingleCopyStrategy,
    adversary_copy,
    adversary_shared_randomness,
    apply_isotropic_noise,
    build_preset_strategy,
    chsh_reference,
    compose,
    fullstats_reference,
    parse_strategy_spec,
    single_copy_table,
    tilted_chsh_reference,
)

__version__ = "0.1.0"

__all__ = [
    "BellExpression",
    "BoundResult",
    "CertificationReport",
    "CorrelationTable",
    "DensityMatrix",
    "Ket",
    "Povm",
    "Scheme",
    "SingleCopyStrategy",
    "adversary_copy",
    "adversary_shared_randomness",
    "apply_isotropic_noise",
    "bell_operator",
    "build_preset_strategy",
    "builtin_expression",
    "builtin_quantum_maximum",
    "certify_theorem1",
    "certify_theorem2",
    "certify_theorem3",
    "certify_theorem4",
    "chsh_expression",
    "chsh_game_expression",
    "chsh_reference",
    "classical_bound",
    "compose",
    "expression_from_json_dict",
    "fullstats_reference",
    "parse_strategy_spec",
    "quantum_value_fixed_measurements",
    "single_copy_table",
    "stack_effects",
    "sweep_noise",
    "table_from_json_dict",
    "table_to_json_chunks",
    "table_to_json_dict",
    "tilted_chsh_expression",
    "tilted_chsh_reference",
]
