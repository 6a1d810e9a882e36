"""The package exports what the CLI and the certifiers use; references that
only tests call live in ``tests/reference.py`` and must not creep back, nor
may the wrappers around the walk over a table's copies that only tests
called.  The package's line count is pinned, so it cannot grow unnoticed, and
both process entries, the installed command and ``python -m``, go through one
function."""

import ast
from pathlib import Path

import pytest

import paraself
from paraself import bell, certify, cli, qcore, strategies

PUBLIC = [
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

TEST_ONLY = [
    "born_probability", "max_eigenvalue", "validate_povm", "encode_joint", "decode_joint",
    "evaluate", "correlator", "j_value", "expression_to_json_dict", "table_to_json_text",
    "local_deterministic", "build_preset_table", "ADVERSARY_PRESETS", "IDENTITY_2",
]

# Lines of ``src/paraself/*.py`` as ``wc -l`` counts them: the package should not
# get bigger, so a change that raises this says why in CHANGES.md.
MAX_PACKAGE_LINES = 2151

# The certifiers reach the walk through ``bell.conditional_means`` and
# ``bell._conditioned_terms`` only, which alone conditions every copy.
WALK_WRAPPERS = ["copy_marginal", "conditional_kernel", "conditional_mean", "averaged_j_percopy",
                 "_copy_kernels", "_conditioned"]


def test_public_names_are_pinned():
    assert sorted(paraself.__all__) == PUBLIC
    assert all(hasattr(paraself, name) for name in PUBLIC)


def test_test_only_references_stay_out_of_the_package():
    for module in (paraself, bell, qcore, strategies):
        assert [name for name in TEST_ONLY + WALK_WRAPPERS if hasattr(module, name)] == [], \
            module.__name__
    assert not hasattr(bell.BellExpression, "scaled")


def test_certify_does_not_reach_into_the_walk():
    assert [name for name in ("_copy_joints", "_copy_kernels", "_conditioned")
            if hasattr(certify, name)] == []


def test_the_package_does_not_grow():
    sources = sorted(Path(paraself.__file__).parent.glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in sources)
    assert lines <= MAX_PACKAGE_LINES, f"{lines} lines in {len(sources)} modules"


def test_the_command_and_python_m_enter_through_run():
    # ``run`` freezes the import-time heap; ``main`` stays the plain group that tests invoke.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    root = Path(paraself.__file__).parents[2]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"paraself": "paraself.cli:run"}
    guard = ast.parse(Path(cli.__file__).read_text()).body[-1]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    run()"
