"""The public names of ``hookgames``, pinned so that exports change only on
purpose: a name added to or removed from the package fails here until this
list is edited with it."""

import importlib
import types

import hookgames

PUBLIC_NAMES = {
    "BoardParams",
    "DomainError",
    "EngineInvariantError",
    "HookGamesError",
    "HookRecord",
    "MhrgPosition",
    "MoveRecord",
    "RangeTooLargeError",
    "Report",
    "ShiftedDiagram",
    "TwoRowClass",
    "YoungDiagram",
    "all_diagrams",
    "all_shifted",
    "from_shifted",
    "grundy",
    "grundy_table",
    "hook_at",
    "is_symmetric",
    "max_label",
    "mex",
    "move_for_box",
    "moves_semantic",
    "nim_sum",
    "options_cross_check",
    "options_diagonal",
    "options_semantic",
    "predict_1n",
    "predict_2n_class",
    "predict_shifted",
    "predict_start_2n",
    "predict_start_square",
    "reachable",
    "remove_hook",
    "solve",
    "solve_hrg",
    "staircase",
    "start_position",
    "table1_golden",
    "to_shifted",
    "unimodal_number",
    "verify",
    "verify_isomorphism",
    "verify_staircase_iso",
    "verify_widening",
}

# Names the benchmark harness calls, on the package and on its modules.
BENCHMARK_NAMES = {
    "": (
        "solve",
        "reachable",
        "options_diagonal",
        "options_semantic",
        "moves_semantic",
        "MhrgPosition",
        "BoardParams",
        "YoungDiagram",
        "predict_start_square",
        "table1_golden",
    ),
    "cli": ("main", "build_parser"),
    "closedforms": ("verify",),
    "isomorphisms": ("verify_widening_range", "verify_staircase_range"),
    "mhrg": ("options_cross_check",),
}

# The diagonal-profile representation, kept only in the tests' conftest.
PROFILE_NAMES = (
    "DiagonalSeq",
    "diagonal_of",
    "diagram_of",
    "decrement_interval",
    "bulge_kind",
    "BulgeKind",
    "Rejection",
    "RejectReason",
    "diagonal_label",
    "label_multiset",
    "ShiftedDiagonalSeq",
    "shifted_diagonal_of",
    "shifted_diagram_of",
    "widen_diagonal",
    "widen_position",
)
MODULES = ("cli", "closedforms", "diagrams", "errors", "grundy", "isomorphisms", "mhrg", "shifted")


def test_public_names_are_pinned():
    exported = {
        name
        for name, value in vars(hookgames).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_benchmark_names_stay_public():
    for module, names in BENCHMARK_NAMES.items():
        owner = importlib.import_module(f"hookgames.{module}" if module else "hookgames")
        for name in names:
            assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
    assert set(BENCHMARK_NAMES[""]) <= PUBLIC_NAMES
    # ``HookRecord.label_list`` is an alias of ``labels`` that stays because
    # the harness's move payload (``perfbench/workloads.py``,
    # ``_moves_payload``) reads labels through it.
    hook = hookgames.hook_at(hookgames.BoardParams(3, 5), hookgames.YoungDiagram((5, 4, 3)), 1, 4)
    assert hook.label_list() == hook.labels == (1, 2, 3)


def test_no_module_carries_the_profile_representation():
    for module in MODULES:
        owner = importlib.import_module(f"hookgames.{module}")
        assert not set(PROFILE_NAMES) & set(vars(owner)), owner.__name__
    assert not hasattr(hookgames.MhrgPosition, "profile")
