"""Exact analysis of hook-removal games on boxed and shifted Young diagrams.

The package provides move generation (two independent engines), reachable
set enumeration, memoised game-value computation, machine verification of
the game isomorphisms and closed-form value formulas, and regeneration of
the 9x9 table of starting values.
"""

from .closedforms import (
    TwoRowClass,
    grundy_table,
    nim_sum,
    predict_1n,
    predict_2n_class,
    predict_shifted,
    predict_start_2n,
    predict_start_square,
    table1_golden,
    verify,
)
from .diagrams import (
    BoardParams,
    HookRecord,
    YoungDiagram,
    all_diagrams,
    hook_at,
    max_label,
    remove_hook,
    unimodal_number,
)
from .errors import (
    DomainError,
    EngineInvariantError,
    HookGamesError,
    RangeTooLargeError,
)
from .grundy import grundy, mex
from .isomorphisms import (
    Report,
    from_shifted,
    is_symmetric,
    to_shifted,
    verify_isomorphism,
    verify_staircase_iso,
    verify_widening,
)
from .mhrg import (
    MhrgPosition,
    MoveRecord,
    move_for_box,
    moves_semantic,
    options_cross_check,
    options_diagonal,
    options_semantic,
    reachable,
    solve,
    start_position,
)
from .shifted import (
    ShiftedDiagram,
    all_shifted,
    solve_hrg,
    staircase,
)

__version__ = "0.1.0"
