"""No-Flippancy: a deterministic, probability-free coin-tossing game.

Both players commit to distinct H/T strings of equal length and then
alternately name tosses according to a fixed greedy rule; the library
plays games out, predicts winners from string shape, constructs
strings that force a chosen result, and exhaustively enumerates
outcomes over all string pairs.
"""

from .engine import (
    MAX_LENGTH,
    GameState,
    GameTrace,
    Outcome,
    OutcomeKind,
    Player,
    ProgressAutomaton,
    START_STATE,
    Toss,
    TossString,
    advance,
    finite_toss_bound,
    next_choice,
    play,
    scan_progress,
)
from .analysis import (
    Prediction,
    RunProfile,
    all_predictions,
    predict_by_runs,
    predict_large_overlap,
    predict_special_strings,
    run_profile,
)
from .forcing import (
    DEFAULT_SEARCH_CAP,
    ForceGoal,
    ForceResult,
    ForceStatus,
    alice_force_infinite,
    alice_force_loss,
    alice_force_win,
    bob_force_infinite,
    bob_force_loss,
    bob_force_win,
    force,
)
from .enumeration import (
    DEFAULT_SWEEP_CAP,
    LengthStats,
    OutcomeCensus,
    VERIFY_SUITES,
    VerifyReport,
    census,
    longest_finite,
    no_loss_strings,
    verify_suite,
)

__version__ = "0.1.0"
