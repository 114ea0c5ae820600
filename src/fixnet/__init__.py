"""fixnet: fixed-charge network flow solver with a ghost-image tabu search."""

from .gits import (
    GhostImageSearch,
    Params,
    Penalties,
    RunResult,
    SearchMemory,
    apply_overrides,
    build_penalties,
    params_from_config,
    run,
    v_update,
)
from .netcore import (
    ArcData,
    BadArcEndpoint,
    FixnetError,
    Infeasible,
    InfeasibleFlows,
    NegativeCapacityOrCharge,
    NetworkProblem,
    OutOfExactRange,
    PivotEval,
    SimplexState,
    StalePivotEval,
    UnbalancedSupply,
    evaluate_all_entering,
    evaluate_fc_entering,
    fc_objective,
    make_problem,
    pivot,
    reoptimize,
    solve_lp,
    validate,
)
from .oracle import OracleResult, SolutionReport, TooLarge, brute_force_opt, check_solution
from .probio import (
    CountMismatch,
    DuplicateNodeLine,
    FcnfSyntaxError,
    FctpSpec,
    InfeasibleSpec,
    NetgenFcSpec,
    generate_fctp,
    generate_netgen_fc,
    parse_fcnf,
    write_fcnf,
)

__version__ = "0.1.0"
