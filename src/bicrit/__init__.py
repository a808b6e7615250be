"""Exact-arithmetic toolkit for bicriteria minimization.

Budget-constrained approximation and approximate Pareto curves driven by
pluggable weighted-sum oracles, with binary-search and parametric-search
accelerations for exact oracles, a brute-force verification oracle, and a
reproduction of a flawed prior search algorithm.
"""

from .core import (
    Bounds,
    CostPair,
    GuaranteeCertificate,
    ParametricAdapter,
    ProblemAdapter,
    SolutionRecord,
    format_rational,
    parse_rational,
    pow_one_plus_eps,
    rational,
)
from .errors import (
    BicritError,
    CapExceeded,
    DisconnectedGraph,
    ExactOracleRequired,
    InfeasibleToken,
    NoCertificate,
    NoFeasibleSolution,
    ParseError,
    ProblemMismatch,
    Unreachable,
    ValidationError,
)
from .exact_search import (
    ParametricOutcome,
    parametric_search,
    solve_budget_binary,
    solve_budget_parametric,
)
from .marathe import adversarial_wrap
from .oracle import (
    check_node_cap,
    enumerate_all,
    exact_opt_budget,
    verify_budget,
    verify_pareto_by_enumeration,
    verify_pareto_coverage,
)
from .pareto import (
    ParetoSet,
    approximate_pareto,
    boundary_solutions,
    filter_dominated,
    pareto_from_parametric,
    pareto_index_range,
)
from .problems import (
    BiweightedGraph,
    MinCutAdapter,
    MstAdapter,
    ShortestPathAdapter,
    VertexCoverAdapter,
    VertexWeightedGraph,
    adapter_for,
)
from .sweep import BudgetQuery, index_range, solve_budget_fixed, solve_budget_sweep

__version__ = "0.1.0"
