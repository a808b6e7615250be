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
    Rational,
    SolutionRecord,
    dominates,
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
    NotParametricCapable,
    ParseError,
    ProblemMismatch,
    Unreachable,
    ValidationError,
)
from .exact_search import (
    GammaInterval,
    LinearValue,
    ParametricOutcome,
    critical_gamma,
    parametric_search,
    resolve_comparison,
    solve_budget_binary,
    solve_budget_parametric,
)
from .oracle import (
    EnumerationCap,
    enumerate_all,
    exact_opt_budget,
    exact_pareto,
    verify_budget,
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
    adversarial_wrap,
)
from .sweep import BudgetQuery, IndexRange, index_range, solve_budget_fixed, solve_budget_sweep

__version__ = "0.1.0"
