"""Kernelization and exact solving for max/min alpha-FCGP.

Find exactly k vertices whose value alpha*m(S, V\\S) + (1-alpha)*m(S) is
largest (Max) or smallest (Min); kernels shrink instances provably without
changing the answer, solvers decide them exactly.
"""

from .graph import Graph, ParameterProfile, compute_profile, parse_graph
from .instance import AnnotatedInstance
from .rules import KernelOutcome, RuleTrace, run_pipeline
from .solve import SolveResult, brute_force, solve_auto

__all__ = [
    "Graph",
    "ParameterProfile",
    "compute_profile",
    "parse_graph",
    "AnnotatedInstance",
    "KernelOutcome",
    "RuleTrace",
    "run_pipeline",
    "SolveResult",
    "brute_force",
    "solve_auto",
]
