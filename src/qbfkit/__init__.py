"""QBF solving and certification toolkit.

Solves prenex non-CNF QBFs with two CEGAR-style algorithms (scope
abstraction and assignment expansion), extracts Skolem/Herbrand strategy
circuits from abstraction-solver runs, and independently verifies them.
"""

from .aiger import Circuit, read_aiger, write_aiger
from .bench import (GenSpec, gen_expansion_hard, gen_qparity, gen_random,
                    run_experiment)
from .certify import (VerifyResult, build_certificate, extract_functions,
                      read_trace, verify, write_trace)
from .formula import (Arena, InternalError, QbfProblem, Quantifier, Scope,
                      evaluate, problems_equal)
from .parsing import (ParseError, detect_format, load_problem, parse_problem,
                      parse_qcir, parse_qdimacs, write_qcir, write_qdimacs)
from .preprocess import PreprocessInfo, preprocess
from .solver import (ProofPair, ProofTrace, SolveConfig, SolveStats,
                     solve, solve_abstraction, solve_assignment)

__version__ = "0.1.0"

__all__ = [
    "Arena",
    "Circuit",
    "GenSpec",
    "InternalError",
    "ParseError",
    "PreprocessInfo",
    "ProofPair",
    "ProofTrace",
    "QbfProblem",
    "Quantifier",
    "Scope",
    "SolveConfig",
    "SolveStats",
    "VerifyResult",
    "build_certificate",
    "detect_format",
    "evaluate",
    "extract_functions",
    "gen_expansion_hard",
    "gen_qparity",
    "gen_random",
    "load_problem",
    "parse_problem",
    "parse_qcir",
    "parse_qdimacs",
    "preprocess",
    "problems_equal",
    "read_aiger",
    "read_trace",
    "run_experiment",
    "solve",
    "solve_abstraction",
    "solve_assignment",
    "verify",
    "write_aiger",
    "write_qcir",
    "write_qdimacs",
    "write_trace",
]
