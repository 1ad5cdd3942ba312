"""Parallelizing partial evaluator for definite logic programs.

Pipeline: parse a program, infer call/success patterns for the entry
points, build pattern-extended unfolding trees, and extract a residual
program whose clause bodies carry independence-certified parallel
groups — optionally printed as thread-guarded goals.  A sequential
reference interpreter replays queries to validate the output.
"""

from .analysis import (
    AnalysisError,
    Analyzer,
    EntryPoint,
    parse_entry_spec,
    parse_pattern_file,
)
from .codegen import (
    CodegenError,
    RenamingScheme,
    ResidualProgram,
    extract_residual,
    format_guarded,
    format_residual,
)
from .engine import (
    ExtendedAtom,
    PELimitExceeded,
    Trace,
    format_trace,
    partially_evaluate,
    split_independent,
)
from .interp import (
    InstantiationError,
    Solver,
    SolverError,
    StepLimitExceeded,
    answer_multiset,
    check_equivalence,
    check_independence,
    check_safeness,
)
from .parser import ParseError, parse_atom, parse_program, parse_query, parse_query_file
from .patterns import (
    GroundnessPattern,
    PatternTable,
    SharingPattern,
    SuccessPattern,
    independent_sharing,
    parse_groundness,
    parse_sharing,
)
from .terms import Atom, Clause, Int, ParGroup, Program, Struct, Var

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "Analyzer",
    "Atom",
    "Clause",
    "CodegenError",
    "EntryPoint",
    "ExtendedAtom",
    "GroundnessPattern",
    "InstantiationError",
    "Int",
    "ParGroup",
    "ParseError",
    "PatternTable",
    "PELimitExceeded",
    "Program",
    "RenamingScheme",
    "ResidualProgram",
    "SharingPattern",
    "Solver",
    "SolverError",
    "StepLimitExceeded",
    "Struct",
    "SuccessPattern",
    "Trace",
    "Var",
    "answer_multiset",
    "check_equivalence",
    "check_independence",
    "check_safeness",
    "extract_residual",
    "format_guarded",
    "format_residual",
    "format_trace",
    "independent_sharing",
    "parse_atom",
    "parse_entry_spec",
    "parse_groundness",
    "parse_pattern_file",
    "parse_program",
    "parse_query",
    "parse_query_file",
    "parse_sharing",
    "partially_evaluate",
    "split_independent",
]
