"""probtrace: certified probability bounds for imperative programs.

Decides whether the probability that a program run violates its contract
stays below a given threshold, by abstracting sets of program traces into
automata, checking them with Floyd-Hoare annotations, and refining with a
counterexample-guided loop over a control-flow Markov decision process.

Typical use::

    from probtrace import Solver, parse, to_pcfa, verify

    program, spec = parse(source_text)
    result = verify(to_pcfa(program), spec, solver=Solver())
"""

from .cegar import (
    Certified,
    Inconclusive,
    Rejected,
    Sat,
    Unsat,
    check_decomposition,
    dump_certificate,
    load_certificate,
    verify,
    verify_refutational,
)
from .cfa import PCFA, Assign, Assume, Nd, Pb, SkipL
from .evidence import (
    Certificate,
    Counterexample,
    CounterexampleFound,
    Exhausted,
    Verified,
    examine,
    validate_counterexample,
)
from .lang import ParseError, Program, Specification, parse, parse_formula, to_pcfa
from .oracle import StateDomain, exact_violation_probability
from .solver import Solver, SolverUnknown

__version__ = "0.1.0"

__all__ = [
    "PCFA",
    "Assign",
    "Assume",
    "Certificate",
    "Certified",
    "Counterexample",
    "CounterexampleFound",
    "Exhausted",
    "Inconclusive",
    "Nd",
    "ParseError",
    "Pb",
    "Program",
    "Rejected",
    "Sat",
    "SkipL",
    "Solver",
    "SolverUnknown",
    "Specification",
    "StateDomain",
    "Unsat",
    "Verified",
    "check_decomposition",
    "dump_certificate",
    "examine",
    "exact_violation_probability",
    "load_certificate",
    "parse",
    "parse_formula",
    "to_pcfa",
    "validate_counterexample",
    "verify",
    "verify_refutational",
    "__version__",
]
