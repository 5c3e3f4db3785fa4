"""The decision procedure behind every verifier query.

:class:`BuiltinSolver` is a complete decision procedure for the fragment the
verifier emits: quantifier-free boolean combinations of linear integer
constraints and boolean variables.  Boolean structure is handled by semantic
branching on atoms; each closed branch's theory cube is decided with an
exact integer Omega test (equality elimination by unit substitution /
coefficient shrinking, inequality elimination by real+dark shadows with
splinter fallback).  All arithmetic is bignum integer arithmetic, so answers
are exact.  The eliminations fix an integer solution, read back in reverse
order as the model of every sat answer.

:class:`Solver` is the caching facade the verifier asks; it always runs the
builtin procedure.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager
from typing import Optional

from .cfa import Assign, Assume, Label
from .formula import (
    EQ,
    FALSE,
    LE,
    NE,
    TRUE,
    And,
    BoolLit,
    Cmp,
    Formula,
    IntTerm,
    Or,
    bool_vars,
    bvar,
    eq,
    fand,
    feval_bits,
    fnot,
    for_,
    int_vars,
    ivar,
    memoizing,
    subst_bool,
    subst_int,
)
from .semantics import pre_exists_chain, wp_demonic


class SolverUnknown(Exception):
    """The backend could not decide a query (elimination blowup)."""


# ---------------------------------------------------------------------------
# exact linear integer arithmetic: the Omega test
# ---------------------------------------------------------------------------
#
# Constraints are dicts {var: coeff} plus a constant, read as
#   sum(coeff * var) + const  (= 0 | <= 0)

Lin = tuple[dict, int]

_MAX_ELIM_ROUNDS = 10_000
_MAX_SPLINTER_DEPTH = 60


def _lin_of_term(t: IntTerm) -> Lin:
    return (dict(t.coeffs), t.const)


def _subst_lin(lin: Lin, var: str, repl: Lin) -> Lin:
    coeffs, const = lin
    c = coeffs.get(var)
    if not c:
        return ({v: k for v, k in coeffs.items() if k != 0}, const)
    rcoeffs, rconst = repl
    out = {v: k for v, k in coeffs.items() if v != var}
    for v, k in rcoeffs.items():
        out[v] = out.get(v, 0) + c * k
    out = {v: k for v, k in out.items() if k != 0}
    return (out, const + c * rconst)


def _tighten(lin: Lin) -> Optional[Lin]:
    """Normalise an inequality (<= 0); None means trivially true."""
    coeffs, const = lin
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    if not coeffs:
        if const <= 0:
            return None
        return ({}, 1)  # canonical false
    g = math.gcd(*coeffs.values())
    if g > 1:
        coeffs = {v: c // g for v, c in coeffs.items()}
        const = -((-const) // g)
    return (coeffs, const)


def _modhat(a: int, m: int) -> int:
    r = a % m
    if r > m // 2:
        r -= m
    return r


def _eval(coeffs: dict, const: int, model: dict) -> int:
    """Value of sum(coeff * var) + const under `model`.  A variable the model
    lacks was left unconstrained by the eliminations: it is fixed at 0 here,
    once, so every later read-back sees the same value."""
    return const + sum(c * model.setdefault(v, 0) for v, c in coeffs.items())


# One counter for the module: a splinter's recursive call receives the outer
# call's auxiliary variables, and a second "#1" there would merge with the
# first.  No program identifier contains "#".
_aux = itertools.count(1)


def omega_model(eqs: list[Lin], ineqs: list[Lin], _depth: int = 0) -> Optional[dict]:
    """An integer solution of the conjunction of eqs (= 0) and ineqs (<= 0),
    or None when it has none.  Complete; raises SolverUnknown only on absurd
    blowup.

    The solution is read back from the eliminations in reverse order: a
    variable solved out of an equality takes the value of its replacement,
    one eliminated from inequalities its least value over its lower bounds.
    It may assign auxiliary variables ``#k``, which Pugh's step introduces
    for equalities without a unit coefficient; callers drop them."""
    if _depth > _MAX_SPLINTER_DEPTH:
        raise SolverUnknown("omega: splinter recursion too deep")
    eqs = [({v: c for v, c in cs.items() if c != 0}, k) for cs, k in eqs]
    ineqs = list(ineqs)
    solved: list[tuple[str, Lin]] = []  # (var, replacement) in elimination order

    # --- phase 1: eliminate equalities ------------------------------------
    rounds = 0
    while eqs:
        rounds += 1
        if rounds > _MAX_ELIM_ROUNDS:
            raise SolverUnknown("omega: equality elimination did not converge")
        coeffs, const = eqs.pop()
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if not coeffs:
            if const != 0:
                return None
            continue
        g = math.gcd(*coeffs.values())
        if const % g != 0:
            return None
        if g > 1:
            coeffs = {v: c // g for v, c in coeffs.items()}
            const //= g
        unit = next((v for v, c in coeffs.items() if abs(c) == 1), None)
        if unit is not None:
            a = coeffs[unit]
            # a*unit = -(const + rest)  =>  unit = -a * (const + rest)
            repl_coeffs = {v: -a * c for v, c in coeffs.items() if v != unit}
            repl: Lin = (repl_coeffs, -a * const)
            solved.append((unit, repl))
            eqs = [_subst_lin(e, unit, repl) for e in eqs]
            ineqs = [_subst_lin(i, unit, repl) for i in ineqs]
            continue
        # no unit coefficient: shrink via Pugh's symmetric-mod trick.
        # The auxiliary equation has coefficient -sign(ak) on xk, so xk can
        # be solved out immediately; substituting back into the original
        # equation shrinks its coefficients.
        k = min(coeffs, key=lambda v: (abs(coeffs[v]), v))
        ak = coeffs[k]
        m = abs(ak) + 1
        u = -1 if ak > 0 else 1  # = _modhat(ak, m)
        s = f"#{next(_aux)}"
        repl_coeffs = {
            v: -u * _modhat(c, m) for v, c in coeffs.items() if v != k
        }
        repl_coeffs = {v: c for v, c in repl_coeffs.items() if c != 0}
        repl_coeffs[s] = u * m
        repl = (repl_coeffs, -u * _modhat(const, m))
        solved.append((k, repl))
        eqs.append(_subst_lin((coeffs, const), k, repl))
        eqs = [_subst_lin(e, k, repl) for e in eqs]
        ineqs = [_subst_lin(i, k, repl) for i in ineqs]

    # --- phase 2: eliminate variables from inequalities -------------------
    model = _ineqs_model(ineqs, _depth)
    if model is not None:
        for var, (cs, k) in reversed(solved):
            model[var] = _eval(cs, k, model)
    return model


# A variable eliminated from inequalities, with its lower bounds b <= beta*x
# and its upper bounds alpha*x <= A, as (coeffs, const, beta or alpha).
_Step = tuple[str, list[tuple[dict, int, int]], list[tuple[dict, int, int]]]


def _read_back(model: dict, steps: list[_Step]) -> dict:
    """Extend a model of the system left after `steps` to their variables,
    latest first.  Each takes its least value meeting its lower bounds, or
    with none its greatest under its upper bounds.  Exact elimination and
    the dark shadow guarantee that this value meets the other side too."""
    for x, low, up in reversed(steps):
        if low:
            model[x] = max(-(-_eval(b, bk, model) // beta) for b, bk, beta in low)
        else:
            model[x] = min(_eval(a, ak, model) // alpha for a, ak, alpha in up)
    return model


def _ineqs_model(ineqs: list[Lin], depth: int) -> Optional[dict]:
    steps: list[_Step] = []
    rounds = 0
    while True:
        rounds += 1
        if rounds > _MAX_ELIM_ROUNDS:
            raise SolverUnknown("omega: inequality elimination did not converge")
        seen: set[tuple] = set()
        clean: list[Lin] = []
        for lin in ineqs:
            t = _tighten(lin)
            if t is None:
                continue
            if not t[0]:
                return None
            key = (tuple(sorted(t[0].items())), t[1])
            if key not in seen:
                seen.add(key)
                clean.append(t)
        ineqs = clean
        if not ineqs:
            return _read_back({}, steps)
        variables = sorted({v for cs, _ in ineqs for v in cs})

        def score(v: str) -> tuple:
            lowers = [cs[v] for cs, _ in ineqs if cs.get(v, 0) < 0]
            uppers = [cs[v] for cs, _ in ineqs if cs.get(v, 0) > 0]
            exact = all(c == -1 for c in lowers) or all(c == 1 for c in uppers)
            return (not exact, len(lowers) * len(uppers), v)

        x = min(variables, key=score)
        rest: list[Lin] = []
        low: list[tuple[dict, int, int]] = []  # b <= beta*x
        up: list[tuple[dict, int, int]] = []   # alpha*x <= A
        for cs, k in ineqs:
            c = cs.get(x, 0)
            if c == 0:
                rest.append((cs, k))
            elif c < 0:
                b = {v: q for v, q in cs.items() if v != x}
                low.append((b, k, -c))
            else:
                a = {v: -q for v, q in cs.items() if v != x}
                up.append((a, -k, c))
        step = (x, low, up)
        if not low or not up:
            steps.append(step)
            ineqs = rest
            continue

        exact = all(beta == 1 for _, _, beta in low) or all(
            alpha == 1 for _, _, alpha in up
        )

        def combine(extra: bool) -> list[Lin]:
            out = list(rest)
            for b, bk, beta in low:
                for a, ak_, alpha in up:
                    # alpha*b <= alpha*beta*x <= beta*A
                    cs = {v: alpha * c for v, c in b.items()}
                    for v, c in a.items():
                        cs[v] = cs.get(v, 0) - beta * c
                    k = alpha * bk - beta * ak_
                    if extra:
                        k += (alpha - 1) * (beta - 1)
                    out.append((cs, k))
            return out

        if exact:
            steps.append(step)
            ineqs = combine(False)
            continue
        if _ineqs_model(combine(False), depth) is None:
            return None
        dark = _ineqs_model(combine(True), depth)
        if dark is not None:
            return _read_back(dark, steps + [step])
        # splinters: some lower bound must be nearly tight; a splinter's
        # model already fixes x
        alpha_hat = max(alpha for _, _, alpha in up)
        for b, bk, beta in low:
            top = (alpha_hat * beta - alpha_hat - beta) // alpha_hat
            for i in range(top + 1):
                eq_coeffs = dict(b)
                eq_coeffs[x] = eq_coeffs.get(x, 0) - beta
                model = omega_model([(eq_coeffs, bk + i)], ineqs, depth + 1)
                if model is not None:
                    return _read_back(model, steps)
        return None


# ---------------------------------------------------------------------------
# builtin backend: semantic branching + Omega cubes
# ---------------------------------------------------------------------------

_UNASKED = object()  # cache miss; a cached None means unsat


def _replace_atom(f: Formula, atom: Formula, value: bool) -> Formula:
    if isinstance(f, (And, Or)):
        new = [_replace_atom(a, atom, value) for a in f.args]
        if all(b is a for a, b in zip(new, f.args)):
            return f
        return fand(*new) if isinstance(f, And) else for_(*new)
    if f == atom:
        return TRUE if value else FALSE
    if isinstance(f, BoolLit) and isinstance(atom, BoolLit) and f.name == atom.name:
        return FALSE if value else TRUE
    return f


def _theory_model(cmps: list[tuple[Cmp, bool]]) -> Optional[dict]:
    """An integer model of a branch's comparisons, or None when they are
    infeasible.  A comparison set false stands for its `fnot`, again a
    comparison since every atom comes from the constructors.  Each
    disequality is split into its strict sides, and the first side the
    Omega test solves gives the model."""
    les: list[Lin] = []
    eqs: list[Lin] = []
    nes: list[Lin] = []
    for cmp_, val in cmps:
        atom = cmp_ if val else fnot(cmp_)
        {LE: les, EQ: eqs, NE: nes}[atom.op].append(_lin_of_term(atom.term))

    def attempt(les_: list[Lin], nes_: list[Lin]) -> Optional[dict]:
        if nes_:
            cs, k = nes_[0]
            rest = nes_[1:]
            # t != 0  <=>  t <= -1  or  -t <= -1
            m = attempt(les_ + [(cs, k + 1)], rest)
            if m is not None:
                return m
            return attempt(les_ + [({v: -c for v, c in cs.items()}, -k + 1)], rest)
        return omega_model(eqs, les_)

    return attempt(les, nes)


class BuiltinSolver:
    """Complete decision procedure for QF boolean + linear integer atoms."""

    name = "builtin"

    def __init__(self):
        self.theory_checks = 0  # closed branches handed to the Omega test

    def check(self, f: Formula) -> tuple[str, Optional[dict]]:
        """Decide `f` as given: branching splits on its atoms and the Omega
        test solves each closed branch's cube of comparisons.  A sat
        answer carries the Omega test's model of the first satisfying branch,
        over the variables that branch constrains.  Auxiliary variables are
        dropped here only: a splinter's recursive call still needs them."""
        model = self._search(f, {}, [])
        if model is None:
            return ("unsat", None)
        return ("sat", {v: x for v, x in model.items() if not v.startswith("#")})

    def _search(
        self,
        f: Formula,
        bools: dict,
        cmps: list[tuple[Cmp, bool]],
    ) -> Optional[dict]:
        if f == FALSE:
            return None
        if f == TRUE:
            self.theory_checks += 1
            model = _theory_model(cmps)
            return None if model is None else {**model, **bools}
        atom = f.least_atom
        for value in (True, False):
            g = _replace_atom(f, atom, value)
            if isinstance(atom, BoolLit):
                b2 = dict(bools)
                b2[atom.name] = value if atom.positive else not value
                m = self._search(g, b2, cmps)
            else:
                m = self._search(g, bools, cmps + [(atom, value)])
            if m is not None:
                return m
        return None


# ---------------------------------------------------------------------------
# facade
# ---------------------------------------------------------------------------

class Solver:
    """Caching facade over the builtin backend; all verifier queries go
    through here.  One solver serves one run.

    Besides the query cache it holds what the verifier's formula work keeps
    for the solver's lifetime.  ``memo`` is the run's memo of the formula
    constructors and tree operations (`fand`, `for_`, `fnot`, `subst_int`,
    `subst_bool`): `run` makes it current (`formula.memoizing`) while a
    verification loop runs its body and empties it when the body ends, so
    nothing it holds outlives the run.  The memos below last for the
    solver's lifetime and are keyed by the formulas and labels themselves:
    both are hash-consed, so equal values are one object and every lookup
    hashes by identity.  ``wp_memo`` takes (label, proposition) to
    ``pre_exists(label, proposition)``, and ``triple_memo`` takes
    (proposition, weakest precondition) to whether their conjunction is
    unsat, i.e. whether the triple holds.  ``wp_memo`` serves every backward
    chain of the run, not only saturation: path conditions, the
    propositions of violating traces and the rests of sequence
    interpolation all walk it through ``semantics.pre_exists_chain``.  A
    triple answered from ``triple_memo`` does not reach ``is_sat``, so
    ``cache_hits`` does not count it; ``queries`` is unchanged.

    Each model the backend returns with a sat answer is also kept, in the
    order found, in ``witnesses``: a concrete state in which every variable
    the model leaves out reads 0 or False, the completion rule of
    `get_model`.  The list only grows.  `holds` gives the witnesses a
    formula holds in as a bitset, kept in ``bits`` and extended only by the
    witnesses stored since it was last read, so each formula is evaluated
    on each witness at most once per run.  A conjunction whose conjuncts
    all hold in one witness is satisfiable, so it needs no query: Hoare
    saturation refutes a triple whose two sides share a witness
    (``witness_refutations`` counts those triples), and sequence
    interpolation keeps a conjunct whose drop trial a witness satisfies
    (``witness_drops`` counts those trials).  ``stats()`` also reports
    ``theory_checks``, the closed branches the backend handed to the Omega
    test over the run."""

    def __init__(self):
        self.backend = BuiltinSolver()
        self._cache: dict[Formula, Optional[dict]] = {}  # None (unsat) or a model
        self.memo: dict[tuple, Formula] = {}
        self.bits: dict[Formula, tuple[int, int]] = {}
        self.wp_memo: dict[tuple[Label, Formula], Formula] = {}
        self.triple_memo: dict[tuple[Formula, Formula], bool] = {}
        self.witnesses: list[dict] = []
        self.queries = 0
        self.cache_hits = 0
        self.witness_refutations = 0
        self.witness_drops = 0
        self.time_spent = 0.0

    @property
    def backend_name(self) -> str:
        return self.backend.name

    @contextmanager
    def run(self):
        """The body of one verification run, with ``memo`` current."""
        try:
            with memoizing(self.memo):
                yield
        finally:
            self.memo.clear()

    def _lookup(self, f: Formula) -> Optional[dict]:
        """None when `f` is unsat, else the backend's model of it; one cache,
        keyed on the formula as built, answers both `is_sat` and
        `get_model`."""
        out = self._cache.get(f, _UNASKED)
        if out is not _UNASKED:
            self.cache_hits += 1
            return out
        self.queries += 1
        t0 = time.monotonic()
        try:
            _, model = self.backend.check(f)
        finally:
            self.time_spent += time.monotonic() - t0
        self._cache[f] = model
        if model is not None:
            self.witnesses.append(model)
        return model

    def holds(self, f: Formula) -> int:
        """The stored witnesses `f` holds in, as a bitset: bit k is set when
        `f` holds in ``witnesses[k]``.  Evaluates `f` only on the witnesses
        stored since it was last asked about."""
        bits, n = self.bits.get(f, (0, 0))
        if n < len(self.witnesses):
            bits |= feval_bits(f, self.witnesses[n:]) << n
            self.bits[f] = bits, len(self.witnesses)
        return bits

    def is_sat(self, f: Formula) -> bool:
        """Satisfiability of `f`, cached on the formula as built (the smart
        constructors already return canonical formulas)."""
        if f == TRUE:
            return True
        if f == FALSE:
            return False
        return self._lookup(f) is not None

    def get_model(self, f: Formula) -> Optional[dict]:
        """A model of every variable of `f`, or None when it is unsat.  The
        variables the backend's model leaves out are unconstrained on the
        branch it solved, so they read 0 or False."""
        if f == FALSE:
            return None
        model = self._lookup(f)
        if model is None:
            return None
        return {**dict.fromkeys(int_vars(f), 0), **dict.fromkeys(bool_vars(f), False), **model}

    def check_sat(self, f: Formula) -> tuple[str, Optional[dict]]:
        """("sat", model) / ("unsat", None); SolverUnknown propagates."""
        model = self.get_model(f)
        return ("sat", model) if model is not None else ("unsat", None)

    def is_valid(self, f: Formula) -> bool:
        return not self.is_sat(fnot(f))

    def entails(self, p: Formula, q: Formula) -> bool:
        return not self.is_sat(fand(p, fnot(q)))

    def equivalent(self, p: Formula, q: Formula) -> bool:
        return self.entails(p, q) and self.entails(q, p)

    def interpolants(self, parts: list[Formula]) -> Optional[list[Formula]]:
        """Sequence interpolants of an unsatisfiable chain: None, since the
        builtin procedure computes none; :func:`sequence_interpolants`
        builds its chains itself."""
        return None

    def stats(self) -> dict:
        return {
            "backend": self.backend_name,
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "witness_refutations": self.witness_refutations,
            "witness_drops": self.witness_drops,
            "theory_checks": self.backend.theory_checks,
            "solver_time": self.time_spent,
        }

    def close(self) -> None:
        """Nothing to release: the backend runs in process."""


# ---------------------------------------------------------------------------
# strongest postconditions and sequence interpolants
# ---------------------------------------------------------------------------

def _iff(p: Formula, q: Formula) -> Formula:
    return for_(fand(p, q), fand(fnot(p), fnot(q)))


def project_int_var(f: Formula, var: str) -> Optional[Formula]:
    """∃ var. f over the integers by Cooper's rule, or None when a
    comparison gives ``var`` a coefficient other than ±1.

    With unit coefficients no divisibility constraint arises, so ∃ var. f
    is f at −∞ or f at one of its test points: r for each lower bound
    var >= r, s for each equality var = s and s + 1 for each disequality
    var != s (Cooper 1972; Bradley & Manna, *The Calculus of Computation*,
    §7.5).  At −∞ every lower bound and equality on ``var`` is false and
    every upper bound and disequality true.
    """
    if var not in int_vars(f):
        return f
    points: dict[IntTerm, None] = {}

    def at_minus_infinity(g: Formula) -> Optional[Formula]:
        if isinstance(g, (And, Or)):
            parts = [at_minus_infinity(a) for a in g.args]
            if None in parts:
                return None
            return (fand if isinstance(g, And) else for_)(*parts)
        c = g.term.coeff(var) if isinstance(g, Cmp) else 0
        if c == 0:
            return g
        if abs(c) != 1:
            return None
        # c*var + r op 0 with c = ±1 meets its boundary at var = -c*r
        point = (ivar(var).scale(c) - g.term).scale(c)
        if g.op == NE:
            points[point + IntTerm((), 1)] = None
            return TRUE
        if g.op == EQ or c < 0:
            points[point] = None
            return FALSE
        return TRUE

    low = at_minus_infinity(f)
    if low is None:
        return None
    return for_(low, *(subst_int(f, var, t) for t in points))


def strongest_post(lab, phi: Formula) -> Optional[Formula]:
    """Exact strongest postcondition of one label, or None when exactness
    would need divisibility reasoning (non-unit coefficients)."""
    if isinstance(lab, Assume):
        return fand(phi, lab.cond)
    if not isinstance(lab, Assign):
        return phi
    if isinstance(lab.expr, IntTerm):
        x, e = lab.var, lab.expr
        a = e.coeff(x)
        if a == 0:
            projected = project_int_var(phi, x)
            if projected is None:
                return None
            return fand(projected, eq(ivar(x), e))
        if abs(a) == 1:
            # x_new = a*x_old + r  =>  x_old = a*(x_new - r)
            r = IntTerm.make({v: k for v, k in e.coeffs if v != x}, e.const)
            return subst_int(phi, x, (ivar(x) - r).scale(a))
        return None
    # boolean assignment: finite-domain elimination of the old value
    b, g = lab.var, lab.expr
    phi_t = subst_bool(phi, b, TRUE)
    phi_f = subst_bool(phi, b, FALSE)
    g_t = subst_bool(g, b, TRUE)
    g_f = subst_bool(g, b, FALSE)
    return for_(fand(phi_t, _iff(bvar(b), g_t)), fand(phi_f, _iff(bvar(b), g_f)))


def _conjuncts(f: Formula) -> list[Formula]:
    return list(f.args) if isinstance(f, And) else [f]


def sequence_interpolants(
    solver: "Solver", prefix: Formula, labels, suffix: Formula
) -> list[Formula]:
    """Interior propositions I1..I(n-1) making every consecutive Hoare triple
    of the chain  {prefix} σ1 {I1} … {I(n-1)} σn {¬suffix}  valid.

    Requires prefix ∧ path(labels) ∧ suffix to be unsatisfiable.  The chain
    is built forward from I0 = prefix: Ik starts as the exact strongest
    postcondition sp(σk, Ik−1), and its top-level conjuncts are dropped one
    at a time while Ik ∧ rests[k] stays unsat, so no single remaining
    conjunct can be dropped.  Where `strongest_post` has no exact answer
    (an assignment with a non-unit coefficient), Ik starts as the
    conjuncts of Ik−1 that do not mention the assigned variable, which the
    assignment leaves true, and only when they still make Ik ∧ rests[k]
    unsat.  Each Ik is implied by sp(σk, Ik−1), so every triple stays
    valid.  One ``pre_exists_chain`` through the run's
    ``wp_memo`` gives every rests[k] = pre_exists_trace(σk+1…σn, target),
    sharing its steps with every other backward chain of the run.  The
    target is True when the trace cannot run from the prefix at all: a
    proof of that does not mention the suffix and carries over to longer
    unrollings of a loop, where the final state a suffix-based proof keeps
    does not.  Otherwise the target is the suffix.  A step that leaves both
    the proposition and the rest unchanged (skip, coins, nondeterministic
    tags) reuses Ik−1, which is already minimal against that rest, without
    a query.  Equal formulas are one object (they are hash-consed), so the
    identity test sees every such step.  A drop trial that one of the
    solver's witnesses satisfies (every kept conjunct and the rest hold in
    it) is sat with no conjunction built and no query asked.

    If those conjuncts do not refute the rest, falls back to the demonic
    weakest-precondition chain (always valid, weakest useful
    generalization).
    """
    labels = list(labels)
    rests = pre_exists_chain(labels, TRUE, solver)
    if solver.is_sat(fand(prefix, rests[0])):
        rests = pre_exists_chain(labels, suffix, solver)
        if solver.is_sat(fand(prefix, rests[0])):
            raise ValueError("interpolation requires an unsatisfiable chain")

    # weakened strongest-postcondition chain
    props: Optional[list[Formula]] = []
    cur = prefix
    for k, lab in enumerate(labels[:-1], start=1):
        nxt = strongest_post(lab, cur)
        rest = rests[k]
        if nxt is None:
            # the conjuncts that the assignment leaves alone hold after it
            nxt = fand(*(p for p in _conjuncts(cur) if lab.var not in p.variables))
            if solver.is_sat(fand(nxt, rest)):
                props = None
                break
        if k == 1 or nxt is not cur or rest is not rests[k - 1]:
            parts = _conjuncts(nxt)
            i = 0
            while i < len(parts):
                trial = parts[:i] + parts[i + 1:]
                common = solver.holds(rest)
                for part in trial:
                    common &= solver.holds(part)
                solver.witness_drops += bool(common)
                if common or solver.is_sat(fand(*trial, rest)):
                    i += 1
                else:
                    parts = trial
            nxt = fand(*parts)
        props.append(nxt)
        cur = nxt
    if props is not None:
        return props

    # demonic chain: I_k = wp(remaining trace, ¬suffix)
    target = fnot(suffix)
    out: list[Formula] = []
    cur = target
    for lab in reversed(labels[1:]):
        cur = wp_demonic(lab, cur)
        out.append(cur)
    out.reverse()
    return out
