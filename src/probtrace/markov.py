"""Exact max-reachability over control-flow MDPs, and trace merging.

A CFMDP is a deterministic PCFA with no edges out of the accepting location;
its actions are coin identifiers (owning both branch edges) plus the
non-random labels, and each location's actions and their order come from
`cfa.actions_at` and `cfa.action_key`.

The upper-bound computation casts the CFMDP to a plain MDP — coins become
half/half distributions, a coin with a missing partner branch loses half its
mass to a dead sink — and runs exact policy iteration over rationals, so
results like 1/2 or 7/16 come out as the precise dyadic they are.  Every
successor carries an integer weight out of 2, so the arithmetic stays in
integers and each value is one Fraction.  Each policy's linear system is
solved one strongly connected component at a time, successors first: an
acyclic state is one back-substitution over its successors' common
denominator, and elimination runs only inside cycles.  There it runs
sparsely and in integers, on the system doubled so that every coefficient
is whole.  The improvement sweep brings the values to one common
denominator once and compares each action's weighted sum of numerators
against twice the location's own, with no Fraction built per action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .cfa import PCFA, Action, Label, _reach, action_key, actions_at, trace_tree


def check_cfmdp(a: PCFA) -> PCFA:
    if not a.is_cfmdp():
        raise ValueError("expected a CFMDP (deterministic, accepting is a sink)")
    return a


# ---------------------------------------------------------------------------
# exact maximum reachability
# ---------------------------------------------------------------------------

@dataclass
class MdpAnalysis:
    bound: Fraction
    values: dict  # location -> Fraction
    policy: dict  # location -> chosen Action
    optimal_actions: dict  # location -> list of value-maximal Actions


def _sccs(nodes: set, succ: dict) -> list[list[int]]:
    """Strongly connected components of the graph `succ` restricted to
    `nodes`, by an iterative Tarjan: each component comes after every
    component it reaches."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    out: list[list[int]] = []
    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, outs = work[-1]
            for _, w in outs:
                if w not in nodes:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def _solve_cyclic(comp: list[int], succ: dict, values: dict) -> None:
    """Solve x = P·x + b on one cyclic component by sparse elimination in
    integers; `values` already holds every target outside the component.

    The system is doubled so that it has integer coefficients: a state's row
    is 2 on the diagonal less each in-component successor's weight out of 2,
    and the constants from solved successors are brought to one common
    denominator D.  Rows are {column: int} maps, eliminated fraction-free as
    in Bareiss (Math. Comp. 22, 1968), downward and then upward: cross-multiply,
    then divide the row by its gcd, touching only nonzero entries.  Each value
    is one Fraction(rhs, pivot·D) at the end.  Restricted to states
    that reach acceptance the system is a nonsingular M-matrix, whose
    diagonal pivots are all nonzero; a zero pivot means the component holds
    a closed cycle, and raises ArithmeticError.
    """
    unknowns = sorted(comp)
    idx = {loc: i for i, loc in enumerate(unknowns)}
    outside = {t for loc in unknowns for _, t in succ[loc] if t not in idx}
    den = lcm(*(values[t].denominator for t in outside))
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    for loc in unknowns:
        row, b = {idx[loc]: 2}, 0
        for w, t in succ[loc]:
            if t in idx:
                row[idx[t]] = row.get(idx[t], 0) - w
            else:
                b += w * values[t].numerator * (den // values[t].denominator)
        rows.append({j: x for j, x in row.items() if x})
        rhs.append(b)

    def eliminate(r: int, c: int) -> None:
        """Clear column c out of row r by pivot row c."""
        pivot_row, row = rows[c], rows[r]
        f = row.pop(c)
        g = gcd(pivot_row[c], f)
        m, k = pivot_row[c] // g, f // g
        out = {j: m * x for j, x in row.items()}
        for j, x in pivot_row.items():
            if j != c:
                y = out.get(j, 0) - k * x
                if y:
                    out[j] = y
                else:
                    del out[j]
        b = m * rhs[r] - k * rhs[c]
        g = gcd(b, *out.values())
        if g > 1:
            out = {j: x // g for j, x in out.items()}
            b //= g
        rows[r], rhs[r] = out, b

    n = len(unknowns)
    for c in range(n):
        if c not in rows[c]:
            raise ArithmeticError(f"singular component: no pivot for location {unknowns[c]}")
        for r in range(c + 1, n):
            if c in rows[r]:
                eliminate(r, c)
    for c in reversed(range(n)):
        for j in [j for j in rows[c] if j != c]:
            eliminate(c, j)
    for i, loc in enumerate(unknowns):
        values[loc] = Fraction(rhs[i], rows[i][i] * den)


def _weighted(act: Action, step) -> list[tuple[int, int]]:
    """An action's successors with integer weights out of 2: 1 for each side
    of a coin (a missing side's mass is lost), 2 for a plain label."""
    if isinstance(act, int):
        return [(1, t) for t in step.values()]
    return [(2, step)]


def _policy_value(a: PCFA, acts: dict, policy: dict) -> dict:
    """Exact value of a fixed policy: probability of reaching the accepting
    location.  States that cannot reach it under the policy get 0, which
    pins down the unique (least) solution of the linear system.  The system
    is solved one strongly connected component at a time, successors first:
    a single state without a self-loop is one back-substitution, one
    Fraction(Σ w·numerator·(d // denominator), 2d) with d the lcm of its
    successors' denominators, and only a cyclic component is eliminated,
    with its successors' values as constants."""
    succ: dict[int, list[tuple[int, int]]] = {}
    pred: dict[int, list[int]] = {}
    for loc, act in policy.items():
        succ[loc] = _weighted(act, acts[loc][act])
        for _, t in succ[loc]:
            pred.setdefault(t, []).append(loc)

    reach = _reach({a.accepting}, pred)
    values = dict.fromkeys(a.locations, Fraction(0))
    values[a.accepting] = Fraction(1)
    for comp in _sccs(reach - {a.accepting}, succ):
        loc = comp[0]
        if len(comp) == 1 and all(t != loc for _, t in succ[loc]):
            vs = [(w, values[t]) for w, t in succ[loc]]
            d = lcm(*(v.denominator for _, v in vs))
            total = sum(w * v.numerator * (d // v.denominator) for w, v in vs)
            values[loc] = Fraction(total, 2 * d)
        else:
            _solve_cyclic(comp, succ, values)
    return values


def analyze_mdp(a: PCFA) -> MdpAnalysis:
    """Maximal reachability of the accepting location by policy iteration,
    from the first action in `action_key` order at every location.

    After each evaluation the values are brought to one common denominator
    D, so each improvement sweep compares integers: an action's q-value
    times 2D is Σ w·num[t] over its weighted successors, against 2·num[loc]
    for the location's value.  An action improves only when strictly better,
    and the sweep that improves nothing records every value-maximal action,
    in `action_key` order, as `optimal_actions`."""
    check_cfmdp(a)
    # location -> {action: step}, actions in `action_key` order; the
    # accepting location is a sink, so it offers no action
    acts = {}
    for loc in sorted(a.locations):
        here = actions_at(a, loc)
        if len(here) > 1:
            here = dict(sorted(here.items(), key=lambda kv: action_key(kv[0])))
        if here:
            acts[loc] = here
    steps = {
        loc: [(act, _weighted(act, step)) for act, step in here.items()]
        for loc, here in acts.items()
    }
    policy = {loc: next(iter(here)) for loc, here in acts.items()}
    values = _policy_value(a, acts, policy)
    for _ in range(10_000):
        den = lcm(*(v.denominator for v in values.values()))
        num = {loc: v.numerator * (den // v.denominator) for loc, v in values.items()}
        improved = False
        optimal = {}  # the sweep that improves nothing leaves the optimal actions
        for loc, here in steps.items():
            own = 2 * num[loc]
            best_act, best_q = policy[loc], own
            optimal[loc] = []
            for act, succ in here:
                q = sum(w * num[t] for w, t in succ)
                if q == own:
                    optimal[loc].append(act)
                if q > best_q:
                    best_act, best_q = act, q
            if best_act != policy[loc] and best_q > own:
                policy[loc] = best_act
                improved = True
        if not improved:
            break
        new_values = _policy_value(a, acts, policy)
        assert all(new_values[l] >= values[l] for l in a.locations)
        values = new_values
    else:
        raise RuntimeError("policy iteration did not converge")
    return MdpAnalysis(values.get(a.initial, Fraction(0)), values, policy, optimal)


# ---------------------------------------------------------------------------
# merging trace sets into one CFMC
# ---------------------------------------------------------------------------

def merge_traces(traces: Sequence[Sequence[Label]]) -> Optional[PCFA]:
    """The trace tree of the traces when it is a CFMC, else None.

    It is one exactly when every branching point is the two sides of a
    single coin: a trace that is a proper prefix of another leaves a label
    twice at one location, and branching on other labels offers two
    actions.  The empty trace is no program trace, so a set holding it does
    not merge either."""
    if not traces:
        raise ValueError("empty trace set")
    if not all(traces):
        return None
    tree = trace_tree(traces)
    return tree if tree.is_cfmc() else None
