"""Decision procedures: the builtin solver and its facade, projection,
strongest postconditions and sequence interpolants."""

import random
import signal
from itertools import product

import pytest

from probtrace.formula import (
    FALSE,
    TRUE,
    And,
    BoolLit,
    Cmp,
    IntTerm,
    Or,
    _key,
    as_term,
    bool_vars,
    cmp_fact,
    bvar,
    eq,
    fand,
    feval,
    fnot,
    for_,
    forced_value,
    ge,
    gt,
    int_vars,
    ivar,
    le,
    lt,
    ne,
)
from probtrace import solver as solver_module
from probtrace.cfa import Assign, Assume, Pb, SkipL
from probtrace.semantics import hoare_valid, interpret_label, pre_exists_trace, wp_demonic
from probtrace.solver import (
    BuiltinSolver,
    Solver,
    project_int_var,
    sequence_interpolants,
    strongest_post,
)

from helpers import reference_least_atom, simplify, total_state

X, Y, Z = ivar("X"), ivar("Y"), ivar("Z")
B = bvar("B")
C_BOOL = bvar("C")


# ---------------------------------------------------------------------------
# builtin decision procedure


@pytest.fixture
def builtin():
    """A fresh facade, so a test can count the queries it asks."""
    return Solver()


def test_builtin_basic_verdicts(solver):
    assert solver.is_sat(TRUE)
    assert not solver.is_sat(FALSE)
    assert solver.is_sat(le(X, 3))
    assert not solver.is_sat(fand(le(X, 1), ge(X, 2)))
    assert solver.is_sat(fand(le(X, 1), ge(X, 1)))
    assert not solver.is_sat(fand(eq(X, 2), eq(X, 3)))
    assert solver.is_sat(fand(B, fnot(bvar("C"))))
    assert not solver.is_sat(fand(B, fnot(B)))


def test_builtin_disequality_squeeze(solver):
    f = fand(ge(X, 0), le(X, 2), ne(X, 0), ne(X, 1), ne(X, 2))
    assert not solver.is_sat(f)
    g = fand(ge(X, 0), le(X, 2), ne(X, 0), ne(X, 2))
    m = solver.get_model(g)
    assert m is not None and m["X"] == 1


def test_builtin_two_variable_battle(solver):
    assert solver.is_sat(fand(le(X - Y, -1), le(Y - X, -1))) is False
    assert solver.is_sat(fand(le(X - Y, 0), le(Y - X, 0)))  # X = Y
    f = fand(eq(X + Y, 4), eq(X - Y, 2))
    m = solver.get_model(f)
    assert m is not None and m["X"] == 3 and m["Y"] == 1


def test_models_satisfy_their_formulas(solver):
    rng = random.Random(31337)
    for _ in range(150):
        f = _random_boxed_formula(rng)
        m = solver.get_model(f)
        if m is not None:
            assert feval(f, m), f"model {m} does not satisfy {f}"


def _random_boxed_formula(rng: random.Random):
    """Random boolean/LIA formula whose int vars are confined to [-3, 3],
    so brute force over the box is a complete reference procedure."""
    def atom():
        r = rng.random()
        if r < 0.2:
            return bvar(rng.choice(["B", "C"]))
        t = IntTerm.make(
            {v: rng.randint(-2, 2) for v in ("X", "Y")}, rng.randint(-2, 2)
        )
        return rng.choice([le, lt, ge, gt, eq, ne])(t, rng.randint(-3, 3))

    def tree(depth):
        if depth == 0 or rng.random() < 0.35:
            return atom()
        parts = [tree(depth - 1) for _ in range(2)]
        r = rng.random()
        if r < 0.45:
            return fand(*parts)
        if r < 0.9:
            return for_(*parts)
        return fnot(parts[0])

    box = fand(ge(X, -3), le(X, 3), ge(Y, -3), le(Y, 3))
    return simplify(fand(box, tree(3)))


BOX_STATES = [
    {"X": x, "Y": y, "B": b, "C": c}
    for x in range(-3, 4)
    for y in range(-3, 4)
    for b in (False, True)
    for c in (False, True)
]


def test_builtin_agrees_with_brute_force_on_boxed_formulas(solver):
    rng = random.Random(777)
    for _ in range(120):
        f = _random_boxed_formula(rng)
        brute = any(feval(f, s) for s in BOX_STATES)
        assert solver.is_sat(f) == brute, str(f)


def test_entailment_and_equivalence(solver):
    assert solver.entails(le(X, 2), le(X, 5))
    assert not solver.entails(le(X, 5), le(X, 2))
    assert solver.is_valid(for_(le(X, 2), ge(X, 1)))
    assert solver.equivalent(fnot(le(X, 3)), ge(X, 4))
    assert not solver.equivalent(le(X, 3), le(X, 4))


def test_solver_caches_repeated_queries():
    s = Solver()
    f = fand(le(X, 3), ge(X, 0), bvar("B"))
    before = s.queries
    assert s.is_sat(f)
    mid = s.queries
    assert s.is_sat(f)
    assert s.is_sat(simplify(f))
    assert s.queries == mid
    assert mid == before + 1
    assert s.cache_hits >= 2


def test_model_after_unsat_check_comes_from_the_cache():
    s = Solver()
    f = fand(le(X + Y, 0), ge(X, 1), ge(Y, 0))
    assert not s.is_sat(f)
    assert s.get_model(f) is None
    assert s.check_sat(f) == ("unsat", None)
    assert s.queries == 1


def test_decided_query_searches_no_witness(builtin):
    # the Omega test solves the cube at once and reads its model back from
    # the eliminations; a search over points would walk millions of them
    def hang(signum, frame):
        raise TimeoutError("the query did not return")

    f = eq(X + Y + Z, 1000)
    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        assert builtin.is_sat(f)
        m = builtin.get_model(f)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert feval(f, m), m
    assert builtin.queries == 1


def test_splinter_keeps_the_outer_auxiliary_variables_apart(builtin):
    # 5X + 4Z = 2Y + 2 has no unit coefficient, so Pugh's equality step adds
    # an auxiliary variable; a splinter then needs the step again, and its
    # auxiliary variable must stay apart from the outer one
    f = fand(
        ge(X, 0), le(X, 4), ge(Y, -4), le(Y, -2), ge(Z, -4), le(Z, 4),
        eq(X.scale(5) + Z.scale(4), Y.scale(2) + as_term(2)),
    )
    assert feval(f, {"X": 0, "Y": -3, "Z": -1})
    m = builtin.get_model(f)
    assert m is not None and feval(f, m), m


def test_model_keeps_program_variables_named_like_auxiliaries(builtin):
    w = ivar("_w1")
    f = fand(eq(w, 3), eq(X.scale(2) + Y.scale(3), 1))
    m = builtin.get_model(f)
    assert m is not None and m["_w1"] == 3 and feval(f, m), m


def test_omega_agrees_with_brute_force_on_boxed_cubes(monkeypatch):
    # random cubes over the box [-4, 4]^3 with coefficients up to 5: brute
    # force over the box is the reference; at this seed some answers depend
    # on keeping the auxiliary variables of nested Omega calls apart
    import probtrace.solver as solver_mod

    reached = {"dark shadow": 0, "splinter": 0}
    omega_model, read_back = solver_mod.omega_model, solver_mod._read_back

    def counting_omega(eqs, ineqs, _depth=0):
        model = omega_model(eqs, ineqs, _depth)
        reached["splinter"] += _depth > 0 and model is not None
        return model

    def counting_read_back(model, steps):
        # a step with non-unit coefficients on both sides is a dark shadow's
        reached["dark shadow"] += any(
            any(beta > 1 for *_, beta in low) and any(alpha > 1 for *_, alpha in up)
            for _, low, up in steps
        )
        return read_back(model, steps)

    monkeypatch.setattr(solver_mod, "omega_model", counting_omega)
    monkeypatch.setattr(solver_mod, "_read_back", counting_read_back)
    rng = random.Random(1)
    box = [le(v, 4) for v in (X, Y, Z)] + [ge(v, -4) for v in (X, Y, Z)]
    points = list(product(range(-4, 5), repeat=3))
    backend = BuiltinSolver()
    for _ in range(1000):
        rows = [
            ([rng.randint(-5, 5) for _ in "XYZ"], rng.randint(-6, 6), rng.random() < 0.3)
            for _ in range(rng.randint(1, 4))
        ]
        f = fand(*box, *(
            (eq if is_eq else le)(IntTerm.make(dict(zip("XYZ", cs)), k), 0)
            for cs, k, is_eq in rows
        ))

        def holds(p):
            for (a, b, c), k, is_eq in rows:
                t = a * p[0] + b * p[1] + c * p[2] + k
                if t > 0 or (is_eq and t < 0):
                    return False
            return True

        status, m = backend.check(f)
        assert (status == "sat") == any(holds(p) for p in points), f
        if m is not None:
            assert feval(f, m), (f, m)
    assert reached["dark shadow"] and reached["splinter"], reached


def test_single_backend_ignores_the_environment(monkeypatch):
    # the builtin procedure is the only backend: no variable or binary on
    # PATH selects another one
    monkeypatch.setenv("PROBTRACE_SOLVER", "/nonexistent/z3")
    s = Solver()
    assert s.backend_name == "builtin"
    assert s.is_sat(le(X, 3))


# ---------------------------------------------------------------------------
# the branching search against a reference that rebuilds every branch
# through the constructors and tries both values of every atom


def _atoms_of(f):
    """Every occurrence of an atom in `f`, left to right."""
    if isinstance(f, (And, Or)):
        return [a for g in f.args for a in _atoms_of(g)]
    return [f] if isinstance(f, (BoolLit, Cmp)) else []


def _reference_atom(f):
    """The first of the formula's atoms sorted by `_key`."""
    return sorted(_atoms_of(f), key=_key)[0]


def _reference_replace(f, atom, value):
    """Substitute `value` for `atom`, rebuilding every node through the
    smart constructors."""
    tv = TRUE if value else FALSE
    if f == atom:
        return tv
    if isinstance(f, BoolLit) and isinstance(atom, BoolLit) and f.name == atom.name:
        return tv if f.positive == atom.positive else (FALSE if value else TRUE)
    if isinstance(f, And):
        return fand(*(_reference_replace(a, atom, value) for a in f.args))
    if isinstance(f, Or):
        return for_(*(_reference_replace(a, atom, value) for a in f.args))
    return f


def _reference_search(f, bools, cmps):
    """Both branches of every atom, each branch rebuilt in full."""
    if f == FALSE:
        return None
    if f == TRUE:
        model = solver_module._theory_model(cmps)
        if model is not None:
            model.update(bools)
        return model
    atom = _reference_atom(f)
    for value in (True, False):
        g = _reference_replace(f, atom, value)
        if isinstance(atom, BoolLit):
            m = _reference_search(g, {**bools, atom.name: value == atom.positive}, cmps)
        else:
            m = _reference_search(g, bools, cmps + [(atom, value)])
        if m is not None:
            return m
    return None


def _reference_check(f):
    model = _reference_search(f, {}, [])
    if model is None:
        return ("unsat", None)
    return ("sat", {v: x for v, x in model.items() if not v.startswith("#")})


def _random_nested_formulas(rng: random.Random, n: int):
    """`n` random formulas with nested disjunctions and boolean literals,
    over one pool of six atoms on unbounded integers."""
    def atom():
        if rng.random() < 0.35:
            return bvar(rng.choice(["B", "C", "D"]))
        t = IntTerm.make({v: rng.randint(-2, 2) for v in ("X", "Y", "Z")}, 0)
        return rng.choice([le, lt, ge, gt, eq, ne])(t, rng.randint(-3, 3))

    pool = [atom() for _ in range(6)]

    def tree(depth, conj):
        if depth == 0 or rng.random() < 0.25:
            lit = rng.choice(pool)
            return lit if rng.random() < 0.5 else fnot(lit)
        parts = [tree(depth - 1, not conj) for _ in range(2)]
        return fand(*parts) if conj else for_(*parts)

    return [fand(*(tree(3, False) for _ in range(rng.randint(1, 2)))) for _ in range(n)]


def _seeded_formulas(seed: int, n: int):
    """Boxed formulas, nested ones, and nested ones conjoined with the
    negation of their own weakening, which are unsat."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        if i % 3 == 0:
            out.append(_random_boxed_formula(rng))
        elif i % 3 == 1:
            out.extend(_random_nested_formulas(rng, 1))
        else:
            g, h = _random_nested_formulas(rng, 2)
            out.append(fand(g, fnot(for_(g, h))))
    return out


def test_every_stored_witness_satisfies_its_own_query_seeded():
    # each sat answer from the backend leaves its model in `witnesses`; read
    # as a total state, it satisfies the query it answered
    s = Solver()
    stored = partial = 0
    for f in _seeded_formulas(1606, 600):
        before, queries = len(s.witnesses), s.queries
        answer = s.is_sat(f)
        new = s.witnesses[before:]
        if not answer or s.queries == queries:
            assert not new
            continue
        (w,) = new
        assert feval(f, total_state(f, w)), f"witness {w} does not satisfy {f}"
        stored += 1
        partial += not (int_vars(f) | bool_vars(f)) <= set(w)
    assert stored == len(s.witnesses) >= 100
    assert partial > 0  # some witnesses rely on the completion rule


def test_check_matches_the_rebuild_reference_seeded():
    # the same branches, the same answer and the same model, key order too
    formulas = _seeded_formulas(1401, 400) + _same_base_formulas(random.Random(2301), 500)
    shapes = {"sat": 0, "unsat": 0, "nested_or": 0, "bool": 0}
    for f in formulas:
        got, want = BuiltinSolver().check(f), _reference_check(f)
        assert got == want, str(f)
        if got[1] is not None:
            assert list(got[1].items()) == list(want[1].items()), str(f)
        shapes[got[0]] += 1
        shapes["nested_or"] += isinstance(f, And) and any(
            isinstance(a, Or) and any(isinstance(b, And) for b in a.args) for a in f.args
        )
        shapes["bool"] += bool(bool_vars(f))
    assert min(shapes.values()) >= 20, shapes


def test_replace_atom_equals_the_rebuild_seeded():
    absent = [bvar("Q"), fnot(bvar("Q")), le(ivar("W"), 7)]
    seen = {"args_kept": 0, "args_new": 0}
    for f in _seeded_formulas(1402, 200):
        assert simplify(f) == f  # canonical as built
        for atom in absent:
            assert solver_module._replace_atom(f, atom, True) is f
        for atom in {_key(a): a for a in _atoms_of(f)}.values():
            for value in (True, False):
                got = solver_module._replace_atom(f, atom, value)
                want = _reference_replace(f, atom, value)
                assert got == want and type(got) is type(want), (str(f), str(atom), value)
                if isinstance(got, And):
                    old = set(map(id, f.args))
                    seen["args_kept" if all(id(a) in old for a in got.args) else "args_new"] += 1
    assert seen["args_kept"] and seen["args_new"], seen


def test_each_node_finds_its_least_atom_once_seeded():
    # the search branches on `least_atom`, which each node finds from its
    # arguments' own; the reference walks the whole formula
    for f in _seeded_formulas(1403, 300):
        assert f.least_atom is reference_least_atom(f), str(f)
        assert "least_atom" in vars(f)  # stored on the node
        for g in f.args if isinstance(f, (And, Or)) else ():
            assert f.least_atom.sort_key <= g.least_atom.sort_key


def test_replace_atom_slices_children_that_collapse_to_the_unit():
    x_le, y_or, z_or = le(X, 3), for_(B, le(Y, 0)), for_(B, ge(Z, 2))
    f = fand(x_le, y_or, z_or, ge(X + Y, 0))
    g = solver_module._replace_atom(f, B, True)
    assert g == _reference_replace(f, B, True) == fand(x_le, ge(X + Y, 0))
    # the survivors are the same objects, in the same order
    survivors = [a for a in f.args if not isinstance(a, Or)]
    assert isinstance(g, And) and list(map(id, g.args)) == list(map(id, survivors))
    # a single survivor is returned by itself, none at all gives the unit
    h = fand(x_le, y_or)
    assert solver_module._replace_atom(h, B, True) is h.args[0]
    assert solver_module._replace_atom(fand(y_or, z_or), B, True) is TRUE
    o = for_(B, fand(C_BOOL, le(Y, 0)))
    assert solver_module._replace_atom(o, B, False) is o.args[1]
    assert solver_module._replace_atom(for_(B, C_BOOL), B, False) is C_BOOL
    # a child that changes to anything but the unit is rebuilt
    k = fand(x_le, for_(fnot(B), le(Y, 0)))
    got = solver_module._replace_atom(k, B, True)
    assert got == _reference_replace(k, B, True) == fand(x_le, le(Y, 0))


# ---------------------------------------------------------------------------
# the settle rule: what comparisons set on a base force on another there


def test_settle_rule_matches_brute_force_on_every_pair():
    # every comparison on the bases X and X - Y, both orientations of <=,
    # = and !=, set true or false, against every other on the same base; the
    # states cover each base from -8 to 8, past every bound the constants
    # and their negations give
    states = [{"X": x, "Y": y} for x in range(-4, 5) for y in range(-4, 5)]
    seen = {True: 0, False: 0, None: 0}
    for base in (X, X - Y):
        cmps = [op(base, k) for op in (le, ge, eq, ne) for k in range(-3, 4)]
        for a, b in product(cmps, cmps):
            assert cmp_fact(a)[0] == cmp_fact(b)[0]
            for value in (True, False):  # a set true, then a set false
                holds = [s for s in states if feval(a, s) == value]
                implies = all(feval(b, s) for s in holds)
                meets = any(feval(b, s) for s in holds)
                want = True if implies else False if not meets else None
                got = forced_value(b, [(a, value)])
                assert got is want, (str(a), value, str(b), got)
                seen[want] += 1
    assert min(seen.values()) >= 100, seen


def test_forced_value_meets_every_known_fact_on_the_base_seeded():
    # several comparisons set on one base settle what their facts allow
    # together, and comparisons on other bases settle nothing
    states = [{"X": x, "Y": y} for x in range(-8, 9) for y in range(-2, 3)]
    rng = random.Random(3402)
    seen = {True: 0, False: 0, None: 0}
    for _ in range(600):
        known = []
        size = rng.randint(2, 4)
        while len(known) < size:
            c = rng.choice([le, ge, eq, ne])(rng.choice([X, X, Y]), rng.randint(-3, 3))
            value = rng.random() < 0.5
            if any(feval(c, s) == value and all(feval(k, s) == v for k, v in known) for s in states):
                known.append((c, value))  # the facts passed in never contradict
        atom = rng.choice([le, ge, eq, ne])(X, rng.randint(-4, 4))
        holds = [s for s in states if all(feval(k, s) == v for k, v in known)]
        implies = all(feval(atom, s) for s in holds)
        meets = any(feval(atom, s) for s in holds)
        want = True if implies else False if not meets else None
        assert forced_value(atom, known) is want, ([(str(k), v) for k, v in known], str(atom))
        seen[want] += 1
    assert min(seen.values()) >= 100, seen
    # settled only by the facts together
    for known, atom, want in (
        ([(ge(X, 2), True), (le(X, 2), True)], eq(X, 2), True),
        ([(ge(X, 2), True), (le(X, 2), True)], ne(X, 2), False),
        ([(ge(X, 1), True), (ne(X, 1), True)], ge(X, 2), True),
        ([(le(X, 1), False), (eq(X, 2), False)], le(X, 2), False),
    ):
        assert all(forced_value(atom, [kv]) is None for kv in known)
        assert forced_value(atom, known) is want
        assert forced_value(atom, known + [(le(Y, 0), True)]) is want


def _same_base_formulas(rng: random.Random, n: int):
    """`n` random formulas with nested disjunctions and boolean literals
    over a pool of eight atoms, of which the comparisons share three linear
    bases, X, Y and X + Y; every other one is conjoined with the negation of
    its own weakening, which makes it unsat."""
    def atom():
        if rng.random() < 0.15:
            return rng.choice([B, C_BOOL])
        base = rng.choice([X, Y, X + Y])
        return rng.choice([le, ge, eq, ne])(base, rng.randint(-3, 3))

    out = []
    for i in range(n):
        pool = [atom() for _ in range(8)]

        def tree(depth, conj):
            if depth == 0 or rng.random() < 0.25:
                lit = rng.choice(pool)
                return lit if rng.random() < 0.5 else fnot(lit)
            parts = [tree(depth - 1, not conj) for _ in range(rng.randint(2, 3))]
            return fand(*parts) if conj else for_(*parts)

        g = fand(*(tree(3, False) for _ in range(rng.randint(1, 3))))
        out.append(g if i % 2 else fand(g, fnot(for_(g, tree(2, False)))))
    return out


def test_a_unit_equality_settles_its_nested_disequality():
    T = ivar("T")
    assert fand(eq(T, 1), for_(ne(T, 1), eq(X, 0)), for_(ge(X, 2), le(X, -4))) is FALSE


def test_solver_stats_count_the_theory_checks():
    s = Solver()
    assert s.stats()["theory_checks"] == 0
    s.is_sat(fand(ge(X, 0), le(X + Y, -1), ge(Y, 0)))
    assert s.stats()["theory_checks"] == s.backend.theory_checks > 0
    before = s.stats()["theory_checks"]
    s.is_sat(fand(ge(X, 0), le(X + Y, -1), ge(Y, 0)))  # answered from the cache
    assert s.stats()["theory_checks"] == before


# ---------------------------------------------------------------------------
# projection and strongest postconditions


def test_project_int_var_exact_cases():
    f = fand(ge(X, 0), le(X, 3), le(Y - X, 0))  # exists X in [0,3] with Y <= X
    g = project_int_var(f, "X")
    assert g is not None
    for y in range(-5, 8):
        expect = any(0 <= x <= 3 and y <= x for x in range(-10, 11))
        assert feval(g, {"Y": y}) == expect


def test_project_int_var_randomized():
    rng = random.Random(4242)
    ops = [le, ge, eq, ne, lt, gt]
    for _ in range(120):
        atoms = []
        for _ in range(rng.randint(1, 4)):
            coeff_x = rng.choice([-1, 0, 1])
            t = IntTerm.make({"X": coeff_x, "Y": rng.randint(-1, 1)}, rng.randint(-2, 2))
            atoms.append(rng.choice(ops)(t, rng.randint(-2, 2)))
        f = fand(*atoms)
        g = project_int_var(f, "X")
        if g is None:
            continue
        assert "X" not in int_vars(g)
        for y in range(-6, 7):
            expect = any(feval(f, {"X": x, "Y": y}) for x in range(-12, 13))
            assert feval(g, {"Y": y}) == expect, f"{f} projected to {g} at Y={y}"


def test_project_int_var_gives_up_on_non_unit_coefficients():
    f = le(X.scale(2), 3)
    assert project_int_var(f, "X") is None or feval(
        project_int_var(f, "X"), {}
    )  # 2X <= 3 is satisfiable; any exact answer must be TRUE-like


def _random_nested_formula(rng: random.Random, depth: int = 0):
    """Nested `And`/`Or` over X, Y, Z and the boolean B, with X at
    coefficient ±1 wherever it occurs."""
    if depth == 3 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return B if rng.random() < 0.5 else fnot(B)
        t = IntTerm.make(
            {"X": rng.choice([-1, 0, 1, 1]), "Y": rng.randint(-1, 1), "Z": rng.randint(-1, 1)},
            rng.randint(-2, 2),
        )
        return rng.choice([le, ge, eq, ne, lt, gt])(t, rng.randint(-2, 2))
    parts = [_random_nested_formula(rng, depth + 1) for _ in range(rng.randint(2, 3))]
    return (fand if rng.random() < 0.5 else for_)(*parts)


def test_project_int_var_nested_formulas_match_brute_force():
    # every atom's bound on X lies within [-10, 10] here, so each formula is
    # constant in X outside that range and x in [-11, 11] decides ∃X
    rng = random.Random(3217)
    projected = 0
    for _ in range(120):
        f = _random_nested_formula(rng)
        g = project_int_var(f, "X")
        assert g is not None and "X" not in int_vars(g), (f, g)
        projected += "X" in int_vars(f)
        for y, z, b in product(range(-2, 3), range(-2, 3), (False, True)):
            s = {"Y": y, "Z": z, "B": b}
            expect = any(feval(f, {**s, "X": x}) for x in range(-11, 12))
            assert feval(g, s) == expect, f"{f} projected to {g} at {s}"
    assert projected >= 90


def test_project_int_var_is_exact_past_many_disjunctions():
    # ten disjunctions over X multiply out to 2^10 cubes, past any cube cap;
    # Cooper's rule needs one copy of f per lower bound, ten here
    f = fand(*(for_(le(X, Y - as_term(i)), ge(X, Z + as_term(i))) for i in range(10)))
    g = project_int_var(f, "X")
    assert g is not None and "X" not in int_vars(g)
    for y, z in product(range(-12, 13), repeat=2):
        expect = any(feval(f, {"X": x, "Y": y, "Z": z}) for x in range(-25, 26))
        assert feval(g, {"Y": y, "Z": z}) == expect, (y, z)


def test_strongest_post_soundness_randomized(solver):
    rng = random.Random(5120)
    labels = [
        Assign("X", X + as_term(1)),
        Assign("X", as_term(2)),
        Assign("X", Y - as_term(1)),
        Assume(ge(X, 1)),
        Assume(le(X + Y, 2)),
        SkipL(),
        Assign("B", fnot(bvar("B"))),
        Assign("B", le(X, 0)),
    ]
    for _ in range(150):
        phi = _random_boxed_formula(rng)
        lab = rng.choice(labels)
        sp = strongest_post(lab, phi)
        if sp is None:
            continue
        for s in BOX_STATES[:: rng.randint(3, 7)]:
            if not feval(phi, s):
                continue
            s2 = interpret_label(lab, s)
            if s2 is None:
                continue
            assert feval(sp, s2), f"sp({lab}, {phi}) = {sp} misses image of {s}"


def test_strongest_post_exactness_simple(solver):
    # sp(X := X + 1, X = 0) is exactly X = 1
    sp = strongest_post(Assign("X", X + as_term(1)), eq(X, 0))
    assert solver.equivalent(sp, eq(X, 1))
    # sp(X := 0, X = 5) is exactly X = 0
    sp2 = strongest_post(Assign("X", as_term(0)), eq(X, 5))
    assert solver.equivalent(sp2, eq(X, 0))
    # sp through an assume conjoins the guard
    sp3 = strongest_post(Assume(ge(X, 1)), le(X, 3))
    assert solver.equivalent(sp3, fand(ge(X, 1), le(X, 3)))


def test_sequence_interpolants_make_valid_triples(solver):
    labels = [
        Assign("X", as_term(0)),
        Assign("X", X + as_term(1)),
        Assume(ge(X, 1)),
    ]
    pre = TRUE
    suffix = fnot(ge(X, 1))  # unreachable after the chain, so interpolable
    mids = sequence_interpolants(solver, pre, labels, suffix)
    assert len(mids) == len(labels) - 1
    props = [pre] + mids + [simplify(fnot(suffix))]
    for p, lab, q in zip(props, labels, props[1:]):
        assert hoare_valid(p, lab, q, solver), (p, lab, q)


def test_sequence_interpolants_reject_satisfiable_chains(solver):
    labels = [Assign("X", as_term(3))]
    with pytest.raises(ValueError, match="unsatisfiable"):
        sequence_interpolants(solver, TRUE, labels, ge(X, 1))


def _conjuncts(f):
    if f == TRUE:
        return []
    return list(f.args) if isinstance(f, And) else [f]


def _random_unsat_chain(rng: random.Random, solver):
    """A precondition, a trace over X and Y and a suffix the trace cannot
    reach: unit-coefficient assignments, assumes, skip and coins."""
    def term():
        return IntTerm.make(
            {v: rng.choice([-1, 0, 1]) for v in ("X", "Y")}, rng.randint(-2, 2)
        )

    def label():
        r = rng.random()
        if r < 0.4:
            # unit coefficients keep the strongest postcondition exact
            return Assign(rng.choice(["X", "Y"]), term())
        if r < 0.7:
            return Assume(rng.choice([le, ge, eq, ne])(term(), rng.randint(-3, 3)))
        if r < 0.85:
            return SkipL()
        return Pb(rng.randint(0, 2), rng.choice("LR"))

    while True:
        pre = fand(
            *(rng.choice([eq, le, ge])(ivar(v), rng.randint(-2, 2)) for v in ("X", "Y"))
        )
        labels = [label() for _ in range(rng.randint(2, 7))]
        suffix = rng.choice([le, ge, eq, ne])(term(), rng.randint(-3, 3))
        if not solver.is_sat(fand(pre, pre_exists_trace(labels, suffix))):
            return pre, labels, suffix


def test_sequence_interpolants_are_weakened_minimal_and_valid_seeded():
    solver = Solver()
    rng = random.Random(1109)
    weakened = 0
    infeasible = 0
    for _ in range(220):
        pre, labels, suffix = _random_unsat_chain(rng, solver)
        mids = sequence_interpolants(solver, pre, labels, suffix)
        # weakened against the trace's own infeasibility when it has one
        target = suffix
        if not solver.is_sat(fand(pre, pre_exists_trace(labels, TRUE))):
            target = TRUE
            infeasible += 1
        assert len(mids) == len(labels) - 1
        props = [pre] + mids + [fnot(suffix)]
        for p, lab, q in zip(props, labels, props[1:]):
            assert hoare_valid(p, lab, q, solver), (p, lab, q)
        for k, ik in enumerate(mids, start=1):
            sp = strongest_post(labels[k - 1], props[k - 1])
            assert sp is not None
            assert solver.entails(sp, ik), (sp, ik)
            weakened += not solver.entails(ik, sp)
            rest = pre_exists_trace(labels[k:], suffix)
            assert not solver.is_sat(fand(ik, rest)), (ik, rest)
            rest = pre_exists_trace(labels[k:], target)
            parts = _conjuncts(ik)
            for i in range(len(parts)):
                trial = parts[:i] + parts[i + 1:]
                assert solver.is_sat(fand(*trial, rest)), (ik, parts[i], rest)
    assert weakened > 100  # the chain is not the exact one
    assert 50 < infeasible < 170


def _random_non_unit_chain(rng: random.Random, solver):
    """A precondition, a trace over X and Y with assignments that give a
    variable a coefficient other than 0 or ±1, and a suffix the trace
    cannot reach."""
    def term():
        return IntTerm.make(
            {v: rng.choice([-1, 0, 1]) for v in ("X", "Y")}, rng.randint(-2, 2)
        )

    def label():
        r = rng.random()
        v = rng.choice(["X", "Y"])
        if r < 0.35:
            # no exact strongest postcondition without divisibility
            return Assign(v, IntTerm.make({v: rng.choice([-3, -2, 2, 3])}, rng.randint(-2, 2)))
        if r < 0.55:
            return Assign(v, term())
        if r < 0.9:
            return Assume(rng.choice([le, ge, eq, ne])(term(), rng.randint(-3, 3)))
        return SkipL()

    while True:
        pre = fand(
            *(rng.choice([eq, le, ge])(ivar(v), rng.randint(-2, 2)) for v in ("X", "Y"))
        )
        labels = [label() for _ in range(rng.randint(2, 6))]
        suffix = rng.choice([le, ge, eq, ne])(term(), rng.randint(-3, 3))
        if not solver.is_sat(fand(pre, pre_exists_trace(labels, suffix))):
            return pre, labels, suffix


def test_sequence_interpolants_pass_non_unit_assignments_seeded():
    # where an assignment has no exact strongest postcondition, the chain
    # goes on with the conjuncts it leaves alone if they still refute the
    # rest, instead of falling back to the demonic chain; either way every
    # triple is valid and each proposition refutes the rest of the trace
    solver = Solver()
    rng = random.Random(1610)
    through = 0
    for _ in range(200):
        pre, labels, suffix = _random_non_unit_chain(rng, solver)
        mids = sequence_interpolants(solver, pre, labels, suffix)
        assert len(mids) == len(labels) - 1
        props = [pre] + mids + [fnot(suffix)]
        for p, lab, q in zip(props, labels, props[1:]):
            assert hoare_valid(p, lab, q, solver), (p, lab, q)
        for k, ik in enumerate(mids, start=1):
            assert not solver.is_sat(fand(ik, pre_exists_trace(labels[k:], suffix))), (ik, labels)
        demonic = []
        cur = fnot(suffix)
        for lab in reversed(labels[1:]):
            cur = wp_demonic(lab, cur)
            demonic.append(cur)
        sp_less = any(strongest_post(lab, p) is None for lab, p in zip(labels[:-1], props))
        through += sp_less and mids != demonic[::-1]
    assert through >= 30, through


def test_witness_answered_drop_trials_agree_with_is_sat_seeded(monkeypatch):
    # `solver` answers a drop trial from its stored witnesses where it can;
    # `reference` holds no witness answer and asks is_sat of every trial's
    # conjunction.  Equal interpolants mean equal drop decisions, and the
    # reference asks exactly the trials the witnesses answered on top
    rng, chooser = random.Random(1109), Solver()
    solver, reference = Solver(), Solver()
    monkeypatch.setattr(reference, "holds", lambda f: 0)
    asked = {solver: 0, reference: 0}
    for s in asked:
        monkeypatch.setattr(
            s, "is_sat", lambda f, s=s, is_sat=s.is_sat: asked.__setitem__(s, asked[s] + 1) or is_sat(f)
        )
    for _ in range(220):
        pre, labels, suffix = _random_unsat_chain(rng, chooser)
        assert sequence_interpolants(solver, pre, labels, suffix) == sequence_interpolants(
            reference, pre, labels, suffix
        )
    assert solver.witness_drops > 100 and reference.witness_drops == 0
    assert asked[reference] - asked[solver] == solver.witness_drops
    assert solver.queries < reference.queries


def test_identity_steps_reuse_the_previous_proposition(monkeypatch):
    solver = Solver()
    labels = [
        Assign("X", X + as_term(1)),
        Assign("Y", as_term(0)),
        SkipL(),
        Pb(0, "L"),
        Assign("X", X + Y),
        Assume(ge(X, 3)),
    ]
    pre = fand(eq(X, 0), eq(Y, 5))
    log = []
    real_sp = solver_module.strongest_post
    real_is_sat = solver.is_sat

    def logged_sp(lab, phi):
        log.append(lab)
        return real_sp(lab, phi)

    def logged_is_sat(f):
        log.append("query")
        return real_is_sat(f)

    monkeypatch.setattr(solver_module, "strongest_post", logged_sp)
    monkeypatch.setattr(solver, "is_sat", logged_is_sat)
    mids = sequence_interpolants(solver, pre, labels, TRUE)
    sp_at = [i for i, entry in enumerate(log) if entry != "query"]
    assert [log[i] for i in sp_at] == labels[:-1]
    queries_after = [b - a - 1 for a, b in zip(sp_at, sp_at[1:] + [len(log)])]
    # the skip and the coin follow an assignment that was weakened
    assert queries_after[0] > 0 and queries_after[1] > 0
    assert queries_after[2] == 0 and queries_after[3] == 0
    assert mids[2] is mids[1] and mids[3] is mids[1]
