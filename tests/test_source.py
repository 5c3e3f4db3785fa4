"""Source hygiene of the package."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "probtrace"


def unused_imports(source: str) -> list[str]:
    """Names an import statement binds that no expression reads; quoted
    annotations count as expressions."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, annotations):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                quoted = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(quoted) if isinstance(m, ast.Name)}
    return sorted(bound - used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names to re-export them
    assert unused_imports("import os\nfrom a import B, C\nx: 'B' = os.sep\n") == ["C"]
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def callers(source: str, name: str) -> list[str]:
    """The functions that call `name`, directly or as an attribute; a call
    at module level counts as made by "<module>".  The name "type()" stands
    for what ``type(...)`` returns, called as in ``type(f)(args)``."""
    found = []

    def called(f):
        if isinstance(f, ast.Call) and isinstance(f.func, ast.Name) and f.func.id == "type":
            return "type()"
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if called(f) == name:
                    found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_backward_chains_walk_the_run_memo():
    # every backward chain goes through semantics.pre_exists_chain and the
    # run's wp_memo; only saturation steps the memo itself, one label at a
    # time, so a new hand-rolled fold of pre_exists fails here
    assert callers("def f():\n    g(pre_exists(a, b))\nx.pre_exists(c)\n", "pre_exists") == [
        "f",
        "<module>",
    ]
    found = {
        (path.name, caller)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "semantics.py"
        for caller in callers(path.read_text(), "pre_exists")
    }
    assert found == {("hoare.py", "saturate_edges")}


def test_witnesses_are_evaluated_in_one_place():
    # `Solver.holds` keeps each formula's witness bitset for the run, so a
    # second evaluation path would evaluate formulas on witnesses again
    found = {
        (path.name, caller)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "formula.py"
        for caller in callers(path.read_text(), "feval_bits")
    }
    assert found == {("solver.py", "holds")}
    assert set(callers((SRC / "formula.py").read_text(), "feval_bits")) == {"feval_bits"}


def test_one_reading_of_a_comparison_as_a_fact():
    # `formula.cmp_fact` is the only code that reads a comparison's sign
    # and orientation as a bound on its base: the same-base rule of the
    # constructors and `forced_value`, with which the constructors settle
    # nested atoms, call it, and the rule negates facts arithmetically,
    # without building `fnot` nodes
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = {
        (name, caller)
        for name, source in sources.items()
        for caller in callers(source, "cmp_fact")
    }
    assert found == {("formula.py", "_absorb_cmps"), ("formula.py", "forced_value")}
    assert "_absorb_cmps" not in callers(sources["formula.py"], "fnot")


def test_one_rule_for_facts_on_a_base():
    # `formula._meet_facts` is the one rule for facts on one linear base:
    # the constructors resolve comparisons with it, and `forced_value`
    # settles their nested atoms with it; no other module spells a fact's
    # kind, so no second copy of what a bound, a point or an excluded point
    # allows can appear, and no other code settles a comparison
    kinds = {"ub", "lb", "eq", "ne"}
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    spelled = {
        name
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in kinds
    }
    assert spelled == {"formula.py"}
    found = {
        (name, caller)
        for name, source in sources.items()
        for caller in callers(source, "_meet_facts")
    }
    assert found == {("formula.py", "_absorb_cmps"), ("formula.py", "forced_value")}
    found = {
        (name, caller)
        for name, source in sources.items()
        for caller in callers(source, "forced_value")
    }
    assert found == {("formula.py", "settle")}  # the walk in `_settle_nested`


def test_only_the_formula_module_builds_nodes():
    # hash-consing and the run memo of `fand`/`for_` rely on every formula
    # being canonical as built, which only `formula.py` knows how to do; a
    # node's class reached through `type` builds one as surely as its name
    nodes = ("And", "Or", "Cmp", "BoolLit", "TrueF", "FalseF", "type()")
    assert callers("def f():\n    return Cmp(t, op)\ng = And\n", "Cmp") == ["f"]
    toy = "def f(g):\n    return type(g)(g.args[1:])\nh = type(g)\n"
    assert callers(toy, "type()") == ["f"] and callers(toy, "type") == ["f", "<module>"]
    found = {
        (path.name, name, caller)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "formula.py"
        for name in nodes
        for caller in callers(path.read_text(), name)
    }
    assert found == set()


# the modules `verify`, `verify_refutational` and `check_decomposition` run
VERIFIER = ("cegar", "evidence", "hoare", "markov", "cfa", "semantics", "solver", "formula")


def imported_modules(source: str) -> set[str]:
    """The modules an import statement names, relative ones resolved
    against the package: ``from . import theory`` names "probtrace.theory"."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = (("probtrace." if node.level else "") + (node.module or "")).rstrip(".")
            found |= {base} | {f"{base}.{a.name}" for a in node.names}
    return found


def test_no_verifier_module_imports_the_theory():
    # `theory` holds the paper's constructions that the verifier does not
    # run; a verifier module that imports it runs them again
    for source in ("from . import theory\n", "from .theory import normalize\n", "import probtrace.theory\n"):
        assert "probtrace.theory" in imported_modules(source)
    found = {name for name in VERIFIER if "probtrace.theory" in imported_modules((SRC / f"{name}.py").read_text())}
    assert found == set()


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The public functions of a module and the public methods of its
    classes, as ("f" or "Class.m", node)."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, node))
    return [(name, node) for name, node in out if not name.split(".")[-1].startswith("_")]


def referenced_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Every name read in `tree` outside `skip`: a bare name as itself, an
    attribute as ".attr", and an attribute of a bare name also as
    "base.attr"."""
    names = set()
    todo = [tree]
    while todo:
        for child in ast.iter_child_nodes(todo.pop()):
            if child is skip:
                continue
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                names.add("." + child.attr)
                if isinstance(child.value, ast.Name):
                    names.add(f"{child.value.id}.{child.attr}")
            todo.append(child)
    return names


def uncalled(trees: dict[str, ast.Module], module: str) -> list[str]:
    """The public functions and methods of `module` that no code in `trees`
    names outside their own body.  A function is named as a bare name or as
    ``module.name``; a method by any name or attribute of its name, since
    the type of the object it is read from is not known."""

    def spellings(name: str) -> set[str]:
        if "." in name:
            method = name.split(".")[-1]
            return {method, "." + method}
        return {name, f"{module}.{name}"}

    return [
        name
        for name, node in public_definitions(trees[module])
        if not any(spellings(name) & referenced_names(tree, node) for tree in trees.values())
    ]


# Uncalled on purpose: name -> reason.
FACADE = "perfbench's tracer and run.py use the Solver facade by name (ROADMAP item 6)"
UNCALLED = {
    "solver.Solver.check_sat": FACADE,
    "solver.Solver.is_valid": FACADE,
    "solver.Solver.equivalent": FACADE,
    "solver.Solver.interpolants": FACADE,
    "solver.Solver.close": FACADE,
    "cegar.dump_certificate": "the CLI is to emit certificates in this format (ROADMAP item 2)",
    "semantics.interpret_trace": "the replay of counterexamples by execution (ROADMAP item 14)",
}


def test_every_verifier_function_has_a_caller():
    # a public function or method of a verifier module is called somewhere
    # in the package other than in its own body and in `theory`: code only
    # the tests run belongs in `tests/helpers.py`, the paper's constructions
    # in `theory`
    toy = "class C:\n    def m(self):\n        return self.m()\n\ndef used():\n    return C\n\nx = used()\n"
    assert uncalled({"toy": ast.parse(toy)}, "toy") == ["C.m"]
    # a method of another type that shares a function's name does not call it
    toy = "def union(a, b):\n    return a\n\nx = frozenset().union({1})\n"
    assert uncalled({"toy": ast.parse(toy)}, "toy") == ["union"]
    user = ast.parse("from . import toy\ny = toy.union(1, 2)\n")
    assert uncalled({"toy": ast.parse(toy), "user": user}, "toy") == []
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.stem not in ("__init__", "theory")
    }
    found = {f"{module}.{name}" for module in VERIFIER for name in uncalled(trees, module)}
    assert found == set(UNCALLED)


def attribute_reads(source: str, names: set[str]) -> set[str]:
    """The attributes among `names` that some expression reads."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in names
    }


def test_only_cfa_reads_a_coin():
    # `cfa` owns the action model of a CFMDP: `action_of`, `action_key` and
    # `actions_at` say how a coin's two sides make one action; a module
    # that reads a coin's id or side derives that model again
    coin = {"pid", "side"}
    assert attribute_reads("x = lab.pid\ny = Pb(act, side)\n", coin) == {"pid"}
    found = {path.name for path in sorted(SRC.glob("*.py")) if attribute_reads(path.read_text(), coin)}
    assert found == {"cfa.py"}
