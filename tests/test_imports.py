"""Imports: none unused, and none that start-up never needs.

No module of the package or the test suite imports a name it never
reads, and the package re-exports exactly what its __init__ imports.
No package module imports scipy.linalg or scipy.io at module level:
their package inits load hundreds of modules fsgl never calls, which
would double the start-up time of every process. Only graph.py reads
another object's private members, so one module owns the edge index, the
edge step and every Laplacian write; it is also the only one that reads a
graph's `edges` mapping, so every other module takes an edge set as its
sorted arrays, and the only one that lays out a matrix diagonal by hand,
so every Laplacian, a cut plan's sub-graphs' included, has one layout.
Graphs are built, and their components found, from whole edge arrays: no
per-edge Python loop, and no per-edge check function anywhere in the
package. Only spectral.py calls an eigenvalue or determinant routine, so
every spectrum in fsgl comes from one eigensolver, and spectral.py calls
no np.linalg routine: both its LAPACK routines come from one extension.
solver.py and objective.py read no np.linalg name at all. No module
decides connectivity by comparing a Fiedler value with a threshold.
Only graph.py tests whether a scalar is an int or a float, in
`graph.integer` and `graph.real`, which every other check calls. Only
graph.py decides when a step deletes an edge (`graph.step_deletes`): no
other module reads WEIGHT_ZERO or compares an edge weight with the step.
Only objective.py computes with the l0 weight mu, so the score's credit
for a deletion and the objective's charge per edge are one rate.
Only datagen.py names MAX_ARRAY_BYTES: every size refusal goes through
`datagen.check_size`. Only `init_graph.default_budget` raises
InvalidBudget or checks `budget_b`: one owner, with one error type,
decides a start's budget. Neither selector calls argmin:
`objective.selection` makes the one pick. Only `objective.edge_terms`
reads the Gram matrix's diagonal, so z = 2Y_mn - Y_mm - Y_nn has one
formula, and no caller drops the number `graph.integer` or `graph.real`
returns. `offenders` runs each "only one module" rule over the package.
Every module under tests/ without a `test_` prefix, the shared
references and doubles, is imported by a test module, and each of its
functions is imported by one or read in its own module, so none outlives
its callers.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsgl

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "fsgl").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# The package's __init__ imports only to re-export, so it is left out.
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + TESTS


def offenders(rule, *owners: str) -> dict:
    """{module: what `rule` finds in its source} for each package module,
    the `owners` aside, in which `rule` finds anything."""
    found = {}
    for path in PACKAGE:
        hits = rule(path.read_text())
        if hits and path.name not in owners:
            found[path.name] = hits
    return found


def unused_imports(source: str) -> list[str]:
    """Names that an import in `source` binds and no expression reads.

    `import a.b` binds `a`; imports inside functions count too.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    assert unused_imports("import os\nimport a.b as c\nfrom x import y\ny()\n") == [
        "os (line 1)", "c (line 2)"]
    assert SOURCES
    found = {}
    for path in SOURCES:
        unused = unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def test_every_helper_module_is_imported_by_a_test_module():
    # a shared helper that no test module imports any more is dead code,
    # and so is a helper module's function that no test module imports
    # and its own module never reads
    imported, names = set(), set()
    for path in TESTS:
        if path.name.startswith("test_"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
                    names.update((node.module, alias.name) for alias in node.names)
    helpers = [p for p in TESTS if not p.name.startswith("test_")]
    assert helpers and [p.stem for p in helpers if p.stem not in imported] == []
    uncalled = []
    for path in helpers:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        uncalled += [f"{path.stem}.{node.name}" for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and (path.stem, node.name) not in names and node.name not in read]
    assert uncalled == []


def test_package_exports_what_it_imports():
    # __init__ imports only to re-export, so its imports and __all__ must
    # name the same objects: a name dropped from one list leaves the other
    tree = ast.parse((ROOT / "src" / "fsgl" / "__init__.py").read_text())
    imported = sorted(alias.asname or alias.name for node in tree.body
                      if isinstance(node, ast.ImportFrom) for alias in node.names)
    assert fsgl.__all__ == sorted(fsgl.__all__)
    assert imported == fsgl.__all__
    assert [name for name in fsgl.__all__ if not hasattr(fsgl, name)] == []


LAZY_MODULES = ("scipy.linalg", "scipy.io")


def eager_imports(source: str) -> list[str]:
    """Imports of a LAZY_MODULES module (or one inside it) outside any function.

    `from scipy import linalg` counts as importing scipy.linalg; imports
    inside a function body run only when it is called, so they pass.
    """
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module] + [f"{child.module}.{alias.name}"
                                          for alias in child.names]
            else:
                names = []
            hit = next((name for name in names for m in LAZY_MODULES
                        if name == m or name.startswith(m + ".")), None)
            if hit is not None:
                found.append(f"{hit} (line {child.lineno})")
            visit(child)

    visit(ast.parse(source))
    return found


def test_no_module_level_scipy_linalg_or_io():
    assert eager_imports(
        "import scipy\nimport scipy.linalg.lapack\nfrom scipy import io\n"
        "from scipy.linalg import eigh\nif x:\n    import scipy.io as sio\n"
        "class C:\n    from scipy import linalg\n"
        "def f():\n    from scipy.io import mmread\n"
        "from scipy import sparse\nimport scipy.iox\n") == [
        "scipy.linalg.lapack (line 2)", "scipy.io (line 3)", "scipy.linalg (line 4)",
        "scipy.io (line 6)", "scipy.linalg (line 8)"]
    assert offenders(eager_imports) == {}


def foreign_private_reads(source: str) -> list[str]:
    """Reads `x._a` in `source` of a single-underscore attribute of any
    object but `self` or `cls` (a dunder such as `x.__name__` passes)."""
    reads = sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                   and not (node.attr.startswith("__") and node.attr.endswith("__"))
                   and not (isinstance(node.value, ast.Name)
                            and node.value.id in ("self", "cls")))
    return [f"{attr} (line {line})" for line, attr in reads]


def test_only_graph_module_reads_private_members_of_other_objects():
    # graph.py owns the edge index and the edge step; every other module
    # goes through public methods
    assert foreign_private_reads(
        "g._keys[i]\nself._w2\ncls._x\nlap._tkeys = 1\nx.keys\nf(a.b._ends)\n"
        "t.__name__\nx.__y\n") == [
        "_keys (line 1)", "_tkeys (line 4)", "_ends (line 6)", "__y (line 8)"]
    assert offenders(foreign_private_reads, "graph.py") == {}


def edges_reads(source: str) -> list[int]:
    """Lines of `source` that name an `.edges` attribute of any object."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr == "edges"})


def test_only_graph_module_reads_the_edge_mapping():
    # the {(m, n): w} view is for callers outside the package; inside it an
    # edge set is its sorted arrays, from edge_arrays()
    assert edges_reads("g.edges\nx = list(a.b.edges.keys())\nedges = 1\nf(edges)\n"
                       "g.edge_arrays()\nt.edges_mn\ndict(h.edges)\n") == [1, 2, 7]
    assert offenders(edges_reads, "graph.py") == {}


def test_solver_leaves_the_weakening_rule_to_the_graph():
    # a step is `Laplacian.weaken`: the solve neither clamps nor deletes
    tree = ast.parse((ROOT / "src" / "fsgl" / "solver.py").read_text())
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert [name for name in names if "weaken" in name.lower()] == []


def _is_weight(node) -> bool:
    """Whether `node` names an edge weight: `w`, `ws`, `weight(s)`, a name
    that starts `w_`, or a `.weight`, `.weights` or `._ws` attribute."""
    if isinstance(node, ast.Name):
        return node.id in ("w", "ws", "weight", "weights") or node.id.startswith("w_")
    return isinstance(node, ast.Attribute) and node.attr in ("weight", "weights", "_ws")


def _is_step(node) -> bool:
    """Whether `node` names a step size: `eps`, `epsilon` or `.epsilon`."""
    return (isinstance(node, ast.Name) and node.id in ("eps", "epsilon")
            or isinstance(node, ast.Attribute) and node.attr == "epsilon")


def deletion_rules(source: str) -> list[int]:
    """Lines of `source` that name WEIGHT_ZERO (read or imported), or hold a
    comparison that names both an edge weight and a step size."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == "WEIGHT_ZERO"
                or isinstance(node, ast.Attribute) and node.attr == "WEIGHT_ZERO"
                or isinstance(node, ast.alias) and node.name == "WEIGHT_ZERO"):
            lines.add(node.lineno)
        if isinstance(node, ast.Compare):
            subs = list(ast.walk(node))
            if any(map(_is_weight, subs)) and any(map(_is_step, subs)):
                lines.add(node.lineno)
    return sorted(lines)


def test_only_graph_module_decides_when_a_step_deletes():
    # `graph.step_deletes` is the one deletion rule: the step applies it and
    # the score's l0 gain reads it, so no other module compares a weight
    # with the step or reads the weight floor
    assert deletion_rules(
        "gain = (w_arr < eps) * mu\nif w - cfg.epsilon <= 1e-12:\n    pass\n"
        "from .graph import WEIGHT_ZERO as Z\nok = gap > 2.0 * eps\n"
        "x = graph.WEIGHT_ZERO\nkeep = eps >= g.weight(m, n)\n"
        "d = step_deletes(w_arr, eps)\nif ws.min() > 0:\n    pass\n"
        "y = self.epsilon <= 0\n") == [1, 2, 4, 6, 7]
    assert offenders(deletion_rules, "graph.py") == {}


# NumPy's arithmetic calls, which compute with an argument as `-` or `*` do.
ARITHMETIC_CALLS = ("add", "subtract", "multiply", "divide", "true_divide", "negative",
                    "power")


def _is_mu(node) -> bool:
    """Whether `node` names the l0 weight: `mu` or a `.mu` attribute."""
    return (isinstance(node, ast.Name) and node.id == "mu"
            or isinstance(node, ast.Attribute) and node.attr == "mu")


def mu_arithmetic(tree) -> list[int]:
    """Lines inside the AST `tree` that compute with the l0 weight: `mu` or
    `.mu` as an operand of an operator or an augmented assignment, or as an
    argument of a NumPy arithmetic call. A comparison, a keyword argument
    or a message's `{cfg.mu!r}` computes nothing."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            operands = [node.left, node.right]
        elif isinstance(node, ast.UnaryOp):
            operands = [node.operand]
        elif isinstance(node, ast.AugAssign):
            operands = [node.target, node.value]
        elif isinstance(node, ast.Call) and call_name(node) in ARITHMETIC_CALLS:
            operands = node.args
        else:
            continue
        if any(map(_is_mu, operands)):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_objective_module_computes_with_mu():
    # score_edges credits a deleting step the mu that objective_and_fiedler
    # charges each edge; no other module may hold a rate of its own
    assert mu_arithmetic(ast.parse(
        "h = x + cfg.mu * 2.0\ny -= mu\nok = self.mu < 0\nf(mu=args.mu)\n"
        "np.subtract(g, cfg.mu, out=g)\nm = f'{cfg.mu!r}'\nz = -mu\n"
        "w = cfg.gamma * rho\nmus = 2 * n\n")) == [1, 2, 5, 7]
    assert offenders(lambda source: mu_arithmetic(ast.parse(source)), "objective.py") == {}
    source = (ROOT / "src" / "fsgl" / "objective.py").read_text()
    assert [name for name, func in functions(source).items() if mu_arithmetic(func)] == [
        "score_edges", "objective_and_fiedler"]


# What computes eigenvalues or determinants; only spectral.py may call them.
EIGEN_CALLS = ("eigh", "eigvalsh", "eig", "eigvals", "slogdet", "det")


def eigen_calls(source: str) -> list[tuple[str | None, str]]:
    """(enclosing function or None, name) for each call in `source` of a
    function named in EIGEN_CALLS, as an attribute (`np.linalg.eigh(a)`)
    or a bare name (`eigh(a)`)."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in EIGEN_CALLS:
                    found.append((func, name))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(ast.parse(source), None)
    return found


def test_only_spectral_module_computes_eigenvalues_or_determinants():
    # every eigenvalue and determinant, of a Laplacian or of datagen's
    # covariance, comes from smallest_eigenpairs: one eigensolver, not an
    # LU or a second spectrum, and no module is let off
    assert eigen_calls("np.linalg.eigh(a)\ndef f():\n    return slogdet(b)[1]\n"
                       "x.det\nclass C:\n    def g(self):\n        la.eigvals(c)\n"
                       "f(eig)\nnp.linalg.inv(d)\nsp.eigsh(e)\n") == [
        (None, "eigh"), ("f", "slogdet"), ("g", "eigvals")]
    assert offenders(eigen_calls, "spectral.py") == {}


def linalg_names(source: str) -> list[str]:
    """Sorted names `x` that `source` reads as `np.linalg.x` or `numpy.linalg.x`."""
    return sorted({node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                   and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name)
                   and node.value.value.id in ("np", "numpy")})


def test_spectral_module_calls_no_numpy_linalg_routine():
    # full and partial spectra both come from SciPy's LAPACK extension;
    # np.linalg lends only the error a failed full spectrum raises, as eigh does
    assert linalg_names("np.linalg.eigh(a)\nx = numpy.linalg.norm\nraise np.linalg.LinAlgError\n"
                        "sp.linalg.eigh(b)\nlinalg.inv(c)\n") == ["LinAlgError", "eigh", "norm"]
    source = (ROOT / "src" / "fsgl" / "spectral.py").read_text()
    assert linalg_names(source) == ["LinAlgError"]


def test_solver_and_objective_read_no_numpy_linalg_name():
    # every factorisation of a solve's Laplacian, the exact resolvent's
    # included, is a spectrum from smallest_eigenpairs, and graph.check_shift
    # decides the shift without one
    found = {name: linalg_names((ROOT / "src" / "fsgl" / name).read_text())
             for name in ("solver.py", "objective.py")}
    assert found == {"solver.py": [], "objective.py": []}


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)
# What builds a graph's arrays, which must take every edge at once.
BUILDERS = ("WeightedGraph.__init__", "WeightedGraph.from_arrays", "WeightedGraph._fill",
            "complete_graph")


def functions(source: str) -> dict[str, ast.FunctionDef]:
    """{name: node} of each module-level function ("f") and method
    ("Class.f") in `source`."""
    funcs = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            funcs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            funcs.update((f"{node.name}.{f.name}", f) for f in node.body
                         if isinstance(f, ast.FunctionDef))
    return funcs


def function_loops(source: str) -> dict[str, list[str]]:
    """{name: its loops} for each function and method in `source`; a
    comprehension counts as a loop."""
    return {name: [f"{type(n).__name__} (line {n.lineno})" for n in ast.walk(func)
                   if isinstance(n, LOOPS)] for name, func in functions(source).items()}


def test_graph_construction_has_no_per_edge_loop():
    assert function_loops("class C:\n    def f(self):\n        [x for x in y]\n"
                          "    def g(self):\n        pass\n"
                          "def f(a):\n    for x in a:\n        pass\n") == {
        "C.f": ["ListComp (line 3)"], "C.g": [], "f": ["For (line 7)"]}
    loops = function_loops((ROOT / "src" / "fsgl" / "graph.py").read_text())
    assert {name: loops[name] for name in BUILDERS} == dict.fromkeys(BUILDERS, [])


# Connectivity comes from whole edge arrays: each function's only loop is
# component_labels' fixpoint and connected_pairs' redraws, and none of
# them turns an array into Python objects.
CONNECTIVITY = {("graph.py", "is_connected"): [],
                ("graph.py", "component_labels"): ["While"],
                ("datagen.py", "connected_pairs"): ["For"]}


def test_connectivity_has_no_per_edge_loop():
    found = {}
    for (module, name), allowed in CONNECTIVITY.items():
        nodes = list(ast.walk(functions((ROOT / "src" / "fsgl" / module).read_text())[name]))
        loops = [type(n).__name__ for n in nodes if isinstance(n, LOOPS)]
        tolists = [n.lineno for n in nodes if isinstance(n, ast.Attribute) and n.attr == "tolist"]
        if loops != allowed or tolists:
            found[name] = (loops, tolists)
    assert found == {}


def fiedler_comparisons(source: str) -> list[int]:
    """Lines of `source` with a comparison that has a `.fiedler_value`
    attribute anywhere in one of its operands."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Compare)
                   for operand in [node.left, *node.comparators]
                   for sub in ast.walk(operand)
                   if isinstance(sub, ast.Attribute) and sub.attr == "fiedler_value"})


def test_no_module_thresholds_the_fiedler_value():
    # a graph is connected when its component labels say so; its computed
    # l2 carries rounding noise, so no module decides it with a threshold
    assert fiedler_comparisons(
        "if s.fiedler_value <= TOL:\n    pass\nx = 0 < abs(st.fiedler_value)\n"
        "lam2 = s.fiedler_value\nok = lam2 > 1e-8\nf(s.fiedler_value)\n"
        "y = a == b.c.fiedler_value < 1\nz = s.fiedler_vector > 0\n") == [1, 3, 7]
    assert offenders(fiedler_comparisons) == {}


def call_name(call: ast.Call) -> str | None:
    """The name a call calls, as attribute (`np.bincount(x)`) or bare name."""
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def called_names(node) -> set[str | None]:
    """Names of the functions called anywhere inside `node`."""
    return {call_name(sub) for sub in ast.walk(node) if isinstance(sub, ast.Call)}


# What counts a node's degree, and what lays a vector out as a diagonal.
DEGREE_CALLS = {"bincount", "sum"}
DIAGONAL_CALLS = {"diag", "diagflat"}


def diagonal_writes(source: str) -> list[int]:
    """Lines of `source` that lay out a matrix diagonal by hand: a call of
    `fill_diagonal`; a write to an `a[i, i]` subscript, one index twice;
    and a write to any subscript, or a `diag` or `diagflat` call, of a
    value that counts degrees (calls `bincount` or `sum`)."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name == "fill_diagonal" or (name in DIAGONAL_CALLS and node.args
                                           and called_names(node.args[0]) & DEGREE_CALLS):
                lines.add(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if not isinstance(t, ast.Subscript):
                    continue
                idx = t.slice
                twice = (isinstance(idx, ast.Tuple) and len(idx.elts) == 2
                         and ast.dump(idx.elts[0]) == ast.dump(idx.elts[1]))
                if twice or called_names(node.value) & DEGREE_CALLS:
                    lines.add(node.lineno)
    return sorted(lines)


def test_only_graph_module_lays_out_a_laplacian_diagonal():
    # graph.Laplacian writes every Laplacian's degrees, a sub-graph's in
    # partition included, so no second layout can drift from it
    assert diagonal_writes(
        "np.fill_diagonal(lap, deg)\nlap[i, i] = 2.0\nd[:] = np.bincount(e, minlength=n)\n"
        "a = np.diag(w.sum(axis=1)) - w\nx = np.bincount(e)\ntheta.flat[::n + 1] += rho\n"
        "lap[i, j] = -1.0\nv = np.diag(m)\nfill_diagonal(a, 0)\nb[k] += c.sum()\n") == [
        1, 2, 3, 4, 9, 10]
    assert offenders(diagonal_writes, "graph.py") == {}


# The scalar types a hand-written number check names; graph.integer and
# graph.real hold fsgl's only such checks.
SCALAR_TYPES = {"numbers.Real", "numbers.Integral", "int", "float", "np.integer",
                "np.floating", "numpy.integer", "numpy.floating"}


def scalar_type_tests(source: str) -> list[int]:
    """Lines of `source` with an `isinstance` call whose type argument names
    a SCALAR_TYPES type, alone or in a tuple."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call) and call_name(node) == "isinstance"
                   and len(node.args) == 2
                   for sub in ast.walk(node.args[1]) if ast.unparse(sub) in SCALAR_TYPES})


def test_only_graph_module_tests_whether_a_scalar_is_a_number():
    # a count goes through graph.integer and a real parameter through
    # graph.real, so no two checks can disagree on what a number is
    assert scalar_type_tests(
        "isinstance(x, bool)\nisinstance(v, numbers.Real)\nisinstance(k, (int, np.integer))\n"
        "isinstance(a, np.ndarray)\nif isinstance(f, (bool, float)):\n    pass\n"
        "type(b) is int\nisinstance(y, numpy.floating)\nisinstance(z, numbers.Integral)\n") == [
        2, 3, 5, 8, 9]
    assert offenders(scalar_type_tests, "graph.py") == {}


def defined_or_imported(source: str) -> list[str]:
    """Names that `source` defines as a function or class, or imports."""
    tree = ast.parse(source)
    return ([node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
            + [alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names])


def test_no_module_defines_or_imports_checked_edge():
    # edges are checked in bulk by WeightedGraph.from_arrays, and only there
    assert offenders(lambda source: "checked_edge" in defined_or_imported(source)) == {}


# Run in a fresh interpreter: the test process has imported scipy.linalg.
IMPORT_GUARD = """
import sys
{first}
import fsgl
lazy = {lazy!r}
if {fresh}:
    assert not [m for m in lazy if m in sys.modules], "import fsgl"
    import fsgl.cli
    assert not [m for m in lazy if m in sys.modules], "import fsgl.cli"
    g = fsgl.load_graph(sys.argv[1])
    assert g.n == 3 and g.edges == {{(0, 1): 2.0, (1, 2): 0.5}}, g.edges
    assert "scipy.io" in sys.modules
import scipy.linalg.lapack
assert fsgl.spectral._SYEVR is scipy.linalg.lapack.dsyevr
assert fsgl.spectral._SYEVR_LWORK is scipy.linalg.lapack.dsyevr_lwork
assert fsgl.spectral._SYEVD is scipy.linalg.lapack.dsyevd
"""


@pytest.mark.parametrize("first", ["", "import scipy.linalg"])
def test_start_up_skips_scipy_linalg_and_io(tmp_path, first):
    # symmetric adjacency of the path 0 - 1 - 2
    mtx = tmp_path / "adj.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                   "3 3 2\n2 1 2.0\n3 2 0.5\n")
    script = IMPORT_GUARD.format(first=first, fresh=not first, lazy=LAZY_MODULES)
    run = subprocess.run([sys.executable, "-c", script, str(mtx)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr


def names_of(source: str, name: str) -> list[int]:
    """Lines of `source` that read, write or import `name`, bare or as an
    attribute."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Name) and node.id == name
                   or isinstance(node, ast.Attribute) and node.attr == name
                   or isinstance(node, ast.alias) and name in (node.name, node.asname)})


def test_only_datagen_names_the_size_ceiling():
    # datagen.check_size holds the one ceiling, so a start's edge arrays and
    # a draw's arrays are refused by one test with one text
    assert names_of("x = datagen.MAX_ARRAY_BYTES\nfrom .datagen import MAX_ARRAY_BYTES as M\n"
                    "if 8 * n > MAX_ARRAY_BYTES:\n    pass\ns = 'MAX_ARRAY_BYTES'\n"
                    "check_size(n, what)\n", "MAX_ARRAY_BYTES") == [1, 2, 3]
    assert offenders(lambda source: names_of(source, "MAX_ARRAY_BYTES"), "datagen.py") == {}


def _names(node, name: str) -> bool:
    """Whether `node` is `name`, as a bare name or an attribute."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def budget_checks(source: str) -> list[int]:
    """Lines of `source` that raise InvalidBudget, call `integer` with
    `budget_b` or InvalidBudget, or spell "budget_b" in a string that is
    not a docstring, as a check's field name or message does."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _names(exc, "InvalidBudget"):
                found.add(node.lineno)
        elif isinstance(node, ast.Call) and call_name(node) == "integer":
            args = [*node.args, *(kw.value for kw in node.keywords)]
            if any(_names(a, "budget_b") or _names(a, "InvalidBudget") for a in args):
                found.add(node.lineno)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "budget_b" in node.value and id(node) not in docstrings):
            found.add(node.lineno)
    return sorted(found)


def test_only_init_graph_decides_a_budget():
    # default_budget is the one budget check, so SolverConfig, the CLI and
    # the bench cannot fork the rule or its error type again
    assert budget_checks(
        "raise InvalidBudget('x')\nraise errors.InvalidBudget\n"
        "b = integer(b, 'budget_b', InvalidBudget)\ninteger(cfg.budget_b, 'b')\n"
        "graph.integer(v, what='budget_b')\nn = integer(n, 'node count')\n"
        "raise ValueError(f'budget_b must be {b}')\nx = InvalidBudget\n"
        "for name in ('budget_b', 'max_iters'):\n    pass\n"
        "def f(b):\n    'Check budget_b.'\n    if b < 0:\n        raise InvalidBudget\n"
        "y = cfg.budget_b\n") == [1, 2, 3, 4, 5, 7, 9, 14]
    assert offenders(budget_checks, "init_graph.py") == {}
    source = (ROOT / "src" / "fsgl" / "init_graph.py").read_text()
    owner, lines = functions(source)["default_budget"], budget_checks(source)
    assert lines and all(owner.lineno <= line <= owner.end_lineno for line in lines)


def test_neither_selector_calls_argmin():
    # objective.selection makes the pick, the empty batch included, for both
    found = {}
    for module, name in (("solver.py", "greedy_step"), ("partition.py", "partition_select")):
        func = functions((ROOT / "src" / "fsgl" / module).read_text())[name]
        if "argmin" in called_names(func):
            found[name] = "argmin"
    assert found == {}


def test_only_the_solve_builds_what_the_selectors_read():
    # both selectors and score_edges take the edge terms, and the search
    # the cut plan, as required arguments, never the observations; only
    # run_solver builds them (smoothness_trace takes z for tr(L Y))
    for module, name in (("objective.py", "score_edges"), ("solver.py", "greedy_step"),
                         ("partition.py", "partition_select")):
        args = functions((ROOT / "src" / "fsgl" / module).read_text())[name].args
        required = [a.arg for a in args.args[:len(args.args) - len(args.defaults)]]
        assert "terms" in required and not {"y", "obs"} & {a.arg for a in args.args}, name
    assert "plan" in required  # partition_select's, the last checked above
    found = {}
    for path in PACKAGE:
        for name, func in functions(path.read_text()).items():
            for built in {"edge_terms", "cut_plan"} & called_names(func):
                found.setdefault(built, set()).add(name)
    assert found == {"edge_terms": {"run_solver", "smoothness_trace"}, "cut_plan": {"run_solver"}}


def gram_diagonal_reads(source: str) -> list[str]:
    """Functions and methods of `source` that read the diagonal of the Gram
    matrix `y`: call `y.diagonal()`, `np.diagonal(y)` or `np.diag(y)`, or
    index `y[i, i]` with one index twice."""
    def reads(node) -> bool:
        if isinstance(node, ast.Call) and call_name(node) in ("diagonal", "diag"):
            f = node.func
            operands = ([f.value] if isinstance(f, ast.Attribute) else []) + node.args[:1]
            return any(isinstance(op, ast.Name) and op.id == "y" for op in operands)
        return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "y" and isinstance(node.slice, ast.Tuple)
                and len(node.slice.elts) == 2
                and ast.dump(node.slice.elts[0]) == ast.dump(node.slice.elts[1]))
    return [name for name, func in functions(source).items()
            if any(map(reads, ast.walk(func)))]


def test_only_edge_terms_reads_the_gram_diagonal():
    # z = 2 Y_mn - Y_mm - Y_nn has one formula, edge_terms, which the score
    # and the objective's tr(L Y) both take
    assert gram_diagonal_reads(
        "def a(y):\n    return y.diagonal()\ndef b(y):\n    return np.diag(y)\n"
        "def c(y, m):\n    return y[m, m]\ndef d(r, m, n):\n    return r[m, m] + r.diagonal()\n"
        "def e(y, m, n):\n    return y[m, n]\nclass C:\n    def f(self, y):\n"
        "        return np.diagonal(y)\n") == ["a", "b", "c", "C.f"]
    source = (ROOT / "src" / "fsgl" / "objective.py").read_text()
    assert gram_diagonal_reads(source) == ["edge_terms"]


# graph._node_ids checks one id of each type with graph.integer, then
# converts them all in one array.
DISCARDED_CHECK_ALLOWED = {("graph.py", "_node_ids")}


def discarded_checks(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function or method, line) of each expression statement in
    `source` that is a bare call to `integer` or `real`, whose value is lost."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Expr) and isinstance(child.value, ast.Call)
                    and call_name(child.value) in ("integer", "real")):
                found.append((func, child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if func is None else f"{func}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_every_number_check_has_its_value_used():
    # a caller computes with the Python number graph.integer or graph.real
    # returns, never with the NumPy scalar it was given
    assert discarded_checks(
        "integer(n, 'n')\nk = integer(k, 'k')\nclass C:\n    def f(self):\n"
        "        real(self.x, 'x')\n        if real(y, 'y') > 0:\n            pass\n"
        "def g(v):\n    for x in v:\n        graph.integer(x, 'x')\n    f(real(v, 'v'))\n") == [
        (None, 1), ("C.f", 5), ("g", 10)]
    found = {name: [(func, line) for func, line in hits
                    if (name, func) not in DISCARDED_CHECK_ALLOWED]
             for name, hits in offenders(discarded_checks).items()}
    assert {name: hits for name, hits in found.items() if hits} == {}
