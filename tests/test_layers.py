"""The modules of the package import one another without a cycle, and
numpy and the standard library alone from outside; none of them calls
the dense test oracles, the pair solver's helpers keep one owner, every
table has one writer, and the stability search runs on Python floats
alone."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import ionbridge
from ionbridge import csvio

PACKAGE = Path(ionbridge.__file__).parent


def relative_imports(path: Path) -> set[str]:
    """Sibling modules that ``path`` imports, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.split(".")[0])
    return names


def test_no_import_cycle_between_modules():
    graph = {path.stem: relative_imports(path)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert set().union(*graph.values()) <= set(graph)
    order = list(TopologicalSorter(graph).static_order())   # CycleError on a cycle
    assert sorted(order) == sorted(graph)


def test_no_module_imports_scipy():
    imported = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported.setdefault(path.name, set()).update(n.split(".")[0] for n in names)
    assert [name for name, roots in imported.items() if "scipy" in roots] == []


def test_no_module_calls_the_dense_oracles():
    # symmetric_eigensolve and axial_hamiltonian_matrix are test oracles:
    # they stay defined in motion but the library solves without them
    oracles = {"symmetric_eigensolve", "axial_hamiltonian_matrix"}
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in oracles:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


def callers(name: str) -> set[str]:
    """``module:function`` of every call to ``name`` in the package, by the
    innermost function that encloses it (``<module>`` outside any)."""
    found = set()

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.add(f"{module}:{owner}")
            visit(child, module, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "<module>")
    return found


def test_dense_block_serves_only_the_dense_oracle():
    assert callers("_dense_block") == {"motion:axial_hamiltonian_matrix"}


def test_quadrature_rules_have_one_owner():
    # the solvers take their two rules from one helper, which also holds
    # the checks of the basis size and the collision threshold
    assert callers("_quadrature") == {"motion:_axial_rules"}


def test_one_table_writer_and_no_record_loop():
    # every table goes through write_table, from cli._write or, for the
    # density grids, cmd_density; the gauge table comes from the connection
    # tensors, not from one record per element
    assert callers("write_table") == {"cli:_write", "cli:cmd_density"}
    assert csvio.__all__ == ["format_value", "write_table"]
    assert callers("connection_records") == set()


def test_critical_separation_runs_no_numpy():
    # the bisection and its limiting-branch label stay on Python floats:
    # neither critical_separation nor a function that it reaches, in phonons
    # or in a module phonons imports from (the expansion pieces among them),
    # calls the array kernel _branches or touches an np. attribute
    functions = {}
    for module in ["phonons"] + sorted(relative_imports(PACKAGE / "phonons.py")):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, (module, node))
    reached, todo, found = set(), ["critical_separation"], []
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        module, function = functions[name]
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np":
                found.append(f"{module}.{name}:{node.lineno} np.{node.attr}")
            elif isinstance(node, ast.Name) and node.id in functions:
                if node.id == "_branches":
                    found.append(f"{module}.{name}:{node.lineno} _branches")
                todo.append(node.id)
    assert found == []
    assert {"_lower_branch", "_scalar_sectors", "_pieces", "_terms", "require_valid",
            "characteristic_scales"} <= reached
