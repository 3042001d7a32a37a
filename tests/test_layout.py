"""Package layout: the import graph has no cycle, package `__init__.py`
files hold no re-exports beyond the few callers rely on, the printer
does not import the parser, only a live model client loads the HTTP
stack, and no production code is there only for the tests.

Every module under `src/jsonduel` is parsed with `ast`; imports inside
functions count too, since they close a cycle just the same.
"""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jsonduel"
BENCHMARKS = PACKAGE.parents[1] / "benchmarks"

# Names a package `__init__.py` may bind by import. `backends` defines
# `Backend`, `BackendConfigError` and `resolve_backend` itself; `tdsl`
# re-exports `Script` and `parse_script`, which the benchmark imports.
INIT_IMPORTS = {
    "jsonduel.backends": {
        "Iterable", "Mapping", "Protocol", "Union", "ast",
        "BugId", "PlantedBackend", "ReferenceBackend",
    },
    "jsonduel.tdsl": {"Script", "parse_script"},
}


def _modules() -> dict[str, tuple[ast.Module, bool]]:
    """Dotted module name -> (syntax tree, whether it is a package)."""
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_package else parts)
        modules[name] = (ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), is_package)
    return modules


def _imported(name: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The module an ImportFrom in module `name` reads from."""
    if node.level == 0:
        return node.module or ""
    base = name.split(".") if is_package else name.split(".")[:-1]
    base = base[: len(base) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _import_graph(modules) -> dict[str, set[str]]:
    graph = {name: set() for name in modules}
    for name, (tree, is_package) in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                source = _imported(name, is_package, node)
                # `from pkg import submodule` reads the submodule itself
                targets = [
                    f"{source}.{alias.name}" if f"{source}.{alias.name}" in modules else source
                    for alias in node.names
                ]
            else:
                continue
            graph[name].update(t for t in targets if t in modules and t != name)
    return graph


def test_import_graph_has_no_cycle():
    graph = _import_graph(_modules())
    assert "jsonduel.pipeline.report" in graph["jsonduel.pipeline.runner"]
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_package_inits_hold_no_re_exports():
    for name, (tree, is_package) in _modules().items():
        if not is_package:
            continue
        bound = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        assert bound == INIT_IMPORTS.get(name, set()), name
        assigned = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        assert "__all__" not in assigned, name


def test_printer_does_not_import_the_parser():
    """`parse_script` is the one place a script is validated, so the
    printer reaches nothing in `tdsl/parser.py`, directly or through the
    modules it imports."""
    graph = _import_graph(_modules())
    reached, todo = set(), ["jsonduel.tdsl.printer"]
    while todo:
        for target in graph[todo.pop()] - reached:
            reached.add(target)
            todo.append(target)
    assert "jsonduel.tdsl.parser" not in reached, sorted(reached)


def test_model_requests_go_through_one_function():
    """Outside `llm/client.py`, no module calls `.complete(` or `.reserve(`
    on a client, or looks either up with `getattr`; `prepare_request`
    decides how every request is sent. A client's own methods may call
    each other through `self`."""
    names = {"complete", "reserve"}
    found = []
    for name, (tree, _) in _modules().items():
        if name == "jsonduel.llm.client":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in names:
                if not (isinstance(func.value, ast.Name) and func.value.id == "self"):
                    found.append(f"{name}:{node.lineno}")
            elif isinstance(func, ast.Name) and func.id == "getattr" and any(
                isinstance(arg, ast.Constant) and arg.value in names for arg in node.args
            ):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_json_text_has_one_reader():
    """Outside `jsontext.py`, no module names a jsontext scanner, so the
    DSL reads every literal that is not its token's text (true, false,
    null, a string with no escape) through `jsontext.parse_value`."""
    found = []
    for name, (tree, _) in _modules().items():
        if name == "jsonduel.jsontext":
            continue
        for node in ast.walk(tree):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            if any(n and n.lstrip("_").startswith("scan_") for n in names):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_planted_bugs_live_in_one_module():
    """Outside `backends/__init__.py`, which resolves engine names, no
    module imports from `backends/planted.py` or names `BugId`, so only
    the planted engine can branch on a planted bug."""
    modules = _modules()
    graph = _import_graph(modules)
    found = []
    for name, (tree, _) in modules.items():
        if name in ("jsonduel.backends", "jsonduel.backends.planted"):
            continue
        if "jsonduel.backends.planted" in graph[name]:
            found.append(name)
        for node in ast.walk(tree):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            if "BugId" in names:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def _loaded_names(node: ast.AST) -> set[str]:
    """Every name `node` reads: as a name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _bound_names(statement: ast.stmt) -> list[str]:
    """The module-level function, class or constant `statement` defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else []
    if isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_no_production_code_only_tests_use():
    """Each module-level function, class and constant under `src/jsonduel`
    (dunders aside) is read by another statement in `src/` or
    `benchmarks/`; a name only the tests read is not production code."""
    src = [statement for tree, _ in _modules().values() for statement in tree.body]
    benchmarks = [
        statement
        for path in sorted(BENCHMARKS.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    ]
    loads = [_loaded_names(statement) for statement in src + benchmarks]
    unread = [
        name
        for i, statement in enumerate(src)
        for name in _bound_names(statement)
        if not name.startswith("__")
        and not any(name in names for j, names in enumerate(loads) if j != i)
    ]
    assert unread == []


_HTTP_STACK_PROBE = """
import pkgutil, sys
import jsonduel
for module in pkgutil.walk_packages(jsonduel.__path__, "jsonduel."):
    __import__(module.name)
print(" ".join(sorted(m for m in sys.modules if m.startswith("jsonduel"))))
print(sorted(m for m in ("requests", "urllib3") if m in sys.modules))
from jsonduel.llm.client import HttpChatClient
HttpChatClient(endpoint="http://x")
print("requests" in sys.modules)
"""


def test_only_a_live_client_loads_the_http_stack():
    """Importing every module leaves `requests` and `urllib3` unloaded, so
    offline commands never pay for them; building `HttpChatClient` loads
    `requests`. A fresh interpreter, since other tests load `requests`
    into this one."""
    proc = subprocess.run(
        [sys.executable, "-c", _HTTP_STACK_PROBE],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    imported, http_stack, client_loads = proc.stdout.splitlines()
    assert imported.split() == sorted(_modules())
    assert http_stack == "[]"
    assert client_loads == "True"
