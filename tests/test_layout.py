"""Package layout: the import graph has no cycle, and package
`__init__.py` files hold no re-exports beyond the few callers rely on.

Every module under `src/jsonduel` is parsed with `ast`; imports inside
functions count too, since they close a cycle just the same.
"""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jsonduel"

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
    DSL reads every literal through `jsontext.parse_value`."""
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
