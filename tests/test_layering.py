"""The package's import graph, read from the source with ``ast``.

Every import sits at module level, so importing a module loads all it
needs at once, and the modules import one another without a cycle.  The
one deferred load is the CLI's worker pool: ``cli`` imports
``concurrent.futures``, and the stdlib loads its ``ProcessPoolExecutor``
(``concurrent.futures.process``, ``multiprocessing``) on first use, when
a sweep runs more than one worker
(``test_config_cli.py::test_import_leaves_the_worker_pool_unloaded``).
Only ``spectral`` knows the FFT binding.
"""

import ast
import os

import muskat

PKG_DIR = os.path.dirname(muskat.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(PKG_DIR)
                 if name.endswith(".py"))


def _package_imports(node):
    """The package modules an import node names ("__init__" for the
    package itself), or [] for an import from outside the package."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] if "." in a.name else "__init__"
                for a in node.names if a.name.split(".")[0] == "muskat"]
    module = node.module
    if node.level == 0:
        if not module or module.split(".")[0] != "muskat":
            return []
        module = module.split(".", 1)[1] if "." in module else None
    if module:
        return [module.split(".")[0]]
    # from . import x: x is a module, or a name of the package's __init__
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def _scan(module):
    """(imported package modules, [(line, function) of function-level
    imports]) of one module."""
    with open(os.path.join(PKG_DIR, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    deps = set()
    nested = []

    def visit(node, func):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            deps.update(_package_imports(node))
            if func is not None:
                nested.append((node.lineno, func))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    deps.discard(module)
    return deps, nested


def test_no_import_inside_a_function():
    nested = [f"{m}.py:{line} in {func}()" for m in MODULES
              for line, func in _scan(m)[1]]
    assert nested == []


def test_import_graph_has_no_cycle():
    graph = {m: _scan(m)[0] for m in MODULES}
    done = set()

    def cycle_from(m, path):
        if m in path:
            return path[path.index(m):] + [m]
        if m in done:
            return None
        for dep in sorted(graph[m]):
            found = cycle_from(dep, path + [m])
            if found:
                return found
        done.add(m)
        return None

    cycles = [" -> ".join(c) for m in MODULES if (c := cycle_from(m, []))]
    assert cycles == []


def test_scan_sees_the_package_imports():
    # the scan itself: the CLI reaches the integrator, the integrator the
    # run-directory owner, and nothing reaches the CLI
    graph = {m: _scan(m)[0] for m in MODULES}
    assert {"integrate", "diagnostics", "plots"} <= graph["cli"]
    assert "diagnostics" in graph["integrate"]
    assert not any("cli" in deps for deps in graph.values())


def _names(module):
    """Every identifier, attribute and imported name in a module's code
    (not its strings or comments)."""
    with open(os.path.join(PKG_DIR, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_only_spectral_names_the_fft_binding():
    naming = [m for m in MODULES
              if any("pocketfft" in name for name in _names(m))]
    assert naming == ["spectral"]
