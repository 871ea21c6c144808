"""The layering of the package, read from its import statements by ast.

The relative imports at module level of src/clustercat must form no cycle,
and a function may import a sibling module only where LOCAL_IMPORTS allows
it: the category builds its mesh engine on first use, and meshhom imports
cluster at module level.  Every table is declared by the module that fills
it, so no lower module reaches back up into a higher one.
"""

import ast
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "clustercat"
# (module, function qualname, imported module) allowed inside a function
LOCAL_IMPORTS = {("cluster", "ClusterCategory._get_engine", "meshhom")}


def relative_imports(source):
    """(the modules imported at module level, [(function qualname, module)]
    per import inside a function), for the relative imports of source."""
    top, local = set(), []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                if child.module:
                    targets = [child.module.split(".")[0]]
                else:
                    targets = [alias.name for alias in child.names]
                for target in targets:
                    if in_function:
                        local.append((".".join(scope), target))
                    else:
                        top.add(target)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                visit(child, scope + [child.name],
                      in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return top, local


IMPORTS = {path.stem: relative_imports(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def test_the_reader_finds_imports_in_every_scope():
    source = textwrap.dedent("""
        import os
        from .a import x
        from . import b, c
        if x:
            from .d.e import y
        class K:
            from .f import z
            def m(self):
                from .g import w
                def inner():
                    from .h import v
        def f():
            class Local:
                from .i import u
    """)
    assert relative_imports(source) == (
        {"a", "b", "c", "d", "f"},
        [("K.m", "g"), ("K.m.inner", "h"), ("f.Local", "i")])


def test_module_level_imports_form_no_cycle():
    edges = {module: top for module, (top, _local) in IMPORTS.items()}
    assert {"cluster", "meshhom", "hammocks", "algebra"} <= edges.keys()
    state = {}  # module -> 1 while on the walk, 2 once done

    def cycle_from(module, path):
        state[module] = 1
        for target in sorted(edges.get(module, ())):
            if state.get(target) == 1:
                return path + [target]
            if target not in state:
                found = cycle_from(target, path + [target])
                if found:
                    return found
        state[module] = 2
        return None

    for module in sorted(edges):
        if module not in state:
            found = cycle_from(module, [module])
            assert found is None, "import cycle: " + " -> ".join(found)


def test_functions_import_only_what_the_layering_allows():
    local = {(module, function, target)
             for module, (_top, found) in IMPORTS.items()
             for function, target in found}
    assert local - LOCAL_IMPORTS == set()
