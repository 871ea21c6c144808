"""The layering of the package, read from its source by ast.

The relative imports at module level of src/clustercat must form no cycle,
and a function may import a sibling module only where LOCAL_IMPORTS allows
it: the category builds its mesh engine on first use, and meshhom imports
cluster at module level.  Every table is declared by the module that fills
it, so no lower module reaches back up into a higher one.

No raise in the package names a builtin exception class: bad input
raises dynkin.InputError and a failed internal check MeshConsistencyError
(or an error type of the module that declares it), so a caller can tell
the two apart by type.

A function nested in another function may not refer to its own name,
with no exception: such a closure holds a cell that holds the closure, a
reference cycle that only the cyclic garbage collector frees, made anew
on every call of the outer function.  A recursive search is a
module-level function that takes its state as arguments.
"""

import ast
import builtins
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "clustercat"
# (module, function qualname, imported module) allowed inside a function
LOCAL_IMPORTS = {("cluster", "ClusterCategory._get_engine", "meshhom")}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scoped_nodes(node, scope=(), in_function=False):
    """(node, the qualname parts of its scope, whether a function encloses
    it) for every node below node."""
    for child in ast.iter_child_nodes(node):
        yield child, scope, in_function
        if isinstance(child, FUNCTIONS + (ast.ClassDef,)):
            yield from scoped_nodes(child, scope + (child.name,),
                                    in_function or isinstance(child, FUNCTIONS))
        else:
            yield from scoped_nodes(child, scope, in_function)


def relative_imports(source):
    """(the modules imported at module level, [(function qualname, module)]
    per import inside a function), for the relative imports of source."""
    top, local = set(), []
    for node, scope, in_function in scoped_nodes(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                targets = [node.module.split(".")[0]]
            else:
                targets = [alias.name for alias in node.names]
            for target in targets:
                if in_function:
                    local.append((".".join(scope), target))
                else:
                    top.add(target)
    return top, local


def recursive_closures(source):
    """The qualnames of the functions of source, nested in a function, that
    refer to their own name."""
    return [".".join(scope + (node.name,))
            for node, scope, in_function in scoped_nodes(ast.parse(source))
            if in_function and isinstance(node, FUNCTIONS)
            and any(isinstance(name, ast.Name) and name.id == node.name
                    for name in ast.walk(node))]


def builtin_raises(source):
    """(the qualname of the enclosing scope, the class name) per raise in
    source of a builtin exception class, called or not; a bare raise and
    the cause after from are not read."""
    found = []
    for node, scope, _in_function in scoped_nodes(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(builtins, getattr(exc, "id", ""), None)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                found.append((".".join(scope), exc.id))
    return found


SOURCES = {path.stem: path.read_text(encoding="utf-8")
           for path in sorted(SRC.glob("*.py"))}
IMPORTS = {module: relative_imports(source)
           for module, source in SOURCES.items()}


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


def test_the_reader_finds_recursive_closures_in_every_scope():
    source = textwrap.dedent("""
        def top(n):
            return top(n - 1) if n else 0
        class K:
            def m(self):
                return self.m
            def walker(self):
                def walk(n):
                    return walk(n - 1) if n else 0
                def plain():
                    return walk(1)
                return plain()
        def f():
            class Local:
                def g(self):
                    def again():
                        yield from again()
                    return again
            stack = [f]
            async def spin():
                await spin()
            return Local, stack, spin
    """)
    assert recursive_closures(source) == [
        "K.walker.walk", "f.Local.g.again", "f.spin"]


def test_no_nested_function_refers_to_itself():
    found = {(module, name) for module, source in SOURCES.items()
             for name in recursive_closures(source)}
    assert found == set()


def test_the_reader_finds_raises_of_builtin_classes_in_every_scope():
    source = textwrap.dedent("""
        raise ValueError("top")
        class K:
            def m(self):
                raise KeyError
            def n(self):
                try:
                    pass
                except OSError as e:
                    raise InputError("wrapped") from e
                raise
        def f():
            def inner():
                raise AssertionError("nested") from None
            raise MeshConsistencyError(ValueError("as an argument"))
        def g(exc):
            raise exc
        print = None
        raise print
        raise SystemExit(2)
    """)
    assert builtin_raises(source) == [
        ("", "ValueError"), ("K.m", "KeyError"), ("f.inner", "AssertionError"),
        ("", "SystemExit")]


def test_no_raise_names_a_builtin_exception_class():
    found = {(module, scope, name) for module, source in SOURCES.items()
             for scope, name in builtin_raises(source)}
    assert found == set()
