"""`src/vorcycle` holds only what a command runs: every top-level function
and class is reached from an entry point.

The entry points are `cli.main`, `__main__.run`, every name that a
script under `scripts/` refers to, and the functions that
`vorbench/tracing.py` wraps by name (its TRACED tuple, read without
importing it).  Reaching is a closure: a definition is reached when a
reached definition refers to it, so a helper called only by an
unreached helper is unreached too.  Test-only helpers live in
`conftest.py`.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "vorcycle")


def _read(path):
    with open(path) as fh:
        return fh.read()


def package_sources():
    return {os.path.basename(p)[:-3]: _read(p)
            for p in sorted(glob.glob(os.path.join(SRC, "*.py")))}


def traced_names():
    """TRACED of vorbench/tracing.py as (module, function) pairs."""
    tree = ast.parse(_read(os.path.join(ROOT, "vorbench", "tracing.py")))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["TRACED"]):
            return [tuple(s.split(".")) for s in ast.literal_eval(node.value)]
    raise AssertionError("vorbench/tracing.py defines no TRACED")


def _namespace(tree):
    """The names that a module's imports from the package bind, each to
    its dotted path below the package: ("cones", "build_cone") for
    `from .cones import build_cone`, ("cones",) for `from . import
    cones`."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = tuple(node.module.split(".")) if node.module else ()
            elif (node.module or "").split(".")[0] == "vorcycle":
                base = tuple(node.module.split(".")[1:])
            else:
                continue
            for alias in node.names:
                names[alias.asname or alias.name] = base + (alias.name,)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "vorcycle":
                    names[alias.asname or "vorcycle"] = (
                        tuple(parts[1:]) if alias.asname else ())
    return names


def _defined(tree):
    """Top-level definitions: {name: statement}."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


def unreached(sources, traced, scripts):
    """The top-level functions and classes of the package modules in
    `sources` ({module: text}) that no entry point reaches, as sorted
    "module.name" strings; `scripts` are the texts of the scripts.
    A local name that shadows a definition counts as a reference to
    it, so the answer errs towards reached."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    spaces = {m: _namespace(tree) for m, tree in trees.items()}
    defined = {m: _defined(tree) for m, tree in trees.items()}

    def definition(path):
        """The (module, name) that a dotted path below the package
        names, through re-exports, or None."""
        for _ in range(len(trees)):
            if len(path) < 2 or path[0] not in trees:
                return None
            module, name = path[:2]
            if name in defined[module]:
                return module, name
            if name not in spaces[module]:
                return None
            path = spaces[module][name] + path[2:]
        return None

    def path_of(expr, module, space):
        if isinstance(expr, ast.Name):
            if module and expr.id in defined[module]:
                return module, expr.id
            return space.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = path_of(expr.value, module, space)
            return None if base is None else base + (expr.attr,)
        return None

    def refs(node, module, space):
        """The definitions that the code of `node` refers to."""
        paths = (path_of(sub, module, space) for sub in ast.walk(node)
                 if isinstance(sub, (ast.Name, ast.Attribute)))
        return {d for d in map(definition, filter(None, paths)) if d}

    roots = {("cli", "main"), ("__main__", "run")} | set(traced)
    for text in scripts:
        tree = ast.parse(text)
        roots |= refs(tree, None, _namespace(tree))
    reached = set()
    stack = [r for r in roots if r[0] in trees and r[1] in defined[r[0]]]
    while stack:
        module, name = stack.pop()
        if (module, name) not in reached:
            reached.add((module, name))
            stack.extend(refs(defined[module][name], module, spaces[module]))
    return sorted(
        f"{m}.{name}" for m, defs in defined.items()
        for name, node in defs.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (m, name) not in reached)


def _scripts():
    return [_read(p) for p in sorted(glob.glob(
        os.path.join(ROOT, "scripts", "*.py")))]


def test_every_definition_is_reached_from_an_entry_point():
    sources = package_sources()
    # The tracer fails on a name it cannot find, so each is a root.
    for module, name in traced_names():
        assert name in _defined(ast.parse(sources[module])), (module, name)
    assert unreached(sources, traced_names(), _scripts()) == []


def test_an_uncalled_function_is_flagged_with_its_callees():
    sources = package_sources()
    for module in ("forms", "linalg", "cli"):
        edited = dict(sources)
        edited[module] += ("\n\ndef uncalled(x):\n    return helper(x)\n"
                           "\n\ndef helper(x):\n    return x\n")
        assert unreached(edited, traced_names(), _scripts()) == [
            f"{module}.helper", f"{module}.uncalled"]


def test_entry_points_reach_through_imports():
    sources = {
        "cli": "from .a import f\n\ndef main():\n    return f()\n",
        "a": "from . import b\n\ndef f():\n    return b.g()\n",
        "b": "def g():\n    return 1\n\ndef h():\n    return 2\n",
        "__main__": "from .cli import main\n\ndef run():\n    main()\n",
        "c": "def traced():\n    pass\n\ndef scripted():\n    pass\n",
    }
    script = "from vorcycle.c import scripted\nscripted()\n"
    assert unreached(sources, [("c", "traced")], [script]) == ["b.h"]
    assert unreached(sources, [], [script]) == ["b.h", "c.traced"]
