"""Every library name has a caller outside the tests, or a stated reason.

An `ast` scan of `src/regopen` and `bench/` lists each module-level def,
class and assignment of the package, and each non-dunder method of its
classes, that nothing there references: no name load, no attribute read
and no string constant spelling the identifier (a field name handed to
`getattr`, a key of the export table).  Names in `regopen.__all__` are the
public surface and need no caller.  The list must equal `ALLOWED`, so a
helper that only the tests call fails here, whether it is new or has just
lost its last library caller.

The same scan lists each parameter with a default that no call there
passes, by keyword, by position or through `*` or `**`: an option that
only the tests use, or none.  Calls resolve by name, and a call of a class
counts for its `__init__`.  The list must equal `ALLOWED_DEFAULTS`.

A third scan, of `tests/` as well, lists each name an `import` binds that
its module never uses: no name load, no function parameter of that name
(a pytest fixture) and no string constant spelling it (a name looked up in
`globals()`).  The list must be empty.
"""
from __future__ import annotations

import ast
from pathlib import Path

import regopen

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "regopen"

# qualified name -> why it stays with no caller in the library or the benchmark
ALLOWED = {
    "plmap.PLMap.is_surjective": "the hypothesis of every cover, public beside is_irreducible",
    "plmap.PLMap.preimage": "the public set map beside image; phi is the interior of its closure",
    "space.Region.contains": "the library's one membership test of a point",
    "space.Space1D.empty_region": "the public bottom of RO(X), beside full_region",
}

# qualified name(parameter) -> why no call in the library or the benchmark passes it
ALLOWED_DEFAULTS = {
    "ideals.plfunc_from_breakpoints(point_values)": "public: the values at isolated points, which tests/test_wire.py passes",
    "rationals.rat(den)": "public: the num/den form of a rational, which the README and the tests write as rat(1, 2)",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name) of each module-level def, class and assigned
    name, and of each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{module}.{node.name}.{member.name}", member.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield f"{module}.{name.id}", name.id


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def uncalled(library: dict[str, str], readers: list[str], exempt=()) -> list[str]:
    """The qualified names defined in the `library` modules, module name ->
    source, that neither they nor the `readers` sources reference."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    referenced = {ref for tree in [*trees.values(), *map(ast.parse, readers)] for ref in _references(tree)}
    return sorted(qualified for module, tree in trees.items() for qualified, name in _definitions(tree, module)
                  if name not in referenced and name not in exempt and not _dunder(name))


def test_every_uncalled_library_name_is_allowed_with_a_reason():
    library = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    bench = [path.read_text() for path in (ROOT / "bench").glob("*.py")]
    assert uncalled(library, bench, set(regopen.__all__)) == sorted(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_scan_sees_loads_attribute_reads_and_identifier_strings():
    library = '''
LIMIT = 3
UNUSED = 4
def helper(): pass
def by_name(): pass
class Box:
    def read(self): pass
    def spare(self): pass
    def __repr__(self): pass
'''
    caller = "helper(); LIMIT; getattr(box, 'by_name'); box.read(); 'Box.spare'"
    assert uncalled({"lib": library}, [caller]) == ["lib.Box", "lib.Box.spare", "lib.UNUSED"]
    assert uncalled({"lib": library}, [caller], {"Box", "UNUSED"}) == ["lib.Box.spare"]


def _defaulted(tree: ast.Module, module: str):
    """(qualified name(parameter), names a call uses, parameter, position) of
    each parameter with a default of each module-level def and each method of
    a module-level class.  A method's positions leave out `self` or `cls`, and
    its class's name calls its `__init__`; a keyword-only one has no position."""
    defs = [(node.name, node, False) for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [(f"{node.name}.{member.name}", member, node.name) for node in tree.body if isinstance(node, ast.ClassDef)
             for member in node.body if isinstance(member, ast.FunctionDef)]
    for qualified, node, owner in defs:
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        names = {node.name, owner} if node.name == "__init__" else {node.name}
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first:], first - bool(owner and not static)):
            yield f"{module}.{qualified}({arg.arg})", names, arg.arg, i
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield f"{module}.{qualified}({arg.arg})", names, arg.arg, None


def _calls(tree: ast.AST):
    """(called name, positions passed, keywords passed, any position, any keyword) of each call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}  # None for a `**`
            yield name, len(node.args), keywords - {None}, starred, None in keywords


def unpassed(library: dict[str, str], readers: list[str]) -> list[str]:
    """The defaulted parameters of the `library` modules, module name ->
    source, that no call in them or in the `readers` sources passes."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    calls = [call for tree in [*trees.values(), *map(ast.parse, readers)] for call in _calls(tree)]

    def passed(names, parameter, position) -> bool:
        return any(name in names and (parameter in keywords or any_keyword or position is not None
                                      and (position < count or any_position))
                   for name, count, keywords, any_position, any_keyword in calls)

    return sorted(qualified for module, tree in trees.items()
                  for qualified, names, parameter, position in _defaulted(tree, module)
                  if not passed(names, parameter, position))


def test_every_unpassed_default_is_allowed_with_a_reason():
    library = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    bench = [path.read_text() for path in (ROOT / "bench").glob("*.py")]
    assert unpassed(library, bench) == sorted(ALLOWED_DEFAULTS)
    assert all(reason.strip() for reason in ALLOWED_DEFAULTS.values())


def test_the_default_scan_sees_keywords_positions_stars_and_constructors():
    library = '''
def f(a, b=1, c=2, *, d=3, e=4): pass
def g(a=1, b=2): pass
def h(a=1): pass
class Box:
    def __init__(self, size=1, label=""): pass
    def put(self, item, where=0): pass
    @staticmethod
    def make(n=1): pass
'''
    caller = "f(0, 1, d=2); g(*xs); h(**kw); Box(3); box.put(1); Box.make(2)"
    assert unpassed({"lib": library}, [caller]) == [
        "lib.Box.__init__(label)", "lib.Box.put(where)", "lib.f(c)", "lib.f(e)",
    ]
    assert unpassed({"lib": library}, [caller + "; box.put(1, 2); f(c=0, e=1); super().__init__(1, 2)"]) == []


def unused_imports(source: str) -> list[str]:
    """The names that the imports of `source` bind and nothing in it uses, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name != "*"}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return sorted(bound - used)


def test_no_module_binds_an_import_it_never_uses():
    sources = [path for folder in (PACKAGE, ROOT / "tests", ROOT / "bench") for path in sorted(folder.glob("*.py"))]
    unused = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in sources}
    assert {path: names for path, names in unused.items() if names} == {}


def test_the_import_scan_sees_loads_parameters_and_identifier_strings():
    source = '''
from __future__ import annotations
import os.path
import json as js
from lib import fixture, helper, kept, spare, typed
def test(fixture): helper(); os.path.join(); globals()["kept"]; x: typed = 1; x.spare
'''
    assert unused_imports(source) == ["js", "spare"]
