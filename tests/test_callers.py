"""Every library name has a caller outside the tests, or a stated reason.

An `ast` scan of `src/regopen` and `bench/` lists each module-level def,
class and assignment of the package, and each non-dunder method of its
classes, that nothing there references: no name load, no attribute read
and no string constant spelling the identifier (a field name handed to
`getattr`, a key of the export table).  Names in `regopen.__all__` are the
public surface and need no caller.  The list must equal `ALLOWED`, so a
helper that only the tests call fails here, whether it is new or has just
lost its last library caller.
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
