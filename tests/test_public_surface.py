"""Every public function and method of the package has a caller in the package or demos.

A public name that only tests call is surface with no user: this test walks
``src/crosscontact`` with ``ast`` and requires each public module-level
function and each public method of a module-level class to be named (as a
bare name or an attribute) somewhere in ``src/`` or ``demos/`` outside its own
``def``. Names are matched as identifiers, not resolved to their owners.

A second walk requires each field of a ``src/`` dataclass to be read as an
attribute somewhere in ``src/`` or ``demos/``: a field that nothing reads is a
fact the record holds for no one.

A third walk pins the functions of ``src/`` that build the dense bracket
tensor with ``.dense()``: the list may only shrink (ROADMAP item 8).

A fourth walk pins where ``src/`` names ``table1``, the classification
table: only inside ``suites.suite_table1``, which checks frames against it,
so no construction can read the answer it is checked against.

A fifth check requires ``pyproject.toml`` to ship every data file of the
package, so an installed gate finds its fixtures and samples.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crosscontact"

ALLOWED: set[str] = set()  # public names that only tests call

DENSE_CALLERS = {"compactform._jacobi_max"}


def all_defs(tree: ast.Module, module: str):
    """(qualified name, def node) of the module-level functions and methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item


def public_defs(tree: ast.Module, module: str):
    """(qualified name, bare name, def node) of the public functions and methods."""
    for qualified, node in all_defs(tree, module):
        if not node.name.startswith("_"):
            yield qualified, node.name, node


def named_outside(trees: list[ast.Module], name: str, own: ast.FunctionDef) -> bool:
    inside = {id(n) for n in ast.walk(own)}
    for tree in trees:
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if (isinstance(node, ast.Name) and node.id == name) or \
                    (isinstance(node, ast.Attribute) and node.attr == name):
                return True
    return False


def test_every_public_function_has_a_caller():
    """The uncalled names are exactly the allowlist, so a stale entry fails too."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    unused = {qualified
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name, node in public_defs(trees[path], path.stem)
              if not named_outside(list(trees.values()), name, node)}
    assert sorted(unused - ALLOWED) == []
    assert sorted(ALLOWED - unused) == []


def is_dataclass(node: ast.ClassDef) -> bool:
    def name(d):
        d = d.func if isinstance(d, ast.Call) else d
        return d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)
    return any(name(d) == "dataclass" for d in node.decorator_list)


def test_every_record_field_has_a_reader():
    """Each annotated field of a src/ dataclass is read as an attribute (matched
    by identifier) in src/ or demos/; there is no allowlist."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = {f"{path.stem}.{cls.name}.{item.target.id}"
              for path in sorted(PACKAGE.glob("*.py"))
              for cls in trees[path].body if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
              for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    assert fields, "no dataclass fields found"
    assert sorted(f for f in fields if f.rsplit(".", 1)[1] not in read) == []


def calls_dense(node: ast.FunctionDef) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "dense" for n in ast.walk(node))


def test_dense_callers_are_pinned():
    """The src/ functions that call .dense() are exactly DENSE_CALLERS, so a
    new caller fails, and so does an entry whose caller is gone."""
    callers = {qualified
               for path in sorted(PACKAGE.glob("*.py"))
               for qualified, node in all_defs(ast.parse(path.read_text()), path.stem)
               if calls_dense(node)}
    assert sorted(callers - DENSE_CALLERS) == []
    assert sorted(DENSE_CALLERS - callers) == []


TABLE1_READERS = {"suites.suite_table1"}


def test_table1_readers_are_pinned():
    """Every name, attribute or import of table1 in src/ lies in TABLE1_READERS
    (a name outside every function counts as the module's)."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(n): qualified for qualified, node in all_defs(tree, path.stem)
                 for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "table1") or \
                    (isinstance(node, ast.Attribute) and node.attr == "table1") or \
                    (isinstance(node, ast.alias) and node.name == "table1"):
                readers.add(owner.get(id(node), path.stem))
    assert sorted(readers) == sorted(TABLE1_READERS)


def test_package_data_lists_every_data_file():
    """[tool.setuptools.package-data] names exactly the non-.py files of the package."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        listed = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["crosscontact"]
    data = {p.name for p in PACKAGE.iterdir() if p.is_file() and p.suffix != ".py"}
    assert len(listed) == len(set(listed))
    assert set(listed) == data
