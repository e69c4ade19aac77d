"""Every public top-level function and class of ``src/ipvem``, every public
method and property of its public classes, and every public field of those
classes (a dataclass field or a ``self.x`` attribute set in ``__init__``)
has a use in the package or in ``scripts/``: a helper that only the tests
call is dead.  A method counts as used only where it is called as
``x.name(...)``, a field only where it is read as ``x.name`` (there or in
``perfbench/``), a property or top-level name wherever its name is read; a
reference from inside the definition itself or from inside a dead
definition does not count.  What ``tests/test_acceptance.py`` names (as an
attribute, a keyword argument or a top-level name) is the specified API and
counts as used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fields(cls):
    """The public fields of a class node: its annotated names if it is a
    dataclass, and the ``self.x`` targets of its ``__init__``."""
    decorators = {ast.unparse(getattr(d, "func", d)).rsplit(".", 1)[-1] for d in cls.decorator_list}
    for member in cls.body:
        if "dataclass" in decorators and isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
            yield member, member.target.id
        if isinstance(member, ast.FunctionDef) and member.name == "__init__":
            for node in ast.walk(member):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    if isinstance(node.value, ast.Name) and node.value.id == "self":
                        yield node, node.attr


def dead_definitions(modules, scripts=(), readers=(), named=()):
    """Qualified names of the public definitions of the ``modules``
    ({name: tree}) that nothing in them or in the ``scripts`` trees uses;
    a field read in the ``readers`` trees, and any definition whose name is
    in ``named``, is used."""
    defs = {}  # node: (qualified name, name, the use that keeps it live)
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs[node] = (f"{module}.{node.name}", node.name, "name")
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        decorators = {ast.unparse(d).rsplit(".", 1)[-1] for d in member.decorator_list}
                        use = "name" if decorators & {"property", "cached_property"} else "call"
                        defs[member] = (f"{module}.{node.name}.{member.name}", member.name, use)
                for field, name in _fields(node) if isinstance(node, ast.ClassDef) else ():
                    if not name.startswith("_"):
                        defs[field] = (f"{module}.{node.name}.{name}", name, "read")
    # (name, the uses it makes, enclosing definitions)
    sites = [(name, {"name", "call", "read"}, frozenset()) for name in named]

    def visit(node, inside, field_reads_only):
        inside = inside | {node} if node in defs else inside
        if isinstance(node, (ast.Name, ast.Attribute)):
            uses = {"read"} if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) else set()
            sites.append((getattr(node, "id", None) or node.attr, uses if field_reads_only else uses | {"name"}, inside))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and not field_reads_only:
            sites.append((node.func.attr, {"call"}, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside, field_reads_only)

    for tree in [*modules.values(), *scripts]:
        visit(tree, frozenset(), False)
    for tree in readers:
        visit(tree, frozenset(), True)
    dead = set()
    while True:
        live = {node for node, (_, name, use) in defs.items() for site, uses, inside in sites
                if site == name and use in uses and node not in inside and not inside & dead}
        if set(defs) - live == dead:
            return sorted(defs[node][0] for node in dead)
        dead = set(defs) - live


def names_in(tree):
    """Every name, attribute and keyword argument that ``tree`` mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def test_no_public_helper_is_called_only_by_tests():
    package = sorted((ROOT / "src" / "ipvem").glob("*.py"))
    modules = {p.stem: ast.parse(p.read_text()) for p in package if p.stem != "__init__"}
    scripts = [ast.parse(p.read_text()) for p in sorted((ROOT / "scripts").glob("*.py"))]
    readers = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    named = names_in(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    unused = dead_definitions(modules, scripts, readers, named)
    assert not unused, f"public definitions without a use in src/ipvem, scripts/ or the acceptance tests: {unused}"


def test_guard_reads_calls_and_follows_dead_code():
    # view is only read, so the Cell it alone makes is dead too; spin only calls itself
    source = """
class Row:
    def view(self): return Cell()
    def spin(self): return self.spin()
    def rows(self): return [self]
    @property
    def size(self): return 1
class Cell: pass
def main(r=Row()): return r.size, r.view, r.rows()
"""
    modules, script = {"m": ast.parse(source)}, ast.parse("main()")
    assert dead_definitions(modules, [script]) == ["m.Cell", "m.Row.spin", "m.Row.view"]


def test_guard_reads_fields():
    # spare is read only by the dead grow; label and depth are only set;
    # cache is read by a reader tree and name is named by the specification
    source = """
@dataclass(eq=False)
class Box:
    size: int
    spare: int
    label: str
    def grow(self): return self.spare
class Row:
    def __init__(self):
        self.width = self.depth = 0
        self.cache, self.name = {}, "row"
        self._hidden = self.width
def main(b=Box(1, 2, label="x"), r=Row()): return b.size, r.width
"""
    modules, script = {"m": ast.parse(source)}, ast.parse("main()")
    reader = ast.parse("def peek(r): return r.cache")
    got = dead_definitions(modules, [script], [reader], names_in(ast.parse("Row(name=1)")))
    assert got == ["m.Box.grow", "m.Box.label", "m.Box.spare", "m.Row.depth"]
