"""Every public top-level function and class of ``src/ipvem``, and every
public method and property of its public classes, has a caller in the
package or in ``scripts/``: a helper that only the tests call is dead.  A
method counts as used only where it is called as ``x.name(...)``, a property
or top-level name wherever its name is read; a reference from inside the
definition itself or from inside a dead definition does not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def dead_definitions(modules, scripts=()):
    """Qualified names of the public definitions of the ``modules``
    ({name: tree}) that nothing in them or in the ``scripts`` trees uses."""
    defs = {}  # node: (qualified name, name, is a method)
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs[node] = (f"{module}.{node.name}", node.name, False)
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        decorators = {ast.unparse(d).rsplit(".", 1)[-1] for d in member.decorator_list}
                        method = not decorators & {"property", "cached_property"}
                        defs[member] = (f"{module}.{node.name}.{member.name}", member.name, method)
    sites = []  # (name, called as x.name(...), enclosing definitions)

    def visit(node, inside):
        inside = inside | {node} if node in defs else inside
        if isinstance(node, (ast.Name, ast.Attribute)):
            sites.append((getattr(node, "id", None) or node.attr, False, inside))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            sites.append((node.func.attr, True, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in [*modules.values(), *scripts]:
        visit(tree, frozenset())
    dead = set()
    while True:
        live = {node for node, (_, name, method) in defs.items() for site, called, inside in sites
                if site == name and (called or not method) and node not in inside and not inside & dead}
        if set(defs) - live == dead:
            return sorted(defs[node][0] for node in dead)
        dead = set(defs) - live


def test_no_public_helper_is_called_only_by_tests():
    package = sorted((ROOT / "src" / "ipvem").glob("*.py"))
    modules = {p.stem: ast.parse(p.read_text()) for p in package if p.stem != "__init__"}
    scripts = [ast.parse(p.read_text()) for p in sorted((ROOT / "scripts").glob("*.py"))]
    unused = dead_definitions(modules, scripts)
    assert not unused, f"public helpers without a caller in src/ipvem or scripts/: {unused}"


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
