"""Every public top-level function and class of ``src/ipvem`` has a caller in
the package or in ``scripts/``: a helper that only the tests call is dead."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def referenced_names(node):
    """Names and attributes read anywhere inside ``node``."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)} - {None}


def test_no_public_helper_is_called_only_by_tests():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "ipvem").glob("*.py"))}
    modules.pop("__init__")
    scripts = [ast.parse(p.read_text()) for p in sorted((ROOT / "scripts").glob("*.py"))]
    used = set().union(*map(referenced_names, scripts))
    public = {}
    for module, tree in modules.items():
        for node in tree.body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                public[own] = module
            # a definition's references to itself do not count
            used |= referenced_names(node) - {own}
    unused = sorted(f"{module}.{name}" for name, module in public.items() if name not in used)
    assert not unused, f"public helpers without a caller in src/ipvem or scripts/: {unused}"
