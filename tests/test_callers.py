"""Code whose only callers are tests goes (ROADMAP, aim 2): every function
and class defined in the program (src/fedsign and sessionbench) is named
somewhere in the program outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__.py re-exports every public name, so it is no caller
FILES = (sorted(p for p in (ROOT / "src" / "fedsign").glob("*.py") if p.name != "__init__.py")
         + sorted((ROOT / "sessionbench").glob("*.py")))

# name -> why it stays without a caller in the program
UNCALLED = {
    "false_positive_analysis": "ROADMAP item 11 gives it a caller: every verdict will "
                               "report its false-positive probability",
}


def mentions(node):
    """The names that `node` refers to: identifiers, attributes and string
    constants (the tracer names the methods it wraps by string)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def test_only_the_allowed_exceptions_lack_a_caller():
    """An entry of UNCALLED goes once its code gets a caller or is deleted."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in FILES}
    named = Counter(name for tree in trees.values() for name in mentions(tree))
    uncalled = {node.name: f"{path.relative_to(ROOT)}:{node.lineno}"
                for path, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))  # Python calls
                and named[node.name] == Counter(mentions(node))[node.name]}
    assert set(uncalled) == set(UNCALLED), f"named only in tests: {uncalled}"
