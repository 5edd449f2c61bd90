"""No new name in `src/` that only the tests call.

Every function, class, method and property defined in the package must have
a reference elsewhere in the package: a function or class through its name,
a method or property through an attribute access `.name`. A reference inside
the definition itself does not count. Dunder methods are not checked.

`WAITING` lists the names that still have no caller in the package. A change
may shrink it, as a name gains a caller or moves into the tests; none may add
to it.
"""

import ast
from collections import Counter
from pathlib import Path

import mgconsensus

SRC = Path(mgconsensus.__file__).resolve().parent

WAITING = {
    "worst_case_sequence",
    "podf_witness",
    "mg_power_shares",
    "DosSequence.intervals",
}


def _references(tree: ast.AST) -> Counter:
    """Names read in `tree` (("name", id)) and attributes accessed (("attr", attr))."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs["attr", node.attr] += 1
    return refs


def _definitions(body: list, prefix: str = "", in_class: bool = False):
    """(qualified name, reference kind, node) of every def and class in `body`, nested ones too."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                kind = "attr" if in_class and not isinstance(node, ast.ClassDef) else "name"
                yield prefix + name, (kind, name), node
            yield from _definitions(node.body, f"{prefix}{name}.", isinstance(node, ast.ClassDef))


def unreferenced() -> set:
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    total = sum(map(_references, trees), Counter())
    return {qual for tree in trees for qual, ref, node in _definitions(tree.body)
            if total[ref] - _references(node)[ref] == 0}


def test_src_gains_no_name_that_only_tests_call():
    found = unreferenced()
    assert found - WAITING == set(), "no caller in src/; call it there or keep it in tests/"
    assert WAITING - found == set(), "these have a caller in src/ now: drop them from WAITING"
