"""Nothing in src/cmcheck is left behind by a deletion: every name a module
imports is used in that module, and every module-level def, class and
constant is named somewhere in src/ outside its own definition (dunders
aside).  Read with the standard library's ast alone, no import of cmcheck."""

import ast
import os
from collections import Counter

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "cmcheck")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _tree(module):
    with open(os.path.join(SRC, module)) as handle:
        return ast.parse(handle.read(), module)


def _exported(tree):
    """The strings of the module's __all__, which re-export what it imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            out |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return out


def _names(root):
    """Every name the node reads or imports, once per occurrence: loaded
    names, attributes and imported names."""
    out = Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[0]] += 1
    return out


def _definitions(tree):
    """(name, node) of every module-level def, class and constant but dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(node.name, node)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, node) for t in found if isinstance(t, ast.Name)]
        else:
            continue
        for name, defining in targets:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, defining


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = _tree(module)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    } | _exported(tree)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [name for name in imported if name not in used] == []


def test_every_definition_is_named_elsewhere():
    trees = [_tree(module) for module in MODULES]
    total = Counter()
    for tree in trees:
        total.update(_names(tree))
    unused = []
    for module, tree in zip(MODULES, trees):
        for name, defining in _definitions(tree):
            # every name of src/ less those inside the definition itself
            if total[name] == _names(defining)[name]:
                unused.append(f"{module}:{name}")
    assert unused == []
