"""Every public module-level function or class in src/cyclelab has traffic:
a reference somewhere in the package outside its own definition, or an
export from cyclelab/__init__.py. So has every public method of a public
class, exports aside. A reference is an ast.Name, an ast.Attribute or an
import of the name."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyclelab"


def _references(tree, skip=None):
    """Names referenced in tree, leaving out the subtree of the node skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public(nodes, kinds):
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def unreferenced_public_names(package=PACKAGE):
    """module.name for each public top-level def or class and
    module.Class.name for each public method of a public class, without
    traffic."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = []
    for module, tree in trees.items():
        for node in _public(tree.body, functions + (ast.ClassDef,)):
            members = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{module}.{node.name}.{method.name}", method)
                            for method in _public(node.body, functions)]
            dead += [name for name, member in members
                     if not any(member.name in _references(other, skip=member)
                                for other in trees.values())]
    return dead


def test_every_public_name_has_traffic():
    assert unreferenced_public_names() == []


def test_an_unreferenced_function_is_found(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "class Lonely:\n    pass\n\n\n"
        "class Used:\n"
        "    def called(self):\n        return self.idle\n\n"
        "    @property\n    def idle(self):\n        return 0\n\n"
        "    def uncalled(self):\n        return self.uncalled()\n\n"
        "    def _private(self):\n        return 1\n"
    )
    (tmp_path / "b.py").write_text("import numpy as np\n\nfrom .a import Used\n\n"
                                   "x = np.zeros(1) + Used().called()\n")
    assert unreferenced_public_names(tmp_path) == ["a.recursive", "a.Lonely",
                                                   "a.Used.uncalled"]
