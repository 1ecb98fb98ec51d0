"""Every public function, class and method of src/hierssl is used by the
program itself: by src/ outside its own definition, or by perfbench/.
Code that only tests call is deleted instead of kept public."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hierssl"


def public_definitions() -> dict[str, str]:
    """Qualified name -> bare name of every public def and class in src/."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                out.update({f"{node.name}.{item.name}": item.name
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")})
    return out


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a module uses, leaving out a def's or class's uses of its own
    name inside its own body. Dotted string constants count too: the
    benchmark's tracer names the functions it wraps that way."""
    out: set[str] = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            out.update(set(node.value.split(".")) - enclosing)
        if name is not None and name not in enclosing:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def program_references() -> set[str]:
    paths = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    refs: set[str] = set()
    for path in paths:
        refs |= referenced_names(ast.parse(path.read_text()))
    return refs


def test_every_public_name_is_used_by_the_program():
    refs = program_references()
    unused = sorted(qual for qual, name in public_definitions().items()
                    if name not in refs)
    assert unused == []
