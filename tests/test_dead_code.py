"""Every module-level function, class and constant of `src/voxmix` is used by the program.

A name that no code in `src/voxmix` uses outside its own definition is dead:
only tests keep it. A use is a read of the name in its own module, of a
name imported from its module, or of an attribute of its module imported
under an alias, as `nm.linear`. An import, a docstring and an `__all__`
string are no use. `HELD` pins the names kept on purpose, so that a name
that falls out of use fails here, and one that comes into use must leave it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "voxmix"

# (module, name) kept though the program never uses it:
# - ops that benchmark/layertrace.py counts per train step, which
#   tests/test_benchmark_contract.py requires numerics to export;
# - the spec writer and the corpus digest, held for recording what made an
#   output directory.
HELD = {
    *(("numerics", op) for op in ("matmul", "transpose", "reshape", "relu", "gelu", "softmax", "mean")),
    ("cli", "save_spec"),
    ("synthdata", "corpus_digest"),
}


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def _uses(module: str, tree: ast.Module, own: dict) -> set[tuple[str, str]]:
    """The (module, name) pairs that the code of `module` reads."""
    imported, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("voxmix"):
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "voxmix":  # `from voxmix import numerics as nm`
                    aliases[local] = alias.name
                else:
                    imported[local] = (node.module.split(".")[1], alias.name)
    # the nodes inside each definition, so that a name inside its own is no use
    inside = {id(sub): name for name, node in own.items() for sub in ast.walk(node)}
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imported:
                uses.add(imported[node.id])
            elif node.id in own and inside.get(id(node)) != node.id:
                uses.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            uses.add((aliases[node.value.id], node.attr))
    return uses


def test_every_module_level_name_is_used_by_the_program_or_held():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    defined, used = set(), set()
    for module, tree in trees.items():
        own = dict(_definitions(tree))
        defined.update((module, name) for name in own)
        used |= _uses(module, tree, own)
    assert HELD <= defined
    assert sorted(defined - used - HELD) == []
    assert sorted(HELD & used) == []
