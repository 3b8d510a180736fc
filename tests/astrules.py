"""What the AST rule tests share: where matmi's source is, a walk that
knows each node's scope, the name a call calls, the names an import
rebinds, and a module's __all__."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matmi"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _inner(node, scope):
    """The scope of `node`'s children: a def or class opens its own, and
    so does a module-level assignment to one name (`_DEFAULTS = {...}`)."""
    if isinstance(node, _SCOPES):
        return scope + (node.name,)
    if (not scope and isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)):
        return (node.targets[0].id,)
    return scope


def scoped(source):
    """(node, scope) for every node of `source`, where scope is the
    dotted name of the functions and classes enclosing the node, or of
    the module-level assignment to one name that holds it ("" at module
    level otherwise); a def, class or assignment is in its parent's
    scope, its body in its own."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            yield child, ".".join(scope)
            yield from walk(child, _inner(child, scope))

    return walk(ast.parse(source), ())


def callee(call):
    """The name a call calls, bare (`cg(...)`) or as an attribute
    (`spla.cg(...)`); None for any other callable expression."""
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def renamed(node):
    """The names, last dotted part, that an import binds under another
    name (`from numpy import einsum as contract`); calls through such a
    name would go unseen by `callee`.  Empty for any other node."""
    if not isinstance(node, (ast.Import, ast.ImportFrom)):
        return []
    return [a.name.rsplit(".", 1)[-1] for a in node.names
            if a.asname not in (None, a.name)]


def exported(tree):
    """The names a module's `__all__` lists; empty without one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()
