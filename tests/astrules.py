"""What the AST rule tests share: a walk that knows each node's scope,
the name a call calls, and the names an import rebinds."""

import ast

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scoped(source):
    """(node, scope) for every node of `source`, where scope is the
    dotted name of the functions and classes enclosing the node ("" at
    module level); a def or class is in its parent's scope, its body in
    its own."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            yield child, ".".join(scope)
            yield from walk(child, scope + (child.name,)
                            if isinstance(child, _SCOPES) else scope)

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
