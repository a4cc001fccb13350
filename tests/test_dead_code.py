"""Dead-code guard over the package source: no unused import, no
module-level private function or class that nothing in the package uses,
and no dataclass field that nothing in the package reads.  ``__init__.py``
imports are the public API and count as used."""

import ast

from conftest import CHECKOUT

PACKAGE = CHECKOUT / "src" / "trihomog"


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _bound_names(node):
    """Names an import statement binds, with its line number."""
    for alias in node.names:
        yield (alias.asname or alias.name.split(".")[0]), node.lineno


def _uses(tree):
    """(top-level definition name or None, used name) for every name load
    and attribute access in a module."""
    out = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((owner, node.id))
            elif isinstance(node, ast.Attribute):
                out.append((owner, node.attr))
    return out


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = {n for _, n in _uses(tree)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                unused += ["%s:%d %s" % (name, line, bound)
                           for bound, line in _bound_names(node)
                           if bound not in used]
    assert not unused, "unused imports: %s" % unused


def test_every_private_definition_is_used():
    modules = _modules()
    uses = [use for tree in modules.values() for use in _uses(tree)]
    dead = []
    for name, tree in modules.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            private = (top.name.startswith("_")
                       and not top.name.startswith("__"))
            # a recursive call from its own body does not count as a use
            if private and not any(n == top.name and owner != top.name
                                   for owner, n in uses):
                dead.append("%s:%d %s" % (name, top.lineno, top.name))
    assert not dead, "private definitions nothing uses: %s" % dead


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    # a name check: a field passes when any attribute load in the package
    # has its name, so one that shares its name with a field read on
    # another class is not caught
    modules = _modules()
    read = {node.attr for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for name, tree in modules.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            unread += ["%s:%d %s.%s" % (name, stmt.lineno, cls.name,
                                        stmt.target.id)
                       for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign)
                       and isinstance(stmt.target, ast.Name)
                       and stmt.target.id not in read]
    assert not unread, "dataclass fields nothing reads: %s" % unread


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_name():
    # a private name is a module's own: another module may neither import
    # it nor read it as an attribute of the module
    reads = []
    for name, tree in _modules().items():
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        reads.append("%s:%d %s.%s" % (name, node.lineno,
                                                      node.module, alias.name))
        reads += ["%s:%d %s.%s" % (name, node.lineno, node.value.id,
                                   node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in siblings]
    assert not reads, "private names read from another module: %s" % reads
