"""What the package ships: every definition is run, every field and every
record method is read, and every record compares, hashes and prints
through the one base.

The checks read the source with ``ast`` and run none of it.  Test
references, builders and parsers live in ``tests/`` (``*_reference.py``,
``diagram_builders.py``, ``poly_text.py``), not in ``src/knotpair``.
"""

import ast
import os

import knotpair

PKG = os.path.dirname(knotpair.__file__)
PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")

# The paper's classification results, kept although no command prints them.
KEPT = (
    ("classify", "classify_girth2_even"),
    ("classify", "transposition_test"),
    ("classify", "cycle_obstruction"),
    ("classify", "row_swap_test"),
)

# girth >= 4 ``decompose`` prints a TreePairRep through its record repr,
# pinned by tests/girth_golden.json, so these fields are read by no attribute
UNREAD_FIELDS = {("reps.py", "TreePairRep", "inside"), ("reps.py", "TreePairRep", "outside")}


def _parse(path):
    with open(path) as f:
        return ast.parse(f.read(), path)


def _package():
    return {
        name[:-3]: _parse(os.path.join(PKG, name))
        for name in sorted(os.listdir(PKG))
        if name.endswith(".py")
    }


def _roots():
    """``cli.main``, the kept names, and the (module, top-level name) of
    each function perfbench wraps by name or imports from the package."""
    roots = [("cli", "main"), *KEPT]
    for stmt in _parse(SPANS).body:
        if isinstance(stmt, ast.Assign) and stmt.targets[0].id in ("TIMED", "COUNTED"):
            for _, module, attr in ast.literal_eval(stmt.value):
                roots.append((module.rsplit(".", 1)[-1], attr.split(".")[0]))
    for name in sorted(os.listdir(PERFBENCH)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(_parse(os.path.join(PERFBENCH, name))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").startswith("knotpair.")):
                roots += [(node.module.rsplit(".", 1)[-1], a.name) for a in node.names]
    return roots


def _unreached(trees, roots):
    """The top-level functions and classes that no chain of name references
    reaches from ``roots`` or from a module-level statement.

    A bare name refers to its own module's definition or to what a relative
    ``from .m import name`` brings in; ``mod.name`` refers to a module that
    a relative import binds to ``mod``.
    """
    defs = {
        (m, stmt.name): stmt
        for m, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    imported = {m: {} for m in trees}
    module_alias = {m: {} for m in trees}
    for m, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        module_alias[m][bound] = alias.name
                    else:
                        imported[m][bound] = (node.module, alias.name)

    def refs(m, node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield imported[m].get(n.id, (m, n.id))
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in module_alias[m]):
                yield module_alias[m][n.value.id], n.attr

    todo = list(roots)
    for m, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                todo += refs(m, stmt)
    reached = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo += refs(key[0], defs[key])
    return sorted(set(defs) - reached)


def test_every_definition_of_the_package_is_reached_from_a_command():
    # src/ holds what a command runs, the paper's results kept above, and
    # what perfbench wraps by name; anything else belongs under tests/
    assert _unreached(_package(), _roots()) == []


def test_only_what_perfbench_names_is_kept_beside_the_commands():
    # what perfbench alone keeps in src/: a change to the benchmark that
    # stops naming these may delete them.  The census command enumerates
    # label tuples; ``census_enumerate`` builds the reps from them.
    assert _unreached(_package(), [("cli", "main"), *KEPT]) == [
        ("census", "census_enumerate"),
        ("closedform", "sym_s"),
        ("girth", "tree_count"),
    ]


def test_the_reachability_guard_finds_a_definition_no_command_reaches():
    trees = _package()
    trees["diagram"].body += ast.parse("def pd_to_json(pd):\n    return str(pd)\n").body
    trees["laurent"].body += ast.parse("class Unused:\n    pass\n").body
    assert _unreached(trees, _roots()) == [
        ("diagram", "pd_to_json"),
        ("laurent", "Unused"),
    ]


def _eager_imports(tree) -> set:
    """The modules a module imports as it is imported: by import statements
    outside function bodies."""
    names = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        todo += ast.iter_child_nodes(node)
    return names


def test_no_module_of_the_package_imports_argparse_as_it_is_imported():
    # argparse, with gettext, costs each fresh process milliseconds; a valid
    # command never needs it, so only ``cli.build_parser`` imports it, for
    # help and usage errors
    assert [m for m, tree in _package().items() if "argparse" in _eager_imports(tree)] == []


def test_the_import_guard_finds_an_import_run_at_import_time():
    tree = ast.parse(
        "import os\nfrom argparse import Namespace\n"
        "def f():\n    import json\n"
        "class C:\n    import gettext\n"
        "if True:\n    import random\n"
    )
    assert _eager_imports(tree) == {"os", "argparse", "gettext", "random"}


def test_every_record_field_of_the_package_is_read():
    # a field nothing reads is data carried for no one: each field a class
    # of the package names in its __slots__ must be read as an attribute
    # somewhere in the package, outside the methods that only store,
    # compare or hash the fields
    trees = _package()
    plumbing = {"__init__", "_key"}

    def loads(node):
        if isinstance(node, ast.FunctionDef) and node.name in plumbing:
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        for child in ast.iter_child_nodes(node):
            yield from loads(child)

    read = {attr for tree in trees.values() for attr in loads(tree)}

    def slots(cls):
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "__slots__":
                return ast.literal_eval(stmt.value)
        return ()

    fields = [
        (f"{name}.py", cls.name, field)
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for field in slots(cls)
    ]
    assert len(fields) >= 60
    assert UNREAD_FIELDS <= set(fields)
    assert [f for f in fields if f[2] not in read and f not in UNREAD_FIELDS] == []


def _perfbench():
    return [
        _parse(os.path.join(PERFBENCH, name))
        for name in sorted(os.listdir(PERFBENCH))
        if name.endswith(".py")
    ]


def _unread_methods(trees, others):
    """The (file, class, method) of each method, dunders aside, of a
    ``Record`` class of ``trees`` whose name no attribute of ``trees`` or
    ``others`` reads."""
    read = {
        node.attr
        for tree in [*trees.values(), *others]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        (f"{name}.py", cls.name, stmt.name)
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "Record" for b in cls.bases)
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef)
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
        and stmt.name not in read
    ]


def test_every_record_method_of_the_package_is_read():
    # a method or view that only tests call belongs in tests/: each method
    # of a record class must be read as an attribute in the package or in
    # perfbench (dunders are reached through operators and builtins)
    assert _unread_methods(_package(), _perfbench()) == []


def test_the_method_guard_finds_a_method_nothing_reads():
    trees = _package()
    laurent = next(
        cls for cls in trees["laurent"].body
        if isinstance(cls, ast.ClassDef) and cls.name == "LaurentPoly"
    )
    laurent.body += ast.parse("def coeffs(self):\n    return dict(self.terms)\n").body
    assert _unread_methods(trees, _perfbench()) == [("laurent.py", "LaurentPoly", "coeffs")]


def test_records_compare_hash_and_print_through_the_base_alone():
    # one equality for every record: ``Record`` keys on its slots in order,
    # and only ``PDCode`` narrows the key (it leaves out ``orientation`` and
    # ``corner_cycles``)
    own = sorted(
        (cls.name, stmt.name)
        for tree in _package().values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "Record" for b in cls.bases)
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name in ("_key", "__eq__", "__hash__", "__repr__")
    )
    assert own == [("PDCode", "_key")]
