"""What the package ships: every definition is run, every field and every
record method is read, and every record compares, hashes and prints
through the one base, and is built by it unless its class must do more.

The read check runs the command lines, then perfbench's own record
readers, and counts what they read of each record; the other checks read the source with ``ast`` and run none of
it.  Test references, builders and parsers live in ``tests/``
(``*_reference.py``, ``diagram_builders.py``, ``poly_text.py``), not in
``src/knotpair``.
"""

import ast
import contextlib
import functools
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import sys
import types

import pytest

import knotpair
from knotpair.cli import main
from knotpair.diagram import checkerboard, pd_from_rep, tait_graph
from knotpair.girth import tree_count
from knotpair.record import Record
from knotpair.reps import Girth2Rep, Girth3Rep

PKG = os.path.dirname(knotpair.__file__)
TESTS = os.path.dirname(__file__)
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
# pinned by tests/girth_golden.json, so no command reads these fields
UNREAD = {
    ("TreePairRep", "inside"),
    ("TreePairRep", "outside"),
    ("TreePairRep", "girth_value"),
}


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


def _oracle_imports(tree) -> set:
    """What a module of the package imports from ``knotpair.oracle``: each
    name of a ``from`` import of it, and ``oracle`` for the module itself,
    at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module if node.level == 0 else ".".join(
                filter(None, ("knotpair", node.module)))
            for alias in node.names:
                if module == "knotpair.oracle":
                    names.add(alias.name)
                elif module == "knotpair" and alias.name == "oracle":
                    names.add("oracle")
        elif isinstance(node, ast.Import):
            names.update("oracle" for alias in node.names if alias.name == "knotpair.oracle")
    return names


def test_the_girth_search_takes_only_a_determinant_from_the_oracles():
    # the girth sweep takes its joins and order from ``diagram``, as the
    # state sum does, not from the oracle; only ``tree_count``, for
    # perfbench, takes the oracle's determinant
    assert _oracle_imports(_package()["girth"]) == {"_bareiss_det"}


def test_the_oracle_import_guard_finds_every_form_of_import():
    tree = ast.parse(
        "from .oracle import _bareiss_det, _join\nfrom . import oracle\n"
        "import knotpair.oracle\nfrom knotpair.oracle import _sweep_order\n"
        "from .diagram import orient\n"
        "def f():\n    from .oracle import check_cap\n"
    )
    assert _oracle_imports(tree) == {"_bareiss_det", "_join", "oracle", "_sweep_order", "check_cap"}


def _copied_runs(trees) -> list:
    """The runs of 3 consecutive statements that appear more than once in
    the functions and methods of ``trees``, each with the (module,
    function) pairs that hold it.

    Every statement block of a function is read, nested blocks included;
    a docstring is left out of its block.  Statements compare by
    ``ast.dump``, which leaves out their positions.
    """
    seen: dict[tuple, list] = {}
    for m, tree in trees.items():
        read = set()  # the nodes of a nested function are walked once
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if id(node) in read:
                    continue
                read.add(id(node))
                for _, block in ast.iter_fields(node):
                    if not (isinstance(block, list) and block
                            and all(isinstance(s, ast.stmt) for s in block)):
                        continue
                    if (isinstance(block[0], ast.Expr) and isinstance(block[0].value, ast.Constant)
                            and isinstance(block[0].value.value, str)):
                        block = block[1:]
                    dumps = [ast.dump(s) for s in block]
                    for i in range(len(dumps) - 2):
                        seen.setdefault(tuple(dumps[i:i + 3]), []).append((m, fn.name))
    return [(run, where) for run, where in seen.items() if len(where) > 1]


def test_no_run_of_three_statements_is_written_twice():
    # a job the package does twice is one helper, not two copies; the
    # generated table module holds data, not code
    trees = _package()
    del trees["g3table_data"]
    assert [where for _, where in _copied_runs(trees)] == []


def test_the_copy_guard_finds_a_copied_run():
    trees = {"m": ast.parse(
        "def one(x):\n"
        "    \"\"\"A docstring.\"\"\"\n"
        "    a = f(x)\n    b = a + 1\n    c = b * a\n    return c\n"
        "class C:\n"
        "    def two(self, xs):\n"
        "        \"\"\"A docstring.\"\"\"\n"
        "        for x in xs:\n"
        "            a = f(x)\n            b = a + 1\n            c = b * a\n"
        "        return 0\n"
        "def three(x):\n"
        "    \"\"\"A docstring.\"\"\"\n"
        "    a = f(x)\n    b = a + 1\n    return b\n"
    )}
    # the docstring and the two statements after it are shared by all
    # three, but a docstring is no statement of the run
    assert [where for _, where in _copied_runs(trees)] == [[("m", "one"), ("m", "two")]]


def _users(trees, name) -> list:
    """The (module, top-level definition) pairs of the package that refer to
    ``name``: as a bare name, an attribute or a ``from`` import, at any
    depth; a reference outside every definition is under ``<module>``."""
    users = set()
    for m, tree in trees.items():
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name
                        or isinstance(node, ast.ImportFrom)
                        and any(alias.name == name for alias in node.names)):
                    users.add((m, owner))
    return sorted(users)


def test_only_the_selftest_reads_the_even_conway_formula():
    # ``eval``, ``compare`` and the census read every girth-3 knot's Conway
    # polynomial off the table; the even formula stays as the selftest's
    # check of it against Fox and of the difference formulas
    assert _users(_package(), "conway_girth3_even") == [("cli", "cmd_selftest")]


def test_the_even_formula_guard_finds_every_form_of_reference():
    trees = _package()
    trees["classify"].body += ast.parse(
        "def even(labels):\n    return cf.conway_girth3_even(labels)\n"
        "def also(labels):\n    from .closedform import conway_girth3_even as f\n"
        "    return f(labels)\n"
        "PICK = conway_girth3_even\n"
    ).body
    assert _users(trees, "conway_girth3_even") == [
        ("classify", "<module>"),
        ("classify", "also"),
        ("classify", "even"),
        ("cli", "cmd_selftest"),
    ]


class _Slot:
    """A slot descriptor that reports each read of its field to ``count``."""

    def __init__(self, member, key, count) -> None:
        self.member, self.key, self.count = member, key, count

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.member
        self.count(self.key)
        return self.member.__get__(obj, owner)

    def __set__(self, obj, value) -> None:
        self.member.__set__(obj, value)


def _record_classes() -> list:
    """Every ``Record`` class of the package, each module imported first."""
    for info in pkgutil.iter_modules(knotpair.__path__):
        importlib.import_module(f"knotpair.{info.name}")
    classes, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("knotpair."):
                classes.append(cls)
                todo.append(cls)
    return classes


def _unread(monkeypatch, classes, run) -> tuple[list, list]:
    """The (class, member) of each slot, and of each non-dunder method, of
    ``classes`` that ``run()`` never reads.  A read that ``Record`` makes
    to compare, hash or print a record (``_key``, ``__eq__``, ``__hash__``,
    ``__repr__``) does not count: every field has those."""
    read, quiet = set(), [0]

    def count(key):
        if not quiet[0]:
            read.add(key)

    def counted(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(key)
            return fn(*args, **kwargs)
        return wrapper

    def hushed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            quiet[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                quiet[0] -= 1
        return wrapper

    fields, methods = [], []
    for cls in (Record, *classes):
        for name, member in list(vars(cls).items()):
            key = (cls.__name__, name)
            if name in ("_key", "__eq__", "__hash__", "__repr__"):
                monkeypatch.setattr(cls, name, hushed(member))
                continue
            if isinstance(member, types.MemberDescriptorType):
                monkeypatch.setattr(cls, name, _Slot(member, key, count))
                fields.append(key)
                continue
            if name.startswith("__") and name.endswith("__"):
                continue
            if isinstance(member, staticmethod):
                wrapped = staticmethod(counted(member.__func__, key))
            elif isinstance(member, property):
                wrapped = property(counted(member.fget, key))
            elif isinstance(member, types.FunctionType):
                wrapped = counted(member, key)
            else:
                continue
            monkeypatch.setattr(cls, name, wrapped)
            methods.append(key)
    run()
    return [k for k in fields if k not in read], [k for k in methods if k not in read]


# one call of each kept paper result, by name
KEPT_CALLS = {
    "classify_girth2_even": (2, 4, 2, 6),
    "transposition_test": (Girth3Rep((2, 4, 6), (2, 4, 8)), "swap_ab"),
    "cycle_obstruction": (Girth3Rep((2, 4, 6), (2, 4, 8)), "cycle_cab"),
    "row_swap_test": (Girth3Rep((2, 4, 6), (2, 4, 8)),),
}


def _command_lines(tmp_path) -> list:
    """The golden command lines, the four girth commands on each diagram of
    ``girth_golden.json``, two censuses, a mirror compare, and
    ``eval "(2,1)" conway``, the one command that reaches
    ``LaurentPoly.zero``."""
    argvs = []
    for name in ("cli_usage_golden.json", "oracle_path_golden.json"):
        with open(os.path.join(TESTS, name)) as f:
            argvs += [entry["argv"] for entry in json.load(f)]
    with open(os.path.join(TESTS, "girth_golden.json")) as f:
        for i, case in enumerate(json.load(f)):
            path = tmp_path / f"{i}.pd"
            path.write_text(case["pd"])
            argvs += [
                [command, str(path), "--format", fmt]
                for command in ("girth", "decompose")
                for fmt in ("text", "json")
            ]
    return argvs + [
        ["census", "--girth", "3", "--max", "2"],
        ["census", "--girth", "2", "--max", "4", "--format", "jsonl"],
        ["compare", "(3,5)", "(5,3)", "--mirror-ok", "--format", "json"],
        ["eval", "(2,1)", "conway"],
    ]


def _run_commands(argvs) -> None:
    """Run each command line through ``cli.main``, then each kept result,
    with the package's caches emptied first, so that what they read does
    not depend on what ran before in the process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("knotpair."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            try:
                main(list(argv))
            except SystemExit:  # help exits through argparse
                pass
    for module, name in KEPT:
        getattr(importlib.import_module(f"knotpair.{module}"), name)(*KEPT_CALLS[name])


def _unread_beside_perfbench(monkeypatch, classes, run) -> tuple[list, list]:
    """What ``_unread`` finds of ``classes`` while ``run()`` runs and then
    perfbench's own readers of the package's records, save UNREAD.  Those
    readers, ``spans.edge_subsets`` (loaded from its file) and
    ``girth.tree_count``, count the subsets and trees of one Tait graph,
    built before the count starts; they read ``TaitGraph.edges`` and its
    ``TaitEdge`` records, which no command reads.  The read check makes
    no excuse but these two."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pd = pd_from_rep(Girth2Rep(3, 3))
    tait = tait_graph(pd, checkerboard(pd)[0])

    def run_then_perfbench():
        run()
        spans.edge_subsets(tait)
        tree_count(tait)

    unread = _unread(monkeypatch, classes, run_then_perfbench)
    return tuple([key for key in members if key not in UNREAD] for members in unread)


@pytest.fixture(scope="module")
def unread_by_commands(tmp_path_factory):
    """(fields, methods) of the package's records that neither the command
    lines nor perfbench's readers read, save UNREAD."""
    argvs = _command_lines(tmp_path_factory.mktemp("pd"))
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _unread_beside_perfbench(
            monkeypatch, _record_classes(), lambda: _run_commands(argvs)
        )


def test_every_record_field_of_the_package_is_read(unread_by_commands):
    # a field nothing reads is data carried for no one: each field a class
    # of the package names in its __slots__ must be read while the command
    # lines run
    assert unread_by_commands[0] == []


def test_every_record_method_of_the_package_is_read(unread_by_commands):
    # a method or view that only tests call belongs in tests/: each method
    # of a record class must be called while the command lines run
    # (dunders are reached through operators and builtins)
    assert unread_by_commands[1] == []


@pytest.fixture
def planted(monkeypatch):
    """What ``_unread`` finds of a record with a field and a method that
    nothing reads, beside a field and a method that are read."""

    class Planted(Record):
        __slots__ = ("shown", "hidden")

        def called(self):
            return self.shown

        def uncalled(self):
            return self.hidden

    def run():
        planted = Planted(1, 2)
        # comparing, hashing and printing read every field, and count for none
        assert planted.called() == 1 and planted == Planted(1, 2)
        hash(planted), repr(planted)

    return _unread(monkeypatch, [Planted], run)


def test_the_field_guard_finds_a_field_nothing_reads(planted):
    assert planted[0] == [("Planted", "hidden")]


def test_the_method_guard_finds_a_method_nothing_reads(planted):
    assert planted[1] == [("Planted", "uncalled")]


def test_the_perfbench_excuse_goes_by_class_not_by_name(monkeypatch):
    # perfbench calls ``PDCode.n``; a field of that name on another record
    # is still unread

    class Planted(Record):
        __slots__ = ("n",)

    unread = _unread_beside_perfbench(monkeypatch, [Planted], lambda: Planted(1))
    assert unread == ([("Planted", "n")], [])


def _record_class_defs() -> list:
    """The class definitions of the package whose bases name ``Record``."""
    return [
        cls
        for tree in _package().values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "Record" for b in cls.bases)
    ]


def test_records_compare_hash_and_print_through_the_base_alone():
    # one equality for every record: ``Record`` keys on its slots in order,
    # and only ``PDCode`` narrows the key (it leaves out ``orientation`` and
    # ``corner_cycles``)
    own = sorted(
        (cls.name, stmt.name)
        for cls in _record_class_defs()
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name in ("_key", "__eq__", "__hash__", "__repr__")
    )
    assert own == [("PDCode", "_key")]


def test_only_four_records_write_their_own_constructor():
    # the base stores a record's fields in slot order; a class writes its
    # own ``__init__`` only to do more: ``Argument`` (defaults, the derived
    # ``required``), ``LaurentPoly`` (the hot path of every polynomial
    # operation), ``PDCode`` (a default and two derived slots) and
    # ``Verdict`` (refuses a distinctness verdict without evidence)
    own = sorted(
        cls.name
        for cls in _record_class_defs()
        if any(isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
               for stmt in cls.body)
    )
    assert own == ["Argument", "LaurentPoly", "PDCode", "Verdict"]
