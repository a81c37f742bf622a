import ast
import importlib
from pathlib import Path

import pytest

import amalgam

SOURCES = sorted(Path(amalgam.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O drops assert statements, so checks in the package must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


# the sweeps, the principal-system path, the coset algebra, the fold, the free-group
# conjugacy and substitution kernels and the C-graph searches run on letter tuples; a Word
# is built only for a value that leaves the package, and a form builds its Words when a
# caller reads them
LETTER_LEVEL = (
    *(("group.py", None, name) for name in (
        "reduced_form", "normal_form", "_form", "_rep", "_cyclic_perms", "_push",
        "_propagate_solution", "_principal_solution", "_spell",
    )),
    *(("cosetalg.py", None, name) for name in ("shift", "c_coset", "_canonical", "transfer")),
    ("stallings.py", None, "fold"),
    *(("stallings.py", "SubgroupGraph", name) for name in ("conjugacy_into", "z_subgroup")),
    *(("words.py", None, name) for name in ("letters_conjugator", "letters_substitute")),
)
WORD_BUILDERS = ("Word", "Word._make", "Syllable", "identity")


def test_normal_form_sweep_builds_no_words():
    for filename, owner, name in LETTER_LEVEL:
        path = Path(amalgam.__file__).parent / filename
        body = ast.parse(path.read_text(), filename=str(path)).body
        for key in filter(None, (owner, name)):  # the class, then the function in it
            (function,) = (n for n in body if getattr(n, "name", None) == key)
            body = function.body
        calls = [
            node.lineno
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in WORD_BUILDERS
        ]
        assert not calls, f"{name} builds Word, Syllable or identity values at lines {calls}"


def test_no_graph_attribute_is_read_outside_the_benchmark():
    # a subgroup is one SubgroupGraph; its `graph` property returns the graph itself and
    # serves only the benchmark's older `.graph` reads (ROADMAP item 7 removes both)
    paths = [*SOURCES, *sorted(Path(__file__).parent.glob("*.py"))]
    reads = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "graph"
    ]
    assert not reads, f"`.graph` reads: {reads}"


# the sweep's hit path: a known step is one probe of the carry's state.  Its branches
# are a miss, a join and the closing of a syllable a join left open
SWEEP_BRANCHES = ("step is None", "syll and done and (done[-1][0] == syll[0])",
                  "opened is not None")
HIT_PATH_CALLS = {"state.get", "len", "done.append", "trace.append"}


def test_known_sweep_step_is_one_probe():
    path = Path(amalgam.__file__).parent / "group.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (function,) = (n for n in tree.body if getattr(n, "name", None) == "normal_form")
    (loop,) = (n for n in ast.walk(function) if isinstance(n, ast.For)
               and ast.unparse(n.target) == "block")
    branches, calls, todo = set(), [], list(loop.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) in SWEEP_BRANCHES:
            branches.add(ast.unparse(node.test))
            todo += node.orelse
            continue
        if isinstance(node, ast.Call) and ast.unparse(node.func) not in HIT_PATH_CALLS:
            calls.append((node.lineno, ast.unparse(node.func)))
        todo += ast.iter_child_nodes(node)
    assert branches == set(SWEEP_BRANCHES)
    assert not calls, f"the sweep's hit path calls {calls}"


def test_coset_rep_reads_through_read():
    # one walk per question: coset_rep splits where read stops, trace is gone, and one
    # dict of (tree path, inverse) pairs replaced the tree-word list and the inverse dict
    path = Path(amalgam.__file__).parent / "stallings.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (graph_class,) = (n for n in tree.body if getattr(n, "name", None) == "SubgroupGraph")
    methods = {n.name: n for n in graph_class.body if isinstance(n, ast.FunctionDef)}
    assert "trace" not in methods
    attributes = {n.attr for n in ast.walk(graph_class) if isinstance(n, ast.Attribute)}
    assert not attributes & {"_tree_words", "_tree_inverses"}
    loops = [n.lineno for n in ast.walk(methods["coset_rep"])
             if isinstance(n, (ast.For, ast.While))]
    assert not loops, f"coset_rep loops at lines {loops}"


def test_adversarial_rep_takes_no_slice():
    # _rep's representatives reach p^(2m) letters, and a slice of one is a copy
    path = Path(amalgam.__file__).parent / "group.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (function,) = (n for n in tree.body if getattr(n, "name", None) == "_rep")
    slices = [node.lineno for node in ast.walk(function) if isinstance(node, ast.Slice)]
    assert not slices, f"_rep slices at lines {slices}"


# last dotted name of a call: words.substitute, graph.express_in_basis, Word, Word._make
TRANSFER_AVOIDS = ("substitute", "express_in_basis", "Word", "_make")


def test_transfer_stays_at_the_letter_level():
    # a transfer is one walk of the C graph over letter tuples
    path = Path(amalgam.__file__).parent / "group.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (ctx_class,) = (n for n in tree.body if getattr(n, "name", None) == "AmalgamContext")
    (method,) = (n for n in ctx_class.body if getattr(n, "name", None) == "transfer_letters")
    calls = [
        (node.lineno, ast.unparse(node.func))
        for node in ast.walk(method)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rsplit(".", 1)[-1] in TRANSFER_AVOIDS
    ]
    assert not calls, f"transfer_letters calls {calls}"


# the meets read the graphs they are given: no whole transition table is walked
MEET_WALKS = (("cosetalg.py", "shift"), ("stallings.py", "meet"), ("stallings.py", "_overlay"))
TABLE_COPIES = ("items", "values", "keys", "copy")


def _is_table(node):
    return ast.unparse(node).endswith("moves")


def test_meets_iterate_no_whole_transition_table():
    for filename, name in MEET_WALKS:
        path = Path(amalgam.__file__).parent / filename
        tree = ast.parse(path.read_text(), filename=str(path))
        (function,) = (n for n in tree.body if getattr(n, "name", None) == name)
        reads = []
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                method = node.func.attr if isinstance(node.func, ast.Attribute) else None
                if method in TABLE_COPIES or any(map(_is_table, node.args)):
                    reads.append((node.lineno, ast.unparse(node)))
            elif isinstance(node, (ast.For, ast.comprehension)) and _is_table(node.iter):
                reads.append((node.iter.lineno, ast.unparse(node.iter)))
        assert not reads, f"{name} reads a whole transition table: {reads}"


# the normalizer data and the free bases of C are computed on first read, never
# while a context is built
LAZY_NAMES = (
    "double_transversal", "is_malnormal",
    "transversal_a", "transversal_b", "malnormal_a", "malnormal_b",
    "basis_loops", "basis_coordinates",
)


def test_context_construction_leaves_the_normalizer_data_lazy():
    path = Path(amalgam.__file__).parent / "group.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (ctx_class,) = (n for n in tree.body if getattr(n, "name", None) == "AmalgamContext")
    (init,) = (n for n in ctx_class.body if getattr(n, "name", None) == "__init__")
    (build_context,) = (n for n in tree.body if getattr(n, "name", None) == "build_context")
    for function in (init, build_context):
        read = sorted(set(_names_outside(function, None)) & set(LAZY_NAMES))
        assert not read, f"{function.name} reads {read}"


def _names_outside(node, skip):
    """Attribute and variable names read under node, except inside skip."""
    if node is skip:
        return
    if isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Name):
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _names_outside(child, skip)


# the benchmark harness is a real caller of the package, the tests are not
CALLERS = SOURCES + sorted((Path(__file__).parents[1] / "layerbench").glob("*.py"))


def _attributes_read(node, skip):
    """Attribute names loaded under node, except inside skip."""
    if node is skip:
        return
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _attributes_read(child, skip)


def _public_fields(init):
    """Public attributes that an __init__ assigns on self."""
    for node in ast.walk(init):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and not target.attr.startswith("_")
            ):
                yield target.attr


def test_classes_have_no_test_only_members():
    # every public method and property of a package class, and every public
    # field set in the __init__ of a class that is not an exception, is read
    # somewhere in the package or the benchmark outside its own definition;
    # tests use the real API, and an exception's fields are the typed-error API
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in CALLERS]
    unused = []
    for path, tree in zip(SOURCES, trees):
        module = vars(importlib.import_module(f"amalgam.{path.stem}"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                if not any(node.name in _names_outside(t, node) for t in trees):
                    unused.append(f"{cls.name}.{node.name}")
            init = next((n for n in cls.body if getattr(n, "name", None) == "__init__"), None)
            if init is None or issubclass(module[cls.name], BaseException):
                continue
            for field in _public_fields(init):
                if not any(field in _attributes_read(t, init) for t in trees):
                    unused.append(f"{cls.name}.{field}")
    assert not unused, f"members that nothing in the package or benchmark reads: {unused}"


# module-level names that nothing in the package or the benchmark calls yet, and why they stay
UNCALLED = {
    # the paper's stratum classifier (CR>1/CR0/CR1); ROADMAP item 11's census will call it
    "cr_membership",
    # a normal form spelled back as one word over the union alphabet: the inverse of
    # normal_form for library callers
    "form_to_word",
    # the public Word form of words.letters_conjugator, which the package calls
    "free_conjugacy",
}


def test_module_functions_have_callers_outside_the_tests():
    # every public module-level function or class of the package is named in the
    # package or the benchmark outside its own definition; the re-exports of
    # __init__.py do not count, and the tests do not either
    callers = [path for path in CALLERS if path.name != "__init__.py"]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in callers}
    uncalled = [
        f"{path.stem}.{node.name}"
        for path in callers if path in SOURCES
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in UNCALLED
        and not any(node.name in _names_outside(t, node) for t in trees.values())
    ]
    assert not uncalled, f"module-level names that nothing outside the tests calls: {uncalled}"
