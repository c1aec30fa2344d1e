"""The method table is the one place that names a construction method.

``repro.core.api.METHOD_TABLE`` holds every fact about a method: its
name, runner, kind and whether it starts processes of its own.  These
tests pin the views other modules export, the lookups' behaviour on any
request value, and -- by scanning ``src/repro`` -- that no other module
encodes a fact about a method by spelling out its name.
"""

import ast
import re
from pathlib import Path

import pytest

import repro.core.api as api
from repro.core.api import (
    METHOD_TABLE,
    METHODS,
    method_kind,
    methods_of_kind,
    starts_processes,
    ultrametric,
)
from repro.verify.differential import (
    BRACKET_METHODS,
    DEFAULT_DIFFERENTIAL_METHODS,
    EXACT_METHODS,
    FEASIBLE_HEURISTICS,
)

SRC = Path(api.__file__).resolve().parents[1]
REPO = SRC.parents[1]

KINDS = ("exact", "bracket", "feasible", "heuristic", "additive")


class TestTable:
    def test_one_row_per_method_with_a_known_kind(self):
        assert len(set(METHODS)) == len(METHOD_TABLE) == 10
        assert {row.kind for row in METHOD_TABLE} <= set(KINDS)

    def test_views_keep_their_values_and_order(self):
        assert METHODS == (
            "compact", "compact-parallel", "bnb", "bnb-scalar",
            "parallel-bnb", "multiprocess", "upgma", "upgmm", "greedy",
            "nj",
        )
        assert EXACT_METHODS == (
            "bnb", "bnb-scalar", "parallel-bnb", "multiprocess"
        )
        assert BRACKET_METHODS == ("compact", "compact-parallel")
        assert FEASIBLE_HEURISTICS == ("upgmm", "greedy")
        assert DEFAULT_DIFFERENTIAL_METHODS == (
            "bnb", "bnb-scalar", "parallel-bnb", "multiprocess", "compact",
            "upgmm",
        )

    def test_derived_facts(self):
        assert [m for m in METHODS if not ultrametric(m)] == ["nj"]
        assert [m for m in METHODS if starts_processes(m)] == [
            "multiprocess"
        ]
        assert methods_of_kind("heuristic") == ("upgma",)

    @pytest.mark.parametrize("method", METHODS)
    def test_only_upgma_upgmm_and_nj_ignore_options(self, method):
        from repro.core.api import construct_tree
        from repro.matrix.generators import clustered_matrix

        matrix = clustered_matrix([3, 3], seed=1)
        if method in ("upgma", "upgmm", "nj"):
            construct_tree(matrix, method, bogus=1)
        else:
            with pytest.raises(TypeError, match="bogus"):
                construct_tree(matrix, method, bogus=1)

    @pytest.mark.parametrize(
        "value", ["astrology", [1], {"a": 1}, None, 5],
        ids=["str", "list", "dict", "none", "int"],
    )
    def test_lookups_accept_any_value(self, value):
        assert method_kind(value) is None
        assert ultrametric(value)
        assert not starts_processes(value)


# ----------------------------------------------------------------------
# no method name outside the table
# ----------------------------------------------------------------------
def _names_method(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id.endswith("method")
    return isinstance(node, ast.Attribute) and node.attr.endswith("method")


def _elements(node: ast.AST):
    """The items of a tuple, list or set literal, also one wrapped in
    ``tuple(...)``, ``set(...)`` or ``frozenset(...)``; else ``None``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("tuple", "set", "frozenset")
        and node.args
    ):
        node = node.args[0]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return node.elts
    return None


def _literals(node: ast.AST):
    """String constants of ``node`` itself or of its collection items."""
    items = _elements(node)
    return [
        item.value for item in ([node] if items is None else items)
        if isinstance(item, ast.Constant) and isinstance(item.value, str)
    ]


def method_literal_sites(source: str):
    """``(line, literal)`` for every method-name literal ``source`` holds
    in one of three places: compared (``==``, ``!=``, ``in``, ``not
    in``) with a name or attribute ending in ``method``; passed to a
    ``*method.startswith(...)`` call (any prefix of a name counts); or
    collected into a module-level tuple or set (``__all__`` names
    functions, not methods)."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
            if any(isinstance(op, ops) for op in node.ops) and any(
                _names_method(o) for o in operands
            ):
                found += [
                    (node.lineno, text)
                    for o in operands for text in _literals(o)
                    if text in METHODS
                ]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "startswith"
            and _names_method(node.func.value)
        ):
            found += [
                (node.lineno, text)
                for arg in node.args for text in _literals(arg)
                if any(m.startswith(text) for m in METHODS)
            ]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                continue
            value = node.value
            if isinstance(value, ast.List) or _elements(value) is None:
                continue
            found += [
                (node.lineno, text)
                for text in _literals(value) if text in METHODS
            ]
    return found


class TestNoMethodNameOutsideTheTable:
    @pytest.mark.parametrize("source", [
        'if args.method == "nj": pass',
        'ok = job.method != "multiprocess"',
        'skip = method in ("bnb", "other")',
        'x = "compact" not in default_method',
        'y = args.method.startswith("compact")',
        'GROUP = ("bnb", "upgmm")',
        'GROUP: tuple = ("bnb",)',
        'GROUP = frozenset({"bnb", "compact"})',
    ])
    def test_scanner_flags_each_pattern(self, source):
        assert method_literal_sites(source)

    @pytest.mark.parametrize("source", [
        'if solver == "bnb": pass',
        'def f(method="compact"): pass',
        'SPAN = "bnb.solve"',
        '__all__ = ("upgma", "upgmm")',
        'SUITE = {"methods": ["bnb", "upgmm"]}',
        'ok = args.method == "maximum"',
        'DEFAULT_METHOD = "compact"',
    ])
    def test_scanner_ignores_other_strings(self, source):
        assert method_literal_sites(source) == []

    def test_src_names_methods_only_in_the_table(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for line, text in method_literal_sites(path.read_text()):
                offenders.append(f"{path.relative_to(SRC)}:{line}: {text!r}")
        assert offenders == []


# ----------------------------------------------------------------------
# the documented method lists name every row
# ----------------------------------------------------------------------
def _first_cells(lines, pattern):
    return [m.group(1) for m in map(re.compile(pattern).match, lines) if m]


def test_usage_contract_table_names_every_method_once():
    text = (REPO / "docs" / "usage.md").read_text()
    table = text.split("Methods and their contracts:", 1)[1].split("\n\n")[1]
    names = _first_cells(table.splitlines(), r"^\| `([^`]+)` \|")
    assert sorted(names) == sorted(METHODS)


def test_api_docstring_table_names_every_method_once():
    names = _first_cells(api.__doc__.splitlines(), r'^``"([^"]+)"``\s')
    assert sorted(names) == sorted(METHODS)
