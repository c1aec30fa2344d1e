"""Tests for Newick serialization."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics.upgma import upgmm
from repro.matrix.generators import random_metric_matrix
from repro.tree.newick import NewickError, _escape, parse_newick, to_newick
from repro.tree.ultrametric import TreeNode, UltrametricTree
from tests.tree.random_trees import random_tree


def simple_tree():
    inner = TreeNode(1.0, [TreeNode(label="a"), TreeNode(label="b")])
    return UltrametricTree(TreeNode(4.0, [inner, TreeNode(label="c")]))


class TestToNewick:
    def test_format(self):
        s = to_newick(simple_tree())
        assert s == "((a:1.000000,b:1.000000):3.000000,c:4.000000);"

    def test_single_leaf(self):
        assert to_newick(UltrametricTree.leaf("only")) == "only;"

    def test_quoting_special_labels(self):
        t = UltrametricTree.join(
            UltrametricTree.leaf("sp one"), UltrametricTree.leaf("x:y"), 1.0
        )
        s = to_newick(t)
        assert "'sp one'" in s
        assert "'x:y'" in s

    def test_precision(self):
        s = to_newick(simple_tree(), precision=2)
        assert ":1.00" in s


class TestParseNewick:
    def test_round_trip(self):
        t = simple_tree()
        back = parse_newick(to_newick(t, precision=10))
        assert back.leaf_labels == t.leaf_labels
        assert back.cost() == pytest.approx(t.cost())
        assert back.distance("a", "c") == pytest.approx(8.0)

    def test_round_trip_random_trees(self):
        for seed in range(4):
            t = upgmm(random_metric_matrix(9, seed=seed))
            back = parse_newick(to_newick(t, precision=12))
            assert back.cost() == pytest.approx(t.cost())
            for a in t.leaf_labels[:3]:
                for b in t.leaf_labels[3:6]:
                    assert back.distance(a, b) == pytest.approx(t.distance(a, b))

    def test_quoted_labels_round_trip(self):
        t = UltrametricTree.join(
            UltrametricTree.leaf("a b"), UltrametricTree.leaf("it's"), 2.0
        )
        back = parse_newick(to_newick(t))
        assert set(back.leaf_labels) == {"a b", "it's"}

    def test_single_leaf(self):
        t = parse_newick("x;")
        assert t.leaf_labels == ["x"]

    def test_whitespace_tolerated(self):
        t = parse_newick(" ( a:1 , b:1 ) ; ")
        assert set(t.leaf_labels) == {"a", "b"}

    def test_missing_semicolon_ok(self):
        t = parse_newick("(a:1,b:1)")
        assert t.n_leaves == 2

    def test_unbalanced_rejected(self):
        with pytest.raises(NewickError):
            parse_newick("((a:1,b:1;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(NewickError, match="trailing"):
            parse_newick("(a:1,b:1);xyz")

    def test_unterminated_quote_rejected(self):
        with pytest.raises(NewickError, match="unterminated"):
            parse_newick("('a:1,b:1);")

    def test_leaf_without_label_rejected(self):
        with pytest.raises(NewickError, match="label"):
            parse_newick("(:1.0,b:1.0);")


# ----------------------------------------------------------------------
# Differential check against the recursive-descent parser this module
# replaced, kept here as the reference.
# ----------------------------------------------------------------------
class _ReferenceParser:
    """Recursive-descent Newick parser producing ``(label, length, children)``."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def parse(self):
        node = self._node()
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ";":
            self.pos += 1
        self._skip_ws()
        if self.pos != len(self.text):
            raise NewickError(
                f"trailing characters at position {self.pos}: "
                f"{self.text[self.pos:self.pos + 10]!r}"
            )
        return node

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _node(self):
        self._skip_ws()
        children = []
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            self.pos += 1
            while True:
                children.append(self._node())
                self._skip_ws()
                if self.pos >= len(self.text):
                    raise NewickError("unbalanced parentheses")
                if self.text[self.pos] == ",":
                    self.pos += 1
                    continue
                if self.text[self.pos] == ")":
                    self.pos += 1
                    break
                raise NewickError(f"expected ',' or ')' at position {self.pos}")
        label = self._label()
        length = self._length()
        return (label, length, children)

    def _label(self):
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "'":
            self.pos += 1
            chars = []
            while self.pos < len(self.text):
                ch = self.text[self.pos]
                if ch == "'":
                    if (
                        self.pos + 1 < len(self.text)
                        and self.text[self.pos + 1] == "'"
                    ):
                        chars.append("'")
                        self.pos += 2
                        continue
                    self.pos += 1
                    return "".join(chars)
                chars.append(ch)
                self.pos += 1
            raise NewickError("unterminated quoted label")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "(),:;":
            self.pos += 1
        return self.text[start : self.pos].strip()

    def _length(self):
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ":":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isdigit() or self.text[self.pos] in ".eE+-"
            ):
                self.pos += 1
            try:
                return float(self.text[start : self.pos])
            except ValueError:
                raise NewickError(f"bad branch length at position {start}") from None
        return 0.0


def reference_parse_newick(text):
    label, _, children = _ReferenceParser(text).parse()

    def build(spec):
        spec_label, _, spec_children = spec
        if not spec_children:
            if not spec_label:
                raise NewickError("leaf without a label")
            return TreeNode(0.0, label=spec_label)
        built = [build(child) for child in spec_children]
        height = max(
            child.height + child_spec[1]
            for child, child_spec in zip(built, spec_children)
        )
        return TreeNode(height, built, label=spec_label or None)

    return UltrametricTree(build((label, 0.0, children)))


def reference_to_newick(tree, precision=6):
    """The recursive writer ``to_newick`` replaced."""

    def render(node, parent_height):
        suffix = f":{parent_height - node.height:.{precision}f}"
        if node.is_leaf:
            return f"{_escape(node.label or '')}{suffix}"
        inner = ",".join(render(child, node.height) for child in node.children)
        return f"({inner}){suffix}"

    root = tree.root
    if root.is_leaf:
        return f"{_escape(root.label or '')};"
    return "(" + ",".join(render(c, root.height) for c in root.children) + ");"


def outcome(parse, text):
    """What ``parse`` makes of ``text``: every node's label, height bits
    and arity in walk order, or the exception type and message."""
    try:
        tree = parse(text)
    except ValueError as exc:  # NewickError, or a duplicate-label error
        return (type(exc).__name__, str(exc))
    return [
        (node.label, struct.pack("<d", node.height), len(node.children))
        for node in tree.root.walk()
    ]


QUOTED_LABELS = ["a b", "it's", "x:y", "(p)", "q,r", "s;", "'", "''", "\tt", "u\n"]

#: Characters the mutation corpus inserts; "٣" is a non-ASCII decimal
#: digit that float() accepts, "²" a digit it rejects.
MUTATION_ALPHABET = list("(),:; '\t") + list("abxyzE.e+-") + list("0123456789") + [
    "\u0663",
    "\u00b2",
]


def corpus_bases():
    rng = random.Random(20)
    bases = []
    for seed in range(12):
        n = rng.randint(2, 14)
        trees = [
            upgmm(random_metric_matrix(n, seed=seed)),
            random_tree(rng, n, 4),
            random_tree(rng, min(n, len(QUOTED_LABELS)), 3, QUOTED_LABELS),
        ]
        for tree in trees:
            for precision in (0, 6, 12):
                bases.append(to_newick(tree, precision=precision))
    bases += ["x;", " ( a:1 , b:1 ) ; ", "(:1.0,b:1.0);", "((a,b)c:2,d)e;"]
    return bases


class TestParserMatchesReference:
    @pytest.mark.parametrize("text", corpus_bases())
    def test_serialized_trees(self, text):
        assert outcome(parse_newick, text) == outcome(reference_parse_newick, text)

    def test_mutation_corpus(self):
        rng = random.Random(7)
        mismatches = []
        for base in corpus_bases():
            for _ in range(60):
                chars = list(base)
                for _ in range(rng.randint(1, 4)):
                    if chars and rng.random() < 0.5:
                        del chars[rng.randrange(len(chars))]
                    else:
                        chars.insert(
                            rng.randrange(len(chars) + 1),
                            rng.choice(MUTATION_ALPHABET),
                        )
                text = "".join(chars)
                if outcome(parse_newick, text) != outcome(
                    reference_parse_newick, text
                ):
                    mismatches.append(text)
        assert mismatches == []

    @pytest.mark.parametrize(
        "text",
        [
            "",
            ";",
            "(",
            "()",
            "(a,)",
            "(:1,b",
            "(a:1,b:1)(c)",
            "(a:1 2,b)",
            "(a:1x,b)",
            "(a: 1,b)",
            "(a:1\u00b2,b)",
            "(a:\u0663.5,b)",
            "('a' 'b',c)",
            "('a'b,c)",
            "('ab'',c)",
            "('ab''',c)",
            "(a'b,c)",
            "(a,b);;",
            "(a,b) ; x",
            "(a,a)",
            "((a)b:1e999,(c)d:-1e999)",
            "(a:1e,b)",
            "a\u00a0;",
        ],
    )
    def test_edge_cases(self, text):
        assert outcome(parse_newick, text) == outcome(reference_parse_newick, text)


class TestWriterMatchesReference:
    def test_bytes_identical(self):
        rng = random.Random(3)
        for seed in range(10):
            n = rng.randint(1, 16)
            for tree in (
                upgmm(random_metric_matrix(max(n, 2), seed=seed)),
                random_tree(rng, n, 4),
            ):
                for precision in (0, 6, 12):
                    assert to_newick(tree, precision=precision) == (
                        reference_to_newick(tree, precision)
                    )


class TestLabelRoundTrip:
    @pytest.mark.parametrize("odd", ["a\r", "a\x0b", "a\u00a0", "\x1fa", " "])
    def test_edge_whitespace_is_quoted(self, odd):
        tree = UltrametricTree.join(
            UltrametricTree.leaf(odd), UltrametricTree.leaf("b"), 1.0
        )
        assert parse_newick(to_newick(tree)).leaf_labels == [odd, "b"]

    @given(
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=6, unique=True)
    )
    @settings(max_examples=200, deadline=None)
    def test_any_text_labels_round_trip(self, labels):
        tree = random_tree(random.Random(len(labels)), len(labels), 3, labels)
        back = parse_newick(to_newick(tree, precision=12))
        assert back.leaf_labels == tree.leaf_labels
