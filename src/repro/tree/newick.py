"""Newick serialization for ultrametric trees.

Trees are written with branch lengths equal to edge weights
(``height(parent) - height(child)``), the format every phylogenetics
viewer understands.  The parser reconstructs node heights bottom-up, so a
round trip preserves the tree exactly (up to floating point formatting).
"""

from __future__ import annotations

import re
from typing import List, Optional, Union

from repro.tree.ultrametric import TreeNode, UltrametricTree

__all__ = ["to_newick", "parse_newick", "NewickError"]


class NewickError(ValueError):
    """Raised on malformed Newick input."""


# A label needs quotes when it holds a delimiter, a quote, a space, tab
# or newline, or when it starts or ends with whitespace: the parser
# strips whitespace around an unquoted label.
_NEEDS_QUOTES = re.compile(r"[(),:;' \t\n]|\A\s|\s\Z")


def _escape(label: str) -> str:
    if _NEEDS_QUOTES.search(label):
        return "'" + label.replace("'", "''") + "'"
    return label


def to_newick(tree: UltrametricTree, *, precision: int = 6) -> str:
    """Serialize ``tree`` to a Newick string with branch lengths."""
    root = tree.root
    if root.is_leaf:
        return f"{_escape(root.label or '')};"
    parts: List[str] = []
    # Each entry is either text to emit or ``(node, text after it)``;
    # the text after a node is its ``:length`` suffix (``;`` at the root).
    stack: List[Union[str, tuple]] = [(root, ";")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, suffix = item
        if not node.children:
            parts.append(_escape(node.label or ""))
            parts.append(suffix)
            continue
        parts.append("(")
        stack.append(")" + suffix)
        height = node.height
        children = node.children
        for k in range(len(children) - 1, -1, -1):
            child = children[k]
            stack.append((child, f":{height - child.height:.{precision}f}"))
            if k:
                stack.append(",")
    return "".join(parts)


# One token per match, tried in this order.  Every character starts some
# token, so consecutive matches tile the text.  ``\s`` is exactly
# ``str.isspace``.  A quoted label closes at the first quote not
# followed by another (``''`` inside is a literal quote); ``quote`` is an
# opening quote that never closes.  An unquoted label runs to the next
# delimiter, inner spaces and quotes included, trailing whitespace
# stripped.
_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<open>\()"
    r"|(?P<close>\))"
    r"|(?P<comma>,)"
    r"|(?P<semi>;)"
    r"|:(?P<length>[\d.eE+-]*)"
    r"|'(?P<quoted>(?:[^']|'')*)'(?!')"
    r"|(?P<quote>')"
    r"|(?P<label>[^(),:;'\s][^(),:;]*)"
)

# Parser states, in the order a token falls through them: a token that
# does not fit a state completes it and is offered to the next one.
_NODE, _LABEL, _LENGTH, _AFTER, _END, _DONE = range(6)


def parse_newick(text: str) -> UltrametricTree:
    """Parse a Newick string into an :class:`UltrametricTree`.

    Heights are reconstructed bottom-up: a node sits at the maximum of
    ``child height + child branch length`` over its children (for genuinely
    ultrametric input all children agree).  Raises :class:`NewickError`
    on malformed input.

    One left-to-right pass over the tokens builds the nodes directly.
    Syntax errors are raised where they occur; a leaf without a label is
    reported only once the whole text has parsed.
    """
    kids_stack: List[List[TreeNode]] = []  # children of each open '('
    best_stack: List[Optional[float]] = []  # running height of each open '('
    children: Optional[List[TreeNode]] = None  # of the node being closed
    height = 0.0
    label = ""
    root: Optional[TreeNode] = None
    unlabelled = False
    state = _NODE
    matches = list(_TOKEN.finditer(text))
    matches.append(None)  # end of text
    for match in matches:
        kind = match.lastgroup if match is not None else "eof"
        if kind == "ws":
            continue
        if state == _NODE:
            if kind == "open":
                kids_stack.append([])
                best_stack.append(None)
                continue
            children = None
            state = _LABEL
        if state == _LABEL:
            state = _LENGTH
            if kind == "label":
                label = match.group("label").rstrip()
                continue
            if kind == "quoted":
                label = match.group("quoted").replace("''", "'")
                continue
            if kind == "quote":
                raise NewickError("unterminated quoted label")
            label = ""
        if state == _LENGTH:
            length = 0.0
            if kind == "length":
                start = match.start() + 1
                end = match.end()
                # ``\d`` is the decimal digits; any other digit character
                # extends the length and no float accepts it.
                if end < len(text) and text[end].isdigit():
                    raise NewickError(f"bad branch length at position {start}")
                try:
                    length = float(match.group("length"))
                except ValueError:
                    raise NewickError(
                        f"bad branch length at position {start}"
                    ) from None
            if children is None:
                unlabelled = unlabelled or not label
                node = TreeNode(0.0, label=label)
            else:
                node = TreeNode(height, children, label=label or None)
            if kids_stack:
                kids_stack[-1].append(node)
                value = node.height + length
                best = best_stack[-1]
                if best is None or value > best:
                    best_stack[-1] = value
                state = _AFTER
            else:
                root = node
                state = _END
            if kind == "length":
                continue
        if state == _AFTER:
            if kind == "comma":
                state = _NODE
                continue
            if kind == "close":
                children = kids_stack.pop()
                height = best_stack.pop()  # type: ignore[assignment]
                state = _LABEL
                continue
            if kind == "eof":
                raise NewickError("unbalanced parentheses")
            raise NewickError(f"expected ',' or ')' at position {match.start()}")
        if kind == "eof":
            break
        if state == _END and kind == "semi":
            state = _DONE
            continue
        position = match.start()
        raise NewickError(
            f"trailing characters at position {position}: "
            f"{text[position:position + 10]!r}"
        )
    if unlabelled:
        raise NewickError("leaf without a label")
    return UltrametricTree(root)
