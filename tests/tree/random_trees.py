"""Random tree shapes shared by the tree-layer tests."""

from repro.tree.ultrametric import TreeNode, UltrametricTree


def random_tree(rng, n, max_arity, labels=None):
    """A random tree over ``n`` leaves drawn with ``rng``.

    Internal nodes have 2 to ``max_arity`` children, and some sit
    exactly at their tallest child's height (a zero-length edge).
    Leaves are ``t0..t{n-1}`` unless ``labels`` names them.
    """
    labels = labels or [f"t{i}" for i in range(n)]
    nodes = [TreeNode(0.0, label=label) for label in labels[:n]]
    while len(nodes) > 1:
        k = min(len(nodes), rng.randint(2, max_arity))
        picked = sorted(rng.sample(range(len(nodes)), k), reverse=True)
        children = [nodes.pop(i) for i in picked]
        top = max(child.height for child in children)
        nodes.append(TreeNode(top + rng.choice([0.0, rng.random()]), children))
    return UltrametricTree(nodes[0])
