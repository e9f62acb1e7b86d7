"""Node objects over a flat index, for tests that assert on tree shape.

`root(index)` is the root of an index as a `NodeView`, which reads the
columns of `rcas.trie.RcasIndex` for one node id and offers what the tests
assert on: substrings, dimension, edges, refs, `child` and `walk`.
`nodes(index)` walks every node with its depth.  `make_index` goes the other
way: it lays out the columns for a hand-made tree of `Node`s, so that tests
can hand the saver and loader tries that the builders never make.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from rcas.keys import _DIM_CODE, Dimension
from rcas.trie import RcasIndex
from rcas.interleave import ZoContext

DIM_FROM_CODE = {v: k for k, v in _DIM_CODE.items()}
P, V = Dimension.P, Dimension.V


class NodeView:
    """Node `id` of a flat index."""

    __slots__ = ("index", "id")

    def __init__(self, index: RcasIndex, id: int):
        self.index = index
        self.id = id

    def __eq__(self, other) -> bool:
        return isinstance(other, NodeView) and other.index is self.index and other.id == self.id

    def __hash__(self) -> int:
        return self.id

    @property
    def s_p(self) -> bytes:
        return self.index.s_p[self.id]

    @property
    def s_v(self) -> bytes:
        return self.index.s_v[self.id]

    @property
    def mixed(self) -> bool:
        """Whether the node has both path and value edges."""
        ix = self.index
        return ix.estart[self.id] < ix.esplit[self.id] < ix.estart[self.id + 1]

    @property
    def dim(self) -> Dimension:
        """The branching dimension; a mixed node's is its first edge's."""
        if self.is_leaf:
            return Dimension.BOT
        return P if self.index.esplit[self.id] > self.index.estart[self.id] else V

    @property
    def is_leaf(self) -> bool:
        return self.index.estart[self.id] == self.index.estart[self.id + 1]

    @property
    def refs(self) -> list[int] | None:
        if not self.is_leaf:
            return None
        reflo = self.index.reflo
        return list(self.index.refs[reflo[self.id] : reflo[self.id + 1]])

    @property
    def children(self) -> list[tuple[Dimension, int, "NodeView"]]:
        ix = self.index
        return [
            (P if e < ix.esplit[self.id] else V, ix.ebyte[e], NodeView(ix, ix.echild[e]))
            for e in range(ix.estart[self.id], ix.estart[self.id + 1])
        ]

    def child(self, dim: Dimension, byte: int) -> "NodeView | None":
        for d, b, node in self.children:
            if d is dim and b == byte:
                return node
        return None

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "NodeView"]]:
        """(depth, node) pairs of this subtree in pre-order, iteratively."""
        stack = [(depth, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            depth += 1
            for _, _, c in reversed(node.children):
                stack.append((depth, c))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodeView {self.id} {self.dim.value} s_p={self.s_p!r} s_v={self.s_v!r}>"


def root(index: RcasIndex) -> NodeView:
    return NodeView(index, 0)


def nodes(index: RcasIndex) -> Iterator[tuple[int, NodeView]]:
    return root(index).walk()


class Node:
    """A hand-made trie node: children are (dim, byte, Node) edges in edge
    order, path edges first, refs is None for an inner node."""

    def __init__(self, s_p: bytes, s_v: bytes, dim: Dimension, children: list, refs: list | None):
        self.s_p = s_p
        self.s_v = s_v
        self.dim = dim
        self.children = children
        self.refs = refs


def make_index(
    top: Node,
    value_width: int,
    scheme: str = "rcas",
    zo_ctx: ZoContext | None = None,
) -> RcasIndex:
    """The flat index of a hand-made tree, laid out as `RcasIndex` says."""
    order = []
    stack = [top]
    while stack:
        node = stack.pop()
        order.append(node)
        stack += [c for _, _, c in reversed(node.children)]
    ids = {id(node): i for i, node in enumerate(order)}
    end = [0] * len(order)
    for i in reversed(range(len(order))):
        children = order[i].children
        end[i] = end[ids[id(children[-1][2])]] if children else i + 1
    estart, esplit, ebyte, echild, refs, reflo = [0], [], [], [], [], [0]
    for node in order:
        esplit.append(len(ebyte) + sum(d is P for d, _, _ in node.children))
        for d, b, child in node.children:
            ebyte.append(b)
            echild.append(ids[id(child)])
        estart.append(len(ebyte))
        refs += node.refs or []
        reflo.append(len(refs))

    def table(subs: list[bytes]) -> tuple[list[bytes], array]:
        """The non-empty substrings in order of first appearance, then the
        empty one, as `rcas.trie._table` lays them out."""
        tab = list(dict.fromkeys(s for s in subs if s)) + [b""]
        ids = {s: i for i, s in enumerate(tab)}
        return tab, array("i", [ids[s] for s in subs])

    p_tab, p_id = table([node.s_p for node in order])
    v_tab, v_id = table([node.s_v for node in order])
    return RcasIndex(
        end=array("i", end),
        p_tab=p_tab,
        v_tab=v_tab,
        p_id=p_id,
        v_id=v_id,
        estart=array("i", estart),
        esplit=array("i", esplit),
        ebyte=bytes(ebyte),
        echild=array("i", echild),
        refs=array("Q", refs),
        reflo=array("Q", reflo),
        value_width=value_width,
        scheme=scheme,
        zo_ctx=zo_ctx,
    )
