"""Cycle-joining trees for two shift registers, and the generic joined successor.

Two feedback functions are covered:

- PCR (pure cycling register): the feedback symbol is the window's first symbol,
  so the register's cycles are the rotation classes of weight-bounded words and
  each cycle is named by its necklace.
- MSR (missing symbol register): the feedback symbol is w minus the window
  weight. Each cycle is named by a necklace of length n+1 and weight exactly w;
  the windows on that cycle are the length-n prefixes of its rotations.

A parent rule maps every non-root necklace to another necklace one step closer
to the all-zero root; drawing an edge per node yields a spanning tree of the
register's cycles. Each edge carries a conjugate pair (two windows differing
only in their first symbol, one per endpoint cycle); swapping the successors of
the two windows of every edge splices all cycles into one universal cycle. That
splice, applied to the plain register map, is ``generic_successor``: the slow,
obviously-correct reference the O(n)-per-symbol rules are tested against.
``build_tree`` reads both trees' labels in one scan of ``words.words_iter``
through the necklace-period test, and takes the MSR's w < t guard from
``bwcycles.msr``.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Sequence

from bwcycles.msr import _require_small_weight
from bwcycles.words import (MAX_SCAN_WORDS, ParamSet, Word, _colex_key, _Frozen, _period_count,
                            _Record, _render, _symbols, necklace_info, words_iter)

__all__ = [
    "FeedbackKind",
    "ConjugatePair",
    "CycleTree",
    "pcr_parent",
    "msr_parent",
    "build_tree",
    "check_chain_property",
    "check_periodic_leaves",
    "generic_successor",
]

DEFAULT_NODE_CAP = 10**6


class FeedbackKind(Enum):
    PCR = "pcr"
    MSR = "msr"


class ConjugatePair(_Frozen):
    """Two windows that differ exactly in their first symbol.

    ``sigma`` sits on the parent's cycle, ``sigma_hat`` on the child's; swapping
    their successors merges the two cycles.
    """

    __slots__ = __match_args__ = ("sigma", "sigma_hat")

    def __init__(self, sigma: tuple[int, ...], sigma_hat: tuple[int, ...]) -> None:
        if len(sigma) != len(sigma_hat):
            raise ValueError("conjugate pair windows must have equal length")
        if not sigma or sigma[1:] != sigma_hat[1:]:
            raise ValueError("conjugate pair windows must differ exactly in the first symbol")
        if sigma[0] == sigma_hat[0]:
            raise ValueError("conjugate pair windows must differ in the first symbol")
        self._fill(sigma, sigma_hat)


def _first_nonzero(word: tuple[int, ...]) -> int:
    """0-based index of the first nonzero symbol, or -1 if all zero."""
    for i, s in enumerate(word):
        if s:
            return i
    return -1


def _change_index(word: tuple[int, ...]) -> int:
    """1-based first-nonzero position; the all-zero convention is the full length."""
    j = _first_nonzero(word)
    return len(word) if j < 0 else j + 1


def _pcr_parent(word: tuple[int, ...]) -> tuple[int, ...]:
    j = _first_nonzero(word)
    return word[:j] + (word[j] - 1,) + word[j + 1 :]


def _msr_parent(word: tuple[int, ...]) -> tuple[int, ...]:
    j = _first_nonzero(word)
    return word[:j] + (word[j] - 1, word[j + 1] + 1) + word[j + 2 :]


def _pcr_pair(child: tuple[int, ...]) -> ConjugatePair:
    j = _first_nonzero(child)
    tail = child[j + 1 :] + child[:j]
    return ConjugatePair(sigma=(child[j] - 1,) + tail, sigma_hat=(child[j],) + tail)


def _msr_pair(child: tuple[int, ...]) -> ConjugatePair:
    # child has length n+1; the pair lives in length-n window space
    j = _first_nonzero(child)
    tail = child[j + 2 :] + child[:j]
    return ConjugatePair(sigma=(child[j + 1] + 1,) + tail, sigma_hat=(child[j + 1],) + tail)


def _checked_parent(word: "Word | Sequence[int]", rule: Callable, span: int):
    """``rule`` applied to a necklace that has a nonzero symbol with ``span - 1``
    positions after it; the others are roots (0...0, and 0...0w for MSR)."""
    syms = _symbols(word)
    if not necklace_info(syms).is_necklace:
        raise ValueError(f"{_render(syms)} is not a necklace")
    if not 0 <= _first_nonzero(syms) <= len(syms) - span:
        raise ValueError(f"{_render(syms)} is a root; it has no parent")
    out = rule(syms)
    return Word(out, word.t) if isinstance(word, Word) else out


def pcr_parent(word: "Word | Sequence[int]"):
    """Parent of a nonzero necklace under the pure-cycling-register rule.

    Decrement the first nonzero symbol. The result is again a necklace of the
    same length with weight one lower. Given a Word, returns a Word; given a
    plain sequence, returns a tuple.
    """
    return _checked_parent(word, _pcr_parent, 1)


def msr_parent(word: "Word | Sequence[int]"):
    """Parent of a necklace under the missing-symbol-register rule.

    Decrement the first nonzero symbol and increment the one after it, keeping
    the weight fixed. Defined for every weight-w necklace except the root form
    0...0w, whose first nonzero symbol is the last position.
    """
    return _checked_parent(word, _msr_parent, 2)


class CycleTree(_Record):
    """A rooted spanning tree over the cycles of one feedback register.

    Nodes are necklace labels (tuples). ``children`` lists each node's children
    in ascending change-index order, which makes the preorder walk visit labels
    in colex order (PCR) or reverse colex order (MSR). Every non-root node
    carries the conjugate pair of the edge to its parent. ``_successor_map``
    caches ``generic_successor``'s map; equality and the repr leave it out.
    """

    __match_args__ = ("kind", "params", "root", "parent", "children", "change_index", "pairs",
                      "depth")
    __slots__ = __match_args__ + ("_successor_map",)

    def __init__(
        self,
        kind: FeedbackKind,
        params: ParamSet,
        root: tuple[int, ...],
        parent: dict[tuple[int, ...], tuple[int, ...] | None],
        children: dict[tuple[int, ...], tuple[tuple[int, ...], ...]],
        change_index: dict[tuple[int, ...], int],
        pairs: dict[tuple[int, ...], ConjugatePair | None],
        depth: dict[tuple[int, ...], int],
        _successor_map: dict[tuple[int, ...], int] | None = None,
    ) -> None:
        self._fill(kind, params, root, parent, children, change_index, pairs, depth)
        self._successor_map = _successor_map

    def __len__(self) -> int:
        return len(self.parent)

    def preorder(self) -> list[tuple[int, ...]]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(self.children[node]))
        return out

    def edges_root_down(self) -> list[tuple[int, ...]]:
        """Non-root nodes ordered by depth (ties broken by preorder position)."""
        order = {node: i for i, node in enumerate(self.preorder())}
        nodes = [n for n in order if n != self.root]
        nodes.sort(key=lambda n: (self.depth[n], order[n]))
        return nodes

    def to_dot(self) -> str:
        lines = ["digraph cycletree {", "  rankdir=TB;"]
        for node in self.preorder():
            lines.append(
                f'  "{_render(node)}" [label="{_render(node)}\\nc={self.change_index[node]}"];'
            )
        for node in self.preorder():
            pair = self.pairs[node]
            if pair is None:
                continue
            lines.append(
                f'  "{_render(self.parent[node])}" -> "{_render(node)}"'
                f' [label="({_render(pair.sigma)},{_render(pair.sigma_hat)})"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        nodes = []
        for node in self.preorder():
            pair = self.pairs[node]
            nodes.append(
                {
                    "label": list(node),
                    "change_index": self.change_index[node],
                    "depth": self.depth[node],
                    "parent": None if self.parent[node] is None else list(self.parent[node]),
                    "pair": None
                    if pair is None
                    else {"sigma": list(pair.sigma), "sigma_hat": list(pair.sigma_hat)},
                }
            )
        return {
            "kind": self.kind.value,
            "t": self.params.t,
            "n": self.params.n,
            "w": self.params.w_eff,
            "node_count": len(self),
            "root": list(self.root),
            "nodes": nodes,
        }


def build_tree(
    kind: FeedbackKind, params: ParamSet, max_nodes: int = DEFAULT_NODE_CAP
) -> CycleTree:
    """Materialize the full parent-rule tree for one register.

    Both trees read their labels in one scan of the ``params.universe_size``
    bounded words, so this is for desk-scale instances: a PCR label is a word
    that is a necklace, and for w < t an MSR label of length n+1 is a window
    with its missing symbol appended that is one. Trees above ``max_nodes``
    (default 10^6) are refused, and so, before the scan, are cells with more
    than ``max_nodes`` * L candidate words: each length-L necklace stands for at
    most L of them. So are cells with more candidates than ``MAX_SCAN_WORDS``.
    """
    msr = kind is FeedbackKind.MSR
    if msr:
        t, n, w = _require_small_weight(params)
        label_len, root, parent_of, pair_of = n + 1, (0,) * n + (w,), _msr_parent, _msr_pair
    else:
        t, n, w = params.t, params.n, params.w_eff
        label_len, root, parent_of, pair_of = n, (0,) * n, _pcr_parent, _pcr_pair
    words = params.universe_size
    if words > max_nodes * label_len:
        raise ValueError(f"scanning {words} words would exceed the {max_nodes}-node cap")
    if words > MAX_SCAN_WORDS:
        raise ValueError(f"tree would scan {words} words, above the"
                         f" {MAX_SCAN_WORDS}-word limit of the necklace scan")
    found = words_iter(t, n, w)
    if msr:
        found = (win + (w - sum(win),) for win in found)
    labels = sorted((lab for lab in found if _period_count(lab, label_len)[0]), key=_colex_key)
    if len(labels) > max_nodes:
        raise ValueError(f"tree has {len(labels)} nodes, above the cap {max_nodes}")

    parent: dict = {root: None}
    pairs: dict = {root: None}
    kids: dict = {label: [] for label in labels}
    for label in labels:
        if label == root:
            continue
        par = parent_of(label)
        if par not in kids:
            raise RuntimeError(f"parent {_render(par)} of {_render(label)} left the node set")
        parent[label] = par
        pairs[label] = pair_of(label)
        kids[par].append(label)

    change_index = {label: _change_index(label) for label in labels}
    children = {
        label: tuple(sorted(kids[label], key=lambda c: change_index[c])) for label in labels
    }
    depth: dict = {root: 0}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in children[node]:
            depth[child] = depth[node] + 1
            stack.append(child)
    if len(depth) != len(labels):
        raise RuntimeError("parent rule produced a disconnected structure")
    return CycleTree(
        kind=kind,
        params=params,
        root=root,
        parent=parent,
        children=children,
        change_index=change_index,
        pairs=pairs,
        depth=depth,
    )


def check_chain_property(tree: CycleTree) -> bool:
    """No two edges into the same node may use pair windows with the same tail.

    Equal tails at one node would make the successor swaps interfere, so this
    is the structural condition behind the O(n)-per-symbol successor rules.
    """
    for node in tree.parent:
        tails = [tree.pairs[c].sigma[1:] for c in tree.children[node]]
        if len(set(tails)) != len(tails):
            return False
    return True


def check_periodic_leaves(tree: CycleTree) -> bool:
    """Every periodic non-root necklace in a PCR tree must be a leaf."""
    if tree.kind is not FeedbackKind.PCR:
        raise ValueError("the periodic-leaf claim is specific to PCR trees")
    for node in tree.parent:
        if node == tree.root:
            continue
        info = necklace_info(node)
        if info.aperiodic_prefix_len != len(node) and tree.children[node]:
            return False
    return True


def _feedback_map(tree: CycleTree) -> dict[tuple[int, ...], int]:
    t, n, w = tree.params.t, tree.params.n, tree.params.w_eff
    if tree.kind is FeedbackKind.MSR:
        return {win: w - sum(win) for win in words_iter(t, n, w)}
    return {win: win[0] for win in words_iter(t, n, w)}


def generic_successor(tree: CycleTree, window: "Word | Sequence[int]") -> int:
    """Successor of a window in the universal cycle defined by the tree.

    Starts from the register's own map (rotate for PCR, emit the missing symbol
    for MSR) and applies every edge's conjugate-pair swap in root-down order.
    The map is materialized once per tree and cached, so this is a reference
    implementation for small instances, not a streaming generator.
    """
    if tree._successor_map is None:
        emit = _feedback_map(tree)
        for child in tree.edges_root_down():
            pair = tree.pairs[child]
            emit[pair.sigma], emit[pair.sigma_hat] = emit[pair.sigma_hat], emit[pair.sigma]
        tree._successor_map = emit
    syms = _symbols(window)
    try:
        return tree._successor_map[syms]
    except KeyError:
        raise ValueError(
            f"window {_render(syms)} is outside the universe of {tree.params}"
        ) from None
