import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwcycles import cyclejoin
from bwcycles.cyclejoin import (
    ConjugatePair,
    CycleTree,
    FeedbackKind,
    build_tree,
    check_chain_property,
    check_periodic_leaves,
    generic_successor,
    msr_parent,
    pcr_parent,
)
from bwcycles.words import MAX_SCAN_WORDS, ParamSet, Word


def w(text):
    return tuple(int(c) for c in text)


def test_pcr_parent_examples():
    assert pcr_parent(w("001")) == w("000")
    assert pcr_parent(w("112")) == w("012")
    assert pcr_parent(w("021")) == w("011")
    assert pcr_parent(Word(w("011"), 3)) == Word(w("001"), 3)


def test_pcr_parent_rejections():
    with pytest.raises(ValueError, match="^000 is a root; it has no parent$"):
        pcr_parent(w("000"))
    with pytest.raises(ValueError):
        pcr_parent(w("010"))  # not a necklace


def test_msr_parent_examples():
    assert msr_parent(w("0013")) == w("0004")
    assert msr_parent(w("0112")) == w("0022")
    assert msr_parent(w("0211")) == w("0121")
    assert msr_parent(Word(w("1111"), 5)) == Word(w("0211"), 5)


def test_msr_parent_rejections():
    with pytest.raises(ValueError):
        msr_parent(w("0004"))  # root form
    with pytest.raises(ValueError):
        msr_parent(w("0000"))
    with pytest.raises(ValueError):
        msr_parent(w("0101"))  # periodic is fine, but 0110 is not a necklace
        msr_parent(w("0110"))


def test_conjugate_pair_validation():
    ConjugatePair((0, 1), (1, 1))
    with pytest.raises(ValueError):
        ConjugatePair((0, 1), (1, 0))
    with pytest.raises(ValueError):
        ConjugatePair((0, 1), (0, 1))
    with pytest.raises(ValueError):
        ConjugatePair((0, 1), (1, 1, 1))


PCR_534_EDGES = {
    "001": "000", "002": "001", "003": "002", "004": "003",
    "011": "001", "012": "002", "013": "003", "021": "011",
    "022": "012", "031": "021", "111": "011", "112": "012",
}

MSR_534_EDGES = {
    "0013": "0004", "0022": "0013", "0031": "0022", "0103": "0013",
    "0112": "0022", "0121": "0031", "0202": "0112", "0211": "0121",
    "1111": "0211",
}


def test_build_tree_pcr_534():
    tree = build_tree(FeedbackKind.PCR, ParamSet(5, 3, 4))
    assert len(tree) == 13
    assert tree.root == (0, 0, 0)
    got = {n: tree.parent[n] for n in tree.parent if tree.parent[n] is not None}
    assert got == {w(c): w(p) for c, p in PCR_534_EDGES.items()}
    # preorder = colex order of the necklaces
    expected_preorder = [
        "000", "001", "011", "111", "021", "031", "002",
        "012", "112", "022", "003", "013", "004",
    ]
    assert tree.preorder() == [w(x) for x in expected_preorder]
    # conjugate pair of the first edge
    assert tree.pairs[w("001")] == ConjugatePair((0, 0, 0), (1, 0, 0))
    assert tree.pairs[w("112")] == ConjugatePair((0, 1, 2), (1, 1, 2))
    # change indices: first nonzero position, root gets n
    assert tree.change_index[w("000")] == 3
    assert tree.change_index[w("001")] == 3
    assert tree.change_index[w("011")] == 2
    assert tree.change_index[w("111")] == 1


def test_build_tree_msr_534():
    tree = build_tree(FeedbackKind.MSR, ParamSet(5, 3, 4))
    assert len(tree) == 10
    assert tree.root == (0, 0, 0, 4)
    got = {n: tree.parent[n] for n in tree.parent if tree.parent[n] is not None}
    assert got == {w(c): w(p) for c, p in MSR_534_EDGES.items()}
    expected_preorder = [
        "0004", "0013", "0103", "0022", "0112", "0202", "0031", "0121", "0211", "1111",
    ]
    assert tree.preorder() == [w(x) for x in expected_preorder]
    assert tree.pairs[w("0013")] == ConjugatePair((4, 0, 0), (3, 0, 0))
    assert tree.pairs[w("0202")] == ConjugatePair((1, 2, 0), (0, 2, 0))
    assert tree.pairs[w("1111")] == ConjugatePair((2, 1, 1), (1, 1, 1))
    assert tree.change_index[w("0004")] == 4
    assert tree.change_index[w("0103")] == 2


def test_build_tree_pcr_222():
    tree = build_tree(FeedbackKind.PCR, ParamSet(2, 2, 2))
    assert set(tree.parent) == {w("00"), w("01"), w("11")}
    assert tree.parent[w("01")] == w("00")
    assert tree.parent[w("11")] == w("01")


def test_build_tree_msr_requires_small_weight():
    with pytest.raises(ValueError, match=r"missing-symbol rule needs w < t \(got w=4, t=4\)"):
        build_tree(FeedbackKind.MSR, ParamSet(4, 3, 4))
    build_tree(FeedbackKind.MSR, ParamSet(4, 3, 3))  # w = t-1 is fine


def test_build_tree_node_cap():
    with pytest.raises(ValueError, match="scanning 1048576 words would exceed the 100-node cap"):
        build_tree(FeedbackKind.PCR, ParamSet(2, 20, 20), max_nodes=100)
    # 8 words of length 3 pass the scan bound of 3 * 3, then the 4 necklaces exceed 3
    with pytest.raises(ValueError, match="^tree has 4 nodes, above the cap 3$"):
        build_tree(FeedbackKind.PCR, ParamSet(2, 3, 3), max_nodes=3)


def test_build_tree_refuses_scans_past_the_enumerator_limit(monkeypatch):
    def must_not_run(params):
        raise AssertionError("scanned past the limit")

    monkeypatch.setattr(cyclejoin, "words_iter", lambda t, n, w: must_not_run(None))
    # both pass the node cap: 23,242,039 <= 40 * 10^6 and 26,978,328 <= 36 * 10^6
    # words, but the scans read every word of weight <= w (PCR) or every window of
    # weight <= w (MSR): 23,242,039 and C(42,7)
    for kind, params, scanned in [(FeedbackKind.PCR, ParamSet(2, 40, 7), 23242039),
                                  (FeedbackKind.MSR, ParamSet(8, 35, 7), math.comb(42, 7))]:
        with pytest.raises(ValueError) as refused:
            build_tree(kind, params)
        assert str(refused.value) == (f"tree would scan {scanned} words, above the"
                                      f" {MAX_SCAN_WORDS}-word limit of the necklace scan")
    # the MSR scan reads C(27,11) = 13,037,895 windows, not the C(28,11) words of
    # length n+1, so (12,16,11) passes the guard and reaches the (stubbed) scan
    with pytest.raises(AssertionError, match="scanned past the limit"):
        build_tree(FeedbackKind.MSR, ParamSet(12, 16, 11))


def test_build_tree_cap_counts_only_the_weight_bounded_words():
    # 4^12 and 10^7 words in all, but only 37 of weight <= 1 and 28 of weight 2
    pcr = build_tree(FeedbackKind.PCR, ParamSet(4, 12, 1))
    assert pcr.preorder() == [(0,) * 12, (0,) * 11 + (1,)]
    msr = build_tree(FeedbackKind.MSR, ParamSet(10, 6, 2))
    assert msr.preorder() == [w("0000002"), w("0000011"), w("0000101"), w("0001001")]


def test_degenerate_trees():
    lone = build_tree(FeedbackKind.PCR, ParamSet(3, 3, 0))
    assert len(lone) == 1 and lone.children[lone.root] == ()
    msr0 = build_tree(FeedbackKind.MSR, ParamSet(3, 3, 0))
    assert len(msr0) == 1 and msr0.root == (0, 0, 0, 0)


def test_chain_property_examples():
    assert check_chain_property(build_tree(FeedbackKind.PCR, ParamSet(5, 3, 4)))
    assert check_chain_property(build_tree(FeedbackKind.MSR, ParamSet(5, 3, 4)))


def test_periodic_leaves():
    tree = build_tree(FeedbackKind.PCR, ParamSet(5, 3, 4))
    assert check_periodic_leaves(tree)
    # 111 is the periodic non-root node of that tree and must be a leaf
    assert tree.children[w("111")] == ()
    with pytest.raises(ValueError):
        check_periodic_leaves(build_tree(FeedbackKind.MSR, ParamSet(5, 3, 4)))


def test_generic_successor_pcr_chain():
    tree = build_tree(FeedbackKind.PCR, ParamSet(5, 3, 4))
    assert generic_successor(tree, w("000")) == 1
    assert generic_successor(tree, w("100")) == 2
    assert generic_successor(tree, w("200")) == 3
    assert generic_successor(tree, w("300")) == 4
    assert generic_successor(tree, w("400")) == 0
    # a window not touched by any pair keeps the plain register map
    assert generic_successor(tree, w("211")) == 2


def test_generic_successor_msr():
    tree = build_tree(FeedbackKind.MSR, ParamSet(5, 3, 4))
    assert generic_successor(tree, w("000")) == 4
    assert generic_successor(tree, w("100")) == 0
    assert generic_successor(tree, w("210")) == 2
    assert generic_successor(tree, w("111")) == 0


def test_generic_successor_rejects_foreign_window():
    tree = build_tree(FeedbackKind.PCR, ParamSet(2, 2, 2))
    with pytest.raises(ValueError):
        generic_successor(tree, w("21"))


def _walk(tree, start, steps):
    seq = list(start)
    win = tuple(start)
    for _ in range(steps):
        s = generic_successor(tree, win)
        seq.append(s)
        win = win[1:] + (s,)
    return seq


def test_generic_successor_traces_whole_universe():
    from bwcycles.oracle import enumerate_universe, verify_universal_cycle

    for kind, t, n, ww in [
        (FeedbackKind.PCR, 3, 4, 5),
        (FeedbackKind.PCR, 4, 3, 9),
        (FeedbackKind.MSR, 3, 4, 2),
        (FeedbackKind.MSR, 5, 2, 3),
    ]:
        params = ParamSet(t, n, ww)
        tree = build_tree(kind, params)
        size = params.universe_size
        seq = _walk(tree, (0,) * n, size - n)
        universe = enumerate_universe("bounded_words", t=t, n=n, w=params.w_eff)
        assert verify_universal_cycle(seq, universe, window_len=n).ok, (kind, t, n, ww)


@given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 8))
def test_chain_property_holds_everywhere(t, n, ww):
    params = ParamSet(t, n, ww)
    pcr = build_tree(FeedbackKind.PCR, params)
    assert check_chain_property(pcr)
    assert check_periodic_leaves(pcr)
    if params.w_eff < t:
        msr = build_tree(FeedbackKind.MSR, params)
        assert check_chain_property(msr)


def test_tree_exports():
    tree = build_tree(FeedbackKind.MSR, ParamSet(5, 3, 4))
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert '"0004" -> "0013" [label="(400,300)"]' in dot
    blob = tree.to_json_dict()
    assert blob["kind"] == "msr" and blob["node_count"] == 10
    assert blob["root"] == [0, 0, 0, 4]
    by_label = {tuple(nd["label"]): nd for nd in blob["nodes"]}
    assert by_label[(1, 1, 1, 1)]["pair"] == {"sigma": [2, 1, 1], "sigma_hat": [1, 1, 1]}
    import json

    json.dumps(blob)  # must be serializable as-is
