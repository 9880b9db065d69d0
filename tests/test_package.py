"""The package's top level re-exports its six library modules' ``__all__`` lists."""

import bwcycles
from bwcycles import combmaps, cyclejoin, grandmama, msr, oracle, words

# the names the top level exported when it listed them by hand
EXPORTED = [
    "CombObject", "ConjectureReport", "ConjugatePair", "CycleTree", "FeedbackKind", "GenStats",
    "NecklaceInfo", "ParamSet", "UCycle", "VerifyReport", "Word", "build_tree",
    "check_chain_property", "check_conjecture", "check_periodic_leaves", "colex_less",
    "count_bounded_words", "decode_window", "diff_to_multiset", "diff_to_subset",
    "enumerate_bounded_necklaces", "enumerate_universe", "fixed_weight_expand",
    "freq_to_multiset", "generate_by_successor", "generate_concat", "generate_msr",
    "generate_reverse_colex", "generic_successor", "iter_concat_prefixes", "msr_parent",
    "multiset_to_diff", "multiset_to_freq", "necklace_info", "pcr_parent", "subset_to_diff",
    "successor_h1", "successor_h2", "ucycle_multisets_diff", "ucycle_multisets_freq",
    "ucycle_subsets", "verify_listing", "verify_stream", "verify_universal_cycle", "weight",
    "window_at", "words_iter",
]


def test_top_level_is_the_modules_lists_joined():
    modules = (combmaps, cyclejoin, grandmama, msr, oracle, words)
    assert bwcycles.__all__ == [name for module in modules for name in module.__all__]
    assert len(bwcycles.__all__) == len(set(bwcycles.__all__)) == 59


def test_every_exported_name_resolves_to_its_module_object():
    for module in (combmaps, cyclejoin, grandmama, msr, oracle, words):
        for name in module.__all__:
            assert getattr(bwcycles, name) is getattr(module, name), name


def test_no_name_exported_before_is_dropped():
    assert len(EXPORTED) == 47
    assert set(EXPORTED) <= set(bwcycles.__all__)
    # the one stream generate, verify and decode read is among the additions
    assert "engine_chunks" in bwcycles.__all__


def test_star_import_binds_every_name():
    scope = {}
    exec("from bwcycles import *", scope)
    assert set(bwcycles.__all__) <= set(scope)
