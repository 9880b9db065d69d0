"""The package's records: constructors, reprs, equality, hashes, immutability and
validation messages, pinned to the text they had as dataclasses."""

import pickle

import pytest

from bwcycles.cli import _Cell
from bwcycles.combmaps import CombObject, Encoding, ucycle_subsets
from bwcycles.cyclejoin import ConjugatePair, CycleTree, FeedbackKind, build_tree, generic_successor
from bwcycles.grandmama import GenStats, UCycle, generate_concat
from bwcycles.msr import ConjectureReport, check_conjecture
from bwcycles.oracle import VerifyReport, _Coded, verify_stream
from bwcycles.words import NecklaceInfo, ParamSet, Word, necklace_info

P = ParamSet(3, 2, 1)

# (record, its repr as a dataclass printed it)
REPRS = [
    (Word((0, 1, 2), 3), "Word(symbols=(0, 1, 2), t=3)"),
    (Word([1, 0], 2), "Word(symbols=(1, 0), t=2)"),
    (ParamSet(3, 4, 5), "ParamSet(t=3, n=4, w=5)"),
    (ParamSet(2, 3, 9), "ParamSet(t=2, n=3, w=9)"),
    (necklace_info((0, 1, 0, 1)), "NecklaceInfo(is_necklace=True, aperiodic_prefix_len=2)"),
    (NecklaceInfo(False, None), "NecklaceInfo(is_necklace=False, aperiodic_prefix_len=None)"),
    (GenStats(), "GenStats(symbols=0, necklace_tests=0, comparisons=0)"),
    (GenStats(5, 2, 3), "GenStats(symbols=5, necklace_tests=2, comparisons=3)"),
    (generate_concat(P), "UCycle(symbols=(0, 0, 1), params=ParamSet(t=3, n=2, w=1),"
                         " engine='grandmama-concat', scheme=None, scheme_params=None)"),
    (ucycle_subsets(4, 2), "UCycle(symbols=(1, 1, 2, 2, 1, 3), params=ParamSet(t=3, n=2, w=2),"
                           " engine='grandmama-concat', scheme='subset_difference',"
                           " scheme_params=(4, 2))"),
    (check_conjecture(P), "ConjectureReport(t=3, n=2, w=1, holds=True, length_msr=3,"
                          " length_reverse_colex=3, first_divergence=None)"),
    (CombObject("subset", 5, 3, [1, 3, 4]),
     "CombObject(kind='subset', n=5, k=3, elements=(1, 3, 4))"),
    (CombObject("multiset", 3, 2, (2, 2)),
     "CombObject(kind='multiset', n=3, k=2, elements=(2, 2))"),
    (Encoding("s", None, 1, None, None, "r", "u", "h"),
     "Encoding(scheme='s', cell=None, shift=1, decode=None, accepts=None, refusal='r',"
     " universe='u', help='h')"),
    (ConjugatePair((1, 0), (0, 0)), "ConjugatePair(sigma=(1, 0), sigma_hat=(0, 0))"),
    (build_tree(FeedbackKind.PCR, ParamSet(2, 2, 1)),
     "CycleTree(kind=<FeedbackKind.PCR: 'pcr'>, params=ParamSet(t=2, n=2, w=1), root=(0, 0),"
     " parent={(0, 0): None, (0, 1): (0, 0)}, children={(0, 0): ((0, 1),), (0, 1): ()},"
     " change_index={(0, 0): 2, (0, 1): 2}, pairs={(0, 0): None,"
     " (0, 1): ConjugatePair(sigma=(0, 0), sigma_hat=(1, 0))}, depth={(0, 0): 0, (0, 1): 1})"),
    (build_tree(FeedbackKind.MSR, ParamSet(3, 2, 2)),
     "CycleTree(kind=<FeedbackKind.MSR: 'msr'>, params=ParamSet(t=3, n=2, w=2), root=(0, 0, 2),"
     " parent={(0, 0, 2): None, (0, 1, 1): (0, 0, 2)},"
     " children={(0, 1, 1): (), (0, 0, 2): ((0, 1, 1),)},"
     " change_index={(0, 1, 1): 2, (0, 0, 2): 3}, pairs={(0, 0, 2): None,"
     " (0, 1, 1): ConjugatePair(sigma=(2, 0), sigma_hat=(1, 0))},"
     " depth={(0, 0, 2): 0, (0, 1, 1): 1})"),
    (verify_stream([[0, 0, 1]], "bounded_words", t=2, n=2, w=1),
     "VerifyReport(ok=True, window_len=2, cycle_len=3, expected_count=3, window_count=3,"
     " missing=[], duplicated=[], unexpected=[], truncated=False)"),
    (verify_stream([[0, 1]], "bounded_words", t=2, n=2, w=1),
     "VerifyReport(ok=False, window_len=2, cycle_len=2, expected_count=3, window_count=2,"
     " missing=[(0, 0)], duplicated=[], unexpected=[], truncated=False)"),
    (_Coded(2, 2, b"\x01", 1, set()), "_Coded(t=2, n=2, marks=b'\\x01', size=1, stray=set())"),
    (_Coded(2, 2, {1: 1}, 1, {(3,)}), "_Coded(t=2, n=2, marks={1: 1}, size=1, stray={(3,)})"),
    (_Cell("words", P), "_Cell(kind='words', params=ParamSet(t=3, n=2, w=1), enc=None, nk=None,"
                        " shift=0)"),
    (_Cell("subsets", ParamSet(3, 2, 2), None, (4, 2), 1),
     "_Cell(kind='subsets', params=ParamSet(t=3, n=2, w=2), enc=None, nk=(4, 2), shift=1)"),
]

FROZEN = [Word((0, 1), 2), ParamSet(3, 4, 5), NecklaceInfo(True, 2), generate_concat(P),
          check_conjecture(P), CombObject("subset", 5, 3, (1, 3, 4)),
          Encoding("s", None, 1, None, None, "r", "u", "h"), ConjugatePair((1, 0), (0, 0))]

UNHASHABLE = [GenStats(), build_tree(FeedbackKind.PCR, ParamSet(2, 2, 1)),
              VerifyReport(True, 1, 1, 1, 1)]


@pytest.mark.parametrize("record, text", REPRS, ids=[text[:24] for _, text in REPRS])
def test_reprs_are_the_dataclass_reprs(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _", REPRS, ids=[text[:24] for _, text in REPRS])
def test_a_record_equals_its_rebuild_and_survives_pickling(record, _):
    rebuilt = type(record)(*(getattr(record, name) for name in record.__match_args__))
    assert rebuilt == record and not rebuilt != record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_differ_by_any_field_and_by_class():
    assert Word((0, 1), 2) != Word((0, 1), 3) and Word((0, 1), 2) != Word((1, 0), 2)
    assert ParamSet(3, 4, 5) != ParamSet(3, 4, 4)
    assert GenStats(1, 2, 3) != GenStats(1, 2, 4)
    assert CombObject("subset", 5, 2, (1, 3)) != CombObject("multiset", 5, 2, (1, 3))
    assert ConjugatePair((1, 0), (0, 0)) != ConjugatePair((0, 0), (1, 0))
    assert UCycle((0, 0, 1), P, "a") != UCycle((0, 0, 1), P, "b")
    assert VerifyReport(True, 1, 1, 1, 1) != VerifyReport(True, 1, 1, 1, 1, truncated=True)
    # a slotted record equals only its own class; NamedTuples are tuples
    assert ParamSet(3, 4, 5) != (3, 4, 5) and GenStats(1, 2, 3) != (1, 2, 3)
    assert NecklaceInfo(True, 2) == (True, 2)


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_hash_their_fields_and_refuse_assignment(record):
    values = tuple(getattr(record, name) for name in record.__match_args__)
    assert hash(record) == hash(values)
    assert len({record, type(record)(*values)}) == 1
    name = record.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == values[0]


@pytest.mark.parametrize("record", UNHASHABLE, ids=lambda r: type(r).__name__)
def test_mutable_records_have_no_hash(record):
    with pytest.raises(TypeError):
        hash(record)


def test_constructors_keep_their_keywords_and_defaults():
    assert Word(symbols=[0, 1], t=2).symbols == (0, 1)
    assert ParamSet(t=3, n=4, w=5) == ParamSet(3, 4, 5)
    assert UCycle(symbols=(0,), params=P, engine="e") == UCycle((0,), P, "e", None, None)
    stats = GenStats(necklace_tests=2)
    stats.add(symbols=1, tests=1, comparisons=4)
    assert (stats.symbols, stats.necklace_tests, stats.comparisons) == (1, 3, 4)
    first, second = VerifyReport(True, 1, 1, 1, 1), VerifyReport(True, 1, 1, 1, 1)
    assert first.missing == first.duplicated == first.unexpected == [] and not first.truncated
    assert first.missing is not second.missing
    first.ok = False
    assert not first.ok
    assert _Coded(2, 2, b"\x01", 1).stray == set()
    assert _Cell("words", P) == _Cell("words", P, None, None, 0)


def test_cycle_tree_cache_is_left_out_of_equality_and_repr():
    used, fresh = (build_tree(FeedbackKind.PCR, ParamSet(3, 3, 2)) for _ in range(2))
    assert generic_successor(used, (0, 0, 0)) == 1
    assert used._successor_map is not None and fresh._successor_map is None
    assert used == fresh and repr(used) == repr(fresh)
    assert "_successor_map" not in repr(used)
    assert CycleTree(**{name: getattr(fresh, name) for name in fresh.__match_args__}) == fresh


VALIDATION = [
    (lambda: Word((0,), 0), "alphabet size must be >= 1, got 0"),
    (lambda: Word((0, 3), 3), "symbol 3 out of range for alphabet size 3"),
    (lambda: Word((0, -1), 3), "symbol -1 out of range for alphabet size 3"),
    (lambda: Word(("1",), 3), "symbol '1' out of range for alphabet size 3"),
    (lambda: ParamSet(0, 2, 1), "alphabet size t must be >= 1, got 0"),
    (lambda: ParamSet(2, 0, 1), "word length n must be >= 1, got 0"),
    (lambda: ParamSet(2, 2, -1), "weight ceiling w must be >= 0, got -1"),
    (lambda: CombObject("set", 3, 2, (1, 2)), "kind must be subset or multiset, got 'set'"),
    (lambda: CombObject("subset", 0, 2, (1, 2)), "need n, k >= 1, got n=0 k=2"),
    (lambda: CombObject("subset", 3, 2, (1,)), "expected 2 elements, got 1"),
    (lambda: CombObject("subset", 3, 2, (1, 4)), "element 4 outside 1..3"),
    (lambda: CombObject("subset", 2, 3, (1, 2, 2)), "a subset cannot have k=3 > n=2"),
    (lambda: CombObject("subset", 3, 2, (2, 2)), "subset elements must be strictly increasing"),
    (lambda: CombObject("multiset", 3, 2, (2, 1)), "multiset elements must be sorted"),
    (lambda: ConjugatePair((1, 0), (0,)), "conjugate pair windows must have equal length"),
    (lambda: ConjugatePair((1, 0), (0, 1)),
     "conjugate pair windows must differ exactly in the first symbol"),
    (lambda: ConjugatePair((), ()),
     "conjugate pair windows must differ exactly in the first symbol"),
    (lambda: ConjugatePair((1, 0), (1, 0)),
     "conjugate pair windows must differ in the first symbol"),
    (lambda: generic_successor(build_tree(FeedbackKind.PCR, P), (2, 2)),
     "window 22 is outside the universe of ParamSet(t=3, n=2, w=1)"),
]


@pytest.mark.parametrize("build, message", VALIDATION, ids=[m for _, m in VALIDATION])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message
