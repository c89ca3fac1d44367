"""The public value classes: ``Token``, ``Sentence``, ``Document``,
``LintIssue``, ``LintReport``, ``MarkerLexicon``, ``CorpusCounts``,
``FrameSlot``, ``FramePattern``, ``FrameMatch`` and ``FrameSet``.

Each is built by position and by keyword with the same defaults, compares
and hashes over its constructor's fields only (a field derived from them,
such as ``LintReport.error_count`` or ``FramePattern.window``, takes no
part), prints them in its repr, matches a class pattern by position,
refuses assignment, and survives pickle, ``copy.copy`` and
``copy.deepcopy`` with its derived fields.
"""

import copy
import inspect
import math
import pickle
from collections import Counter

import pytest

from corpus_samples import space_token
from lst20tools.frames import (
    FrameMatch,
    FramePattern,
    FrameSet,
    FrameSlot,
    FrameSpecError,
    SlotKind,
    compile_frame,
    default_frameset,
)
from lst20tools.format import Document, Sentence, Token
from lst20tools.schema import ClauseLabel, NeLabel, PosTag
from lst20tools.segment import MarkerLexicon
from lst20tools.stats import CorpusCounts
from lst20tools.validate import LintIssue, LintReport, Severity

_HOLE = FrameSlot(SlotKind.HOLE)
_VV = FrameSlot(SlotKind.EXACT, PosTag.VV)


def _issue(code="CLS_NO_VERB", severity=Severity.WARNING):
    return LintIssue(severity, code, "clause contains no verb", 2, 0, "CLS")


def _lexicon(extra=""):
    return MarkerLexicon(*(frozenset({name + extra}) for name in "abcdef"))


_TOKEN = Token("a", PosTag.NN, NeLabel.B_PER, ClauseLabel.B_CLS, False)
_SENTENCE = Sentence((_TOKEN, space_token()))

# One instance of each class, built by position.
SAMPLES = {
    "Token": _TOKEN,
    "Sentence": _SENTENCE,
    "Document": Document("T00126", (_SENTENCE,)),
    "LintIssue": _issue(),
    "LintReport": LintReport((_issue(), _issue("NE_ORPHAN_I", Severity.ERROR))),
    "MarkerLexicon": _lexicon(),
    "CorpusCounts": CorpusCounts(1, 2, 3, 4, 5, 6, Counter({"NN": 6}), Counter({"PER": 4})),
    "FrameSlot": FrameSlot(SlotKind.EXACT, PosTag.NN, True),
    "FramePattern": FramePattern("x", (_HOLE, _VV)),
    "FrameMatch": FrameMatch("x", ((0, 1), (1, 2))),
    "FrameSet": FrameSet((FramePattern("x", (_HOLE, _VV)),)),
}

# Each class's constructor parameters, in order.
PARAMETERS = {
    "Token": "surface pos ne clause is_space",
    "Sentence": "tokens",
    "Document": "doc_id sentences",
    "LintIssue": "severity code message sentence token layer",
    "LintReport": "issues",
    "MarkerLexicon": "subordinate_connectors cohesive_markers list_markers particles "
    "question_adverbs reporting_verbs",
    "CorpusCounts": "documents sentences clauses named_entities words tokens pos ne",
    "FrameSlot": "kind tag optional",
    "FramePattern": "frame_id slots",
    "FrameMatch": "frame_id alignment",
    "FrameSet": "frames",
}

# The fields each class derives from its constructor's.
DERIVED = {
    "LintReport": ("error_count", "warning_count"),
    "MarkerLexicon": ("clause_markers",),
    "FramePattern": ("window",),
}


def _fields(value):
    return PARAMETERS[type(value).__name__].split()


def _state(value):
    """Every field of ``value``, derived ones included."""
    names = _fields(value) + list(DERIVED.get(type(value).__name__, ()))
    return {name: getattr(value, name) for name in names}


@pytest.mark.parametrize("name", SAMPLES)
def test_built_by_position_or_keyword_alike(name):
    value = SAMPLES[name]
    cls = type(value)
    assert cls.__name__ == name
    assert list(inspect.signature(cls).parameters) == _fields(value)
    fields = {field: getattr(value, field) for field in _fields(value)}
    by_keyword = cls(**fields)
    assert by_keyword == value and _state(by_keyword) == _state(value)


def test_defaults():
    assert Token("a", PosTag.NN) == Token("a", PosTag.NN, NeLabel.O, ClauseLabel.O, False)
    assert Document("d") == Document("d", ())
    assert FrameSlot(SlotKind.HOLE) == FrameSlot(SlotKind.HOLE, None, False)
    assert (FrameSlot(SlotKind.HOLE).tag, FrameSlot(SlotKind.HOLE).optional) == (None, False)
    empty = CorpusCounts()
    assert empty.to_dict() == dict.fromkeys(PARAMETERS["CorpusCounts"].split()[:6], 0)
    assert (empty.pos, empty.ne) == (Counter(), Counter())
    assert CorpusCounts(sentences=2) == CorpusCounts(0, 2, 0, 0, 0, 0, Counter(), Counter())


def test_no_two_counts_share_a_counter():
    first, second = CorpusCounts(), CorpusCounts()
    counters = [first.pos, first.ne, second.pos, second.ne]
    assert len({id(counter) for counter in counters}) == 4
    first.pos["NN"] += 1
    assert second.pos == Counter() and CorpusCounts().pos == Counter()


@pytest.mark.parametrize("name", SAMPLES)
def test_repr_prints_the_constructor_fields(name):
    value = SAMPLES[name]
    args = ", ".join(f"{field}={getattr(value, field)!r}" for field in _fields(value))
    assert repr(value) == f"{name}({args})"


def test_repr_text():
    assert repr(SAMPLES["LintIssue"]) == (
        "LintIssue(severity=<Severity.WARNING: 'warning'>, code='CLS_NO_VERB', "
        "message='clause contains no verb', sentence=2, token=0, layer='CLS')"
    )
    assert repr(CorpusCounts()) == (
        "CorpusCounts(documents=0, sentences=0, clauses=0, named_entities=0, words=0, "
        "tokens=0, pos=Counter(), ne=Counter())"
    )
    assert repr(compile_frame("_ VV", "x")) == (
        "FramePattern(frame_id='x', slots=(FrameSlot(kind=<SlotKind.HOLE: 'hole'>, tag=None, "
        "optional=False), FrameSlot(kind=<SlotKind.EXACT: 'exact'>, tag=<PosTag.VV: 'VV'>, "
        "optional=False)))"
    )
    assert repr(SAMPLES["FrameMatch"]) == "FrameMatch(frame_id='x', alignment=((0, 1), (1, 2)))"
    token = (
        "Token(surface='a', pos=<PosTag.NN: 'NN'>, ne=<NeLabel.B_PER: 'B_PER'>, "
        "clause=<ClauseLabel.B_CLS: 'B_CLS'>, is_space=False)"
    )
    sentence = (
        f"Sentence(tokens=({token}, Token(surface='␣', pos=<PosTag.PU: 'PU'>, "
        "ne=<NeLabel.O: 'O'>, clause=<ClauseLabel.O: 'O'>, is_space=True)))"
    )
    assert repr(SAMPLES["Token"]) == token
    assert repr(SAMPLES["Sentence"]) == sentence
    assert repr(SAMPLES["Document"]) == f"Document(doc_id='T00126', sentences=({sentence},))"


def _matched(value) -> tuple:
    """The fields a class pattern by position binds of ``value``."""
    match value:
        case Token(surface, pos, ne, clause, is_space):
            return surface, pos, ne, clause, is_space
        case Sentence(tokens):
            return (tokens,)
        case Document(doc_id, sentences):
            return doc_id, sentences
        case LintIssue(severity, code, message, sentence, token, layer):
            return severity, code, message, sentence, token, layer
        case LintReport(issues):
            return (issues,)
        case MarkerLexicon(subordinate, cohesive, lists, particles, questions, reporting):
            return subordinate, cohesive, lists, particles, questions, reporting
        case CorpusCounts(documents, sentences, clauses, entities, words, tokens, pos, ne):
            return documents, sentences, clauses, entities, words, tokens, pos, ne
        case FrameSlot(kind, tag, optional):
            return kind, tag, optional
        case FramePattern(frame_id, slots):
            return frame_id, slots
        case FrameMatch(frame_id, alignment):
            return frame_id, alignment
        case FrameSet(frames):
            return (frames,)


@pytest.mark.parametrize("name", SAMPLES)
def test_a_class_pattern_matches_the_constructor_fields_by_position(name):
    value = SAMPLES[name]
    assert type(value).__match_args__ == tuple(_fields(value))
    assert _matched(value) == tuple(getattr(value, field) for field in _fields(value))


@pytest.mark.parametrize("name", SAMPLES)
def test_equality_and_hash_follow_the_constructor_fields(name):
    value = SAMPLES[name]
    twin = type(value)(*(copy.deepcopy(getattr(value, f)) for f in _fields(value)))
    assert twin == value and not twin != value
    assert value != object() and value != name
    if name != "CorpusCounts":  # its Counters are unhashable, and so is it
        assert hash(twin) == hash(value)
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_a_changed_field_makes_a_different_value():
    assert _TOKEN != Token("a", PosTag.NN, NeLabel.B_PER, ClauseLabel.E_CLS)
    assert _SENTENCE != Sentence((_TOKEN,))
    assert Document("d") != Document("e")
    assert _issue() != _issue("CLS_SINGLETON")
    assert LintReport((_issue(),)) != LintReport(())
    assert _lexicon() != _lexicon("!")
    assert CorpusCounts(1) != CorpusCounts(2)
    assert CorpusCounts(pos=Counter({"NN": 1})) != CorpusCounts()
    assert _HOLE != FrameSlot(SlotKind.HOLE, optional=True)
    assert FramePattern("x", (_HOLE, _VV)) != FramePattern("y", (_HOLE, _VV))
    assert FrameMatch("x", ((0, 1),)) != FrameMatch("x", ((0, 0),))
    assert FrameSet(()) != default_frameset()


def test_derived_fields_take_no_part_in_equality_or_repr():
    frame = compile_frame("_ VV", "x")
    narrow = FramePattern(frame.frame_id, frame.slots)
    object.__setattr__(narrow, "window", (0, 0, 0, 0))
    assert narrow == frame and hash(narrow) == hash(frame)
    report = LintReport((_issue(),))
    odd = LintReport((_issue(),))
    object.__setattr__(odd, "error_count", 5)
    assert odd == report and hash(odd) == hash(report)
    for value in (frame, report, _lexicon()):
        assert not any(f"{name}=" in repr(value) for name in DERIVED[type(value).__name__])


def test_derived_fields():
    report = SAMPLES["LintReport"]
    assert (report.error_count, report.warning_count) == (1, 1)
    assert report.to_dicts() == [issue.to_dict() for issue in report.issues]
    assert SAMPLES["LintIssue"].to_dict() == {
        "severity": "warning", "code": "CLS_NO_VERB", "message": "clause contains no verb",
        "sentence": 2, "token": 0, "layer": "CLS",
    }
    assert _lexicon().clause_markers == frozenset("abcde")
    assert MarkerLexicon.default().clause_markers >= MarkerLexicon.default().particles
    assert compile_frame("* (NN) _ VV").window == (1, math.inf, 1, 1)
    assert compile_frame("* (NN) _ VV", "v").spec() == "* (NN) _ VV"


def test_iterables_are_held_as_tuples():
    issues = [_issue()]
    assert LintReport(issues).issues == (_issue(),)
    frames = [compile_frame("_ VV", "x")]
    assert FrameSet(frames).frames == tuple(frames)
    assert LintReport(iter(issues)).error_count == 0
    assert Sentence([_TOKEN]).tokens == (_TOKEN,)
    assert Document("d", iter([_SENTENCE])).sentences == (_SENTENCE,)


def test_counts_add():
    total = SAMPLES["CorpusCounts"] + CorpusCounts(1, pos=Counter({"NN": 1, "VV": 2}))
    assert total == CorpusCounts(2, 2, 3, 4, 5, 6, Counter({"NN": 7, "VV": 2}), Counter({"PER": 4}))


@pytest.mark.parametrize("name", SAMPLES)
def test_no_field_can_be_assigned_or_deleted(name):
    value = SAMPLES[name]
    for field in [*_fields(value), *DERIVED.get(name, ())]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


@pytest.mark.parametrize("name", SAMPLES)
@pytest.mark.parametrize(
    "copier",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trips(name, copier):
    value = SAMPLES[name]
    twin = copier(value)
    assert type(twin) is type(value)
    assert twin == value and _state(twin) == _state(value)
    if name == "CorpusCounts" and copier is not copy.copy:
        assert twin.pos is not value.pos


# A LintReport, a CorpusCounts, a MarkerLexicon, a FrameSet and a FrameMatch
# as the pickle module wrote them when all were dataclasses (protocol 4).
_PICKLED = (
    b"\x80\x04\x95i\x02\x00\x00\x00\x00\x00\x00(\x8c\x13lst20tools.validate\x94\x8c\nLintRepor"
    b"t\x94\x93\x94)\x81\x94]\x94(h\x00\x8c\tLintIssue\x94\x93\x94)\x81\x94]\x94(h\x00\x8c\x08"
    b"Severity\x94\x93\x94\x8c\x07warning\x94\x85\x94R\x94\x8c\x0bCLS_NO_VERB\x94\x8c\x17claus"
    b"e contains no verb\x94K\x02K\x00\x8c\x03CLS\x94eb\x85\x94K\x00K\x01eb\x8c\x10lst20tools."
    b"stats\x94\x8c\x0cCorpusCounts\x94\x93\x94)\x81\x94]\x94(K\x01K\x02K\x03K\x04K\x05K\x06"
    b"\x8c\x0bcollections\x94\x8c\x07Counter\x94\x93\x94}\x94\x8c\x02NN\x94K\x06s\x85\x94R\x94"
    b"h\x19}\x94\x8c\x03PER\x94K\x04s\x85\x94R\x94eb\x8c\x12lst20tools.segment\x94\x8c\rMarker"
    b"Lexicon\x94\x93\x94)\x81\x94]\x94((\x8c\x01a\x94\x91\x94(\x8c\x01b\x94\x91\x94(\x8c\x01c"
    b"\x94\x91\x94(\x8c\x01d\x94\x91\x94(\x8c\x01e\x94\x91\x94(\x8c\x01f\x94\x91\x94(h'h-h)h/h"
    b"+\x91\x94eb\x8c\x11lst20tools.frames\x94\x8c\x08FrameSet\x94\x93\x94)\x81\x94]\x94h4\x8c"
    b"\x0cFramePattern\x94\x93\x94)\x81\x94]\x94(\x8c\x01x\x94h4\x8c\tFrameSlot\x94\x93\x94)"
    b"\x81\x94]\x94(h4\x8c\x08SlotKind\x94\x93\x94\x8c\x04hole\x94\x85\x94R\x94N\x89ebh?)\x81"
    b"\x94]\x94(hC\x8c\x05exact\x94\x85\x94R\x94\x8c\x11lst20tools.schema\x94\x8c\x06PosTag"
    b"\x94\x93\x94\x8c\x02VV\x94\x85\x94R\x94\x89eb\x86\x94(K\x00K\x00K\x01K\x01t\x94eb\x85"
    b"\x94abh4\x8c\nFrameMatch\x94\x93\x94)\x81\x94]\x94(h=K\x00K\x01\x86\x94K\x01K\x02\x86"
    b"\x94\x86\x94ebt\x94."
)


def test_earlier_pickles_still_load():
    report, counts, lexicon, frameset, match = pickle.loads(_PICKLED)
    assert report == LintReport((_issue(),))
    assert (report.error_count, report.warning_count) == (0, 1)
    assert counts == SAMPLES["CorpusCounts"]
    assert lexicon == _lexicon() and lexicon.clause_markers == frozenset("abcde")
    assert frameset == SAMPLES["FrameSet"] and frameset.frames[0].window == (0, 0, 1, 1)
    assert match == SAMPLES["FrameMatch"]


def test_the_token_layer_refuses_what_it_cannot_hold():
    refused = [
        (lambda: Token("", PosTag.NN), "token surface must be non-empty"),
        (lambda: Token("a\nb", PosTag.NN), "token surface must not contain tab or newline"),
        (lambda: Token("_", PosTag.PU, is_space=True), "space tokens use the canonical surface '␣'"),
        (lambda: Sentence(iter(())), "sentence must contain at least one token"),
        (lambda: Document("", [_SENTENCE]), "document id must be non-empty"),
    ]
    for build, message in refused:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def test_frames_need_exactly_one_hole():
    for slots, holes in (((), 0), ((_VV,), 0), ((_HOLE, _VV, _HOLE), 2)):
        with pytest.raises(FrameSpecError, match=f"^frame y needs exactly one hole, got {holes}$"):
            FramePattern("y", slots)
    with pytest.raises(FrameSpecError, match="frame <anonymous> needs exactly one hole, got 0"):
        FramePattern("", (_VV,))


def test_a_frameset_refuses_a_duplicate_id():
    frame = compile_frame("_ VV", "X.1")
    with pytest.raises(FrameSpecError, match=r"^duplicate frame id 'X\.1'$"):
        FrameSet((frame, compile_frame("_ NN", "X.2"), compile_frame("NN _", "X.1")))
    with pytest.raises(FrameSpecError, match="duplicate frame id"):
        FrameSet(iter([frame, frame]))
