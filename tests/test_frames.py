import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_samples import (
    FRAME_WITNESSES,
    NOUN_ATTESTATIONS,
    VERB_ATTESTATIONS,
    matched_frame_ids,
)
from lst20tools.frames import (
    DEFAULT_FRAME_SPECS,
    FramePattern,
    FrameSet,
    FrameSlot,
    FrameSpecError,
    SlotKind,
    classify_instance,
    classify_lexeme,
    compile_frame,
    default_frameset,
    dump_frameset,
    frame_matches,
    load_frameset,
)
from lst20tools.schema import PosTag
from oracles import frame_match_exists, frame_witness


def tags(*names):
    return [PosTag(n) for n in names]


class CountingTags(list):
    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestCompile:
    def test_plain_slots(self):
        pattern = compile_frame("_ VV AV")
        assert [s.kind for s in pattern.slots] == [
            SlotKind.HOLE,
            SlotKind.EXACT,
            SlotKind.EXACT,
        ]
        assert pattern.slots[1].tag is PosTag.VV
        assert not pattern.slots[1].optional

    def test_optional_slot(self):
        pattern = compile_frame("NN (CL) _ VV")
        assert pattern.slots[1].optional and pattern.slots[1].tag is PosTag.CL

    def test_phrase_slots(self):
        pattern = compile_frame("_ *")
        assert pattern.slots[1].kind is SlotKind.PHRASE
        assert not pattern.slots[1].optional
        assert compile_frame("_ *?").slots[1].optional

    def test_two_holes_rejected(self):
        with pytest.raises(FrameSpecError):
            compile_frame("_ _ VV")

    def test_zero_holes_rejected(self):
        with pytest.raises(FrameSpecError):
            compile_frame("NN VV")

    def test_unknown_tag_rejected(self):
        with pytest.raises(FrameSpecError):
            compile_frame("_ QQ")

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("_ QQ", "unknown tag 'QQ' in frame spec '_ QQ'"),
            ("_ (QQ)", "unknown tag 'QQ' in frame spec '_ (QQ)'"),
            ("_ (VV", "unknown tag '(VV' in frame spec '_ (VV'"),
            ("_ ()", "unknown tag '' in frame spec '_ ()'"),
            ("   ", "empty frame spec"),
            ("NN VV", "frame <anonymous> needs exactly one hole, got 0"),
            ("_ _ VV", "frame <anonymous> needs exactly one hole, got 2"),
        ],
    )
    def test_error_messages(self, spec, message):
        with pytest.raises(FrameSpecError) as info:
            compile_frame(spec)
        assert str(info.value) == message

    def test_frames_share_one_slot_per_item(self):
        first, second = compile_frame("NN (AX) _ *?"), compile_frame("NN (AX) _ *?")
        assert all(a is b for a, b in zip(first.slots, second.slots))

    def test_empty_spec_rejected(self):
        with pytest.raises(FrameSpecError):
            compile_frame("   ")

    def test_spec_round_trip(self):
        for fid, spec in DEFAULT_FRAME_SPECS.items():
            assert compile_frame(spec, fid).spec() == spec


class TestMatcher:
    def test_subject_frame(self):
        frame = compile_frame("_ VV (AV)", "NN.1")
        match = frame_matches(tags("NN", "VV", "AV"), 0, frame)
        assert match is not None
        assert match.alignment == ((0, 1), (1, 2), (2, 3))

    def test_no_match_when_slot_differs(self):
        frame = compile_frame("_ VV (AV)", "NN.1")
        assert frame_matches(tags("CC", "NN", "AV"), 0, frame) is None

    def test_hole_binds_candidate_only(self):
        frame = compile_frame("NN _", "x")
        assert frame_matches(tags("NN", "VV"), 0, frame) is None
        assert frame_matches(tags("NN", "VV"), 1, frame) is not None

    def test_whole_sequence_must_be_covered(self):
        frame = compile_frame("NN VV (NN) _", "AV.1")
        # trailing token after the hole leaves the frame uncovered
        assert frame_matches(tags("NN", "VV", "NN", "AV"), 2, frame) is None

    def test_optional_slot_skipped_and_taken(self):
        frame = compile_frame("NN (AX) _", "x")
        assert frame_matches(tags("NN", "VV"), 1, frame) is not None
        assert frame_matches(tags("NN", "AX", "VV"), 2, frame) is not None

    def test_phrase_consumes_runs(self):
        frame = compile_frame("* _", "x")
        assert frame_matches(tags("NN", "AX", "VV"), 2, frame) is not None
        assert frame_matches(tags("VV",), 0, frame) is None  # phrase needs a token

    def test_greedy_alignment_is_leftmost_longest(self):
        frame = compile_frame("(NN) *? _", "x")
        match = frame_matches(tags("NN", "NN", "VV"), 2, frame)
        assert match.alignment == ((0, 1), (1, 2), (2, 3))

    @pytest.mark.parametrize("last", ["NN", "VV"], ids=["miss", "match"])
    def test_matching_reads_each_tag_once_per_slot(self, last):
        frame = compile_frame("_ * * * * * VV", "x")
        sequence = CountingTags(tags(*["NN"] * 59, last))
        match = frame_matches(sequence, 0, frame)
        assert (match is not None) == (last == "VV")
        assert sequence.reads <= len(frame.slots) * (len(sequence) + 1)

    @pytest.mark.parametrize(
        "spec,n,candidate",
        [("_ VV (AV)", 40, 0), ("NN VV NN CC (AX) (NN) _ *?", 40, 3), ("NN _", 2, 0)],
    )
    def test_frame_outside_its_window_reads_no_tag(self, spec, n, candidate):
        sequence = CountingTags(tags(*["NN"] * n))
        assert frame_matches(sequence, candidate, compile_frame(spec, "x")) is None
        assert sequence.reads == 0

    def test_candidate_out_of_range(self):
        frame = compile_frame("_", "x")
        with pytest.raises(ValueError):
            frame_matches(tags("NN"), 1, frame)

    @pytest.mark.parametrize("sequence,candidate,expected", FRAME_WITNESSES)
    def test_attested_usages_license_their_frames(self, sequence, candidate, expected):
        frameset = default_frameset()
        assert expected in classify_instance(sequence, candidate, frameset)


class TestClassification:
    def test_noun_requires_all_four_frames(self):
        frameset = default_frameset()
        assert classify_lexeme(matched_frame_ids(NOUN_ATTESTATIONS, frameset)) == {"noun"}
        assert classify_lexeme(matched_frame_ids(NOUN_ATTESTATIONS[:1], frameset)) == set()

    def test_verb_requires_core_plus_relative_complement(self):
        frameset = default_frameset()
        assert classify_lexeme(matched_frame_ids(VERB_ATTESTATIONS, frameset)) == {"verb"}
        # the intransitive use alone does not license the class
        assert classify_lexeme(matched_frame_ids(VERB_ATTESTATIONS[:1], frameset)) == set()

    def test_single_token_sentence_matches_nothing(self):
        frameset = default_frameset()
        assert classify_instance(tags("NN"), 0, frameset) == set()

    def test_adjective_and_adverb_from_any_frame(self):
        frameset = default_frameset()
        adjective = matched_frame_ids([(tags("AJ", "NN", "VV"), 0)], frameset)
        assert classify_lexeme(adjective) == {"adjective"}
        adverb = classify_lexeme(matched_frame_ids([(tags("NN", "VV", "AV"), 2)], frameset))
        assert "adverb" in adverb

    def test_monotone_in_attestations(self):
        frameset = default_frameset()
        rng = random.Random(5)
        pool = [p for p in PosTag]
        usages = []
        for _ in range(12):
            n = rng.randint(1, 6)
            seq = [rng.choice(pool) for _ in range(n)]
            usages.append((seq, rng.randint(0, n - 1)))
        previous = set()
        for end in range(1, len(usages) + 1):
            classes = classify_lexeme(matched_frame_ids(usages[:end], frameset))
            assert previous <= classes
            previous = classes


class TestWindow:
    def test_builtin_windows(self):
        windows = {f.frame_id: f.window for f in default_frameset().frames}
        assert windows == {
            "NN.1": (0, 0, 1, 2),
            "NN.2": (2, 2, 0, 1),
            "NN.3": (3, 3, 0, 1),
            "NN.4": (0, 0, 2, 2),
            "VV.1": (1, 2, 0, 1),
            "VV.2": (0, 1, 1, 2),
            "VV.3": (0, 1, 2, 3),
            "VV.4": (2, 3, 0, 2),
            "VV.5": (1, 1, 1, 3),
            "VV.6": (4, 6, 0, math.inf),
            "AJ.1": (1, 2, 1, 1),
            "AJ.2": (0, 0, 2, 2),
            "AJ.3": (1, 1, 3, 3),
            "AJ.4": (2, 2, 2, 2),
            "AV.1": (2, 3, 0, 0),
            "AV.2": (0, 0, 3, 3),
            "AV.3": (0, 0, 3, 3),
            "AV.4": (3, 3, 0, 0),
        }

    def test_phrase_before_hole(self):
        assert compile_frame("* (NN) _ VV").window == (1, math.inf, 1, 1)

    def test_replace_recomputes_and_equality_ignores_window(self):
        frame = compile_frame("_ VV", "x")
        wider = FramePattern(frame.frame_id, compile_frame("_ *").slots)
        assert wider.window == (0, 0, 1, math.inf)
        assert "window" not in repr(frame)
        narrow = FramePattern(*(getattr(frame, name) for name in FramePattern._fields))
        object.__setattr__(narrow, "window", (0, 0, 0, 0))
        assert narrow == frame and hash(narrow) == hash(frame)


class TestFrameSet:
    def test_ships_eighteen_frames(self):
        frameset = default_frameset()
        assert len(frameset.frames) == 18
        assert {f.frame_id for f in frameset.frames} == set(DEFAULT_FRAME_SPECS)

    def test_duplicate_ids_rejected(self):
        frame = compile_frame("_ VV", "X.1")
        with pytest.raises(FrameSpecError):
            FrameSet((frame, frame))

    def test_dump_load_round_trip(self):
        frameset = default_frameset()
        text = dump_frameset(frameset)
        again = load_frameset(text)
        assert again == frameset

    @pytest.mark.parametrize("frame_id", ["A#1", "A:1", " A", "", "A ", "A\nB", "A\rB"])
    def test_dump_refuses_an_id_that_would_not_read_back(self, frame_id):
        frameset = FrameSet((compile_frame("_ VV", frame_id),))
        with pytest.raises(FrameSpecError) as info:
            dump_frameset(frameset)
        assert repr(frame_id) in str(info.value)

    def test_dump_keeps_an_inner_space(self):
        frameset = FrameSet((compile_frame("_ VV", "A B"),))
        assert load_frameset(dump_frameset(frameset)) == frameset

    def test_load_rejects_missing_colon(self):
        with pytest.raises(FrameSpecError):
            load_frameset("NN.1 _ VV\n")

    def test_load_ignores_comments(self):
        frameset = load_frameset("# comment\nX.1: _ VV\n")
        assert tuple(f.frame_id for f in frameset.frames) == ("X.1",)


ALL_TAGS = list(PosTag)


def _random_frame(rng: random.Random) -> FramePattern:
    n = rng.randint(1, 6)
    hole_at = rng.randrange(n)
    slots = []
    for i in range(n):
        if i == hole_at:
            slots.append(FrameSlot(SlotKind.HOLE))
        elif rng.random() < 0.2:
            slots.append(FrameSlot(SlotKind.PHRASE, optional=rng.random() < 0.5))
        else:
            slots.append(
                FrameSlot(
                    SlotKind.EXACT,
                    rng.choice(ALL_TAGS),
                    optional=rng.random() < 0.4,
                )
            )
    return FramePattern("rand", tuple(slots))


def test_matcher_agrees_with_enumeration_oracle_sample():
    rng = random.Random(23)
    frameset = default_frameset()
    frames = list(frameset.frames) + [_random_frame(rng) for _ in range(30)]
    for _ in range(1500):
        frame = rng.choice(frames)
        n = rng.randint(1, 8)
        sequence = [rng.choice(ALL_TAGS) for _ in range(n)]
        candidate = rng.randrange(n)
        match = frame_matches(sequence, candidate, frame)
        expected = frame_match_exists(frame, sequence, candidate)
        assert (match is not None) == expected, (
            frame.spec(), [t.value for t in sequence], candidate
        )
        witness = frame_witness(frame, sequence, candidate)
        assert (match and match.alignment) == witness, (
            frame.spec(), [t.value for t in sequence], candidate
        )


def test_window_rejection_agrees_with_witness_oracle():
    # Up to 14 tokens: past every phrase-free frame's window, with the
    # candidate at either end as well as anywhere between. Tags come mostly
    # from the frame's own slots, so that many usages match.
    rng = random.Random(29)
    frames = list(default_frameset().frames) + [_random_frame(rng) for _ in range(60)]
    for _ in range(2000):
        frame = rng.choice(frames)
        pool = [s.tag for s in frame.slots if s.tag] + [rng.choice(ALL_TAGS)]
        n = rng.randint(1, 14)
        sequence = [rng.choice(pool) for _ in range(n)]
        candidate = rng.choice([0, n - 1, rng.randrange(n)])
        match = frame_matches(sequence, candidate, frame)
        assert (match and match.alignment) == frame_witness(frame, sequence, candidate), (
            frame.spec(), [t.value for t in sequence], candidate
        )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matcher_alignment_covers_sequence(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    frame = _random_frame(rng)
    n = data.draw(st.integers(1, 8))
    sequence = [data.draw(st.sampled_from(ALL_TAGS)) for _ in range(n)]
    candidate = data.draw(st.integers(0, n - 1))
    match = frame_matches(sequence, candidate, frame)
    if match is None:
        return
    # ranges are contiguous, ordered, cover the whole sequence,
    # and the hole binds exactly the candidate index
    position = 0
    for (start, end), slot in zip(match.alignment, frame.slots):
        assert start == position
        assert end >= start
        if slot.kind is SlotKind.HOLE:
            assert (start, end) == (candidate, candidate + 1)
        position = end
    assert position == n
