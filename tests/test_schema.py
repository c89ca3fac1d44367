from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lst20tools.schema import (
    CLAUSE_LABELS,
    NE_LABELS,
    NE_OUTSIDE,
    POS_TAGS,
    BoundaryPrefix,
    ClauseLabel,
    MalformedLabel,
    NeCategory,
    NeLabel,
    PosTag,
    UnknownCategory,
    UnknownTag,
    clause_transition_valid,
    ne_transition_valid,
    parse_clause_label,
    parse_ne_label,
    parse_pos_tag,
    scan_boundaries,
)
from oracles import bieo_accepts, bieo_spans


class TestTagsets:
    def test_pos_tagset_is_closed_sixteen(self):
        assert len(PosTag) == 16
        assert {t.value for t in PosTag} == {
            "AJ", "AV", "AX", "CC", "CL", "FX", "IJ", "NG",
            "NN", "NU", "PA", "PR", "PS", "PU", "VV", "XX",
        }

    def test_ne_categories_are_ten(self):
        assert len(NeCategory) == 10
        assert {c.value for c in NeCategory} == {
            "TTL", "DES", "PER", "ORG", "LOC", "DTM", "BRN", "MEA", "NUM", "TRM",
        }

    def test_clause_labels_are_four(self):
        assert {l.value for l in ClauseLabel} == {"B_CLS", "I_CLS", "E_CLS", "O"}

    def test_clause_labels_have_the_ne_label_shape(self):
        assert [(l.prefix, l.category) for l in ClauseLabel] == [
            (BoundaryPrefix.B, None),
            (BoundaryPrefix.I, None),
            (BoundaryPrefix.E, None),
            (BoundaryPrefix.O, None),
        ]


class TestParsing:
    def test_parse_pos_tag(self):
        assert parse_pos_tag("NN") is PosTag.NN
        assert parse_pos_tag("VV") is PosTag.VV

    @pytest.mark.parametrize("bad", ["QQ", "nn", " NN", "NN ", "", "N"])
    def test_parse_pos_tag_rejects(self, bad):
        with pytest.raises(UnknownTag):
            parse_pos_tag(bad)

    def test_parse_ne_label(self):
        assert parse_ne_label("B_ORG") == NeLabel(BoundaryPrefix.B, NeCategory.ORG)
        assert parse_ne_label("O") == NE_OUTSIDE
        assert parse_ne_label("O").category is None

    def test_parse_ne_label_unknown_category(self):
        with pytest.raises(UnknownCategory):
            parse_ne_label("B_CAT")

    @pytest.mark.parametrize("bad", ["BORG", "X_ORG", "b_ORG", "", "B-ORG"])
    def test_parse_ne_label_malformed(self, bad):
        with pytest.raises(MalformedLabel):
            parse_ne_label(bad)

    def test_parse_clause_label(self):
        assert parse_clause_label("B_CLS") is ClauseLabel.B_CLS
        assert parse_clause_label("O") is ClauseLabel.O

    @pytest.mark.parametrize("bad", ["B_CL", "B_cls", "BCLS", ""])
    def test_parse_clause_label_malformed(self, bad):
        with pytest.raises(MalformedLabel):
            parse_clause_label(bad)

    def test_round_trip_every_member(self):
        for tag in PosTag:
            assert parse_pos_tag(str(tag)) is tag
        for label in ClauseLabel:
            assert parse_clause_label(str(label)) is label
        assert parse_ne_label(str(NE_OUTSIDE)) == NE_OUTSIDE
        for prefix in (BoundaryPrefix.B, BoundaryPrefix.I, BoundaryPrefix.E):
            for category in NeCategory:
                label = NeLabel(prefix, category)
                assert parse_ne_label(str(label)) == label

    def test_ne_labels_are_interned(self):
        texts = ["O"] + [
            f"{prefix}_{category.value}" for prefix in "BIE" for category in NeCategory
        ]
        assert len(texts) == 31
        for text in texts:
            assert parse_ne_label(text) is parse_ne_label(text)
        assert len({id(parse_ne_label(text)) for text in texts}) == 31
        assert parse_ne_label("O") is NE_OUTSIDE

    def test_outside_cannot_carry_category(self):
        with pytest.raises(MalformedLabel):
            NeLabel(BoundaryPrefix.O, NeCategory.ORG)
        with pytest.raises(MalformedLabel):
            NeLabel(BoundaryPrefix.B, None)


class TestLabelText:
    """Every label carries its string as ``text``, equal to ``str(label)``."""

    @pytest.mark.parametrize(
        "table",
        [
            POS_TAGS,
            NE_LABELS,
            CLAUSE_LABELS,
            {category.value: category for category in NeCategory},
        ],
        ids=["pos", "ne", "clause", "ne-category"],
    )
    def test_text_is_the_table_key(self, table):
        for key, label in table.items():
            assert label.text == str(label) == key

    def test_built_label_equals_the_interned_one(self):
        label = NeLabel(BoundaryPrefix.B, NeCategory.PER)
        assert label.text == "B_PER"
        assert label == NE_LABELS["B_PER"]
        assert hash(label) == hash(NE_LABELS["B_PER"])

    def test_replace_recomputes_text(self):
        label = replace(NE_LABELS["B_PER"], category=NeCategory.ORG)
        assert label.text == "B_ORG"
        assert replace(label, prefix=BoundaryPrefix.E).text == "E_ORG"

    def test_text_is_in_neither_repr_nor_equality(self):
        label = NeLabel(BoundaryPrefix.I, NeCategory.LOC)
        assert "text" not in repr(label)
        assert "I_LOC" not in repr(label)
        object.__setattr__(label, "text", "changed")
        assert label == NE_LABELS["I_LOC"]
        assert hash(label) == hash(NE_LABELS["I_LOC"])


def lab(text):
    return parse_ne_label(text)


class TestNeTransitions:
    def test_entity_continuation(self):
        assert ne_transition_valid(lab("B_ORG"), lab("I_ORG"))

    def test_single_token_entity_closes_on_outside(self):
        assert ne_transition_valid(lab("B_BRN"), lab("O"))

    def test_intermediate_requires_same_category(self):
        assert not ne_transition_valid(lab("I_ORG"), lab("B_PER"))
        assert not ne_transition_valid(lab("I_ORG"), lab("I_PER"))
        assert not ne_transition_valid(lab("B_ORG"), lab("E_PER"))

    def test_sentence_edges(self):
        assert ne_transition_valid(None, lab("B_ORG"))
        assert ne_transition_valid(None, lab("O"))
        assert not ne_transition_valid(None, lab("I_ORG"))
        assert not ne_transition_valid(None, lab("E_ORG"))
        assert ne_transition_valid(lab("B_ORG"), None)
        assert ne_transition_valid(lab("E_ORG"), None)
        assert not ne_transition_valid(lab("I_ORG"), None)
        assert ne_transition_valid(None, None)

    def test_explicit_close_then_reopen(self):
        assert ne_transition_valid(lab("E_ORG"), lab("B_PER"))
        assert not ne_transition_valid(lab("E_ORG"), lab("I_ORG"))
        assert not ne_transition_valid(lab("O"), lab("E_ORG"))

    def test_clause_transitions_mirror_ne(self):
        assert clause_transition_valid(ClauseLabel.B_CLS, ClauseLabel.I_CLS)
        assert clause_transition_valid(ClauseLabel.E_CLS, ClauseLabel.B_CLS)
        assert not clause_transition_valid(ClauseLabel.O, ClauseLabel.I_CLS)
        assert not clause_transition_valid(ClauseLabel.I_CLS, None)


def sequence_accepted(labels, parse, valid):
    """Fold the pairwise transition check over a whole sequence."""
    parsed = [parse(text) for text in labels]
    edges = zip([None] + parsed, parsed + [None])
    return all(valid(a, b) for a, b in edges)


ALPHABET = ("O", "B_ORG", "I_ORG", "E_ORG", "B_PER", "I_PER", "E_PER")
CLAUSE_ALPHABET = ("O", "B_CLS", "I_CLS", "E_CLS")
# Each alphabet with its parser and transition predicate.
LAYERS = (
    (ALPHABET, lab, ne_transition_valid),
    (CLAUSE_ALPHABET, parse_clause_label, clause_transition_valid),
)


def test_fold_matches_regex_oracle_short_sequences():
    for alphabet, parse, valid in LAYERS:
        for length in range(0, 5):
            for labels in product(alphabet, repeat=length):
                assert sequence_accepted(labels, parse, valid) == bieo_accepts(labels), labels


@given(st.data())
def test_fold_matches_regex_oracle_random(data):
    alphabet, parse, valid = data.draw(st.sampled_from(LAYERS))
    labels = data.draw(st.lists(st.sampled_from(alphabet), min_size=0, max_size=9))
    assert sequence_accepted(labels, parse, valid) == bieo_accepts(labels)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scan_boundaries_matches_regex_oracle(data):
    alphabet, parse, _ = data.draw(st.sampled_from(LAYERS))
    labels = data.draw(st.lists(st.sampled_from(alphabet), max_size=12))
    violations, spans = scan_boundaries([parse(text) for text in labels])
    assert (violations == []) == bieo_accepts(labels)
    if not violations:
        assert spans == bieo_spans(labels)


@given(
    st.sampled_from([None] + [f"{p}_{c}" for p in "BIE" for c in ("ORG", "PER")] + ["O"]),
    st.sampled_from([None] + [f"{p}_{c}" for p in "BIE" for c in ("ORG", "PER")] + ["O"]),
)
def test_transition_is_category_symmetric(prev, nxt):
    swap = {"ORG": "PER", "PER": "ORG"}

    def swapped(text):
        if text is None or text == "O":
            return text
        prefix, cat = text.split("_")
        return f"{prefix}_{swap[cat]}"

    def parse(text):
        return None if text is None else lab(text)

    assert ne_transition_valid(parse(prev), parse(nxt)) == ne_transition_valid(
        parse(swapped(prev)), parse(swapped(nxt))
    )
