"""Toolkit for LST20-style multi-layer annotated Thai corpora.

Four annotation layers over pre-tokenized text: POS tags, named-entity
boundaries, clause boundaries and sentence boundaries, in a tab-separated
columnar file format and an inline pipe/slash notation.
"""

from .format import (
    FORMAT_COLUMNAR,
    FORMAT_INLINE,
    SPACE_GLYPH,
    Document,
    FormatError,
    LineError,
    Sentence,
    Token,
    TokenError,
    WriteError,
    read_columnar,
    read_inline,
    space_token,
    write_columnar,
    write_inline,
)
from .frames import (
    FramePattern,
    FrameSet,
    FrameSpecError,
    classify_instance,
    classify_lexeme,
    compile_frame,
    default_frameset,
    frame_matches,
)
from .schema import (
    NE_OUTSIDE,
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
)
from .segment import (
    ConfigError,
    MarkerLexicon,
    aggregate_sentences,
    detect_clauses,
    load_marker_lexicon,
    segment_paragraphs,
)
from .stats import CorpusCounts, document_counts, load_manifest, tag_frequency
from .validate import (
    LintIssue,
    LintReport,
    Severity,
    lint_document,
    validate_clause_sequence,
    validate_ne_sequence,
    validate_token_tags,
)

__version__ = "0.1.0"
