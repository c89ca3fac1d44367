"""Toolkit for LST20-style multi-layer annotated Thai corpora.

Four annotation layers over pre-tokenized text: POS tags, named-entity
boundaries, clause boundaries and sentence boundaries, in a tab-separated
columnar file format and an inline pipe/slash notation.

Each submodule is imported the first time one of its names is read
(PEP 562), so ``import lst20tools`` and each ``lst20`` command load only
the modules they use.
"""

__version__ = "0.2.0"

# Each submodule and the names the package exports from it. The command-line
# front end exports none.
_EXPORTS = {
    "format": (
        "FORMAT_COLUMNAR",
        "FORMAT_INLINE",
        "SPACE_GLYPH",
        "Document",
        "FormatError",
        "LineError",
        "Sentence",
        "Token",
        "TokenError",
        "WriteError",
        "columnar_records",
        "inline_records",
        "read_columnar",
        "read_inline",
        "sentence_records",
        "write_columnar",
        "write_columnar_records",
        "write_inline",
        "write_inline_records",
    ),
    "frames": (
        "FramePattern",
        "FrameSet",
        "FrameSpecError",
        "classify_instance",
        "classify_lexeme",
        "compile_frame",
        "default_frameset",
        "frame_matches",
    ),
    "schema": (
        "NE_OUTSIDE",
        "BoundaryPrefix",
        "ClauseLabel",
        "MalformedLabel",
        "NeCategory",
        "NeLabel",
        "PosTag",
        "UnknownCategory",
        "UnknownTag",
        "clause_transition_valid",
        "ne_transition_valid",
        "parse_clause_label",
        "parse_ne_label",
        "parse_pos_tag",
    ),
    "segment": (
        "ConfigError",
        "MarkerLexicon",
        "aggregate_sentences",
        "load_marker_lexicon",
        "segment_paragraphs",
        "segment_records",
    ),
    "stats": (
        "CorpusCounts", "document_counts", "load_manifest", "records_counts", "tag_frequency"
    ),
    "validate": (
        "LintIssue",
        "LintReport",
        "Severity",
        "lint_document",
        "lint_records",
    ),
    "cli": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The exported names and the library modules that define them.
__all__ = [*_MODULE_OF, *(module for module, names in _EXPORTS.items() if names)]


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # With a fromlist, __import__ returns the submodule itself. It is the
    # import statement's own machinery, which -X importtime times, and
    # importlib.import_module bypasses.
    submodule = __import__(f"{__name__}.{module}", fromlist=["*"])
    return submodule if module == name else getattr(submodule, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
