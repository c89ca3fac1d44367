"""Lint engine: located diagnostics for label sequences and token-level rules.

Structural label violations are errors; guideline-preference rules
(verbless clauses, singleton clause marks, punctuation/URL splitting) are
warnings. Space tokens may sit inside a clause (I_CLS) or outside (O);
neither is flagged.
"""

from __future__ import annotations

import re
import string
from enum import Enum
from itertools import islice
from operator import attrgetter
from typing import Iterable, Optional

from .format import Document, FormatError, LineError, sentence_records
from .schema import PosTag, _Frozen, scan_boundaries

LAYER_POS = "POS"
LAYER_NE = "NE"
LAYER_CLS = "CLS"
LAYER_FORMAT = "FORMAT"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class LintIssue(_Frozen):
    _fields = __slots__ = ("severity", "code", "message", "sentence", "token", "layer")

    def __init__(self, severity: Severity, code: str, message: str,
                 sentence: Optional[int], token: Optional[int], layer: str) -> None:
        self._set_slots((severity, code, message, sentence, token, layer))

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


class LintReport(_Frozen):
    # error_count and warning_count are counted once, when the report is built,
    # in C-level passes that compare severities by identity: hashing a Severity
    # runs Enum's Python __hash__.
    _fields = ("issues",)
    __slots__ = (*_fields, "error_count", "warning_count")

    def __init__(self, issues: Iterable[LintIssue]) -> None:
        issues = tuple(issues)
        errors = list(map(_SEVERITY, issues)).count(Severity.ERROR)
        self._set_slots((issues, errors, len(issues) - errors))

    def to_dicts(self) -> list[dict]:
        return [issue.to_dict() for issue in self.issues]


def _violation_issues(violations, code_prefix, layer, sentence_idx) -> list[LintIssue]:
    return [
        LintIssue(Severity.ERROR, f"{code_prefix}_{rule}", message, sentence_idx, index, layer)
        for rule, index, message in violations
    ]


def _format_issue(err: FormatError) -> LintIssue:
    """A reader's LineError or TokenError as a FORMAT_LINE/FORMAT_TOKEN lint issue."""
    if isinstance(err, LineError):
        return LintIssue(Severity.ERROR, "FORMAT_LINE", str(err), None, None, LAYER_FORMAT)
    return LintIssue(
        Severity.ERROR, "FORMAT_TOKEN", err.reason, err.sentence, err.token, LAYER_FORMAT
    )


# Each lint rule takes a sentence's columns, never its tokens: words (any text for a
# white-space token), POS tags, NE and clause labels and space flags.
def _ne_rule(ne, sentence_idx) -> list[LintIssue]:
    return _violation_issues(scan_boundaries(ne)[0], "NE", LAYER_NE, sentence_idx)


def _clause_rule(clauses, poses, sentence_idx) -> list[LintIssue]:
    violations, spans = scan_boundaries(clauses)
    issues = _violation_issues(violations, "CLS", LAYER_CLS, sentence_idx)
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


def _token_rule(words, poses, spaces, sentence_idx) -> list[LintIssue]:
    issues: list[LintIssue] = []
    pairs: list[LintIssue] = []  # URL_SPLIT and PUNCT_RUN_SPLIT, which follow the rest
    # Whether the previous token is a URL head or a punctuation mark; a space
    # token is neither, so no pair check spans one.
    head = punct = False
    prev = ""
    for i, surface in enumerate(words):
        if spaces[i]:
            if poses[i] is not PosTag.PU:
                issues.append(LintIssue(Severity.ERROR, "SPACE_NOT_PU",
                                        f"white-space token tagged {poses[i]} instead of PU",
                                        sentence_idx, i, LAYER_POS))
            head = punct = False
            continue
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
    return lint_records(sentence_records(doc.sentences), extra or ())


def lint_records(records, extra: Iterable[LintIssue] = ()) -> LintReport:
    """:func:`lint_document` on ``(index, words, labels, spaces)`` records, as
    ``format.columnar_records`` and the like give them: a token's labels start with its
    POS, NE and clause. ``extra`` is read after the last record."""
    issues: list[LintIssue] = []
    for idx, words, labels, spaces in records:
        poses, ne, clauses = islice(zip(*labels), 3)
        issues += _ne_rule(ne, idx)
        issues += _clause_rule(clauses, poses, idx)
        issues += _token_rule(words, poses, spaces, idx)
    issues += extra
    issues.sort(key=_sort_key)
    return LintReport(tuple(issues))
