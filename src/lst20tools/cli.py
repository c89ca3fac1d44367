"""Command-line front end: validate / convert / segment / stats / frames.

Exit codes: 0 success (and no lint errors), 1 lint errors or conversion
failures, 2 usage, IO or configuration problems. Diagnostics go to
stderr; data goes to stdout or the ``--output`` path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import format as fmt
from . import frames as frames_mod
from . import segment as segment_mod
from . import stats as stats_mod
from . import validate as validate_mod
from .format import FORMAT_COLUMNAR, FORMAT_INLINE, Corpus, Document
from .validate import LintIssue, LintReport, Severity

EXIT_OK = 0
EXIT_ISSUES = 1
EXIT_USAGE = 2


def format_report(report: LintReport, mode: str = "text", filename: str = "") -> str:
    """Render a lint report as human-readable text or as JSON."""
    if mode == "json":
        return json.dumps(report.to_dicts(), ensure_ascii=False, indent=2) + "\n"
    if mode != "text":
        raise ValueError("mode must be 'text' or 'json'")
    prefix = f"{filename}:" if filename else ""
    lines = []
    for issue in report.issues:
        where = (
            f"{issue.sentence}:{issue.token}"
            if issue.sentence is not None
            else "-:-"
        )
        lines.append(
            f"{prefix}{where}: {issue.severity} {issue.code} [{issue.layer}] {issue.message}"
        )
    summary = f"{report.error_count} errors, {report.warning_count} warnings"
    lines.append(f"{filename}: {summary}" if filename else summary)
    return "\n".join(lines) + "\n"


def _expand_inputs(paths: Sequence[str]) -> list[Path]:
    files: list[Path] = []
    for name in paths:
        path = Path(name)
        if path.is_dir():
            files.extend(
                sorted(p for p in path.iterdir() if p.is_file()),
            )
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {name}")
    return files


def _read_document(path: Path, informat: str, strict: bool):
    """Parse one input file; returns (Document, format_issues)."""
    text = path.read_text(encoding="utf-8")
    issues: list[LintIssue] = []
    if strict:
        errors = None
    else:
        errors = []
    if informat == FORMAT_COLUMNAR:
        doc = fmt.read_columnar(text, path.name, errors=errors)
    else:
        sentences = fmt.read_inline(text, errors=errors)
        doc = Document(path.name, tuple(sentences))
    for err in errors or []:
        if isinstance(err, fmt.LineError):
            issues.append(
                LintIssue(
                    Severity.ERROR,
                    "FORMAT_LINE",
                    str(err),
                    None,
                    None,
                    validate_mod.LAYER_FORMAT,
                )
            )
        else:
            issues.append(
                LintIssue(
                    Severity.ERROR,
                    "FORMAT_TOKEN",
                    err.reason,
                    err.sentence,
                    err.token,
                    validate_mod.LAYER_FORMAT,
                )
            )
    return doc, issues


def _open_output(args, inputs: Sequence[Path]):
    if args.output is None:
        return sys.stdout
    out = Path(args.output)
    if any(out.resolve() == p.resolve() for p in inputs):
        raise ValueError(f"refusing to overwrite input path {out}")
    return open(out, "w", encoding="utf-8", newline="")


def _write(out, text: str) -> None:
    out.write(text)
    if out is not sys.stdout:
        out.close()


def _cmd_validate(args) -> int:
    inputs = _expand_inputs(args.inputs)
    had_errors = False
    chunks = []
    json_entries = []
    for path in inputs:
        try:
            doc, format_issues = _read_document(path, args.informat, args.strict)
        except (fmt.FormatError, UnicodeDecodeError) as exc:
            print(f"{path.name}: {exc}", file=sys.stderr)
            had_errors = True
            continue
        report = validate_mod.lint_document(doc, extra=format_issues)
        if report.error_count:
            had_errors = True
        if args.json:
            for entry in report.to_dicts():
                entry["file"] = path.name
                json_entries.append(entry)
        else:
            chunks.append(format_report(report, "text", path.name))
    if args.json:
        output = json.dumps(json_entries, ensure_ascii=False, indent=2) + "\n"
    else:
        output = "".join(chunks)
    _write(_open_output(args, inputs), output)
    return EXIT_ISSUES if had_errors else EXIT_OK


def _cmd_convert(args) -> int:
    inputs = _expand_inputs(args.inputs)
    if len(inputs) != 1:
        raise ValueError("convert takes exactly one input file")
    path = inputs[0]
    text = path.read_text(encoding="utf-8")
    errors: Optional[list] = None if args.strict else []
    try:
        converted = fmt.convert(
            args.informat, args.outformat, text, doc_id=path.stem, errors=errors
        )
    except fmt.FormatError as exc:
        print(f"{path.name}: {exc}", file=sys.stderr)
        return EXIT_ISSUES
    for err in errors or []:
        print(f"{path.name}: {err}", file=sys.stderr)
    _write(_open_output(args, inputs), converted)
    return EXIT_ISSUES if errors else EXIT_OK


def _load_lexicon(args) -> segment_mod.MarkerLexicon:
    if args.lexicon:
        return segment_mod.load_marker_lexicon(
            Path(args.lexicon).read_text(encoding="utf-8")
        )
    return segment_mod.MarkerLexicon.default()


def _cmd_segment(args) -> int:
    inputs = _expand_inputs(args.inputs)
    if len(inputs) != 1:
        raise ValueError("segment takes exactly one input file")
    path = inputs[0]
    lexicon = _load_lexicon(args)
    cfg = segment_mod.SegmenterConfig(subject_shift=args.subject_shift)
    doc, format_issues = _read_document(path, args.informat, args.strict)
    for issue in format_issues:
        print(f"{path.name}: {issue.message}", file=sys.stderr)
    # Each input sentence block (columnar) or line (inline) is one paragraph.
    paragraphs = [s.tokens for s in doc.sentences]
    sentences, starts = segment_mod.segment_paragraphs(paragraphs, lexicon, cfg)
    result = Document(path.stem, tuple(sentences), paragraph_starts=tuple(starts))
    if args.outformat == FORMAT_COLUMNAR:
        output = fmt.write_columnar(result)
    else:
        output = fmt.write_inline(result.sentences, layers=4)
    _write(_open_output(args, inputs), output)
    return EXIT_ISSUES if format_issues else EXIT_OK


def _cmd_stats(args) -> int:
    inputs = _expand_inputs(args.inputs)
    genres = {}
    if args.manifest:
        genres = stats_mod.load_manifest(
            Path(args.manifest).read_text(encoding="utf-8")
        )
    totals = stats_mod.CorpusCounts()
    genre_hist: dict[str, int] = {}
    pos_hist: dict[str, int] = {}
    ne_hist: dict[str, int] = {}
    for path in inputs:
        doc, _ = _read_document(path, args.informat, args.strict)
        if doc.doc_id in genres or path.stem in genres:
            doc = Document(
                doc.doc_id,
                doc.sentences,
                genre=genres.get(doc.doc_id, genres.get(path.stem)),
            )
        corpus = Corpus((doc,))
        totals = totals + stats_mod.document_counts(doc, args.include_spaces)
        for key, count in stats_mod.genre_histogram(corpus).items():
            genre_hist[key] = genre_hist.get(key, 0) + count
        for key, count in stats_mod.tag_frequency(corpus, "pos").items():
            pos_hist[key] = pos_hist.get(key, 0) + count
        for key, count in stats_mod.tag_frequency(corpus, "ne").items():
            ne_hist[key] = ne_hist.get(key, 0) + count
    if args.json:
        payload = {
            "counts": totals.to_dict(),
            "genres": dict(sorted(genre_hist.items())),
            "pos": dict(sorted(pos_hist.items())),
            "ne": dict(sorted(ne_hist.items())),
        }
        output = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    else:
        lines = [f"{name}\t{value}" for name, value in totals.to_dict().items()]
        for title, hist in (("genre", genre_hist), ("pos", pos_hist), ("ne", ne_hist)):
            for key, count in sorted(hist.items()):
                lines.append(f"{title}:{key}\t{count}")
        output = "\n".join(lines) + "\n"
    _write(_open_output(args, inputs), output)
    return EXIT_OK


def _load_frameset(args) -> frames_mod.FrameSet:
    if args.frames:
        return frames_mod.load_frameset(Path(args.frames).read_text(encoding="utf-8"))
    return frames_mod.default_frameset()


def _cmd_frames(args) -> int:
    frameset = _load_frameset(args)
    if args.frames_command == "dump":
        _write(_open_output(args, []), frames_mod.dump_frameset(frameset))
        return EXIT_OK
    # frames check
    inputs = _expand_inputs(args.inputs)
    if len(inputs) != 1:
        raise ValueError("frames check takes exactly one input file")
    path = inputs[0]
    doc, _ = _read_document(path, args.informat, args.strict)
    attestations = []
    lines = []
    for s_idx, sentence in enumerate(doc.sentences):
        content = [t for t in sentence.tokens if not t.is_space]
        pos_sequence = [t.pos for t in content]
        for c_idx, token in enumerate(content):
            if token.surface != args.word:
                continue
            matched = frames_mod.classify_instance(pos_sequence, c_idx, frameset)
            attestations.append((pos_sequence, c_idx))
            lines.append(
                f"sentence {s_idx}, token {c_idx}: "
                + (" ".join(sorted(matched)) if matched else "-")
            )
    classes = frames_mod.classify_lexeme(attestations, frameset) if attestations else set()
    if not attestations:
        lines.append(f"no occurrences of {args.word!r}")
    lines.append("classes: " + (" ".join(sorted(classes)) if classes else "-"))
    _write(_open_output(args, inputs), "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lst20",
        description="Validate, convert, segment and count LST20-style annotated Thai text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, many_inputs=False, inputs_required=True):
        if inputs_required:
            nargs = "+" if many_inputs else 1
            p.add_argument("inputs", nargs=nargs, metavar="PATH")
        p.add_argument(
            "--from",
            dest="informat",
            choices=(FORMAT_COLUMNAR, FORMAT_INLINE),
            default=FORMAT_COLUMNAR,
        )
        p.add_argument("--strict", action="store_true", help="abort on the first parse error")
        p.add_argument("-o", "--output", default=None, help="write data here instead of stdout")

    p_validate = sub.add_parser("validate", help="lint annotation layers")
    add_common(p_validate, many_inputs=True)
    p_validate.add_argument("--json", action="store_true")
    p_validate.set_defaults(func=_cmd_validate)

    p_convert = sub.add_parser("convert", help="convert between columnar and inline")
    add_common(p_convert)
    p_convert.add_argument(
        "--to",
        dest="outformat",
        choices=(FORMAT_COLUMNAR, FORMAT_INLINE),
        required=True,
    )
    p_convert.set_defaults(func=_cmd_convert)

    p_segment = sub.add_parser(
        "segment",
        help="detect clause boundaries and sentence breaks "
        "(each input sentence block or line is treated as a paragraph)",
    )
    add_common(p_segment)
    p_segment.add_argument(
        "--to",
        dest="outformat",
        choices=(FORMAT_COLUMNAR, FORMAT_INLINE),
        default=FORMAT_COLUMNAR,
    )
    p_segment.add_argument("--lexicon", default=None, help="marker lexicon config file")
    p_segment.add_argument(
        "--subject-shift",
        choices=segment_mod.SUBJECT_SHIFT_STRATEGIES,
        default="heuristic",
    )
    p_segment.set_defaults(func=_cmd_segment)

    p_stats = sub.add_parser("stats", help="corpus counts and tag histograms")
    add_common(p_stats, many_inputs=True)
    p_stats.add_argument("--manifest", default=None, help="document-id to genre map")
    p_stats.add_argument("--json", action="store_true")
    p_stats.add_argument(
        "--include-spaces",
        action="store_true",
        help="count white-space tokens as words",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_frames = sub.add_parser("frames", help="distributional test frames")
    frames_sub = p_frames.add_subparsers(dest="frames_command", required=True)
    p_dump = frames_sub.add_parser("dump", help="print the frame definitions")
    p_dump.add_argument("--frames", default=None, help="frame definition file")
    p_dump.add_argument("-o", "--output", default=None)
    p_dump.set_defaults(func=_cmd_frames)
    p_check = frames_sub.add_parser(
        "check", help="match a word's attested usages against the frames"
    )
    add_common(p_check)
    p_check.add_argument("--word", required=True, help="surface form to look up")
    p_check.add_argument("--frames", default=None, help="frame definition file")
    p_check.set_defaults(func=_cmd_frames)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except fmt.FormatError as exc:
        print(f"lst20: {exc}", file=sys.stderr)
        return EXIT_ISSUES
    except (
        OSError,
        ValueError,
        segment_mod.ConfigError,
        frames_mod.FrameSpecError,
    ) as exc:
        print(f"lst20: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
