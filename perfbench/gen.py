"""Seeded input generator for the benchmark workloads.

It writes columnar files sized to the published LST20 ratios into a work
directory and returns a
plan: the CLI calls to make and, for each, the results the output checks
expect. Nothing here imports lst20tools or the test suite. The files are
written from the published format description, and every expected count,
defect location and frame id comes from what the generator itself planted,
so the checks stay independent of the code under test.

Shape targets are the published LST20 ratios: 3,745 documents, 74,180
sentences, 248,962 clauses, 288,020 named entities, 3,164,864 words, that is
about 20 sentences per document, 43 tokens and 3.4 clauses per sentence and
0.09 entities per word. One token in eight is a white-space token.

The POS mix, the NE-category mix and the segment-raw junction rates are not
taken from published per-tag counts: they are assumptions, fixed here so
that every commit is measured on the same traffic (see DESIGN.md).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from pathlib import Path
from statistics import NormalDist

# --- shape parameters -------------------------------------------------------

#: Tokens per document: log-normal, median 17 sentences of 43 tokens; with
#: this sigma the mean is ~19.8 sentences. A document is filled with whole
#: sentences up to its size, so its token count, not only its sentence
#: count, is the same for every seed.
DOC_TOKENS_MEDIAN, DOC_TOKENS_SIGMA, DOC_TOKENS_RANGE = 17 * 43, 0.55, (86, 3870)
#: Extra clauses per sentence: 1 + Binomial(10, 0.236) has mean 3.36.
EXTRA_CLAUSE_TRIALS, EXTRA_CLAUSE_P = 10, 0.236
#: Non-space tokens per clause (mean ~11), so a sentence has ~37 words and,
#: with spaces, ~43 tokens.
CLAUSE_WORDS_SHAPE, CLAUSE_WORDS_MEAN = 4.0, 11.1
#: Chance of a white space between two words inside a clause. Together with
#: the space between clauses this makes one token in eight a space.
INTRA_SPACE_P = 0.088
#: Chance that a word opens a named entity; spans are 1-3 words long, which
#: gives ~0.09 entities per word.
NE_START_P = 0.18
NE_LENGTHS = (1, 1, 1, 1, 1, 2, 2, 2, 3, 3)
#: One word in this many is a URL (a surface that contains '/').
URL_EVERY = 400

#: Share of corpus-release documents that are drafts with injected defects.
DRAFT_SHARE = 0.10
DEFECTS_PER_DRAFT = 3
# Each pass over a workload's calls takes 1-4 s at the commit that defined
# the benchmark, so a run repeats every call several times.
#: corpus-release: documents per shard directory, shards per pass.
SHARD_DOCS, SHARDS = 2, 100
#: convert-roundtrip: documents per pass.
CONVERT_DOCS = 100
#: segment-raw: files per pass, and how many of them hold one long
#: paragraph of LONG_TOKENS tokens whose only verb is its last word.
SEGMENT_FILES, SEGMENT_LONG_FILES = 400, 12
LONG_TOKENS = (1500, 4000)
#: frames-lexicon: planted words (one concordance file each) per pass, and
#: attestations of each "long" word, in LST20-length sentences.
FRAME_WORDS, LONG_ATTESTATIONS = 150, 24
#: Input files whose labels and parsed size the traced run measures.
SAMPLE_FILES = 8
#: Tail percentile per workload: at least 10 of a pass's inputs lie beyond it.
TAIL_PERCENTILE = {"corpus-release": 90, "convert-roundtrip": 90, "segment-raw": 97.5, "frames-lexicon": 90}

#: Assumed, not measured: no per-tag LST20 counts were at hand. Nouns and
#: verbs lead and all 16 tags occur. The mix decides how often a frame
#: matches and how much of the EX frames' backtracking runs.
POS_WEIGHTS = {
    "NN": 28, "VV": 14, "PS": 8, "AJ": 6, "AV": 5, "AX": 5, "CC": 5, "CL": 4,
    "NU": 4, "PR": 4, "PU": 3, "NG": 2, "PA": 2, "FX": 1, "XX": 1, "IJ": 0.5,
}
#: Entity categories are drawn uniformly: also an assumption.
NE_CATEGORIES = ("PER", "ORG", "LOC", "DTM", "NUM", "MEA", "TTL", "DES", "BRN", "TRM")

# --- vocabulary -------------------------------------------------------------

_CONSONANTS = "กขคจฉชซญดตถทธนบปผฝพฟภมยรลวศสหอฮ"
# No ะ and no tone marks: no generated word can equal a marker-lexicon entry.
_VOWELS = ("า", "ิ", "ี", "ุ", "ู", "ำ")
_PUNCT = ("(", ")", ",", ":", "%", "ๆ", "ฯ", "…")
_VOCAB_SIZES = {
    "NN": 600, "VV": 250, "AJ": 120, "AV": 80, "AX": 30, "CC": 25, "CL": 40,
    "PR": 30, "PS": 40, "NG": 5, "PA": 15, "FX": 10, "XX": 10, "IJ": 10,
}

#: Markers planted by segment-raw; written to the lexicon file it passes.
LEXICON = {
    "subordinate_connectors": ("ซึ่ง", "ที่", "ว่า"),
    "cohesive_markers": ("อย่างไรก็ตาม", "นอกจากนี้"),
    "list_markers": ("เช่น", "ได้แก่"),
    "particles": ("ครับ", "ค่ะ"),
    "question_adverbs": ("ไหม",),
    "reporting_verbs": ("กล่าว", "บอก"),
    "auxiliaries": ("กำลัง",),
}

#: The built-in frames at the time the benchmark was defined, plus three with
#: two or three '*' slots. EX.1 and EX.2 each fail on most sentences only
#: after trying every split of the words after the hole, so the matcher's
#: cost grows with sentence length.
FRAME_SPECS = {
    "NN.1": "_ VV (AV)",
    "NN.2": "NN VV _ (AV)",
    "NN.3": "NN VV PS _ (AV)",
    "NN.4": "_ CL AJ",
    "VV.1": "NN (AX) _ (AV)",
    "VV.2": "(AX) _ NN (AV)",
    "VV.3": "(AX) _ NN NN (AV)",
    "VV.4": "NN (AX) NN _ (NN) (AV)",
    "VV.5": "NN _ VV (NN) (AV)",
    "VV.6": "NN VV NN CC (AX) (NN) _ *?",
    "AJ.1": "NN (CL) _ VV",
    "AJ.2": "_ NN VV",
    "AJ.3": "NN _ NU CL VV",
    "AJ.4": "NN NU _ CL VV",
    "AV.1": "NN VV (NN) _",
    "AV.2": "_ NN VV NN",
    "AV.3": "_ NN VV NN",
    "AV.4": "NN VV NN _",
    "EX.1": "* _ * * VV",
    "EX.2": "* _ * * NU",
    "EX.3": "* PS * _ *?",
}
#: Frames planted per word class; EX words get LST20-length sentences.
_CLASS_FRAMES = {
    "noun": (("NN.1", "NN.2", "NN.3", "NN.4"),),
    "verb": (("VV.1", "VV.2", "VV.3", "VV.4", "VV.5"), ("VV.6",)),
    "adjective": (("AJ.1", "AJ.2", "AJ.3", "AJ.4"),),
    "adverb": (("AV.1", "AV.2", "AV.4"),),
    "long": (("EX.1", "EX.2", "EX.1", "EX.2", "EX.3"),) * LONG_ATTESTATIONS,
}
_CLASS_TAG = {"noun": "NN", "verb": "VV", "adjective": "AJ", "adverb": "AV", "long": "NN"}


def _make_vocabulary() -> dict[str, list[str]]:
    # Fixed across seeds: the seed varies the text, not the lexicon.
    rng = random.Random(20200811)
    seen: set[str] = set()
    vocab: dict[str, list[str]] = {}
    for tag, size in _VOCAB_SIZES.items():
        words = []
        while len(words) < size:
            word = "".join(
                rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                for _ in range(rng.choice((2, 2, 3)))
            )
            if word not in seen:
                seen.add(word)
                words.append(word)
        vocab[tag] = words
    vocab["PU"] = list(_PUNCT)
    vocab["NU"] = [str(n) for n in range(1, 2600, 7)]
    return vocab


VOCAB = _make_vocabulary()
_TAGS = tuple(POS_WEIGHTS)
_TAG_WEIGHTS = tuple(POS_WEIGHTS.values())
_NONVERB_TAGS = tuple(t for t in _TAGS if t != "VV")
_NONVERB_WEIGHTS = tuple(POS_WEIGHTS[t] for t in _NONVERB_TAGS)
_SUBJECT_TAGS = ("NN", "NN", "NN", "PR", "AJ", "NU")

SPACE = ("_", "PU", "O")  # columnar white-space word, with its POS and NE


#: A sentence is a list of token rows [word, pos, ne, clause].
Rows = list[list[str]]


# --- token-level helpers ----------------------------------------------------


def _word(rng: random.Random, tag: str) -> str:
    return rng.choice(VOCAB[tag])


def _url(rng: random.Random) -> str:
    host = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(4, 9)))
    return f"https://www.{host}.co.th/news/{rng.randint(1, 99999)}/{rng.randint(1, 30)}"


def _tags(rng: random.Random, n: int, *, verbs: bool = True) -> list[str]:
    """n POS tags, no two punctuation tags in a row."""
    tags = (
        rng.choices(_TAGS, _TAG_WEIGHTS, k=n)
        if verbs
        else rng.choices(_NONVERB_TAGS, _NONVERB_WEIGHTS, k=n)
    )
    for i in range(1, n):
        if tags[i] == "PU" and tags[i - 1] == "PU":
            tags[i] = "NN"
    return tags


_URL_P = sum(_TAG_WEIGHTS) / (POS_WEIGHTS["NN"] * URL_EVERY)


def _words(rng: random.Random, tags: list[str], *, urls: bool = True) -> list[list[str]]:
    rows: list[list[str]] = []
    for tag in tags:
        if rows and "/" in rows[-1][0] and tag in ("NU", "PU"):
            tag = "NN"  # digits or '%' after a URL would read as a split URL
        if urls and tag == "NN" and rng.random() < _URL_P:
            rows.append([_url(rng), "NN", "O", "O"])
        else:
            rows.append([_word(rng, tag), tag, "O", "O"])
    return rows


def _add_entities(rng: random.Random, rows: list[list[str]], lo: int, hi: int) -> None:
    """Label NE spans over words rows[lo:hi], never over a verb or a URL."""
    i = lo
    while i < hi:
        if rng.random() >= NE_START_P:
            i += 1
            continue
        length = rng.choice(NE_LENGTHS)
        end = min(hi, i + length)
        if any(r[1] == "VV" or "/" in r[0] for r in rows[max(0, i - 1):end]):
            i += 1
            continue
        cat = rng.choice(NE_CATEGORIES)
        tag = "NU" if cat in ("NUM", "MEA") else "NN"
        for j in range(i, end):
            rows[j][1] = tag
            rows[j][0] = _word(rng, tag)
        rows[i][2] = f"B_{cat}"
        for j in range(i + 1, end):
            rows[j][2] = f"{'E' if j == end - 1 else 'I'}_{cat}"
        i = end + 1


def _space_inside(rng: random.Random, rows: list[list[str]], first: int) -> list[list[str]]:
    """Insert white spaces between words after index ``first``, never
    inside a named entity."""
    out = []
    for i, row in enumerate(rows):
        if i > max(first, 0) and row[2][:2] not in ("I_", "E_") and rng.random() < INTRA_SPACE_P:
            out.append(list(SPACE) + ["O"])
        out.append(row)
    return out


# --- corpus documents -------------------------------------------------------


def _clause(rng: random.Random, *, verbless: bool = False) -> list[list[str]]:
    """One labelled clause: B_CLS .. E_CLS over >= 2 words, with a verb."""
    n = max(2, round(rng.gammavariate(CLAUSE_WORDS_SHAPE, CLAUSE_WORDS_MEAN / CLAUSE_WORDS_SHAPE)))
    tags = _tags(rng, n, verbs=not verbless)
    if not verbless and "VV" not in tags:
        tags[rng.randrange(1, min(4, n))] = "VV"
    rows = _words(rng, tags)
    _add_entities(rng, rows, 0, n)
    rows = _space_inside(rng, rows, 0)
    rows[0][3] = "B_CLS"
    for row in rows[1:-1]:
        row[3] = "I_CLS"
    rows[-1][3] = "E_CLS"
    return rows


def _sentence(rng: random.Random) -> Rows:
    clauses = 1 + sum(rng.random() < EXTRA_CLAUSE_P for _ in range(EXTRA_CLAUSE_TRIALS))
    rows: list[list[str]] = []
    for k in range(clauses):
        if k:
            rows.append(list(SPACE) + ["O"])
        rows.extend(_clause(rng))
    return rows


def _stratified(rng: random.Random, n: int, median: float, sigma: float, lo: int, hi: int) -> list[int]:
    """n sizes from a log-normal, one at the middle of each of n
    equal-probability strata, in seeded order.

    Every seed gets the same sizes, so seeds change the text and the order
    but not the load.
    """
    dist = NormalDist(math.log(median), sigma)
    sizes = [min(hi, max(lo, round(math.exp(dist.inv_cdf((i + 0.5) / n))))) for i in range(n)]
    rng.shuffle(sizes)
    return sizes


def _document(rng: random.Random, n_tokens: int) -> list[Rows]:
    """Whole sentences until the document holds at least ``n_tokens``."""
    sentences: list[Rows] = []
    tokens = 0
    while tokens < n_tokens:
        sentences.append(_sentence(rng))
        tokens += len(sentences[-1])
    return sentences


def _inject_defects(rng: random.Random, sentences: list[Rows]) -> list[dict]:
    """Plant DEFECTS_PER_DRAFT defects, each in its own sentence.

    Returns the defects as dicts with code, severity, sentence and token or,
    for malformed lines, ``after`` (the token row the bad line follows) and
    ``text``; their line number is filled in when the file is written.
    """
    defects = []
    order = list(range(len(sentences)))
    rng.shuffle(order)
    kinds = ["FORMAT_FIELDS", "FORMAT_TAG", "NE_ORPHAN_I", "NE_ORPHAN_E", "CLS_ORPHAN_I", "CLS_NO_VERB"]
    for s_idx in order:
        if len(defects) == DEFECTS_PER_DRAFT:
            break
        rows = sentences[s_idx]
        kind = rng.choice(kinds)
        if kind in ("FORMAT_FIELDS", "FORMAT_TAG"):
            after = rng.randrange(len(rows))
            text = (
                f"{_word(rng, 'NN')}\tNN\tO"
                if kind == "FORMAT_FIELDS"
                else f"{_word(rng, 'NN')}\tZZ\tO\tI_CLS"
            )
            defects.append({"code": "FORMAT_LINE", "severity": "error", "sentence": s_idx,
                            "after": after, "text": text})
        elif kind in ("NE_ORPHAN_I", "NE_ORPHAN_E"):
            ne = [r[2] for r in rows]
            spots = [
                i for i in range(len(rows))
                if ne[i] == "O"
                and (i == 0 or ne[i - 1] == "O" or ne[i - 1].startswith("E_"))
                and (kind == "NE_ORPHAN_E" or i + 1 == len(rows) or ne[i + 1] == "O" or ne[i + 1].startswith("B_"))
            ]
            if not spots:
                continue
            i = rng.choice(spots)
            rows[i][2] = ("I_" if kind == "NE_ORPHAN_I" else "E_") + rng.choice(NE_CATEGORIES)
            defects.append({"code": kind, "severity": "error", "sentence": s_idx, "token": i})
        elif kind == "CLS_ORPHAN_I":
            spots = [i for i, r in enumerate(rows) if r[0] == "_" and r[3] == "O"]
            if not spots:
                continue
            i = rng.choice(spots)
            rows[i][3] = "I_CLS"
            defects.append({"code": kind, "severity": "error", "sentence": s_idx, "token": i})
        else:  # CLS_NO_VERB: regenerate one clause without a verb
            start = rng.choice([i for i, r in enumerate(rows) if r[3] == "B_CLS"])
            end = next(i for i in range(start, len(rows)) if rows[i][3] == "E_CLS") + 1
            # Shifts the rows after it, but every defect has its own sentence.
            rows[start:end] = _clause(rng, verbless=True)
            defects.append({"code": kind, "severity": "warning", "sentence": s_idx, "token": start})
    return defects


def _columnar(sentences: list[Rows], extra: list[dict] = ()) -> str:
    """Columnar text; each ``extra`` bad line goes after its token row and
    gets its 1-based line number recorded in ``line``."""
    after = {(d["sentence"], d["after"]): d for d in extra}
    lines: list[str] = []
    for s_idx, sentence in enumerate(sentences):
        if s_idx:
            lines.append("")
        for t_idx, row in enumerate(sentence):
            lines.append("\t".join(row))
            bad = after.get((s_idx, t_idx))
            if bad is not None:
                lines.append(bad["text"])
                bad["line"] = len(lines)
    return "\n".join(lines) + "\n" if lines else ""


def _counts(sentences: list[Rows]) -> dict:
    """What ``stats --json`` must report for these sentences."""
    pos: Counter = Counter()
    ne: Counter = Counter()
    tokens = words = clauses = entities = 0
    for sentence in sentences:
        for word, tag, ne_label, clause in sentence:
            tokens += 1
            pos[tag] += 1
            if word != "_":
                words += 1
            if ne_label.startswith("B_"):
                entities += 1
                ne[ne_label[2:]] += 1
            if clause == "B_CLS":
                clauses += 1
    return {
        "counts": {"documents": 1, "sentences": len(sentences), "clauses": clauses,
                   "named_entities": entities, "words": words, "tokens": tokens},
        "pos": dict(pos), "ne": dict(ne),
    }


def _merge_counts(parts: list[dict]) -> dict:
    counts: Counter = Counter()
    pos: Counter = Counter()
    ne: Counter = Counter()
    for part in parts:
        counts.update(part["counts"])
        pos.update(part["pos"])
        ne.update(part["ne"])
    return {"counts": dict(counts), "pos": dict(sorted(pos.items())),
            "ne": dict(sorted(ne.items())), "genres": {"unknown": counts["documents"]}}


# --- workloads --------------------------------------------------------------


def _corpus_release(rng: random.Random, work: Path) -> dict:
    n_docs = SHARD_DOCS * SHARDS
    # Documents of neighbouring size share a shard, so that shard sizes are
    # stratified too.
    sizes = sorted(_stratified(rng, n_docs, DOC_TOKENS_MEDIAN, DOC_TOKENS_SIGMA, *DOC_TOKENS_RANGE))
    shards = [sizes[i:i + SHARD_DOCS] for i in range(0, n_docs, SHARD_DOCS)]
    rng.shuffle(shards)
    sizes = [size for shard in shards for size in shard]
    drafts = set(rng.sample(range(n_docs), round(n_docs * DRAFT_SHARE)))
    calls, samples = [], []
    for shard in range(SHARDS):
        shard_dir = work / "corpus" / f"shard{shard:03d}"
        shard_dir.mkdir(parents=True)
        issues, parts, tokens, nbytes = [], [], 0, 0
        for k in range(SHARD_DOCS):
            d = shard * SHARD_DOCS + k
            sentences = _document(rng, sizes[d])
            defects = _inject_defects(rng, sentences) if d in drafts else []
            extra = [x for x in defects if x["code"] == "FORMAT_LINE"]
            text = _columnar(sentences, extra)
            name = f"D{d:05d}.txt"
            data = text.encode("utf-8")
            (shard_dir / name).write_bytes(data)
            nbytes += len(data)
            if d not in drafts and len(samples) < SAMPLE_FILES:
                samples.append(str(shard_dir / name))
            for x in defects:
                where = (None, None, x["line"]) if x["code"] == "FORMAT_LINE" else (x["sentence"], x["token"], None)
                issues.append([name, x["code"], x["severity"], *where])
            part = _counts(sentences)
            parts.append(part)
            tokens += part["counts"]["tokens"]
        errors = any(i[2] == "error" for i in issues)
        out = work / "out"
        calls.append({
            "tokens": tokens,
            "steps": [
                {"argv": ["validate", "--json", str(shard_dir), "-o", str(out / "validate.json")],
                 "exit": 1 if errors else 0, "read_bytes": nbytes,
                 "check": {"kind": "issues", "issues": issues}},
                {"argv": ["stats", "--json", str(shard_dir), "-o", str(out / "stats.json")],
                 "exit": 0, "read_bytes": nbytes,
                 "check": {"kind": "stats", **_merge_counts(parts)}},
            ],
        })
    return {"calls": calls, "samples": samples}


def _convert_roundtrip(rng: random.Random, work: Path) -> dict:
    sizes = _stratified(rng, CONVERT_DOCS, DOC_TOKENS_MEDIAN, DOC_TOKENS_SIGMA, *DOC_TOKENS_RANGE)
    src_dir = work / "docs"
    src_dir.mkdir()
    out = work / "out"
    calls = []
    for d, n in enumerate(sizes):
        sentences = _document(rng, n)
        path = src_dir / f"D{d:05d}.txt"
        data = _columnar(sentences).encode("utf-8")
        path.write_bytes(data)
        inline = out / "doc.inline"
        back = out / "doc.txt"
        calls.append({
            "tokens": sum(map(len, sentences)),
            "steps": [
                {"argv": ["convert", "--to", "inline", str(path), "-o", str(inline)],
                 "exit": 0, "read_bytes": len(data), "check": None},
                {"argv": ["convert", "--from", "inline", "--to", "columnar", str(inline), "-o", str(back)],
                 "exit": 0, "read_bytes": None,
                 "check": {"kind": "same_bytes", "source": str(path)}},
            ],
        })
    return {"calls": calls, "samples": [c["steps"][0]["argv"][3] for c in calls[:SAMPLE_FILES]]}


# segment-raw junction rates: assumptions, chosen so that every rule fires
# often, not taken from LST20. Within a sentence, the space (or, for
# "relative", the connector) between two clauses is one of:
JOIN_IN_SENTENCE = {
    "list": 0.20,      # space + list marker            -> R2, S6 merge
    "indirect": 0.15,  # reporting verb + 'ว่า' + space -> R2/R3, S5 merge
    "direct": 0.10,    # ... 'ว่า' + space + quote      -> R2/R3, S4 merge
    "relative": 0.20,  # 'ซึ่ง' with no space           -> R3, S3 decides
    "plain": 0.35,     # space, no marker               -> no boundary
}
# Between two sentences of a paragraph:
JOIN_BETWEEN_SENTENCES = {
    "topic": 0.40,     # space + cohesive marker        -> R2, S2 split
    "particle": 0.40,  # particle + space               -> R2, S7 split
    "question": 0.20,  # question adverb + space        -> R2, S3 decides
}


def _pick(rng: random.Random, rates: dict) -> str:
    return rng.choices(tuple(rates), tuple(rates.values()))[0]


def _raw_clause(rng: random.Random, opener: list[list[str]] = ()) -> list[list[str]]:
    """Subject stretch, optional auxiliary, verb, object; spaces after the verb.

    The run that follows a boundary space reaches the verb before any other
    space, so R2's right-flank verb test holds at every planted boundary.
    """
    rows = [list(r) for r in opener]
    # One clause in five has no subject of its own (zero anaphora), which
    # S3's heuristic merges with the clause before.
    subject = rng.choice((0, 0, 1, 1, 1, 2, 2, 2, 3, 3))
    rows += _words(rng, [rng.choice(_SUBJECT_TAGS) for _ in range(subject)])
    _add_entities(rng, rows, len(opener), len(rows))
    if rng.random() < 0.3:
        rows.append([_word(rng, "AX"), "AX", "O", "O"])
    rows.append([_word(rng, "VV"), "VV", "O", "O"])
    verb = len(rows) - 1
    tail = _words(rng, _tags(rng, max(1, round(rng.gammavariate(3.0, 2.5)))))
    rows = rows + tail
    return _space_inside(rng, rows, verb)


def _marker(category: str, tag: str, rng: random.Random) -> list[str]:
    return [rng.choice(LEXICON[category]), tag, "O", "O"]


def _raw_paragraph(rng: random.Random) -> list[list[str]]:
    rows: list[list[str]] = []
    for s in range(rng.randint(2, 5)):
        if s:
            join = _pick(rng, JOIN_BETWEEN_SENTENCES)
            if join == "particle":
                rows.append(_marker("particles", "PA", rng))
            elif join == "question":
                rows.append(_marker("question_adverbs", "AV", rng))
            rows.append(list(SPACE) + ["O"])
            opener = [_marker("cohesive_markers", "CC", rng)] if join == "topic" else []
        else:
            opener = []
        clauses = 1 + sum(rng.random() < EXTRA_CLAUSE_P for _ in range(EXTRA_CLAUSE_TRIALS))
        for c in range(clauses):
            if c:
                join = _pick(rng, JOIN_IN_SENTENCE)
                if join in ("indirect", "direct"):
                    rows.append(_marker("reporting_verbs", "VV", rng))
                    rows.append([LEXICON["subordinate_connectors"][2], "CC", "O", "O"])
                if join != "relative":
                    rows.append(list(SPACE) + ["O"])
                if join == "list":
                    opener = [_marker("list_markers", "CC", rng)]
                elif join == "direct":
                    opener = [['"', "PU", "O", "O"]]
                elif join == "relative":
                    opener = [[LEXICON["subordinate_connectors"][0], "CC", "O", "O"]]
                else:
                    opener = []
            rows.extend(_raw_clause(rng, opener))
    return rows


def _long_paragraph(rng: random.Random, n_tokens: int, final_verb: bool = True) -> list[list[str]]:
    """Paragraph with no markers whose only verb, if any, is its last word.

    A space follows every seventh word. R2 never splits it, and at every
    space its left-flank verb test scans the whole paragraph so far, which
    is the quadratic path of the space splitter. The layout is fixed so
    that the segmenter's cost depends on the length alone, not on the seed.
    """
    rows: list[list[str]] = []
    words = 0
    while len(rows) < n_tokens:
        if words % 7 == 0 and rows:
            rows.append(list(SPACE) + ["O"])
        tag = rng.choices(_NONVERB_TAGS, _NONVERB_WEIGHTS)[0]
        if tag == "PU" and rows and rows[-1][1] == "PU":
            tag = "NN"
        rows.append([_word(rng, tag), tag, "O", "O"])
        words += 1
    if final_verb:
        rows[-1] = [_word(rng, "VV"), "VV", "O", "O"]
    return rows


def _segment_raw(rng: random.Random, work: Path) -> dict:
    src_dir = work / "raw"
    src_dir.mkdir()
    lexicon = work / "lexicon.txt"
    lexicon.write_text(
        "".join(f"[{cat}]\n" + "".join(w + "\n" for w in words) for cat, words in LEXICON.items()),
        encoding="utf-8",
    )
    lex_bytes = lexicon.stat().st_size
    step = SEGMENT_FILES // SEGMENT_LONG_FILES
    long_at = {step // 2 + k * step: n for k, n in enumerate(
        _stratified(rng, SEGMENT_LONG_FILES, (LONG_TOKENS[0] * LONG_TOKENS[1]) ** 0.5, 0.3, *LONG_TOKENS))}
    out = work / "out" / "segmented.txt"
    calls = []
    for f in range(SEGMENT_FILES):
        if f in long_at:
            paragraphs = [_long_paragraph(rng, long_at[f])]
        else:
            paragraphs = [_raw_paragraph(rng) for _ in range(rng.randint(1, 3))]
        path = src_dir / f"P{f:05d}.txt"
        data = _columnar(paragraphs).encode("utf-8")
        path.write_bytes(data)
        calls.append({
            "tokens": sum(len(p) for p in paragraphs),
            "long": f in long_at,
            "steps": [
                {"argv": ["segment", str(path), "--lexicon", str(lexicon), "-o", str(out)],
                 "exit": 0, "read_bytes": len(data) + lex_bytes,
                 "check": {"kind": "segment", "source": str(path)}},
            ],
        })
    samples = [c["steps"][0]["argv"][1] for c in calls if not c["long"]][:SAMPLE_FILES]
    return {"calls": calls, "samples": samples}


def _fill_frame(rng: random.Random, spec: str, hole_tag: str, length: int) -> tuple[list[str], int]:
    """POS tags that the frame covers, and the hole's index among them.

    With ``length`` 0 each '*' gets 0-2 words. Otherwise the sentence gets
    about ``length`` words: a '*' before the hole takes 1-5 of them, so the
    word sits near the front as a topic does, and the '*' slots after it
    share the rest.
    """
    slots = spec.split()
    after = sum(s in ("*", "*?") for s in slots[slots.index("_") + 1:])
    budget = length - len(slots)
    tags: list[str] = []
    hole = -1
    for slot in slots:
        if slot == "_":
            hole = len(tags)
            tags.append(hole_tag)
        elif slot in ("*", "*?"):
            low = 1 if slot == "*" else 0
            if not length:
                n = rng.randint(low, 2)
            elif hole < 0:
                n = rng.randint(1, 5)
            else:
                n = max(low, round(budget / after * rng.uniform(0.5, 1.5)))
            tags.extend(_tags(rng, n))
        elif slot.startswith("("):
            if rng.random() < 0.5:
                tags.append(slot[1:-1])
        else:
            tags.append(slot)
    return tags, hole


def _planted_word(rng: random.Random, taken: set[str]) -> str:
    # Four syllables: longer than any vocabulary word, so never filler.
    while True:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(4))
        if word not in taken:
            taken.add(word)
            return word


def _frames_lexicon(rng: random.Random, work: Path) -> dict:
    frames_path = work / "frames.txt"
    frames_path.write_text("".join(f"{fid}: {spec}\n" for fid, spec in FRAME_SPECS.items()), encoding="utf-8")
    frames_bytes = frames_path.stat().st_size
    src_dir = work / "concordance"
    src_dir.mkdir()
    out = work / "out" / "frames.txt"
    classes = tuple(_CLASS_FRAMES)
    taken: set[str] = set()
    calls = []
    for w in range(FRAME_WORDS):
        cls = classes[w % len(classes)]
        word = _planted_word(rng, taken)
        sentences, occurrences = [], []
        # LST20-like lengths for a long word's sentences: median 38, mean 43.
        # Every long word gets the same lengths, in its own order, so that
        # each weighs the same for every seed.
        lengths = _stratified(rng, LONG_ATTESTATIONS, 38, 0.5, 12, 160)
        for group in _CLASS_FRAMES[cls]:
            for frame_id in (group if cls == "noun" else (rng.choice(group),)):
                length = lengths.pop() if cls == "long" else 0
                tags, hole = _fill_frame(rng, FRAME_SPECS[frame_id], _CLASS_TAG[cls], length)
                rows = _words(rng, tags, urls=False)
                rows[hole] = [word, tags[hole], "O", "O"]
                rows = _space_inside(rng, rows, -1)
                rows[0][3] = "B_CLS"
                for row in rows[1:-1]:
                    row[3] = "I_CLS"
                rows[-1][3] = "E_CLS"
                occurrences.append([len(sentences), hole, tags, frame_id])
                sentences.append(rows)
        path = src_dir / f"W{w:04d}.txt"
        data = _columnar(sentences).encode("utf-8")
        path.write_bytes(data)
        calls.append({
            "tokens": sum(map(len, sentences)),
            "steps": [
                {"argv": ["frames", "check", str(path), "--word", word, "--frames", str(frames_path),
                          "-o", str(out)],
                 "exit": 0, "read_bytes": len(data) + frames_bytes,
                 "check": {"kind": "frames", "occurrences": occurrences}},
            ],
        })
    samples = [c["steps"][0]["argv"][2] for c in calls[:SAMPLE_FILES]]
    return {"calls": calls, "samples": samples, "frames": FRAME_SPECS}


def verbless_paragraph(n_tokens: int) -> str:
    """Columnar text of one verbless, marker-free paragraph (scaling probe)."""
    return _columnar([_long_paragraph(random.Random(n_tokens), n_tokens, final_verb=False)])


WORKLOADS = {
    "corpus-release": _corpus_release,
    "convert-roundtrip": _convert_roundtrip,
    "segment-raw": _segment_raw,
    "frames-lexicon": _frames_lexicon,
}


def build(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and return its plan."""
    rng = random.Random(f"{workload}:{seed}")
    (work / "out").mkdir(parents=True)
    plan = WORKLOADS[workload](rng, work)
    plan.update(workload=workload, seed=seed, tail_percentile=TAIL_PERCENTILE[workload])
    return plan
