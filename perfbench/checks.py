"""Output checks that do not use the code under test.

Each check takes the bytes a CLI call wrote and the expectations the
generator recorded, and returns a list of problems (empty when the output
is correct). Files are read with a few lines of string splitting and the
label grammar and frame language are decided by regular expressions.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

# (O | B | B I* E)* over one letter per clause label.
_BIEO = re.compile(r"(?:O|B(?:I*E)?)*")
_CLAUSE_LETTER = {"B_CLS": "B", "I_CLS": "I", "E_CLS": "E", "O": "O"}
_OCCURRENCE = re.compile(r"sentence (\d+), token (\d+): (.*)")
_CLASS_RULES = (
    ("noun", lambda m: {"NN.1", "NN.2", "NN.3", "NN.4"} <= m),
    ("verb", lambda m: bool(m & {"VV.1", "VV.2", "VV.3", "VV.4", "VV.5"}) and "VV.6" in m),
    ("adjective", lambda m: bool(m & {"AJ.1", "AJ.2", "AJ.3", "AJ.4"})),
    ("adverb", lambda m: bool(m & {"AV.1", "AV.2", "AV.3", "AV.4"})),
)


def read_rows(text: str) -> list[list[list[str]]]:
    """Sentences of 4-field rows from columnar text."""
    sentences, current = [], []
    for line in text.split("\n"):
        if line == "":
            if current:
                sentences.append(current)
                current = []
        else:
            current.append(line.split("\t"))
    if current:
        sentences.append(current)
    return sentences


def check_issues(output: bytes, expect: dict) -> list[str]:
    """``validate --json``: exactly the planted defects, at their locations."""
    want = {tuple(i) for i in expect["issues"]}
    got = set()
    for entry in json.loads(output):
        line = None
        if entry["code"] == "FORMAT_LINE":
            m = re.match(r"line (\d+):", entry["message"])
            line = int(m.group(1)) if m else -1
        got.add((entry["file"], entry["code"], entry["severity"], entry["sentence"], entry["token"], line))
    problems = [f"missing issue {i}" for i in sorted(want - got, key=str)]
    problems += [f"unexpected issue {i}" for i in sorted(got - want, key=str)]
    return problems


def check_stats(output: bytes, expect: dict) -> list[str]:
    """``stats --json``: counts and histograms equal the generator's."""
    got = json.loads(output)
    return [
        f"stats {key}: got {got.get(key)} want {expect[key]}"
        for key in ("counts", "pos", "ne", "genres")
        if got.get(key) != expect[key]
    ]


def check_same_bytes(output: bytes, expect: dict) -> list[str]:
    """Round trip: the columnar bytes equal the source bytes."""
    if output == Path(expect["source"]).read_bytes():
        return []
    return ["round-trip output differs from the source"]


def check_segment(output: bytes, expect: dict) -> list[str]:
    """Segmenter output keeps every word in order and labels clauses legally."""
    source = read_rows(Path(expect["source"]).read_text(encoding="utf-8"))
    want = [tuple(r[:3]) for s in source for r in s if r[0] != "_"]
    got, problems = [], []
    for s_idx, sentence in enumerate(read_rows(output.decode("utf-8"))):
        if any(len(r) != 4 for r in sentence):
            return [f"sentence {s_idx}: row without 4 fields"]
        letters = "".join(_CLAUSE_LETTER.get(r[3], "?") for r in sentence)
        if not _BIEO.fullmatch(letters):
            problems.append(f"sentence {s_idx}: clause labels {letters} are not BIEO")
        for r in sentence:
            if r[0] != "_":
                got.append(tuple(r[:3]))
                if r[3] == "O":
                    problems.append(f"sentence {s_idx}: word {r[0]} outside every clause")
    if got != want:
        problems.append("words, POS or NE labels changed")
    return problems[:5]


def _frame_regex(slots: list[str]) -> re.Pattern:
    parts = []
    for slot in slots:
        if slot == "*":
            parts.append("(?:[A-Z]{2} )+")
        elif slot == "*?":
            parts.append("(?:[A-Z]{2} )*")
        elif slot.startswith("("):
            parts.append(f"(?:{slot[1:-1]} )?")
        else:
            parts.append(f"{slot} ")
    return re.compile("".join(parts))


class FrameOracle:
    """Frame matching by regular expressions over the space-joined tags."""

    def __init__(self, specs: dict[str, str]):
        self.frames = []
        for frame_id, spec in specs.items():
            slots = spec.split()
            hole = slots.index("_")
            self.frames.append((frame_id, _frame_regex(slots[:hole]), _frame_regex(slots[hole + 1:])))

    def matches(self, tags: list[str], hole: int) -> set[str]:
        before = "".join(t + " " for t in tags[:hole])
        after = "".join(t + " " for t in tags[hole + 1:])
        return {
            frame_id
            for frame_id, left, right in self.frames
            if left.fullmatch(before) and right.fullmatch(after)
        }


def classes_of(matched: set[str]) -> set[str]:
    return {name for name, rule in _CLASS_RULES if rule(matched)}


def check_frames(output: bytes, expect: dict, oracle: FrameOracle) -> list[str]:
    """``frames check``: each usage's matched ids, and the lexeme's classes."""
    want, planted, union = {}, {}, set()
    for s_idx, hole, tags, frame_id in expect["occurrences"]:
        want[(s_idx, hole)] = oracle.matches(tags, hole)
        planted[(s_idx, hole)] = frame_id
        union |= want[(s_idx, hole)]
    got, classes = {}, None
    for line in output.decode("utf-8").splitlines():
        m = _OCCURRENCE.fullmatch(line)
        if m:
            ids = set() if m.group(3) == "-" else set(m.group(3).split())
            got[(int(m.group(1)), int(m.group(2)))] = ids
        elif line.startswith("classes: "):
            rest = line[len("classes: "):]
            classes = set() if rest == "-" else set(rest.split())
    problems = [f"usage {k}: planted frame {f} not reported"
                for k, f in planted.items() if f not in got.get(k, ())]
    problems += [f"usage {k}: got {sorted(got.get(k, ()))} want {sorted(v)}"
                 for k, v in want.items() if got.get(k) != v]
    if set(got) != set(want):
        problems.append(f"usages reported {sorted(got)} want {sorted(want)}")
    if classes != classes_of(union):
        problems.append(f"classes {classes} want {classes_of(union)}")
    return problems[:5]
