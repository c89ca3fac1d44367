"""The names ``perfbench`` looks up in the package still exist.

``perfbench/spans.py`` wraps layer functions by name for traced runs
(``perfbench/run.py --trace 1``), and ``perfbench/setup_probe.py`` calls
the CLI's parser and config loaders. Deleting any of them would break
those runs, not the package's own tests, so it is checked here.
"""

import importlib.util
from pathlib import Path

import lst20tools
from lst20tools import cli

import corpus_samples

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

#: Wrapped, but nothing in the package calls it (ROADMAP item 3).
_UNCALLED = {"stats.tag_frequency"}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_hook():
    tracer = _load_spans().Tracer()
    try:
        tracer.install(lst20tools)
        patched = list(tracer._patched)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_every_hook_records_its_work_through_the_cli(tmp_path, capsys):
    """Each wrapped layer records a span and each ``measure`` callback reads
    the layer's real arguments and result, so a changed signature or return
    shape fails here and not only in a traced benchmark run."""

    class Recorder(_load_spans().Tracer):
        def __init__(self):
            super().__init__()
            self.measured = {}  # wrapped name -> whether it has a measure callback

        def wrap(self, owner, attr, name, measure=None):
            self.measured[name] = measure is not None
            super().wrap(owner, attr, name, measure)

    fixtures = corpus_samples.FIXTURE_DIR
    glimpse = str(fixtures / "glimpse.txt")
    inline = str(tmp_path / "glimpse.inline")
    calls = [
        ["validate", "--json", str(fixtures)],
        ["convert", "--to", "inline", glimpse, "-o", inline],
        ["convert", "--from", "inline", "--to", "columnar", inline, "-o", str(tmp_path / "back.txt")],
        ["segment", glimpse, "-o", str(tmp_path / "seg.txt")],
        ["stats", "--json", str(fixtures)],
        # A clean columnar file is counted from its lines; inline input still
        # goes through stats.document_counts.
        ["stats", "--from", "inline", inline, "-o", str(tmp_path / "stats.txt")],
        ["frames", "check", glimpse, "--word", "ไม่", "-o", str(tmp_path / "frames.txt")],
    ]
    tracer = Recorder()
    tracer.install(lst20tools)
    try:
        for argv in calls:
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = {span[0] for span in tracer.spans}
    assert recorded == set(tracer.measured) - _UNCALLED
    for name, has_measure in tracer.measured.items():
        if has_measure:
            assert any(s[0] == name and s[5] for s in tracer.spans), name
    assert tracer.counts["frames.frame_matches.calls"] > 0


def test_setup_probe_entry_points_exist():
    for name in ("build_parser", "_load_lexicon", "_load_frameset"):
        assert callable(getattr(cli, name)), name
