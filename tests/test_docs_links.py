"""The docs-integrity gate, run as part of the tier-1 suite.

``tools/check_docs.py`` validates links, anchors, path/module
references, and CLI snippets across the markdown surface.  The headline
test here runs it exactly as ``make docs-check`` does and requires zero
problems; the rest pin the checker's own behaviour so a silent
regression in the checker cannot green-light broken docs.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402  (needs the tools/ dir on the path)


def test_repo_docs_have_no_broken_references(capsys):
    assert check_docs.main([]) == 0
    out = capsys.readouterr().out
    assert "0 broken references" in out


def test_default_file_set_covers_the_docs_surface():
    names = {path.name for path in check_docs.collect_files()}
    assert "README.md" in names
    assert "EXPERIMENTS.md" in names
    assert "serving.md" in names  # docs/serving.md is part of the gate


@pytest.mark.parametrize(
    "heading, slug",
    [
        ("Hello World", "hello-world"),
        ("The `repro.service` API", "the-reproservice-api"),
        ("What's new?", "whats-new"),
        ("A -- B", "a----b"),
    ],
)
def test_slugify_matches_github(heading, slug):
    assert check_docs.slugify(heading) == slug


def test_duplicate_headings_get_numeric_suffixes():
    slugs = check_docs.heading_slugs("# Same\n\n## Same\n\n### Same\n")
    assert slugs == ["same", "same-1", "same-2"]


def test_headings_inside_code_fences_are_ignored():
    slugs = check_docs.heading_slugs("# Real\n```\n# not a heading\n```\n")
    assert slugs == ["real"]


def _problems_for(tmp_path, text):
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    checker = check_docs.DocsChecker()
    checker.check_file(doc)
    return [problem.message for problem in checker.problems]


def test_checker_flags_broken_link(tmp_path):
    messages = _problems_for(tmp_path, "[x](missing.md)\n")
    assert any("broken link target" in m for m in messages)


def test_checker_flags_broken_anchor(tmp_path):
    messages = _problems_for(tmp_path, "# Top\n\n[x](#absent)\n")
    assert any("broken anchor" in m for m in messages)


def test_checker_accepts_valid_anchor(tmp_path):
    assert _problems_for(tmp_path, "# My Section\n\n[x](#my-section)\n") == []


def test_checker_flags_missing_path_reference(tmp_path):
    messages = _problems_for(tmp_path, "see `src/repro/ghost.py`\n")
    assert any("path reference not found" in m for m in messages)


def test_checker_flags_missing_module_reference(tmp_path):
    messages = _problems_for(tmp_path, "see `repro.ghost.module`\n")
    assert any("module reference" in m for m in messages)


def test_checker_accepts_attribute_on_real_module(tmp_path):
    assert _problems_for(tmp_path, "`repro.service.api.SamplingService`\n") == []


def test_checker_flags_missing_attribute_on_real_module(tmp_path):
    messages = _problems_for(tmp_path, "`repro.service.api.GhostService`\n")
    assert any("GhostService" in m for m in messages)


def test_checker_flags_unknown_cli_flag(tmp_path):
    messages = _problems_for(
        tmp_path, "```bash\npython -m repro.service --warp-speed\n```\n"
    )
    assert any("--warp-speed" in m for m in messages)


def test_checker_accepts_valid_cli_snippet(tmp_path):
    text = (
        "```bash\n"
        "python -m repro.service --requests jobs.jsonl \\\n"
        "    --out answers.jsonl --cache-dir ~/.cache/repro\n"
        "```\n"
    )
    assert _problems_for(tmp_path, text) == []


def test_checker_validates_continuation_lines(tmp_path):
    text = (
        "```bash\n"
        "python -m repro.service --requests jobs.jsonl \\\n"
        "    --imaginary-flag\n"
        "```\n"
    )
    messages = _problems_for(tmp_path, text)
    assert any("--imaginary-flag" in m for m in messages)


@pytest.mark.parametrize(
    "text",
    [
        "```bash\npython -m repro.compile.bench --smoke\n```\n",
        "run `python -m repro.service.bench --out x.json`\n",
    ],
)
def test_checker_flags_commands_of_missing_modules(tmp_path, text):
    messages = _problems_for(tmp_path, text)
    assert any("no runnable module" in m for m in messages)


def test_checker_accepts_commands_of_real_modules(tmp_path):
    text = (
        "```bash\npython -m repro.perf.bench --gate reorder\n```\n"
        "`python -m repro.fuzz`\n"
    )
    assert _problems_for(tmp_path, text) == []


def test_checker_skips_external_links(tmp_path):
    assert _problems_for(tmp_path, "[x](https://example.com/404)\n") == []
