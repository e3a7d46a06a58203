#!/usr/bin/env python
"""Docs-integrity gate: links resolve, anchors exist, commands parse.

Walks the repository's markdown surface (``docs/*.md``, ``README.md``,
``EXPERIMENTS.md``) and fails on anything a reader could follow into a
dead end:

* **relative links** — ``[text](path)`` must name a file that exists
  (external ``http(s)://`` and ``mailto:`` targets are skipped; this
  checker never touches the network),
* **anchors** — ``[text](#section)`` and ``[text](file.md#section)``
  must match a heading in the target file, using GitHub's slugification
  (lowercase, punctuation stripped, spaces to hyphens, ``-N`` suffixes
  for duplicates),
* **path references** — inline code spans that look like repository
  paths (``src/repro/service/api.py``, ``docs/serving.md``,
  ``examples/serving_demo.py`` …) must exist on disk,
* **module references** — inline code spans naming ``repro.*`` dotted
  names must resolve: the longest prefix that is a module or package
  under ``src/`` is imported, and any trailing attributes (the
  ``Telemetry`` of ``repro.telemetry.Telemetry``) must exist on it,
* **command snippets** — fenced shell blocks invoking one of the
  repository's CLIs (``python -m repro.service``, ``repro-sample``,
  ``python -m repro.telemetry.report`` …) must only use flags that the
  CLI's argument parser actually defines, so a doc cannot drift ahead
  of (or behind) the code it demonstrates,
* **the combination rules** — the (name, message) pairs of the table
  under a ``Combination rules`` heading must equal those of
  ``repro.simulators.build_spec.RULES``, row for row and in order, and
  ``docs/api.md`` must carry that table, so the docs cannot promise a
  rejection the code does not make (or miss one it does),
* **rule citations** — prose cites a rule by its name; a "row N" or
  "rows N…" citation goes stale whenever a row is added or removed, so
  any is flagged.

Intentionally dependency-free, like ``tools/check_docstrings.py``.

Usage::

    PYTHONPATH=src python tools/check_docs.py        # check the default set
    PYTHONPATH=src python tools/check_docs.py --list # per-file summary
    make docs-check

Exit status 0 when the docs are clean, 1 with one line per problem
otherwise (``tests/test_docs_links.py`` runs this in the tier-1 suite).
"""

from __future__ import annotations

import argparse
import importlib
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The markdown surface this gate guards.
DEFAULT_FILES = ("README.md", "EXPERIMENTS.md")
DEFAULT_GLOBS = ("docs/*.md",)

#: CLI command → dotted path of its ``_build_parser`` factory.  Every
#: parser is imported lazily so the checker stays fast when no snippet
#: mentions a given command.
COMMAND_PARSERS: Dict[str, str] = {
    "repro-sample": "repro.cli:_build_parser",
    "repro-eval": "repro.evaluation.cli:_build_parser",
    "python -m repro.service": "repro.service.__main__:_build_parser",
    "python -m repro.telemetry.report": "repro.telemetry.report:_build_parser",
    "python -m repro.perf.bench": "repro.perf.bench:_build_parser",
    "python -m repro.fuzz": "repro.fuzz.__main__:_build_parser",
}

_LINK = re.compile(r"(?<!\!)\[([^\]]*)\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_IMAGE = re.compile(r"\!\[([^\]]*)\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_FENCE = re.compile(r"^(```+|~~~+)\s*(\S*)\s*$")
_PATHLIKE = re.compile(
    r"^(?:src|docs|tools|tests|examples|benchmarks)/[\w./\-]+$"
)
_MODULE = re.compile(r"^repro(?:\.\w+)+$")
_RUN_MODULE = re.compile(r"^python3? -m (repro(?:\.\w+)+)")
_ROW_CITATION = re.compile(r"\b[Rr]ows?\s+\d+")

#: The heading of the rule table, and the document that must carry it.
RULE_TABLE_HEADING = "Combination rules"
RULE_TABLE_DOC = REPO_ROOT / "docs" / "api.md"
_SLUG_STRIP = re.compile(r"[^\w\- ]")


class Problem(NamedTuple):
    """One broken reference: where it is and what is wrong."""

    path: Path
    line: int
    message: str


def slugify(heading: str) -> str:
    """GitHub's anchor slug for a heading (drops code ticks and links)."""
    text = heading.strip()
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # keep link text
    text = text.replace("`", "")
    text = _SLUG_STRIP.sub("", text.lower())
    return text.replace(" ", "-")


def heading_slugs(text: str) -> List[str]:
    """All anchor slugs a markdown document defines, duplicates suffixed."""
    counts: Dict[str, int] = {}
    slugs: List[str] = []
    in_fence = False
    for line in text.splitlines():
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if not match:
            continue
        base = slugify(match.group(2))
        seen = counts.get(base, 0)
        counts[base] = seen + 1
        slugs.append(base if seen == 0 else f"{base}-{seen}")
    return slugs


def _iter_lines(text: str):
    """(line_number, line, in_fence) triples, tracking code fences."""
    in_fence = False
    for number, line in enumerate(text.splitlines(), start=1):
        if _FENCE.match(line):
            in_fence = not in_fence
            yield number, line, True
            continue
        yield number, line, in_fence


def _resolve_target(doc: Path, target: str) -> Path:
    """A link target resolved relative to its document (or the repo root)."""
    if target.startswith("/"):
        return (REPO_ROOT / target.lstrip("/")).resolve()
    return (doc.parent / target).resolve()


def _unresolved(dotted: str) -> Optional[str]:
    """Why ``repro.a.b.C`` does not resolve, or ``None`` when it does.

    The longest prefix that is a module or package under ``src/`` is
    imported, and the rest of the name is looked up on it one attribute
    at a time.
    """
    parts = dotted.split(".")
    for end in range(len(parts), 1, -1):
        candidate = REPO_ROOT / "src" / Path(*parts[:end])
        if candidate.is_dir() or candidate.with_suffix(".py").is_file():
            break
    else:
        return f"module reference not found under src/: {dotted}"
    target = importlib.import_module(".".join(parts[:end]))
    for index in range(end, len(parts)):
        try:
            target = getattr(target, parts[index])
        except AttributeError:
            return (
                f"attribute reference not found: {dotted} "
                f"({'.'.join(parts[:index])} has no {parts[index]!r})"
            )
    return None


def _runnable(dotted: str) -> bool:
    """Whether ``python -m dotted`` finds a module or package under ``src/``."""
    path = REPO_ROOT / "src" / Path(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__main__.py").is_file()


def rule_table_rows(text: str) -> Optional[List[Tuple[int, str, str]]]:
    """``(line, name, message)`` per rule-table row; ``None`` without the heading.

    Rows are the table lines under the ``Combination rules`` heading
    whose first cell is a code span, the rule's name; the message is
    the third cell.  Code-span backticks are removed from both.
    """
    lines = text.splitlines()
    for index, line in enumerate(lines):
        heading = _HEADING.match(line)
        if heading and heading.group(2) == RULE_TABLE_HEADING:
            break
    else:
        return None
    rows = []
    for number, line in enumerate(lines[index + 1:], start=index + 2):
        if _HEADING.match(line):
            break
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) >= 3 and cells[0].startswith("`"):
            rows.append((number, cells[0].strip("`"), cells[2].strip("`")))
    return rows


def _code_rules() -> List[Tuple[str, str]]:
    from repro.simulators.build_spec import RULES

    return [(rule.name, rule.message) for rule in RULES]


def _load_parser(spec: str) -> argparse.ArgumentParser:
    """Import ``module:function`` and call it (cached by the caller)."""
    module_name, function_name = spec.split(":")
    module = __import__(module_name, fromlist=[function_name])
    return getattr(module, function_name)()


def _known_flags(parser: argparse.ArgumentParser) -> Tuple[set, int]:
    """(option strings, positional count) a parser accepts.

    Subparsers are merged in: a flag defined on any subcommand counts,
    which keeps the check simple without ever flagging a valid snippet.
    """
    flags = set()
    positionals = 0
    for action in parser._actions:  # argparse has no public introspection
        if action.option_strings:
            flags.update(action.option_strings)
        elif isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                sub_flags, _ = _known_flags(sub)
                flags.update(sub_flags)
        else:
            positionals += 1
    return flags, positionals


class DocsChecker:
    """Accumulates problems across one run of the checker."""

    def __init__(self) -> None:
        self.problems: List[Problem] = []
        self._slug_cache: Dict[Path, List[str]] = {}
        self._parser_cache: Dict[str, argparse.ArgumentParser] = {}

    # -- helpers -------------------------------------------------------

    def _slugs_for(self, path: Path) -> List[str]:
        if path not in self._slug_cache:
            self._slug_cache[path] = heading_slugs(
                path.read_text(encoding="utf-8")
            )
        return self._slug_cache[path]

    def _parser_for(self, command: str) -> Optional[argparse.ArgumentParser]:
        if command not in self._parser_cache:
            self._parser_cache[command] = _load_parser(COMMAND_PARSERS[command])
        return self._parser_cache[command]

    def _problem(self, path: Path, line: int, message: str) -> None:
        self.problems.append(Problem(path, line, message))

    # -- checks --------------------------------------------------------

    def _check_link(self, doc: Path, line: int, target: str) -> None:
        if target.startswith(("http://", "https://", "mailto:")):
            return
        file_part, _, anchor = target.partition("#")
        if file_part:
            resolved = _resolve_target(doc, file_part)
            if not resolved.exists():
                self._problem(doc, line, f"broken link target: {target}")
                return
            anchor_doc = resolved
        else:
            anchor_doc = doc
        if anchor:
            if anchor_doc.suffix != ".md":
                return  # anchors into non-markdown files are not ours to judge
            if anchor not in self._slugs_for(anchor_doc):
                self._problem(
                    doc,
                    line,
                    f"broken anchor: {target} (no heading "
                    f"'#{anchor}' in {anchor_doc.name})",
                )

    def _check_runs_module(self, doc: Path, line: int, text: str) -> bool:
        """Flag ``python -m repro.x`` when nothing under ``src/`` runs it."""
        match = _RUN_MODULE.match(text)
        if match is None or _runnable(match.group(1)):
            return False
        self._problem(doc, line, f"no runnable module under src/: {match.group(0)}")
        return True

    def _check_code_span(self, doc: Path, line: int, span: str) -> None:
        span = span.strip()
        if self._check_runs_module(doc, line, span):
            return
        if _PATHLIKE.match(span):
            candidate = span.split(":", 1)[0]  # allow path:line suffixes
            if not (REPO_ROOT / candidate).exists():
                self._problem(doc, line, f"path reference not found: {span}")
        elif _MODULE.match(span):
            reason = _unresolved(span)
            if reason is not None:
                self._problem(doc, line, reason)

    def _check_command(self, doc: Path, line: int, command_line: str) -> None:
        stripped = command_line.strip().lstrip("$ ").rstrip("\\").strip()
        if self._check_runs_module(doc, line, stripped):
            return
        matched = None
        for command in COMMAND_PARSERS:  # longest keys listed first
            if stripped.startswith(command):
                matched = command
                break
        if matched is None:
            return
        parser = self._parser_for(matched)
        flags, _ = _known_flags(parser)
        rest = stripped[len(matched):]
        try:
            tokens = shlex.split(rest)
        except ValueError:
            return  # continuation lines, here-docs: not a parseable snippet
        for token in tokens:
            if not token.startswith("--"):
                continue
            flag = token.split("=", 1)[0]
            if flag not in flags:
                self._problem(
                    doc,
                    line,
                    f"snippet uses {flag} but '{matched}' does not "
                    f"define it (valid: {', '.join(sorted(flags))})",
                )

    def _check_rule_table(self, doc: Path, text: str) -> None:
        documented = rule_table_rows(text)
        if documented is None:
            if doc.resolve() == RULE_TABLE_DOC:
                self._problem(
                    doc, 1, f"missing the '{RULE_TABLE_HEADING}' rule table"
                )
            return
        expected = _code_rules()
        for row, ((line, *have), want) in enumerate(
            zip(documented, expected), start=1
        ):
            if tuple(have) != want:
                self._problem(
                    doc,
                    line,
                    f"rule table row {row} says {tuple(have)!r}; "
                    f"repro.simulators.build_spec.RULES has {want!r}",
                )
                return
        if len(documented) != len(expected):
            self._problem(
                doc,
                documented[-1][0] if documented else 1,
                f"rule table has {len(documented)} rows; "
                f"repro.simulators.build_spec.RULES has {len(expected)}",
            )

    def _check_row_citations(self, doc: Path, text: str) -> None:
        """Flag prose citing rule rows by number (a citation may wrap)."""
        prose = "\n".join(
            "" if in_fence else line for _number, line, in_fence in _iter_lines(text)
        )
        for match in _ROW_CITATION.finditer(prose):
            self._problem(
                doc,
                prose.count("\n", 0, match.start()) + 1,
                f"{' '.join(match.group(0).split())!r} cites a rule row by "
                "number; cite it by its RULES name",
            )

    # -- driver --------------------------------------------------------

    def check_file(self, doc: Path) -> None:
        """Run every check against one markdown document."""
        text = doc.read_text(encoding="utf-8")
        self._check_rule_table(doc, text)
        self._check_row_citations(doc, text)
        buffer = ""  # joins backslash-continued shell lines
        buffer_line = 0
        for number, line, in_fence in _iter_lines(text):
            if in_fence:
                if _FENCE.match(line):
                    buffer = ""
                    continue
                if buffer:
                    joined = buffer + " " + line.strip()
                else:
                    joined = line
                    buffer_line = number
                if line.rstrip().endswith("\\"):
                    buffer = joined.rstrip().rstrip("\\").rstrip()
                    continue
                self._check_command(doc, buffer_line, joined)
                buffer = ""
                continue
            for match in _LINK.finditer(line):
                self._check_link(doc, number, match.group(2))
            for match in _IMAGE.finditer(line):
                self._check_link(doc, number, match.group(2))
            for match in _CODE_SPAN.finditer(line):
                self._check_code_span(doc, number, match.group(1))


def _display_path(path: Path) -> Path:
    """Repo-relative when possible, absolute otherwise (files under /tmp)."""
    try:
        return path.relative_to(REPO_ROOT)
    except ValueError:
        return path


def collect_files() -> List[Path]:
    """The default markdown set, in a stable order."""
    files = [REPO_ROOT / name for name in DEFAULT_FILES]
    for pattern in DEFAULT_GLOBS:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    return [path for path in files if path.is_file()]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; exit 0 iff every checked document is clean."""
    parser = argparse.ArgumentParser(
        description="Fail on broken links, anchors, path references, or "
        "stale CLI snippets in the markdown docs."
    )
    parser.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="markdown files to check (default: README.md, EXPERIMENTS.md, "
        "docs/*.md)",
    )
    parser.add_argument(
        "--list", action="store_true", help="print a per-file summary"
    )
    args = parser.parse_args(argv)

    files = [path.resolve() for path in args.files] or collect_files()
    checker = DocsChecker()
    for path in files:
        if not path.is_file():
            print(f"error: {path} is not a file", file=sys.stderr)
            return 2
        before = len(checker.problems)
        checker.check_file(path)
        if args.list:
            found = len(checker.problems) - before
            marker = f"{found} problems" if found else "ok"
            print(f"{_display_path(path)}: {marker}")

    if checker.problems:
        for problem in checker.problems:
            location = _display_path(problem.path)
            print(f"{location}:{problem.line}: {problem.message}")
        print(f"\n{len(checker.problems)} problems across {len(files)} files")
        return 1
    print(f"docs check complete: {len(files)} files, 0 broken references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
