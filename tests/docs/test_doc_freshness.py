"""Doc freshness: fenced CLI commands parse, relative links resolve.

Documentation drifts silently: a renamed subcommand or a moved doc file
breaks a README example without failing anything. These checks make the
drift loud by dry-running every documented ``repro ...`` invocation
against the real argparse tree (``cli.build_parser()`` — parse only,
nothing executes), resolving every relative markdown link against
the working tree, and requiring every Markdown file that a comment or
docstring of the Python sources cites to exist.

Setting ``REPRO_DOCS_SYNTHETIC_BREAK=1`` injects one deliberately
broken command, one dangling link and one dangling citation, proving in
CI that the checks actually fail on drift (mirroring
``REPRO_BENCH_SYNTHETIC_SLOWDOWN`` for the benchmark gate).
"""

from __future__ import annotations

import ast
import io
import os
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])

#: Python source trees whose comments and docstrings may cite docs.
CODE_DIRS = ("src", "tests", "benchmarks", "examples")

_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_MARKDOWN_NAME = re.compile(r"[\w./-]*\w\.md\b")

_SYNTHETIC_BREAK = bool(os.environ.get("REPRO_DOCS_SYNTHETIC_BREAK"))


def fenced_blocks(path: Path):
    for match in _FENCE.finditer(path.read_text(encoding="utf-8")):
        yield match.group(1), match.group(2)


def repro_commands(path: Path) -> list[str]:
    """Every ``repro ...`` invocation fenced in *path*, normalised.

    Handles ``PYTHONPATH=src python -m repro`` spellings, trailing
    ``# comment`` annotations and backslash line continuations.
    """
    commands = []
    for language, body in fenced_blocks(path):
        if language not in ("", "console", "bash", "sh", "shell"):
            continue
        logical = body.replace("\\\n", " ").splitlines()
        for line in logical:
            line = line.strip()
            if line.startswith("$ "):
                line = line[2:]
            line = re.sub(r"^PYTHONPATH=\S+\s+", "", line)
            line = re.sub(r"^python\s+-m\s+repro\b", "repro", line)
            if not re.match(r"^repro(\s|$)", line):
                continue
            line = re.sub(r"\s+#.*$", "", line)
            commands.append(line)
    return commands


def doc_commands() -> list[tuple[str, str]]:
    found = [(path.relative_to(REPO_ROOT).as_posix(), command)
             for path in DOC_FILES
             for command in repro_commands(path)]
    if _SYNTHETIC_BREAK:
        found.append(("REPRO_DOCS_SYNTHETIC_BREAK",
                      "repro frobnicate --no-such-flag"))
    return found


def doc_links() -> list[tuple[str, str]]:
    found = []
    for path in DOC_FILES:
        text = path.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            found.append((path.relative_to(REPO_ROOT).as_posix(), target))
    if _SYNTHETIC_BREAK:
        found.append(("REPRO_DOCS_SYNTHETIC_BREAK",
                      "docs/no-such-document.md"))
    return found


def prose(path: Path):
    """``(line, text)`` of every comment and docstring in *path*."""
    source = path.read_text(encoding="utf-8")
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring is not None:
                yield node.body[0].lineno, docstring


def code_citations() -> list[tuple[str, str]]:
    """``(file:line, name)`` of every ``*.md`` named in code prose."""
    found = []
    for directory in CODE_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            source = path.relative_to(REPO_ROOT).as_posix()
            for line, text in prose(path):
                found.extend((f"{source}:{line}", name)
                             for name in _MARKDOWN_NAME.findall(text))
    if _SYNTHETIC_BREAK:
        found.append(("REPRO_DOCS_SYNTHETIC_BREAK", "NO-SUCH-DESIGN.md"))
    return found


def test_docs_actually_contain_repro_commands():
    # The checks below are vacuous if extraction silently breaks.
    commands = doc_commands()
    assert len(commands) >= 15
    assert any(source == "README.md" for source, _ in commands)
    assert any(source.startswith("docs/") for source, _ in commands)


@pytest.mark.parametrize(("source", "command"),
                         doc_commands(),
                         ids=lambda value: str(value))
def test_fenced_repro_command_parses(source, command):
    parser = build_parser()
    argv = shlex.split(command)[1:]
    try:
        parser.parse_args(argv)
    except SystemExit:
        pytest.fail(
            f"{source}: documented command does not parse against the "
            f"real CLI: `{command}` (drift, or "
            f"REPRO_DOCS_SYNTHETIC_BREAK is set)")


@pytest.mark.parametrize(("source", "target"),
                         doc_links(),
                         ids=lambda value: str(value))
def test_relative_markdown_link_resolves(source, target):
    base = REPO_ROOT if source == "REPRO_DOCS_SYNTHETIC_BREAK" \
        else (REPO_ROOT / source).parent
    resolved = (base / target.split("#", 1)[0]).resolve()
    if not resolved.exists():
        pytest.fail(
            f"{source}: relative link `{target}` does not resolve "
            f"(drift, or REPRO_DOCS_SYNTHETIC_BREAK is set)")


def test_code_actually_cites_docs():
    # The citation check below is vacuous if extraction silently breaks.
    citations = code_citations()
    assert len(citations) >= 10
    assert {source.split("/", 1)[0] for source, _ in citations} >= {
        "src", "tests", "benchmarks", "examples"}


@pytest.mark.parametrize(("source", "name"),
                         code_citations(),
                         ids=lambda value: str(value))
def test_cited_markdown_file_exists(source, name):
    # A name resolves against the repository root (how the sources cite
    # docs) or, failing that, against the citing file's directory.
    bases = [REPO_ROOT]
    if source != "REPRO_DOCS_SYNTHETIC_BREAK":
        bases.append((REPO_ROOT / source.rsplit(":", 1)[0]).parent)
    if not any((base / name).exists() for base in bases):
        pytest.fail(
            f"{source}: cites `{name}`, which does not exist "
            f"(drift, or REPRO_DOCS_SYNTHETIC_BREAK is set)")
