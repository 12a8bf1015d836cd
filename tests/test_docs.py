"""Executable documentation: every fenced ``python`` block must run.

The docs are part of the contract surface — PR after PR has shown that
prose drifts from code faster than tests do — so this harness extracts
every fenced code block from ``README.md`` and ``docs/*.md`` and executes
the Python ones:

* blocks fenced as ```` ```python ```` are executed, top to bottom, with
  all blocks of one file sharing a namespace (later blocks may use names
  defined earlier, exactly as a reader would);
* blocks fenced as ```` ```python no-run ```` render as Python but are
  skipped (illustrative fragments that need context the doc does not
  build);
* non-Python fences (``sh``, ``text``, diagrams) are ignored.

A doc claiming an API that no longer exists therefore fails the tier-1
suite, which is what "CI-verified documentation" means here.  So does a doc
citing a file that no longer exists: every repo-relative path in the prose
(``tests/…``, ``benchmarks/…``, ``src/…``, ``docs/…``, ``examples/…``) must
resolve.
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)

_FENCE = re.compile(r"^```(\S*)\s*(.*)$")
#: A repo-relative path as the docs cite one; a ``::test_name`` suffix is
#: left outside the match, and ``*`` makes it a glob.
_CITED_PATH = re.compile(
    r"(?<![\w/.-])((?:benchmarks|tests|src|docs|examples)/[\w./*-]+?"
    r"\.(?:py|md|jsonl|json|txt|yml))(?!\w)"
)


def extract_blocks(path: Path):
    """Yield ``(start_line, info, code)`` for every fenced block in a file."""
    lines = path.read_text(encoding="utf-8").split("\n")
    inside = False
    info = ""
    extra = ""
    start = 0
    code: list = []
    for number, line in enumerate(lines, start=1):
        match = _FENCE.match(line.strip()) if line.strip().startswith("```") else None
        if not inside:
            if match:
                inside = True
                info, extra = match.group(1), match.group(2).strip()
                start = number + 1
                code = []
        elif line.strip() == "```":
            inside = False
            yield start, (info + (" " + extra if extra else "")).strip(), "\n".join(code)
        else:
            code.append(line)


def runnable_python_blocks(path: Path):
    """The blocks of one file that the harness must execute."""
    return [
        (start, code)
        for start, info, code in extract_blocks(path)
        if info == "python"
    ]


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda path: path.name)
def test_python_blocks_execute(path):
    """Every ``python`` block of the file runs without raising (shared
    namespace per file, stdout captured)."""
    if not path.exists():
        pytest.fail(f"documented file {path} is missing")
    blocks = runnable_python_blocks(path)
    namespace = {"__name__": f"doc_{path.stem}"}
    for start, code in blocks:
        compiled = compile(code, f"{path.name}:{start}", "exec")
        try:
            with redirect_stdout(io.StringIO()):
                exec(compiled, namespace)  # noqa: S102 - the docs ARE the input
        except Exception as error:  # pragma: no cover - failure reporting
            pytest.fail(
                f"{path.name} block at line {start} failed: "
                f"{type(error).__name__}: {error}"
            )


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda path: path.name)
def test_cited_paths_exist(path):
    """Every repo-relative file the doc cites is in the repo, so a number
    can never outlive the file it was read from."""
    dangling = [
        f"{path.name}:{number}: {cited}"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for cited in _CITED_PATH.findall(line)
        if not any(REPO_ROOT.glob(cited))
    ]
    assert not dangling, "\n".join(dangling)


def test_docs_actually_contain_runnable_blocks():
    """The harness must be biting on the core docs — if refactoring drops
    every runnable block from one of these files, the coverage silently
    evaporating is itself the regression."""
    must_have = {
        "README.md",
        "ARCHITECTURE.md",
        "API.md",
        "ENGINE.md",
        "OBSERVABILITY.md",
        "SERVER.md",
    }
    for path in DOC_FILES:
        if path.name in must_have:
            assert runnable_python_blocks(path), (
                f"{path.name} has no runnable ```python blocks"
            )


def test_fence_info_strings_are_known():
    """Catch typo'd fence tags (```pyton, ```Python) before they silently
    skip execution."""
    allowed_prefixes = ("python", "sh", "bash", "text", "")
    for path in DOC_FILES:
        for start, info, _ in extract_blocks(path):
            tag = info.split()[0] if info else ""
            assert tag in allowed_prefixes, (
                f"{path.name}:{start}: unknown fence tag {info!r}"
            )
