"""Every repo path the docs name in backticks must exist.

Scans the inline code spans and fenced blocks of the top-level docs,
``docs/*.md`` and the verify skill for tokens that start with a
top-level source directory, and fails naming each one that is neither a
file nor a directory — so a PR that deletes or moves a tool cannot leave
the prose presenting it as a runnable command.  Globs, ``{a,b}``
alternations and ``<placeholder>`` forms are skipped; ``perf/`` keeps
its own docs and is not scanned.
"""

import glob
import os
import re

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DOCS = (["README.md", "EXPERIMENTS.md", "CONTRIBUTING.md", "DESIGN.md",
         ".claude/skills/verify/SKILL.md"]
        + sorted(os.path.relpath(p, ROOT)
                 for p in glob.glob(os.path.join(ROOT, "docs", "*.md"))))

CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)
PATH = re.compile(r"(?<![\w./-])"
                  r"(?:tools|results|benchmarks|tests|src|docs|examples)/"
                  r"[^\s`'\"()\[\],;:|]*")
PATTERN_CHARS = set("*{}<>…$")


def named_paths(text):
    """Concrete repo paths inside the code spans of ``text``."""
    for span in CODE.findall(text):
        for token in PATH.findall(span):
            token = token.rstrip(".")
            if not PATTERN_CHARS & set(token):
                yield token


def test_docs_name_only_paths_that_exist():
    missing = []
    scanned = 0
    for doc in DOCS:
        full = os.path.join(ROOT, doc)
        if not os.path.exists(full):     # the skill is optional
            continue
        with open(full, encoding="utf-8") as fh:
            for token in named_paths(fh.read()):
                scanned += 1
                if not os.path.exists(os.path.join(ROOT, token)):
                    missing.append(f"{doc}: `{token}`")
    assert scanned > 100, scanned        # guard against a dead regex
    assert not missing, "docs name paths that do not exist:\n" + \
        "\n".join(sorted(set(missing)))
