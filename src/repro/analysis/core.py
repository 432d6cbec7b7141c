"""Rule framework for migralint: findings, suppressions, dispatch.

A :class:`Rule` inspects one parsed module (a :class:`ModuleContext`) and
yields :class:`Finding`\\ s.  Rules self-register through the
:func:`register` decorator; :func:`all_rules` returns them in rule-id
order.  Suppression is per-line: a ``migralint: disable=MIG001`` (or
``disable=MIG001,MIG002`` or ``disable=all``) comment on the flagged
line — or on a standalone comment line immediately above it — marks the
finding suppressed without deleting it from the report.
"""

from __future__ import annotations

import ast
import enum
import os
import re
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Type

__all__ = [
    "Severity",
    "Finding",
    "ModuleContext",
    "Rule",
    "register",
    "all_rules",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "collect_files",
]


class Severity(enum.Enum):
    """How bad a rule's findings are (per-rule, fixed at rule definition)."""

    ERROR = "error"      # breaks migration correctness outright
    WARNING = "warning"  # likely breaks it; needs a human look

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One analyzer diagnostic, pinned to a file and line."""

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    #: True when an inline suppression comment covers it.
    suppressed: bool = False

    @property
    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)

    def render(self) -> str:
        """The canonical one-line human form."""
        tag = " (suppressed)" if self.suppressed else ""
        return (f"{self.path}:{self.line}: {self.rule} "
                f"{self.severity.value}: {self.message}{tag}")


#: Comment syntax: ``migralint: disable=MIG001,MIG002`` / ``disable=all``.
#: The ids end at the first token that is not one, so a justification
#: may follow on the same line (``disable=MIG002 write-once registry``).
_SUPPRESS_RE = re.compile(
    r"#\s*migralint:\s*disable=((?:(?:[A-Z]{3}\d{3}|all)\b[,\s]*)+)", re.I)
#: A line that is nothing but a comment (suppression applies to next line).
_COMMENT_ONLY_RE = re.compile(r"^\s*#")


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line number -> set of suppressed rule ids ('all' wildcard)."""
    out: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        rules = set(re.findall(r"\w+", m.group(1).upper()))
        target = lineno
        # A standalone suppression comment covers the line below it.
        if _COMMENT_ONLY_RE.match(text):
            target = lineno + 1
        out.setdefault(target, set()).update(rules)
    return out


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one module."""

    path: str
    source: str
    tree: ast.Module
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> "ModuleContext":
        return cls(path=path, source=source,
                   tree=ast.parse(source, filename=path),
                   suppressions=_parse_suppressions(source))

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rules = self.suppressions.get(line, set())
        return rule_id.upper() in rules or "ALL" in rules


class Rule:
    """Base class for one migration-safety check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings via :meth:`found` (which fills in id/severity/path).
    """

    #: Stable rule id, e.g. ``"MIG001"``.
    id: str = "MIG000"
    #: Short kebab-case name, e.g. ``"pup-completeness"``.
    name: str = "unnamed"
    severity: Severity = Severity.ERROR
    #: One-line description for ``--list-rules`` and the docs.
    summary: str = ""

    def found(self, ctx: ModuleContext, node_or_line, message: str) -> Finding:
        """Build a finding at an AST node (or explicit line number)."""
        line = (node_or_line if isinstance(node_or_line, int)
                else getattr(node_or_line, "lineno", 1))
        return Finding(rule=self.id, severity=self.severity, path=ctx.path,
                       line=line, message=message)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


#: Global registry, id -> rule class.  Populated by :func:`register` at
#: import time only (duplicate ids are rejected) and holding classes,
#: not per-run state — safe as a module global (a ``MODULE_STATE`` row
#: in ``tests/test_layering.py``).
_RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry."""
    if cls.id in _RULES and _RULES[cls.id] is not cls:
        raise ValueError(f"rule id {cls.id} registered twice")
    _RULES[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, in rule-id order."""
    # Importing the rules package populates the registry on first use.
    import repro.analysis.rules  # noqa: F401
    return [_RULES[rid]() for rid in sorted(_RULES)]


# ---------------------------------------------------------------------------
# analysis drivers
# ---------------------------------------------------------------------------

def analyze_source(source: str, path: str = "<string>",
                   rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run rules over one module's source; returns sorted findings.

    Findings covered by an inline suppression come back with
    ``suppressed=True`` rather than being dropped, so reporters can show
    them and the gate can count only the live ones.  An unparseable
    module yields a single unsuppressable ``MIG000`` parse-error finding.
    """
    try:
        ctx = ModuleContext.from_source(source, path)
    except SyntaxError as e:
        return [Finding(rule="MIG000", severity=Severity.ERROR, path=path,
                        line=e.lineno or 1,
                        message=f"syntax error: {e.msg}")]
    findings: List[Finding] = []
    for rule in (rules if rules is not None else all_rules()):
        for f in rule.check(ctx):
            if ctx.is_suppressed(f.rule, f.line):
                f = replace(f, suppressed=True)
            findings.append(f)
    return sorted(findings, key=lambda f: f.sort_key)


def analyze_file(path: str,
                 rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run rules over one ``.py`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        return analyze_source(fh.read(), path=path, rules=rules)


def collect_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Directories are walked recursively; hidden directories and
    ``__pycache__`` are skipped.  A path that exists but is neither a
    ``.py`` file nor a directory is ignored; a missing path raises
    ``FileNotFoundError`` (the CLI turns that into a usage error).
    """
    out: List[str] = []
    for p in paths:
        if os.path.isfile(p):
            if p.endswith(".py"):
                out.append(p)
        elif os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(d for d in dirs
                                 if not d.startswith(".") and d != "__pycache__")
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(p)
    return sorted(set(out))


def analyze_paths(paths: Iterable[str],
                  rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run rules over every ``.py`` file under ``paths``, sorted."""
    findings: List[Finding] = []
    for path in collect_files(paths):
        findings.extend(analyze_file(path, rules=rules))
    return sorted(findings, key=lambda f: f.sort_key)
