"""Spec catalog files.

Sectioned text, one record per spec:

    [spec <name>]
    applicability: none | single | double | all
    formula: <spec text with placeholders>

A name is an identifier (letters, digits and `_`, not starting with a
digit), since a batch files each spec's trace under it.

Placeholders: {{FAIL_A}} / {{FAIL_B}} name the injected failure variables
(`<var>_occurred` reaches the injection latch), {{TARGET_MODE}} the matrix
cell, {{WINDOW_LO}} / {{WINDOW_HI}} the injection window. Their use must
match the applicability class; every spec has to parse after placeholder
substitution with a probe combination.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from ..checker.core import obligation_store
from ..lang.lexer import ParseError
from ..ltl import PastEliminationError, has_unbounded, parse_ltl
from ..semantics.system import TransitionSystem

APPLICABILITY = ("none", "single", "double", "all")

_ALLOWED = {
    "none": set(),
    "all": set(),
    "single": {"FAIL_A", "TARGET_MODE", "WINDOW_LO", "WINDOW_HI"},
    "double": {"FAIL_A", "FAIL_B", "TARGET_MODE", "WINDOW_LO", "WINDOW_HI"},
}

_PLACEHOLDER = re.compile(r"\{\{([A-Z_]+)\}\}")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class SpecFileError(Exception):
    pass


@dataclass(frozen=True)
class SpecEntry:
    name: str
    applicability: str
    formula_text: str  # raw, with placeholders

    @property
    def placeholders(self) -> set[str]:
        return set(_PLACEHOLDER.findall(self.formula_text))

    @property
    def needs_target_mode(self) -> bool:
        return "TARGET_MODE" in self.placeholders

    def instantiate(self, substitutions: dict[str, str]) -> str:
        def sub(match):
            key = match.group(1)
            if key not in substitutions:
                raise SpecFileError(
                    f"spec {self.name!r}: no value for placeholder {{{{{key}}}}}"
                )
            return str(substitutions[key])

        return _PLACEHOLDER.sub(sub, self.formula_text)


@dataclass
class SpecCatalog:
    entries: tuple[SpecEntry, ...]
    warnings: list[str] = field(default_factory=list)

    def __iter__(self):
        return iter(self.entries)

    def get(self, name: str) -> SpecEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def for_scenario(self, scenario: str, fatal: bool) -> tuple[SpecEntry, ...]:
        """Specs applicable to a 'single' or 'double' task; FATAL combinations
        keep the general subset but skip target-mode obligations."""
        out = []
        for e in self.entries:
            if e.applicability not in ("all", scenario):
                continue
            if fatal and e.needs_target_mode:
                continue
            out.append(e)
        return tuple(out)


def parse_spec_file(path) -> SpecCatalog:
    """Parse and structurally validate a spec file (no atom checking)."""
    text = Path(path).read_text()
    entries: list[SpecEntry] = []
    name = None
    fields: dict[str, str] = {}

    def flush(lineno):
        nonlocal name, fields
        if name is None:
            return
        if "applicability" not in fields or "formula" not in fields:
            raise SpecFileError(
                f"{path}:{lineno}: spec {name!r} needs applicability and formula"
            )
        applicability = fields["applicability"]
        if applicability not in APPLICABILITY:
            raise SpecFileError(
                f"{path}:{lineno}: spec {name!r}: unknown applicability "
                f"{applicability!r}"
            )
        entry = SpecEntry(name, applicability, fields["formula"])
        allowed = _ALLOWED[applicability]
        extra = entry.placeholders - allowed
        if extra:
            raise SpecFileError(
                f"{path}:{lineno}: spec {name!r} ({applicability}) may not use "
                + ", ".join(sorted(f"{{{{{p}}}}}" for p in extra))
            )
        if any(e.name == name for e in entries):
            raise SpecFileError(f"{path}:{lineno}: duplicate spec name {name!r}")
        entries.append(entry)
        name, fields = None, {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[spec ") and line.endswith("]"):
            flush(lineno)
            name = line[len("[spec "):-1].strip()
            if not _NAME.fullmatch(name):
                raise SpecFileError(
                    f"{path}:{lineno}: spec name is not an identifier: {line!r}"
                )
            continue
        key, sep, value = line.partition(":")
        if not sep or name is None:
            raise SpecFileError(f"{path}:{lineno}: stray line {line!r}")
        fields[key.strip()] = value.strip()
    flush("eof")
    if not entries:
        raise SpecFileError(f"{path}: no specs")
    return SpecCatalog(tuple(entries))


def load_spec_catalog(catalog: SpecCatalog, probe_ts: TransitionSystem,
                      probe_substitutions: dict[str, str]) -> SpecCatalog:
    """Check every spec of a parsed catalog against a probe instance.

    probe_ts must be an elaborated model instance in which the probe
    combination is injected, so `<var>_occurred` atoms resolve. A spec the
    checker cannot check, a past operator over a future subformula, is
    rejected: building its obligation store raises. Specs with unbounded
    temporal obligations load with a warning: the bounded checker can never
    decide them positively on loop-free prefixes.
    """
    warnings = []
    for entry in catalog.entries:
        text = entry.instantiate(probe_substitutions)
        try:
            f = parse_ltl(text, probe_ts)
            obligation_store(f)
        except (ParseError, PastEliminationError) as err:
            raise SpecFileError(f"spec {entry.name!r}: {err}")
        if has_unbounded(f):
            warnings.append(
                f"spec {entry.name!r} has an unbounded F/G/U/R obligation; "
                "bounded checking may stay inconclusive (use F[a,b]/G[a,b])"
            )
    return SpecCatalog(catalog.entries, warnings)
