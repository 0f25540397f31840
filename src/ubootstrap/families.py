"""Bundled rule corpus and the JSON rule-file format.

A rule file is {"name": str, "rules": [[[x, y], ...], ...]} with integer
coordinates, plus optional free-form metadata (the corpus records the
expected classification for regression).  The corpus lives in
``BUILTIN_RULES`` and ``BUILTIN_METADATA``; rule files come from outside the
program and are validated by the parser.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path
from .family import UpdateFamily


def _pairs(sites):
    return [list(c) for c in combinations(sites, 2)]


def _triples(sites):
    return [list(c) for c in combinations(sites, 3)]


NEIGHBOURS = [(1, 0), (-1, 0), (0, 1), (0, -1)]

BUILTIN_RULES = {
    "two-neighbour": _pairs(NEIGHBOURS),
    "duarte": _pairs([(-1, 0), (0, 1), (0, -1)]),
    "van-enter-hulshof": _triples([(-2, 0), (-1, 0), (0, 1), (0, -1), (1, 0), (2, 0)]),
    "r1": [[s] for s in NEIGHBOURS],
    "r3": _triples(NEIGHBOURS),
    # asymmetric stress families
    "asym-balanced": _pairs([(-1, 0), (1, 0), (0, -1), (0, 2)]),
    "mixed-arc": [[(-1, 0), (0, -1)], [(1, 0), (0, 1)], [(-1, 0), (0, 1)]],
    # symmetric threshold family with difficulty 2 in all four axis directions
    "gg-two": [list(c) for c in combinations(
        [(-2, 0), (-1, 0), (1, 0), (2, 0), (0, -2), (0, -1), (0, 1), (0, 2)], 4)],
}

BUILTIN_METADATA = {
    "two-neighbour": {"expected": {"kind": "Critical", "alpha": 1, "balanced": True}},
    "duarte": {"expected": {"kind": "Critical", "alpha": 1, "balanced": False, "drift": True}},
    "van-enter-hulshof": {"expected": {"kind": "Critical", "alpha": 1, "balanced": False, "drift": False}},
    "r1": {"expected": {"kind": "Supercritical"}},
    "r3": {"expected": {"kind": "Subcritical"}},
    "asym-balanced": {"expected": {"kind": "Critical", "alpha": 1, "balanced": True}},
    "mixed-arc": {"expected": {"kind": "Critical", "alpha": 1, "balanced": True}},
    "gg-two": {"expected": {"kind": "Critical", "alpha": 2, "balanced": True}},
}

FAMILY_IDS = sorted(BUILTIN_RULES)


class RuleFileError(ValueError):
    pass


def parse_rule_data(data) -> tuple[UpdateFamily, dict]:
    if not isinstance(data, dict):
        raise RuleFileError("rule file must be a JSON object")
    name = data.get("name", "")
    rules = data.get("rules")
    if not isinstance(rules, list) or not rules:
        raise RuleFileError("rule file needs a non-empty 'rules' list")
    parsed = []
    for i, rule in enumerate(rules):
        if not isinstance(rule, list) or not rule:
            raise RuleFileError(f"rule {i} is not a non-empty list")
        sites = []
        for j, site in enumerate(rule):
            if (not isinstance(site, list) or len(site) != 2
                    or not all(isinstance(c, int) for c in site)):
                raise RuleFileError(f"rule {i} site {j} is not an integer pair")
            sites.append((site[0], site[1]))
        parsed.append(sites)
    try:
        fam = UpdateFamily.of(parsed, name=name)
    except ValueError as e:
        raise RuleFileError(str(e)) from e
    return fam, data.get("metadata", {})


def parse_rule_file(path) -> tuple[UpdateFamily, dict]:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise RuleFileError(f"{path}: line {e.lineno} col {e.colno}: {e.msg}") from e
    return parse_rule_data(data)


def builtin(name: str) -> UpdateFamily:
    if name not in BUILTIN_RULES:
        raise KeyError(f"unknown family {name!r}; have {', '.join(FAMILY_IDS)}")
    return UpdateFamily.of(BUILTIN_RULES[name], name=name)


def load_family(spec: str) -> tuple[UpdateFamily, dict]:
    """Resolve a family by corpus id or rule-file path."""
    if spec in BUILTIN_RULES:
        return builtin(spec), BUILTIN_METADATA.get(spec, {})
    return parse_rule_file(spec)

