import json

import pytest

from ubootstrap.families import (
    BUILTIN_METADATA,
    FAMILY_IDS,
    RuleFileError,
    builtin,
    load_family,
    parse_rule_file,
)


def test_corpus_round_trips_through_rule_files(tmp_path):
    for name in FAMILY_IDS:
        fam = builtin(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "name": name,
            "rules": [[list(s) for s in sorted(rule)] for rule in fam.rules],
            "metadata": BUILTIN_METADATA[name],
        }))
        assert parse_rule_file(path) == (fam, BUILTIN_METADATA[name])
        assert load_family(str(path)) == load_family(name)


@pytest.mark.parametrize("text", [
    "{not json",
    '{"name": "x", "rules": []}',
    '{"name": "x", "rules": [[[0, 1.5]]]}',
    '{"name": "x", "rules": [[[0, 0]]]}',
    '{"name": "x", "rules": [[[true, false]]]}',
    '{"name": ["x"], "rules": [[[1, 0]]]}',
    '{"name": "x", "rules": [[[1, 0]]], "metadata": [1]}',
])
def test_malformed_rule_file_raises(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(RuleFileError):
        parse_rule_file(path)
