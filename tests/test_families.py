import pytest

from ubootstrap.families import (
    BUILTIN_METADATA,
    FAMILY_IDS,
    RuleFileError,
    builtin,
    load_family,
    parse_rule_file,
    rule_file_text,
    write_corpus,
)


def test_corpus_round_trips_through_rule_files(tmp_path):
    paths = write_corpus(tmp_path)
    assert [p.stem for p in paths] == FAMILY_IDS
    for name, path in zip(FAMILY_IDS, paths):
        fam, meta = parse_rule_file(path)
        assert fam == builtin(name)
        assert meta == BUILTIN_METADATA[name]
        assert rule_file_text(fam, meta) == path.read_text()
        assert load_family(str(path)) == load_family(name)


@pytest.mark.parametrize("text", [
    "{not json",
    '{"name": "x", "rules": []}',
    '{"name": "x", "rules": [[[0, 1.5]]]}',
    '{"name": "x", "rules": [[[0, 0]]]}',
])
def test_malformed_rule_file_raises(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(RuleFileError):
        parse_rule_file(path)
