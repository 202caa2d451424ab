import datetime as dt

import pytest

from megt.config import (ConfigError, SCHEMA, defaults, format_defaults,
                         load_config, parse_value, resolve)


def test_defaults_cover_the_schema():
    values = defaults()
    assert set(values) == set(SCHEMA)
    assert values["node_count"] == 200
    assert values["steady_window"] == 200
    assert values["mechanism"] == "all"


def test_parse_value_types():
    assert parse_value("node_count", " 50 ") == 50
    assert parse_value("homophily_sigma", "2.5") == 2.5
    assert parse_value("topology", "er") == "er"
    assert parse_value("start_date", "2020-01-02") == dt.date(2020, 1, 2)


def test_parse_value_errors_name_the_key():
    with pytest.raises(ConfigError, match="mystery"):
        parse_value("mystery", "1")
    with pytest.raises(ConfigError, match="node_count"):
        parse_value("node_count", "many")
    with pytest.raises(ConfigError, match="start_date"):
        parse_value("start_date", "sometime")


def test_load_config_comments_blanks_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
# a comment line
node_count = 50   # trailing comment

layers = 3
node_count = 60
""")
    values = load_config(path)
    assert values["node_count"] == 60
    assert values["layers"] == 3
    assert values["replicas"] == 1  # untouched default


def test_load_config_include_splices_in_place(tmp_path):
    (tmp_path / "base.cfg").write_text("node_count = 99\nlayers = 4\n")
    main = tmp_path / "run.cfg"
    main.write_text("layers = 2\ninclude = base.cfg\nnode_count = 10\n")
    values = load_config(main)
    # include overrides what came before it, later lines override it
    assert values["layers"] == 4
    assert values["node_count"] == 10


def test_load_config_circular_include(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("include = b.cfg\n")
    b.write_text("include = a.cfg\n")
    with pytest.raises(ConfigError, match="circular"):
        load_config(a)


def test_load_config_structural_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="run.cfg:1"):
        load_config(path)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")


def test_resolve_validates_and_parses_strings():
    values = resolve({"node_count": 40, "start_date": "2021-05-06"})
    assert values["node_count"] == 40
    assert values["start_date"] == dt.date(2021, 5, 6)
    with pytest.raises(ConfigError, match="bogus"):
        resolve({"bogus": 1})
    # a manifest's JSON can carry NaN and Infinity as numbers
    with pytest.raises(ConfigError, match="'budget' must be finite"):
        resolve({"budget": float("nan")})
    with pytest.raises(ConfigError, match="'t_max' must be finite"):
        resolve({"t_max": "-inf"})


def test_format_defaults_is_one_line_per_key():
    text = format_defaults()
    lines = text.splitlines()
    assert len(lines) == len(SCHEMA)
    assert any("node_count" in line and "200" in line for line in lines)
