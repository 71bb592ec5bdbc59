"""CompileOptions is the one declaration of the compile knobs.

``db.settings`` is a mutable handle on one held, immutable
``CompileOptions`` value; the value's plan-cache key is computed once.
"""

import pickle

import pytest

from repro import CompileOptions, Database
from repro.core.options import FIELDS

#: A legal non-default value for every field.
NON_DEFAULTS = {
    "rewrite_enabled": False,
    "rewrite_strategy": "search",
    "rewrite_only_rules": ("merge_views",),
    "allow_bushy": True,
    "allow_cartesian": True,
    "rank_cutoff": 5.0,
    "sort_by_rank": False,
    "naive_recursion": True,
    "forced_join_method": "hash",
    "join_enumeration": "greedy",
    "execution_mode": "tuple",
    "batch_size": 7,
    "parallelism": "on",
    "dop": 2,
    "plan_cache": False,
    "constant_parameterization": True,
    "label": "custom",
}

#: Fields that do not change what is compiled.
UNKEYED = {"label", "plan_cache", "constant_parameterization"}


def test_every_field_has_a_non_default_sample():
    assert set(NON_DEFAULTS) == set(FIELDS)
    defaults = CompileOptions()
    for name, value in NON_DEFAULTS.items():
        assert getattr(defaults, name) != value, name


def test_warm_execute_constructs_no_options(monkeypatch):
    db = Database()
    db.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, "
               "balance INTEGER)")
    db.execute("INSERT INTO accounts VALUES (1, 10), (2, 20)")
    sql = "SELECT balance FROM accounts WHERE id = ?"
    assert db.execute(sql, [1]).rows == [(10,)]
    constructed = []
    original = CompileOptions.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CompileOptions, "__init__", counting_init)
    hits = db.plan_cache.hits
    assert db.execute(sql, [2]).rows == [(20,)]
    assert db.plan_cache.hits == hits + 1
    assert constructed == []


@pytest.mark.parametrize("name", FIELDS + ("key",))
def test_assigning_a_field_raises(name):
    options = CompileOptions()
    with pytest.raises(AttributeError):
        setattr(options, name, NON_DEFAULTS.get(name))
    assert options.key == CompileOptions().key


@pytest.mark.parametrize("name, value", [("execution_mode", "compiled"),
                                         ("dop", 0)])
def test_illegal_setting_raises_at_the_assignment(name, value):
    db = Database()
    held = db.settings.compile_options()
    with pytest.raises(ValueError):
        setattr(db.settings, name, value)
    assert db.settings.compile_options() is held
    assert getattr(db.settings, name) == getattr(CompileOptions(), name)


def test_unknown_setting_raises():
    db = Database()
    with pytest.raises(AttributeError):
        db.settings.validate_qgm = False
    with pytest.raises(AttributeError):
        db.settings.optimizer


@pytest.mark.parametrize("name", FIELDS)
def test_setting_a_field_shows_in_compile_options(name):
    db = Database()
    before = db.settings.compile_options()
    assert db.settings.compile_options() is before  # no allocation
    value = NON_DEFAULTS[name]
    setattr(db.settings, name, value)
    after = db.settings.compile_options()
    assert getattr(after, name) == value
    assert getattr(db.settings, name) == value
    for other in FIELDS:
        if other != name:
            assert getattr(after, other) == getattr(before, other)
    assert (after.key != before.key) == (name not in UNKEYED)


def test_pickle_round_trip_keeps_key_and_fields():
    options = CompileOptions(**NON_DEFAULTS)
    copy = pickle.loads(pickle.dumps(options))
    assert copy.key == options.key
    for name in FIELDS:
        assert getattr(copy, name) == getattr(options, name)
    with pytest.raises(AttributeError):
        copy.dop = 3
