"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import Database
from repro.catalog import Catalog, ColumnDef, IndexDef, TableDef
from repro.datatypes import DOUBLE, INTEGER, VARCHAR
from repro.storage.engine import StorageEngine
from tests.stacks import STACKS


@pytest.fixture(autouse=True)
def _execution_stack(request, monkeypatch):
    """Inside a :func:`tests.stacks.stack_variants` class, every
    Database the test builds starts on that class's stack."""
    stack = getattr(request.cls, "stack", None)
    if stack is None:
        return
    from repro.core.database import Settings

    shipped = Settings.__init__

    def on_stack(self):
        shipped(self)
        for name, value in STACKS[stack].items():
            setattr(self, name, value)

    monkeypatch.setattr(Settings, "__init__", on_stack)


@pytest.fixture
def db() -> Database:
    """A fresh, empty database."""
    return Database(pool_capacity=64)


@pytest.fixture
def emp_db() -> Database:
    """The employees/departments database used across integration tests."""
    database = Database(pool_capacity=64)
    database.execute(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(20), "
        "dept VARCHAR(10), salary DOUBLE, mgr INTEGER)")
    database.execute(
        "CREATE TABLE dept (dname VARCHAR(10) PRIMARY KEY, "
        "budget DOUBLE, site_city VARCHAR(12))")
    employees = [
        (1, "alice", "eng", 120.0, None),
        (2, "bob", "eng", 90.0, 1),
        (3, "carol", "eng", 95.0, 1),
        (4, "dan", "sales", 70.0, None),
        (5, "eve", "sales", 80.0, 4),
        (6, "frank", "hr", 60.0, None),
        (7, "grace", "eng", 90.0, 2),
        (8, "heidi", "sales", 75.0, 4),
    ]
    for row in employees:
        database.execute(
            "INSERT INTO emp VALUES (%d, '%s', '%s', %f, %s)"
            % (row[0], row[1], row[2], row[3],
               "NULL" if row[4] is None else row[4]))
    for name, budget, city in [("eng", 1000.0, "almaden"),
                               ("sales", 500.0, "tucson"),
                               ("hr", 200.0, "almaden")]:
        database.execute("INSERT INTO dept VALUES ('%s', %f, '%s')"
                         % (name, budget, city))
    database.analyze()
    return database


@pytest.fixture
def parts_db() -> Database:
    """The paper's quotations/inventory schema (Figure 2)."""
    database = Database(pool_capacity=64)
    database.execute(
        "CREATE TABLE quotations (partno INTEGER, price DOUBLE, "
        "order_qty INTEGER, supplier VARCHAR(20))")
    database.execute(
        "CREATE TABLE inventory (partno INTEGER PRIMARY KEY, "
        "onhand_qty INTEGER, type VARCHAR(10))")
    for i in range(30):
        database.execute(
            "INSERT INTO inventory VALUES (%d, %d, '%s')"
            % (i, (i * 3) % 17, "CPU" if i % 3 == 0 else "MEM"))
    for i in range(60):
        database.execute(
            "INSERT INTO quotations VALUES (%d, %f, %d, 'sup%d')"
            % (i % 40, 1.5 * i, i % 11, i % 5))
    database.analyze()
    return database


@pytest.fixture
def engine() -> StorageEngine:
    """A bare storage engine with one three-column table."""
    catalog = Catalog()
    eng = StorageEngine(catalog, pool_capacity=16)
    eng.create_table(TableDef("t", [
        ColumnDef("a", INTEGER, nullable=False),
        ColumnDef("b", VARCHAR),
        ColumnDef("c", DOUBLE),
    ]))
    return eng


def rows_of(result):
    """Sorted row list helper."""
    return sorted(result.rows)
