"""The product-path census over a fixture package: what it counts as called."""

from __future__ import annotations

import sys

import pytest

from .census import KEPT, REPO, functions, run

MODULE = '''\
import functools
import os


def called():
    return 1


def uncalled(x):
    y = x + 1
    return y


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


def child_only():
    return 3


class Box:
    def method(self):
        return 4
'''

CALLER = '''\
import os
import pkg.mod as mod

mod.called()
mod.decorated()
pid = os.fork()
if pid == 0:
    mod.child_only()
    os._exit(0)
os.waitpid(pid, 0)
'''


@pytest.fixture(scope="module")
def census(tmp_path_factory) -> list[str]:
    """The census lines of one caller script run over the fixture package."""
    tmp = tmp_path_factory.mktemp("census")
    root = tmp / "src" / "pkg"
    root.mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(MODULE)
    (tmp / "caller.py").write_text(CALLER)
    kept = {"pkg/mod.py:Box.method": ("fault seam", "tests/x.py::test_y")}
    text = run([[sys.executable, "caller.py"]], root, tmp / "census.txt", cwd=tmp, kept=kept)
    assert text == (tmp / "census.txt").read_text()
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_a_called_function_is_not_listed(census):
    assert not any(line.endswith(":called") for line in census)


def test_an_uncalled_function_is_listed_with_its_line_count(census):
    assert census == [
        "    3  pkg/mod.py:uncalled",
        "    2  pkg/mod.py:Box.method  [kept: fault seam; tests/x.py::test_y]",
    ]


def test_a_decorated_function_is_keyed_by_its_decorator_line(census):
    # co_firstlineno is the decorator's line, not the ``def`` line
    assert not any("decorated" in line for line in census)


def test_a_function_called_only_in_a_child_leaving_through_os_exit(census):
    assert not any("child_only" in line for line in census)


def test_every_kept_entry_names_a_test_that_exists():
    for _why, test in KEPT.values():
        path, *scopes, name = test.split("::")
        text = (REPO / path).read_text(encoding="utf-8")
        assert f"def {name}(" in text, test
        assert all(f"class {scope}" in text for scope in scopes), test


def test_census_txt_names_only_functions_that_exist_as_listed():
    """The committed census is not stale: every entry names a function of
    ``src/repro`` with the line count it lists, and every kept entry exists
    and is marked kept (checked with :mod:`ast` alone, no product path run)."""
    found = {
        f"{lines:5d}  {path}:{name}" for path, _, name, lines in functions(REPO / "src" / "repro")
    }
    rows = [
        line for line in (REPO / "census.txt").read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    assert [row for row in rows if row.split("  [kept:")[0] not in found] == []
    assert set(KEPT) <= {row.split()[1] for row in found}
    assert {row.split()[1] for row in rows if "  [kept: " in row} == set(KEPT)
