import sys

import pytest

import dualdet.scenario


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(function) -> a list that gets the arguments of each call.

    Every dualdet module attribute that is the function is replaced by a
    counting wrapper, and so is every entry that is the function in a row of
    scenario._PROTOCOLS or of scenario._ROWS, the (protocol, mode) rows
    derived from it. A Scenario resolves its row when it is built, so build
    scenarios after installing.
    """
    def install(function):
        calls = []

        def counting(*args):
            calls.append(args)
            return function(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("dualdet.") and getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, counting)
        for table in (dualdet.scenario._PROTOCOLS, dualdet.scenario._ROWS):
            for key, row in table.items():
                monkeypatch.setitem(table, key, tuple(counting if entry is function else entry for entry in row))
        return calls

    return install
