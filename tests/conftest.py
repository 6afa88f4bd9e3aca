import sys

import pytest

import dualdet.scenario


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(function) -> a list that gets the arguments of each call.

    Every dualdet module attribute and scenario-table entry that is the
    function is replaced by a counting wrapper. A Scenario resolves its
    table row when it is built, so build scenarios after installing.
    """
    def install(function):
        calls = []

        def counting(*args):
            calls.append(args)
            return function(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("dualdet.") and getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, counting)
        for protocol, row in dualdet.scenario._PROTOCOLS.items():
            monkeypatch.setitem(dualdet.scenario._PROTOCOLS, protocol,
                                tuple(counting if entry is function else entry for entry in row))
        return calls

    return install
