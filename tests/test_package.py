import graphscore


def test_every_export_resolves():
    # a stale name in __all__ breaks ``from graphscore import *``
    assert [name for name in graphscore.__all__ if not hasattr(graphscore, name)] == []
