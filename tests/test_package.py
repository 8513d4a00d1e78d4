import jetsym


def test_public_names_resolve():
    assert [name for name in jetsym.__all__ if not hasattr(jetsym, name)] == []
    assert len(set(jetsym.__all__)) == len(jetsym.__all__)
    namespace: dict = {}
    exec("from jetsym import *", namespace)
    assert set(jetsym.__all__) <= set(namespace)
