import gstrat


def test_every_exported_name_resolves():
    missing = [name for name in gstrat.__all__ if not hasattr(gstrat, name)]
    assert missing == []
    assert len(set(gstrat.__all__)) == len(gstrat.__all__)
