import asmd


def test_all_names_resolve():
    missing = [name for name in asmd.__all__ if not hasattr(asmd, name)]
    assert missing == []
    assert len(set(asmd.__all__)) == len(asmd.__all__)
