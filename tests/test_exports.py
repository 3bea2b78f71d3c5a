import specmm
from specmm import classic, domains, embed, files, saddle, symmat


def test_each_public_name_is_exported_once_from_its_module():
    # the package lists no name itself: __all__ is the modules' lists in
    # import order, and each name is its module's object
    modules = (symmat, domains, saddle, embed, classic, files)
    names = specmm.__all__
    assert len(set(names)) == len(names)
    assert names == ["__version__", *(name for mod in modules for name in mod.__all__)]
    assert isinstance(specmm.__version__, str)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(specmm, name) is getattr(mod, name), name
