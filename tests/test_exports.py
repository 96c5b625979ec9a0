import importlib
import pkgutil

import gravlat


def test_every_exported_name_resolves():
    missing = {}
    for info in pkgutil.iter_modules(gravlat.__path__):
        module = importlib.import_module(f"gravlat.{info.name}")
        if hasattr(module, "__all__"):
            missing[info.name] = [name for name in module.__all__ if not hasattr(module, name)]
    # the walk found the modules that export names, so the check below is not vacuous
    assert {"continuum", "designer", "geometry", "gravity_action",
            "lattice", "manybody"} <= set(missing)
    assert missing == {name: [] for name in missing}
