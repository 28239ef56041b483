"""The public API is declared once: the package exports the union of its
modules' own ``__all__`` lists."""

import levyhull

MODULES = (
    "closed_form", "errors", "hullgeom", "limits",
    "lp_volumes", "mc_engine", "results", "rng_stable",
)


def test_public_api_is_the_union_of_module_lists():
    names = levyhull.__all__
    assert len(names) == len(set(names)) == 63
    for mod_name in MODULES:
        module = getattr(levyhull, mod_name)
        for name in module.__all__:
            assert name in names
            assert getattr(levyhull, name) is getattr(module, name)
    assert {"ConfigError", "LevyHullError", "trial_rng", "hull3d"} <= set(names)
