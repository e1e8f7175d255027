"""The package's public names: one owner each, all resolvable, and the
README's session runs against them."""

import re
from pathlib import Path

import numpy as np

import blochwalk
from blochwalk import coherent, su2, walk, wigner

MODULES = (su2, coherent, walk, wigner)


def test_module_name_lists_are_disjoint():
    # a name in two lists would be silently shadowed by the star-imports
    names = [n for m in MODULES for n in m.__all__]
    assert len(names) == len(set(names))


def test_package_exports_every_module_name():
    assert set(blochwalk.__all__) \
        == {"__version__"} | {n for m in MODULES for n in m.__all__}
    for name in blochwalk.__all__:
        assert hasattr(blochwalk, name), name


def test_removed_names_are_not_exported():
    for name in ("KernelWeights", "phi_moment", "wigner_at",
                 "rotated_dicke_frame", "cg_coefficient", "lnfact",
                 "overlap_modulus", "tv_distance", "step",
                 "conditional_shift"):
        assert name not in blochwalk.__all__
        assert not hasattr(blochwalk, name), name
        assert all(not hasattr(m, name) for m in MODULES), name


def test_test_only_members_are_gone():
    # checks and aliases that only the tests used live in `oracles` now
    assert not hasattr(blochwalk.DensityMatrix, "validate")
    assert not hasattr(blochwalk.SpinQuantum, "j")


def test_readme_minimal_session_runs(capsys):
    """The README's minimal Python session runs as written against the
    package, so the documented API cannot drift from it."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    after = text[text.index("A minimal session:"):]
    match = re.search(r"```python\n(.*?)```", after, re.S)
    namespace = {}
    exec(compile(match.group(1), str(readme), "exec"), namespace)
    dist, same = namespace["dist"], namespace["same"]
    assert abs(dist.total - 1.0) < 1e-12
    assert np.array_equal(same.harmonics, dist.harmonics)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and printed[1].startswith("sigma = ")
