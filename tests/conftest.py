import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings

import sailx
from sailx.experiments import build_demo_corpus, make_task

# Hypothesis draws a share of its examples from the constants of every
# loaded module of the project outside the test files, so a test's examples
# would depend on which other test files a run collects: the full suite
# also loads sailx.cli, perfbench's modules and scripts/output_digests.py.
# Loading all of them here, before any test runs, gives every run the same
# pool.
_ROOT = Path(__file__).resolve().parent.parent
for _module in pkgutil.iter_modules(sailx.__path__):
    importlib.import_module(f"sailx.{_module.name}")
sys.path.insert(0, str(_ROOT / "perfbench"))
for _path in sorted((_ROOT / "perfbench").glob("*.py")):
    if not _path.stem.startswith("test_"):
        importlib.import_module(_path.stem)
sys.path.insert(0, str(_ROOT / "scripts"))
importlib.import_module("output_digests")


# A failing example is reported as found, not shrunk: shrinking a broken
# kernel's examples ran for minutes, so that a fault looked like a hang.
# The examples drawn and the assertions are the same, so every failure
# still fails. Each test's own settings take the rest from this profile.
settings.register_profile(
    "tier1", phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def task():
    return make_task()


@pytest.fixture(scope="session")
def demos20():
    return build_demo_corpus(n=20, seed=0)


@pytest.fixture(scope="session")
def demos50():
    return build_demo_corpus(n=50, seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
