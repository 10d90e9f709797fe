"""The lazy package namespace and the command line's BLAS thread default.

What a process has imported decides both, so those checks run in a fresh
interpreter whose environment has no BLAS thread variable unless a test sets one.
"""

import json
import os
import subprocess
import sys

import pytest

import steerkit

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHOW_BLAS = f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_VARIABLES!r}}}))"


def run_fresh(code: str, **env):
    """Run ``code`` in a new interpreter and parse the JSON it prints last."""
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        code = "import json, sys, steerkit; steerkit.__version__; print(json.dumps('numpy' in sys.modules))"
        assert run_fresh(code) is False

    def test_every_exported_name_is_its_submodules(self):
        code = (
            "import importlib, json, steerkit\n"
            "print(json.dumps([n for n in steerkit.__all__ if getattr(steerkit, n) is not "
            "getattr(importlib.import_module('steerkit.' + steerkit._SOURCE[n]), n)]))"
        )
        assert run_fresh(code) == []

    def test_star_import_gives_every_exported_name(self):
        namespace = {}
        exec("from steerkit import *", namespace)
        assert all(namespace[name] is getattr(steerkit, name) for name in steerkit.__all__)

    def test_dir_lists_the_exported_names_before_any_is_used(self):
        listed, exported = run_fresh("import json, steerkit; print(json.dumps([dir(steerkit), steerkit.__all__]))")
        assert len(set(exported)) == len(exported) == 69
        assert set(exported) <= set(listed)
        assert "__version__" in listed and listed == sorted(listed)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'steerkit' has no attribute 'no_such_name'"):
            steerkit.no_such_name
        assert not hasattr(steerkit, "cli_main")


class TestBlasThreadDefault:
    def test_cli_defaults_to_one_thread(self):
        assert run_fresh(f"import json, os, steerkit.cli; {SHOW_BLAS}") == dict.fromkeys(BLAS_VARIABLES, "1")

    @pytest.mark.parametrize("variable", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
    def test_a_users_choice_is_kept_and_nothing_added(self, variable):
        got = run_fresh(f"import json, os, steerkit.cli; {SHOW_BLAS}", **{variable: "2"})
        assert got == {k: "2" if k == variable else None for k in BLAS_VARIABLES}

    def test_numpy_imported_first_leaves_the_environment_alone(self):
        code = (
            "import json, os, numpy\n"
            "before = dict(os.environ)\n"
            "import steerkit.cli\n"
            "print(json.dumps(dict(os.environ) == before))"
        )
        assert run_fresh(code) is True
