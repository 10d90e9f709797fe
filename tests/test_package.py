"""The lazy package namespace, the command line's deferred imports and its BLAS thread default.

What a process has imported decides all three, so those checks run in a fresh
interpreter whose environment has no BLAS thread variable unless a test sets one.
"""

import json
import os
import subprocess
import sys

import pytest

import steerkit

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_NOW = f"{{k: os.environ.get(k) for k in {BLAS_VARIABLES!r}}}"
SHOW_BLAS = f"print(json.dumps({BLAS_NOW}))"


SUBMODULES = ["assemblage", "cli", "experiments", "linalg", "metrology", "pure", "sampling", "serialize", "states"]
LOADED = "sorted(m[len('steerkit.'):] for m in sys.modules if m.startswith('steerkit.'))"


def fresh_env(**env) -> dict[str, str]:
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    child_env.update(env)
    return child_env


def run_fresh(code: str, **env):
    """Run ``code`` in a new interpreter and parse the JSON it prints last."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=fresh_env(**env))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def imports_of(*args) -> tuple[int, set[str]]:
    """Exit code of a fresh ``python -X importtime ARGS`` and the modules it imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=fresh_env())
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc.returncode, {line.rsplit("|", 1)[-1].strip() for line in lines}


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
        assert len(set(exported)) == len(exported) == 57
        assert set(exported) <= set(listed)
        assert "__version__" in listed and listed == sorted(listed)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'steerkit' has no attribute 'no_such_name'"):
            steerkit.no_such_name
        assert not hasattr(steerkit, "cli_main")


class TestDeferredImports:
    """``steerkit.cli`` parses the command line before it loads numpy or any submodule."""

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["ghz"], 2)], ids=["help", "usage_error"])
    def test_module_run_loads_no_numpy(self, argv, code):
        exit_code, modules = imports_of("-m", "steerkit.cli", *argv)
        assert exit_code == code
        assert "argparse" in modules and "steerkit" in modules
        assert not {m for m in modules if m == "numpy" or m.startswith(("numpy.", "steerkit."))}

    def test_console_script_help_loads_no_numpy(self):
        code = (
            "import json, sys\n"
            "from steerkit.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit as exc:\n"
            "    print(json.dumps([exc.code, 'numpy' in sys.modules]))"
        )
        assert run_fresh(code) == [0, False]

    def test_numpy_imported_first_loads_every_submodule(self):
        assert run_fresh(f"import json, sys, numpy, steerkit.cli; print(json.dumps({LOADED}))") == SUBMODULES

    @pytest.mark.parametrize(
        "argv, left_out",
        [
            (["ghz", "--n", "1:2"], {"sampling", "serialize"}),
            (["witness", "{tmp}/bell.json", "--observable", "{tmp}/obs.json", "--format", "json"], {"experiments", "sampling"}),
        ],
        ids=["ghz", "witness"],
    )
    def test_a_command_loads_only_what_it_calls(self, argv, left_out, tmp_path):
        from steerkit.states import ghz_state

        from conftest import save_json, state_to_json

        save_json(state_to_json(ghz_state(2)), tmp_path / "bell.json")
        save_json({"matrix": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}, tmp_path / "obs.json")
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "out")]
        code, loaded = run_fresh(f"import json, sys, steerkit.cli; print(json.dumps([steerkit.cli.main({argv!r}), {LOADED}]))")
        assert code == 0
        assert set(loaded) | left_out == set(SUBMODULES) and not set(loaded) & left_out


class TestBlasThreadDefault:
    def test_cli_defaults_to_one_thread(self):
        assert run_fresh(f"import json, os, steerkit.cli; {SHOW_BLAS}") == dict.fromkeys(BLAS_VARIABLES, "1")

    @pytest.mark.parametrize("variable", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
    def test_a_users_choice_is_kept_and_nothing_added(self, variable):
        got = run_fresh(f"import json, os, steerkit.cli; {SHOW_BLAS}", **{variable: "2"})
        assert got == {k: "2" if k == variable else None for k in BLAS_VARIABLES}

    def test_numpy_loads_under_the_default_when_a_command_runs(self, tmp_path):
        code = (
            "import json, os, sys, steerkit.cli\n"
            "before = 'numpy' in sys.modules\n"
            f"steerkit.cli.main(['ghz', '--n', '1', '--out', {str(tmp_path / 'ghz.csv')!r}])\n"
            f"print(json.dumps([before, 'numpy' in sys.modules, {BLAS_NOW}]))"
        )
        assert run_fresh(code) == [False, True, dict.fromkeys(BLAS_VARIABLES, "1")]

    def test_numpy_imported_first_leaves_the_environment_alone(self):
        code = (
            "import json, os, numpy\n"
            "before = dict(os.environ)\n"
            "import steerkit.cli\n"
            "print(json.dumps(dict(os.environ) == before))"
        )
        assert run_fresh(code) is True
