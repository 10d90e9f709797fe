import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steerkit.cli import main, parse_range
from steerkit.linalg import ValidationError
from steerkit.serialize import save_json, state_to_json
from steerkit.states import ghz_state

from golden.regen import CONFIGS, moved_cells

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, tmp_path=None):
    return main(list(args))


# Invalid command lines, each of which must exit with 2; "{tmp}" is the
# ``witness_files`` directory.
INVALID_COMMANDS = {
    "split-dicke_odd_n": ["split-dicke", "--n", "5"],
    "split-dicke_k_too_large": ["split-dicke", "--n", "4", "--k", "9"],
    "ghz_n0": ["ghz", "--n", "0"],
    "ghz-noise_p_above_1": ["ghz-noise", "--n", "2", "--noise", "1.5"],
    "cat_negative_alpha": ["cat", "--alpha", "-1"],
    "multigen_d1": ["multigen", "--d", "1"],
    "estimate_shots0": ["estimate", "--shots", "0"],
    "estimate_reps1": ["estimate", "--reps", "1"],
    "estimate_reps0": ["estimate", "--reps", "0"],
    "quantify_step0": ["quantify", "--step", "0"],
    "quantify_negative_step": ["quantify", "--step", "-0.1"],
    "quantify_step_not_dividing_1": ["quantify", "--step", "0.6"],
    "witness_unknown_type": ["witness", "{tmp}/foo.json", "--observable", "{tmp}/obs.json"],
}


@pytest.fixture
def witness_files(tmp_path):
    """tmp_path holding foo.json, a witness input of unknown "type", and obs.json, an observable."""
    (tmp_path / "foo.json").write_text('{"type": "foo"}', encoding="utf-8")
    save_json({"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, tmp_path / "obs.json")
    return tmp_path


class TestParseRange:
    def test_single_value(self):
        assert parse_range("5", int) == [5]

    def test_inclusive_endpoints(self):
        assert parse_range("4:8", int) == [4, 5, 6, 7, 8]
        assert parse_range("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_half_step_endpoint(self):
        # endpoint within half a step is kept
        vals = parse_range("0:0.3:0.1")
        assert vals == [0.0, 0.1, 0.2, 0.3]

    def test_bad_range(self):
        with pytest.raises(ValidationError):
            parse_range("1:2:3:4")
        with pytest.raises(ValidationError):
            parse_range("1:2:-1")


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code = run_cli(["ghz", "--n", "2", "--out", str(tmp_path / "o.csv")])
        assert code == 0

    @pytest.mark.parametrize("argv", list(INVALID_COMMANDS.values()), ids=list(INVALID_COMMANDS))
    def test_validation_error_is_2(self, argv, witness_files):
        argv = [a.format(tmp=witness_files) for a in argv]
        assert run_cli(argv + ["--out", str(witness_files / "o.csv")]) == 2

    def test_unknown_witness_type_names_accepted_types(self, witness_files, capsys):
        argv = ["witness", str(witness_files / "foo.json"), "--observable", str(witness_files / "obs.json")]
        assert run_cli(argv) == 2
        assert "$.type: expected 'assemblage' or 'bipartite_pure_state', got 'foo'" in capsys.readouterr().err

    def test_schema_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        obs = tmp_path / "obs.json"
        save_json({"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, obs)
        code = run_cli(["witness", str(bad), "--observable", str(obs)])
        assert code == 2

    def test_unknown_experiment_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["no-such-thing"])
        assert exc.value.code == 2

    def test_unwritable_path_is_2(self):
        code = run_cli(["ghz", "--n", "2", "--out", "/nonexistent-dir/x.csv"])
        assert code == 2

    def test_numeric_failure_is_3(self, monkeypatch):
        from steerkit import cli
        from steerkit.linalg import NumericError

        def boom(args):
            raise NumericError("synthetic eigensolver failure")

        monkeypatch.setitem(cli.__dict__, "_cmd_ghz", boom)
        parser = cli.build_parser()
        args = parser.parse_args(["ghz", "--n", "2"])
        args.func = boom
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
        assert cli.main([]) == 3


class TestOutputs:
    def test_ghz_csv_columns(self, tmp_path):
        out = tmp_path / "ghz.csv"
        assert run_cli(["ghz", "--n", "4:8", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["n_bob", "cond_qfi", "cond_qfi_ref"]
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            n = int(cells[0])
            assert abs(float(cells[1]) - n * n) < 1e-9 * n * n
            assert float(cells[2]) == n * n

    def test_json_format(self, tmp_path):
        out = tmp_path / "ghz.json"
        assert run_cli(["ghz", "--n", "2", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "n_bob"
        assert doc["rows"][0][0] == 2

    def test_estimate_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["estimate", "--shots", "500", "--reps", "20", "--seed", "7"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_witness_pure_state(self, tmp_path):
        state_path = tmp_path / "bell.json"
        save_json(state_to_json(ghz_state(2)), state_path)
        obs = tmp_path / "obs.json"
        save_json({"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, obs)
        out = tmp_path / "report.json"
        code = run_cli(["witness", str(state_path), "--observable", str(obs), "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["steering"] is True
        assert abs(doc["cond_qfi"] - 4.0) < 1e-8
        assert abs(doc["s_max_pure"] - 0.5) < 1e-12
        assert abs(doc["s_avg_pure"] - 1.5) < 1e-12

    def test_witness_assemblage_input(self, tmp_path):
        from steerkit.experiments import ghz_assemblage
        from steerkit.serialize import assemblage_to_json

        asm_path = tmp_path / "asm.json"
        save_json(assemblage_to_json(ghz_assemblage(2)), asm_path)
        obs = tmp_path / "obs.json"
        jz = np.diag([1.0, 0.0, 0.0, -1.0])
        save_json({"matrix": [[[float(jz[i, j]), 0.0] for j in range(4)] for i in range(4)]}, obs)
        out = tmp_path / "report.json"
        code = run_cli(["witness", str(asm_path), "--observable", str(obs), "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["cond_qfi"] - 4.0) < 1e-8

    def test_witness_assemblage_quantify(self, tmp_path):
        from steerkit.experiments import ghz_assemblage
        from steerkit.serialize import assemblage_to_json

        asm_path = tmp_path / "asm.json"
        save_json(assemblage_to_json(ghz_assemblage(1)), asm_path)
        obs = tmp_path / "obs.json"
        save_json({"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, obs)
        out = tmp_path / "report.json"
        code = run_cli(
            ["witness", str(asm_path), "--observable", str(obs), "--quantify", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        # Bell assemblage with sz/sx settings: the exact maximum over these
        # settings reaches the pure-state optimum 1/2
        assert abs(doc["s_lower_bound"] - 0.5) <= 1e-9

    def test_witness_rejects_bare_density(self, tmp_path):
        from steerkit.serialize import density_to_json

        rho_path = tmp_path / "rho.json"
        save_json(density_to_json(np.eye(2) / 2), rho_path)
        obs = tmp_path / "obs.json"
        save_json({"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, obs)
        assert run_cli(["witness", str(rho_path), "--observable", str(obs)]) == 2


class TestGoldenFiles:
    """Each shipped experiment config reproduces byte-identical output."""


    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_golden(self, name, tmp_path):
        out = tmp_path / name
        assert run_cli(CONFIGS[name] + ["--out", str(out)]) == 0
        golden = GOLDEN / name
        assert golden.exists(), f"golden file {name} missing; regenerate with tests/golden/regen.py"
        assert out.read_bytes() == golden.read_bytes()

    def test_diff_lists_moved_cells(self):
        old = "k,a,b\n0,1,2\n2,3,4\n"
        new = "k,a,b\n0,1,2.5\n2,3,4\n4,5,6\n"
        assert moved_cells("t.csv", old, new) == ["t.csv row 1 (k=0) b: 2 -> 2.5", "t.csv row 3 added: 4,5,6"]
        assert moved_cells("t.csv", new, new) == []


class TestReferenceColumns:
    """Computed/closed-form column pairs stay within acceptance tolerances."""

    TOLERANCES = {  # per golden file: relative tolerance for value-vs-ref pairs
        "ghz.csv": 1e-9,
        "ghz_noise.csv": 1e-8,
        "split_dicke.csv": 1e-9,
        "split_dicke_partition.csv": 1e-9,
        "cat.csv": 1e-7,
        "multigen.csv": 1e-8,
    }

    @pytest.mark.parametrize("name", sorted(TOLERANCES))
    def test_max_relative_deviation(self, name):
        lines = (GOLDEN / name).read_text().strip().split("\n")
        header = lines[0].split(",")
        pairs = [
            (header.index(col[: -len("_ref")]), i)
            for i, col in enumerate(header)
            if col.endswith("_ref") and col[: -len("_ref")] in header
        ]
        assert pairs, f"{name} carries no reference columns"
        tol = self.TOLERANCES[name]
        for line in lines[1:]:
            cells = line.split(",")
            for val_idx, ref_idx in pairs:
                if cells[ref_idx] == "" or cells[val_idx] == "":
                    continue
                val, ref = float(cells[val_idx]), float(cells[ref_idx])
                assert abs(val - ref) <= tol * max(abs(ref), 1.0)


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "o.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "steerkit.cli", "ghz", "--n", "2", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_runtime_imports_numpy_only(self):
        probe = "import sys, steerkit.cli; print(sorted({'mpmath', 'scipy'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestFlagAliases:
    def test_ghz_noise_p_alias(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(["ghz-noise", "--n", "2", "--noise", "0.5", "--out", str(a)]) == 0
        assert run_cli(["ghz-noise", "--n", "2", "--p", "0.5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ghz_noise_requires_probability(self):
        assert run_cli(["ghz-noise", "--n", "2"]) == 2
