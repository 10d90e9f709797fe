import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steerkit.cli import MAX_RANGE_POINTS, main, parse_range
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
    # malformed and non-finite numbers
    "ghz_n_not_an_integer": ["ghz", "--n", "2.5"],
    "ghz_n_not_a_number": ["ghz", "--n", "abc"],
    "ghz_range_stop_not_a_number": ["ghz", "--n", "1:x"],
    "multigen_infinite_range_stop": ["multigen", "--d", "2:inf"],
    "cat_nan_alpha": ["cat", "--alpha", "nan"],
    "ghz_nan_phi": ["ghz", "--n", "2", "--phi", "nan"],
    "estimate_infinite_theta": ["estimate", "--theta", "inf"],
    "split-dicke_k_range": ["split-dicke", "--n", "10", "--k", "1:3"],
    # sizes over their documented limits (``TestExitCodes.test_over_limit_names_the_limit``)
    "ghz_over_qubit_limit": ["ghz", "--n", "1:23"],
    "ghz-noise_over_qubit_limit": ["ghz-noise", "--n", "23", "--noise", "0.2"],
    "quantify_over_point_limit": ["quantify", "--step", "0.0005"],
    "quantify_step_with_infinite_grid": ["quantify", "--step", "1e-320"],
    "multigen_over_d_limit": ["multigen", "--d", "2:17"],
    "split-dicke_over_n_limit": ["split-dicke", "--n", "200000"],
    "split-dicke-partition_over_n_limit": ["split-dicke-partition", "--n", "401"],
    "ghz_far_over_qubit_limit": ["ghz", "--n", "100000"],
    "cat_over_range_point_limit": ["cat", "--alpha", "0:2:1e-12"],
    "multigen_over_range_point_limit": ["multigen", "--d", "2:1e300"],
    "cat_over_fock_cutoff_limit": ["cat", "--alpha", "0:25"],
    "cat_far_over_fock_cutoff_limit": ["cat", "--alpha", "100"],
}
OVER_LIMIT = {
    "ghz_over_qubit_limit": "MAX_STATE_BYTES",
    "ghz-noise_over_qubit_limit": "MAX_STATE_BYTES",
    "quantify_over_point_limit": "MAX_QUANTIFY_POINTS",
    "quantify_step_with_infinite_grid": "MAX_QUANTIFY_POINTS",
    "multigen_over_d_limit": "MAX_MULTIGEN_D",
    "split-dicke_over_n_limit": "MAX_SPLIT_DICKE_N",
    "split-dicke-partition_over_n_limit": "MAX_PARTITION_N",
    "ghz_far_over_qubit_limit": "MAX_STATE_BYTES",
    "cat_over_range_point_limit": "MAX_RANGE_POINTS",
    "multigen_over_range_point_limit": "MAX_RANGE_POINTS",
    "cat_over_fock_cutoff_limit": "MAX_FOCK_CUTOFF",
    "cat_far_over_fock_cutoff_limit": "MAX_FOCK_CUTOFF",
}


@pytest.fixture
def witness_files(tmp_path):
    """tmp_path holding witness inputs and an observable (obs.json, sigma_z).

    foo.json is of unknown "type"; bell.json is a Bell state and asm.json its
    sz/sx assemblage.
    """
    from steerkit.experiments import ghz_assemblage
    from steerkit.serialize import assemblage_to_json

    (tmp_path / "foo.json").write_text('{"type": "foo"}', encoding="utf-8")
    save_json(state_to_json(ghz_state(2)), tmp_path / "bell.json")
    save_json(assemblage_to_json(ghz_assemblage(1)), tmp_path / "asm.json")
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

    @pytest.mark.parametrize(
        "text, kind, message",
        [
            ("2.5", int, "cannot parse '2.5' as an integer"),
            ("abc", float, "cannot parse 'abc' as a number"),
            ("1:x", int, "cannot parse 'x' in '1:x' as a number"),
            ("nan", float, "'nan' is not finite"),
            ("2:inf", int, "'inf' in '2:inf' is not finite"),
            ("0:1:nan", float, "'nan' in '0:1:nan' is not finite"),
        ],
    )
    def test_malformed_or_non_finite_number(self, text, kind, message):
        with pytest.raises(ValidationError, match=message):
            parse_range(text, kind)

    def test_point_limit_is_checked_before_the_list_is_built(self):
        top = MAX_RANGE_POINTS - 1
        assert len(parse_range(f"0:{top}", int)) == MAX_RANGE_POINTS
        with pytest.raises(ValidationError, match="MAX_RANGE_POINTS"):
            parse_range(f"0:{top + 1}", int)
        with pytest.raises(ValidationError, match="over the limit MAX_RANGE_POINTS"):
            parse_range("0:1e308:1e-308")  # (stop - start) / step overflows to inf

    def test_step_too_small_to_move_is_rejected(self):
        with pytest.raises(ValidationError, match="too small"):
            parse_range("1e20:1e20")


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code = run_cli(["ghz", "--n", "2", "--out", str(tmp_path / "o.csv")])
        assert code == 0

    @pytest.mark.parametrize("argv", list(INVALID_COMMANDS.values()), ids=list(INVALID_COMMANDS))
    def test_validation_error_is_2(self, argv, witness_files):
        argv = [a.format(tmp=witness_files) for a in argv]
        assert run_cli(argv + ["--out", str(witness_files / "o.csv")]) == 2

    @pytest.mark.parametrize("key", sorted(OVER_LIMIT))
    def test_over_limit_names_the_limit(self, key, capsys):
        assert run_cli(INVALID_COMMANDS[key]) == 2
        assert OVER_LIMIT[key] in capsys.readouterr().err

    def test_out_of_memory_is_3_without_a_traceback(self, monkeypatch, capsys):
        from steerkit import experiments

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.00 GiB for an array with shape (268435456,)")

        monkeypatch.setattr(experiments, "parallel_map", exhausted)
        assert run_cli(["ghz", "--n", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: out of memory") and "Traceback" not in err

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

    def test_sandwich_violation_is_3(self, monkeypatch, witness_files, capsys):
        import steerkit.assemblage as module

        true_qfi = module.qfi
        # doubling every QFI lifts cond_qfi of the Bell assemblage above 4 Var[rho_B] = 4
        monkeypatch.setattr(module, "qfi", lambda st, h: 2.0 * true_qfi(st, h))
        argv = ["witness", str(witness_files / "asm.json"), "--observable", str(witness_files / "obs.json")]
        assert run_cli(argv + ["--out", str(witness_files / "o.json")]) == 3
        assert "sandwich bound violated" in capsys.readouterr().err

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

    def test_estimate_json_keys_follow_the_dataclasses(self, tmp_path):
        from dataclasses import fields

        from steerkit.sampling import ProductCheck, SampleRun

        out = tmp_path / "estimate.json"
        assert run_cli(["estimate", "--shots", "200", "--reps", "5", "--format", "json", "--out", str(out)]) == 0
        check_fields = [f.name for f in fields(ProductCheck) if f.name != "run"]
        assert list(json.loads(out.read_text())) == ["type", *(f.name for f in fields(SampleRun)), *check_fields]

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


# One small run of every command.  Run through ``python -m steerkit.cli``, each
# loads only what its handler imports; an in-process run cannot show a missing
# import, as this test module has loaded numpy and with it every submodule.
# "{tmp}" is the ``witness_files`` directory.
EVERY_COMMAND = {
    "ghz": ["ghz", "--n", "1:3"],
    "ghz-noise": ["ghz-noise", "--n", "2", "--noise", "0.2:0.4:0.2"],
    "split-dicke": ["split-dicke", "--n", "6", "--k", "3"],
    "split-dicke-partition": ["split-dicke-partition", "--n", "4", "--k", "0:4"],
    "cat": ["cat", "--alpha", "0:1:0.5"],
    "quantify": ["quantify", "--step", "0.25"],
    "multigen": ["multigen", "--d", "2:3"],
    "estimate": ["estimate", "--shots", "200", "--reps", "5", "--seed", "3"],
    "estimate_json": ["estimate", "--shots", "200", "--reps", "5", "--seed", "3", "--format", "json"],
    "witness_pure_state": ["witness", "{tmp}/bell.json", "--observable", "{tmp}/obs.json"],
    "witness_assemblage": ["witness", "{tmp}/asm.json", "--observable", "{tmp}/obs.json", "--quantify", "--format", "json"],
}


class TestFreshProcess:
    @pytest.mark.parametrize("name", sorted(EVERY_COMMAND))
    def test_same_bytes_as_in_process(self, name, witness_files):
        argv = [a.format(tmp=witness_files) for a in EVERY_COMMAND[name]]
        in_process, fresh = witness_files / "in_process.out", witness_files / "fresh.out"
        assert run_cli(argv + ["--out", str(in_process)]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "steerkit.cli", *argv, "--out", str(fresh)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert fresh.read_bytes() == in_process.read_bytes()

    def test_unbounded_range_returns_at_once(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steerkit.cli", "multigen", "--d", "2:inf", "--out", "-"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2
        assert "'inf' in '2:inf' is not finite" in proc.stderr


class TestFlagAliases:
    def test_ghz_noise_p_alias(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(["ghz-noise", "--n", "2", "--noise", "0.5", "--out", str(a)]) == 0
        assert run_cli(["ghz-noise", "--n", "2", "--p", "0.5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ghz_noise_p_is_a_second_spelling_of_noise(self):
        from steerkit.cli import build_parser

        args = build_parser().parse_args(["ghz-noise", "--n", "2", "--p", "0.5"])
        assert args.noise == "0.5" and not hasattr(args, "p")

    def test_ghz_noise_requires_probability(self):
        assert run_cli(["ghz-noise", "--n", "2"]) == 2
