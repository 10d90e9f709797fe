import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steerkit.cli import MAX_RANGE_POINTS, main, parse_range
from steerkit.linalg import ValidationError
from steerkit.states import ghz_state

from conftest import assemblage_to_json, density_to_json, save_json, state_to_json
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
    "estimate_over_shots_limit": ["estimate", "--shots", "100000000000000000000"],
    "estimate_over_reps_limit": ["estimate", "--reps", "1000000000000"],
    "estimate_shots_past_float_range": ["estimate", "--shots", "1" + "0" * 400],
    "estimate_reps_past_float_range": ["estimate", "--reps", "1" + "0" * 400],
    # witness documents with a non-finite number or a repeated setting label (``WITNESS_ERRORS``)
    "witness_nan_rho": ["witness", "{tmp}/asm_nan_rho.json", "--observable", "{tmp}/obs.json"],
    "witness_nan_p": ["witness", "{tmp}/asm_nan_p.json", "--observable", "{tmp}/obs.json"],
    "witness_nan_amplitude": ["witness", "{tmp}/bell_nan.json", "--observable", "{tmp}/obs.json"],
    "witness_nan_observable": ["witness", "{tmp}/asm.json", "--observable", "{tmp}/obs_nan.json"],
    "witness_infinite_observable": ["witness", "{tmp}/bell.json", "--observable", "{tmp}/obs_inf.json"],
    "witness_observable_past_float_range": ["witness", "{tmp}/asm.json", "--observable", "{tmp}/obs_1e400.json"],
    "witness_observable_integer_past_float_range": ["witness", "{tmp}/asm.json", "--observable", "{tmp}/obs_int.json"],
    "witness_observable_integer_of_5000_digits": ["witness", "{tmp}/asm.json", "--observable", "{tmp}/obs_digits.json"],
    "witness_repeated_setting_label": ["witness", "{tmp}/asm_repeated_setting.json", "--observable", "{tmp}/obs.json"],
    "witness_boolean_dims": ["witness", "{tmp}/bell_bool_dims.json", "--observable", "{tmp}/obs.json"],
    "witness_negative_dims": ["witness", "{tmp}/bell_negative_dims.json", "--observable", "{tmp}/obs.json"],
    "witness_boolean_d_b": ["witness", "{tmp}/asm_bool_d_b.json", "--observable", "{tmp}/obs_1.json"],
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
    "estimate_over_shots_limit": "MAX_ESTIMATE_SHOTS",
    "estimate_over_reps_limit": "MAX_ESTIMATE_REPS",
    "estimate_shots_past_float_range": "MAX_ESTIMATE_SHOTS",
    "estimate_reps_past_float_range": "MAX_ESTIMATE_REPS",
}

# what the message of each bad witness document must name: the path of its non-finite number or of a
# size that is not a positive integer, the file that json cannot read, or the rule a repeated setting label breaks
WITNESS_ERRORS = {
    "witness_nan_rho": "$.settings[0].outcomes[0].rho[0][0]:",
    "witness_nan_p": "$.settings[0].outcomes[0].p:",
    "witness_nan_amplitude": "$.amplitudes[0]:",
    "witness_nan_observable": "$.matrix[0][0]:",
    "witness_infinite_observable": "$.matrix[0][0]:",
    "witness_observable_past_float_range": "$.matrix[0][0]:",
    "witness_observable_integer_past_float_range": "$.matrix[0][0]:",
    "witness_observable_integer_of_5000_digits": "obs_digits.json: not valid JSON",
    "witness_repeated_setting_label": "need one distinct label per setting",
    "witness_boolean_dims": "$.dims:",
    "witness_negative_dims": "$.dims:",
    "witness_boolean_d_b": "$.d_b:",
}


def with_value(doc, keys, value):
    """A deep copy of the JSON document ``doc`` with the entry at the path ``keys`` set to ``value``."""
    doc = entry = json.loads(json.dumps(doc))
    *head, last = keys
    for key in head:
        entry = entry[key]
    entry[last] = value
    return doc


@pytest.fixture
def witness_files(tmp_path):
    """tmp_path holding witness inputs and an observable (obs.json, sigma_z).

    foo.json is of unknown "type"; bell.json is a Bell state and asm.json its
    sz/sx assemblage.  The documents of ``WITNESS_ERRORS`` change one entry
    of these: a NaN in bell_nan.json, asm_nan_p.json and asm_nan_rho.json;
    NaN, Infinity, 1e400, 10^400 or a 5,000-digit integer in obs_nan.json,
    obs_inf.json, obs_1e400.json, obs_int.json and obs_digits.json; sx
    relabelled sz in asm_repeated_setting.json.  bell_bool_dims.json
    ([true, 2]), bell_negative_dims.json ([-1, -2]) and asm_bool_d_b.json
    (true, with the 1 x 1 observable obs_1.json) hold sizes that are not
    positive integers but match their two amplitudes or 1 x 1 rho.
    """
    from steerkit.experiments import ghz_assemblage

    nan = float("nan")
    (tmp_path / "foo.json").write_text('{"type": "foo"}', encoding="utf-8")
    bell, asm = state_to_json(ghz_state(2)), assemblage_to_json(ghz_assemblage(1))
    save_json(bell, tmp_path / "bell.json")
    save_json(asm, tmp_path / "asm.json")
    save_json({"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, tmp_path / "obs.json")
    save_json(with_value(bell, ("amplitudes", 0, 0), nan), tmp_path / "bell_nan.json")
    save_json(with_value(asm, ("settings", 0, "outcomes", 0, "p"), nan), tmp_path / "asm_nan_p.json")
    save_json(with_value(asm, ("settings", 0, "outcomes", 0, "rho", 0, 0, 0), nan), tmp_path / "asm_nan_rho.json")
    save_json(with_value(asm, ("settings", 1, "label"), asm["settings"][0]["label"]), tmp_path / "asm_repeated_setting.json")
    plus = {"type": "bipartite_pure_state", "amplitudes": [[0.5**0.5, 0], [0.5**0.5, 0]]}
    save_json({**plus, "dims": [True, 2]}, tmp_path / "bell_bool_dims.json")
    save_json({**plus, "dims": [-1, -2]}, tmp_path / "bell_negative_dims.json")
    one = {"type": "assemblage", "settings": [{"label": "z", "outcomes": [{"p": 1.0, "rho": [[[1, 0]]]}]}]}
    save_json({**one, "d_b": True}, tmp_path / "asm_bool_d_b.json")
    save_json({"matrix": [[[1, 0]]]}, tmp_path / "obs_1.json")
    for name, number in (("nan", "NaN"), ("inf", "Infinity"), ("1e400", "1e400"), ("int", "1" + "0" * 400), ("digits", "1" * 5000)):
        text = f'{{"matrix": [[[{number}, 0], [0, 0]], [[0, 0], [-1, 0]]]}}'
        (tmp_path / f"obs_{name}.json").write_text(text, encoding="utf-8")
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

    @pytest.mark.parametrize("key", sorted(WITNESS_ERRORS))
    def test_bad_witness_document_names_the_field(self, key, witness_files, capsys):
        assert run_cli([a.format(tmp=witness_files) for a in INVALID_COMMANDS[key]]) == 2
        assert WITNESS_ERRORS[key] in capsys.readouterr().err

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
        # the CSV summary rows: the same fields in the same order, less the estimates and the setting label
        out = tmp_path / "estimate.csv"
        assert run_cli(["estimate", "--shots", "200", "--reps", "5", "--out", str(out)]) == 0
        summary = [line.split(",")[0] for line in out.read_text().splitlines() if line.startswith("summary:")]
        numbers = [f.name for f in (*fields(SampleRun), *fields(ProductCheck)) if f.name not in ("estimates", "setting", "run")]
        assert summary == [f"summary:{name}" for name in numbers]

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

    @pytest.mark.parametrize("angles", [(1.0, 1.0 + 1e-9), (1.0 + 1e-9, 1.0)])
    def test_witness_on_settings_that_differ_within_no_signalling(self, tmp_path, angles):
        # two one-outcome settings whose marginals are 4.2e-10 apart: each tight sandwich
        # bound holds against the marginal of its own setting

        from conftest import close_settings_assemblage

        save_json(assemblage_to_json(close_settings_assemblage(angles)), tmp_path / "asm.json")
        save_json({"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, tmp_path / "obs.json")
        argv = ["witness", str(tmp_path / "asm.json"), "--observable", str(tmp_path / "obs.json"), "--format", "json"]
        assert run_cli(argv + ["--out", str(tmp_path / "report.json")]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["steering"] is False

    def test_witness_assemblage_quantify(self, tmp_path):
        from steerkit.experiments import ghz_assemblage

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
        # an inserted row is listed once, and the rows after it keep their partners
        inserted = "k,a,b\n0,1,2\n1,7,8\n2,3,4\n4,5,6\n"
        assert moved_cells("t.csv", new.replace("2.5", "2"), inserted) == ["t.csv row 2 added: 1,7,8"]
        assert moved_cells("t.csv", inserted, old) == ["t.csv row 2 removed: 1,7,8", "t.csv row 4 removed: 4,5,6"]


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
