import dataclasses
import json
import re

import numpy as np
import pytest

from steerkit.assemblage import assemblage_from_pure_state, steering_witness
from steerkit.experiments import bell_assemblage, ghz_assemblage, qubit_basis_povm
from steerkit.linalg import ValidationError
from steerkit.serialize import (
    SchemaError,
    assemblage_from_json,
    density_from_json,
    load_document,
    load_state,
    sample_run_to_json,
    state_from_json,
    vector_from_json,
    witness_report_to_json,
)
from steerkit.states import BipartitePureState, ghz_state

from conftest import SZ, assemblage_to_json, density_to_json, random_density, save_json, state_to_json


class TestStateRoundTrip:
    def test_bell_state_identical_amplitudes(self, tmp_path):
        state = ghz_state(2, 0.35)
        path = tmp_path / "bell.json"
        save_json(state_to_json(state), path)
        loaded = load_state(path)
        assert isinstance(loaded, BipartitePureState)
        assert loaded.dims == state.dims
        assert np.array_equal(loaded.amplitudes, state.amplitudes)

    def test_sector_labels_are_ignored(self):
        # keys the reader does not know, such as sector labels, are ignored
        doc = {**state_to_json(ghz_state(2)), "basis_labels_a": [[1, 0], [1, 1]], "basis_labels_b": None}
        assert state_from_json(doc).dims == (2, 2)

    def test_density_round_trip(self, tmp_path, rng):
        rho = random_density(rng, 3)
        path = tmp_path / "rho.json"
        save_json(density_to_json(rho), path)
        loaded = load_state(path)
        assert np.max(np.abs(loaded - rho)) < 1e-15

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        save_json({"type": "mystery"}, path)
        with pytest.raises(SchemaError, match="type"):
            load_state(path)


class TestSchemaDiagnostics:
    def test_malformed_complex_names_field(self):
        doc = {"type": "bipartite_pure_state", "dims": [2, 2], "amplitudes": [[1, 0], [0, 0], [0, 0], "x"]}
        with pytest.raises(SchemaError, match=r"amplitudes\[3\]"):
            state_from_json(doc)

    def test_ragged_matrix_row_named(self):
        doc = {"type": "density_matrix", "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}
        with pytest.raises(SchemaError, match=r"matrix\[1\]"):
            density_from_json(doc)

    @pytest.mark.parametrize(
        "pair",
        [[True, 0], [0.5, False], [float("nan"), 0], [0, float("inf")], [10**400, 0], [0, 0, 0], [1], "x", ["1", 0], [None, 0]],
        ids=["true", "false", "nan", "infinity", "integer_past_float_range", "three", "one", "string", "numeric_string", "null"],
    )
    def test_bad_pair_is_named_by_its_path(self, pair):
        amplitudes = [[0.6, 0], [0, 0], pair, [0.8, 0]]
        with pytest.raises(SchemaError, match=re.escape("$.amplitudes[2]: expected a complex number as [re, im] of finite numbers")):
            state_from_json({"type": "bipartite_pure_state", "dims": [2, 2], "amplitudes": amplitudes})
        rows = [[[0.5, 0], [0, 0]], [[0, 0], pair]]
        with pytest.raises(SchemaError, match=re.escape("$.matrix[1][1]: expected a complex number")):
            density_from_json({"type": "density_matrix", "matrix": rows})

    def test_good_pairs_decode_exactly(self):
        # integers and floats, negative zeros included, come back as complex(re, im)
        pairs = [[1, 0], [-0.0, 2.5], [0.1, -0.0], [3, -4]]
        got = vector_from_json(pairs, "$.v")
        want = np.array([complex(re, im) for re, im in pairs])
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))

    def test_invariant_violation_distinct_from_schema(self):
        # parses fine but trace != 1: must raise ValidationError, not SchemaError
        doc = {
            "type": "density_matrix",
            "matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0.0, 0]]],
        }
        with pytest.raises(ValidationError, match="trace"):
            density_from_json(doc)

    def test_bad_probability_names_setting(self, tmp_path):
        asm = bell_assemblage()
        doc = assemblage_to_json(asm)
        doc["settings"][1]["outcomes"][0]["p"] = 0.4  # sums to 0.9 now
        path = tmp_path / "broken.json"
        save_json(doc, path)
        with pytest.raises(ValidationError, match="sx"):
            assemblage_from_json(load_document(path))

    def test_no_signalling_violation_reported(self, tmp_path):
        asm = bell_assemblage()
        doc = assemblage_to_json(asm)
        # shrink one conditional's coherence by ~1e-3: stays a valid state but
        # shifts the sx-setting marginal off the sz one
        doc["settings"][1]["outcomes"][0]["rho"][0][1][0] -= 1e-3
        doc["settings"][1]["outcomes"][0]["rho"][1][0][0] -= 1e-3
        path = tmp_path / "signalling.json"
        save_json(doc, path)
        with pytest.raises(ValidationError, match="no-signalling"):
            assemblage_from_json(load_document(path))


class TestAssemblageRoundTrip:
    def test_witness_agrees_after_round_trip(self, tmp_path):
        from steerkit.states import collective_jz

        asm = ghz_assemblage(3)
        jz = collective_jz(3)
        before = steering_witness(asm, jz)
        path = tmp_path / "asm.json"
        save_json(assemblage_to_json(asm), path)
        loaded = assemblage_from_json(load_document(path))
        after = steering_witness(loaded, jz)
        assert abs(before.cond_qfi - after.cond_qfi) < 1e-9
        assert abs(before.cond_var - after.cond_var) < 1e-12

    def test_outcome_labels_survive(self, tmp_path):
        # |00> read out along z keeps only z+; the label must not fall back to its position
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        asm = assemblage_from_pure_state(
            BipartitePureState(dims=(2, 2), amplitudes=amps),
            [("z", qubit_basis_povm("z")), ("x", qubit_basis_povm("x"))],
        )
        path = tmp_path / "asm.json"
        save_json(assemblage_to_json(asm), path)
        loaded = assemblage_from_json(load_document(path))
        assert [rec.outcomes for rec in loaded.settings] == [("z+",), ("x+", "x-")]

    def test_missing_outcome_labels_default_to_positions(self):
        doc = assemblage_to_json(ghz_assemblage(2))
        for setting in doc["settings"]:
            for outcome in setting["outcomes"]:
                del outcome["label"]
        loaded = assemblage_from_json(doc)
        assert [rec.outcomes for rec in loaded.settings] == [("0", "1"), ("0", "1")]

    def test_non_string_outcome_label_is_schema_error(self):
        doc = assemblage_to_json(ghz_assemblage(2))
        doc["settings"][0]["outcomes"][1]["label"] = 7
        with pytest.raises(SchemaError, match=r"outcomes\[1\]\.label"):
            assemblage_from_json(doc)


class TestReportSerialization:
    def test_keys_follow_dataclass_fields(self):
        # the witness CSV rows and both JSON documents list the fields in this order
        from steerkit.assemblage import WitnessReport
        from steerkit.sampling import SampleRun, moment_estimator_validation
        from test_sampling import plus_state_assemblage
        from conftest import SY

        report = steering_witness(bell_assemblage(), SZ)
        run = moment_estimator_validation(plus_state_assemblage(), SZ / 2, SY, n=200, reps=5, seed=1)
        for doc, cls in ((witness_report_to_json(report), WitnessReport), (sample_run_to_json(run), SampleRun)):
            assert list(doc) == ["type", *(f.name for f in dataclasses.fields(cls))]
        assert sample_run_to_json(run)["estimates"] == [float(v) for v in run.estimates]

    def test_witness_report_fields(self):
        report = steering_witness(bell_assemblage(), SZ)
        doc = witness_report_to_json(report)
        for key in ("cond_qfi", "cond_var", "delta", "qfi_reduced", "var_reduced", "steering"):
            assert key in doc
        json.dumps(doc)  # serializable

    def test_sample_run_serializable(self):
        from steerkit.sampling import moment_estimator_validation
        from test_sampling import plus_state_assemblage
        from conftest import SY

        run = moment_estimator_validation(plus_state_assemblage(), SZ / 2, SY, n=200, reps=5, seed=1)
        doc = sample_run_to_json(run)
        assert doc["n_shots"] == 200
        assert len(doc["estimates"]) == 5
        json.dumps(doc)
