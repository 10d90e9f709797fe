"""steerkit: metrological EPR-steering witnesses from the quantum Fisher information.

The package namespace is lazy (PEP 562): ``import steerkit`` loads no
submodule, and so no numpy, until an exported name is first used.  This lets
``steerkit.cli`` choose the BLAS thread default before numpy is imported.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names it exports at the package level
_EXPORTS = {
    "assemblage": (
        "Assemblage", "LHSModel", "SettingRecord", "WitnessReport", "assemblage_from_lhs",
        "assemblage_from_pure_state", "assemblage_from_state", "conditional_qfi", "conditional_variance",
        "make_assemblage", "reid_witness", "steering_witness",
    ),
    "linalg": (
        "TOL", "NumericError", "Spectrum", "Tolerances", "ValidationError", "hermitian_eig",
        "unitary_from_generator",
    ),
    "metrology": ("POVM", "as_state", "make_povm", "povm_from_basis", "qfi", "variance"),
    "pure": (
        "GeneratorBasis", "SchmidtDecomposition", "ancilla_invariance_check", "gellmann_basis",
        "multi_generator_sum", "optimal_assemblage", "optimal_povm_qfi", "optimal_povm_var",
        "pure_multi_generator_value", "s_avg_pure", "s_max_lower_bound", "s_max_pure", "schmidt",
    ),
    "sampling": ("SampleRun", "epr_product_check", "moment_estimator_validation"),
    "states": (
        "BipartitePureState", "FockSpace", "SpinOperators", "coherent_amplitudes", "collective_jz",
        "default_fock_cutoff", "fock_space", "ghz_state", "ghz_white_noise", "ghz_white_noise_state",
        "hybrid_cat", "spin_ops", "split_dicke_fixed", "white_noise_mixture", "wigner_overlap",
        "wigner_rotation_matrix",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
