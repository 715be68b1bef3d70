"""40-ray Kochen-Specker toolkit: exact bounds, quantum values, and a photon-counting simulator.

Submodules load on first use (PEP 562), so the exact layers never import the
NumPy-backed simulator unless a caller asks for one of its names.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it contributes
_EXPORTS = {
    "rays": "Ray canonical_form dot overlap_prob same_direction",
    "pentagram": "Context PauliWord common_eigenrays pentagram_contexts pentagram_unsat "
                 "pentagram_words",
    "ksset": "EDGE_COUNT N_OCTADS N_RAYS RAY_DEGREE KSSet OrthoGraph build_graph canonical_set "
             "enumerate_octads mermin_subset",
    "bounds": "Assignment S_NCHV_BOUND SIGMA_NCHV_BOUND corrected_S_bound corrected_sigma_bound "
              "ks_colorable max_ones mermin_kappa_to_S",
    "states": "NAMED_STATES ProbabilityProfile S_of_profile profile sigma_of_profile",
    "simulate": "NoiseModel PulseRun SlitPreparation convergence_trace expected_record "
                "mask_to_ray ray_to_mask run_exclusivity_campaign run_ks_experiment",
    "analysis": "CountRecord EstimateSet SimilarityReport bhattacharyya estimate_probabilities judge verdict",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])
