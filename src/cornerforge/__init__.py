"""Corner-avoiding constructions, popular-difference spectra, and hypergraph
density kernels, all cross-checked by exact brute-force oracles.

The public names below are loaded on first use (PEP 562): importing the
package imports no submodule, so a command pays only for the modules it
runs, and numpy is loaded only by the modules that compute with it.  Each
name is the submodule's own object, looked up when it is asked for.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name, grouped by submodule
_EXPORTS = {
    "avoiders": (
        "AvoidanceReport",
        "AvoiderParams",
        "CornerAvoider",
        "FivePointAvoider",
        "IntervalSystem",
        "build_corner_avoider",
        "build_five_point_avoider",
        "check_corner_transfer",
        "check_five_point_transfer",
        "f_quad",
        "lift_avoider",
        "load_avoider",
        "norm_to_nearest_int",
        "pattern_projection",
        "theta_constants",
        "verify_corner_avoidance",
    ),
    "behrend": (
        "RELATION_3AP",
        "RELATION_SUM3",
        "DigitSphereParams",
        "QCSystem",
        "SphereSet",
        "behrend_3ap_free",
        "behrend_qc_free",
        "behrend_sum_free",
        "find_qc_witness",
        "find_relation_witness",
        "is_qc",
        "qc_coefficients",
        "verify_relation_free",
    ),
    "contfrac": (
        "AlphaCheck",
        "AlphaSequence",
        "approximants",
        "build_alpha_hard",
        "quotients_from_pair",
        "verify_alpha",
    ),
    "diamond": (
        "ProgressionWitness",
        "TripartiteGraph",
        "diamond_free_from_ap_free",
        "find_cyclic_3ap",
        "triangle_hypergraph",
        "verify_diamond_free",
    ),
    "hypergraph": (
        "Hypergraph",
        "PruneResult",
        "StepKernel",
        "edge_density",
        "hom_count",
        "kforce_density",
        "kforce_motif",
        "prune_sparse_pairs",
        "single_edge_motif",
        "triforce_motif",
        "triforce_weighted",
    ),
    "mandache": ("MandacheReport", "kernel_fingerprint", "mandache_report", "sample_mandache"),
    "patterns": (
        "GridSet",
        "Group",
        "GroupSet",
        "Pattern",
        "Spectrum",
        "corner_count_group",
        "count_pattern",
        "spectrum",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
