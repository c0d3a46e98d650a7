"""Numerical toolkit for metric-regularity moduli of set-valued mappings:
estimators for the regularity modulus and its coderivative counterpart,
construction of the explicit regularity-destroying Lipschitz rank-one
perturbation, and radius verification against singular-value oracles."""

from .spaces import (
    NormSpec,
    ProductNormSpec,
    norm,
    norms,
    dual_norm,
    pairing,
    pair_norm_primal,
    pair_norm_dual,
    distance_to_set,
    sphere_grid,
)
from .mappings import (
    GraphPoint,
    SampledGraph,
    MappingModel,
    LinearMapping,
    SmoothMapping,
    FiniteGraphMapping,
    PerturbedMapping,
    add_perturbation,
    sample_graph,
    load_mapping,
)
from .moduli import (
    ScaleSchedule,
    ModulusEstimate,
    CoderivativeElement,
    eps_normal_test,
    coderivative_membership,
    min_coderivative_norm,
    rg_estimate,
    rg_plus_estimate,
    lip_estimate,
    coderivative_shift_check,
)
from .perturbation import (
    WitnessSequence,
    BumpSpec,
    BumpPerturbation,
    extract_witness,
    relocate_witness_ekeland,
    select_radii,
    choose_direction,
    bump_value,
    perturbation_eval,
    perturbation_gradient_at_centers,
    build_perturbation,
    scale_perturbation,
    rank_one_structure_check,
)
from .oracles import (
    SvdResult,
    sigma_min,
    sigma_min_bisect,
    brute_force_rg,
    brute_force_rg_pairs,
    brute_force_membership,
    finite_difference_jacobian,
    operator_norm,
)
from .radius import (
    RadiusReport,
    radius_bounds,
    verify_destabilization,
    verify_interpolation,
    verify_lyusternik_graves,
    strong_regularity_localization_check,
)

__version__ = "0.1.0"
