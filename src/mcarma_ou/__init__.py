"""MCARMA processes as sums of multivariate Ornstein-Uhlenbeck processes.

Matrix-polynomial machinery (right solvents, block Vandermonde matrices,
matrix residues), the OU-sum decomposition of multivariate CARMA models,
exact sampled VARMA(p, p-1) parameters, and exact-in-distribution path
simulation for Monte-Carlo verification.
"""

from .exceptions import CertificationError, ModelFileError
from .matpoly import (
    LambdaMatrix,
    LatentPair,
    SolventSet,
    certify_solvent_set,
    companion_matrix,
    default_grouping,
    latent_roots,
    solvents_from_latents,
)
from .rational import (
    check_irreducible,
    eval_partial_fraction,
    residues,
)
from .mcarma import (
    McarmaModel,
    OuDecomposition,
    StateSpace,
    build_state_space,
    component_gramians,
    decompose,
    kernel,
    stationary_acvf,
)
from .sampling import (
    SampledVarma,
    fit_ma,
    noise_acvf,
    sampled_varma,
    varma_ar,
)
from .sim import (
    DriverSpec,
    PathGrid,
    empirical_acvf,
    extract_noise,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "DriverSpec",
    "LambdaMatrix",
    "LatentPair",
    "McarmaModel",
    "ModelFileError",
    "OuDecomposition",
    "PathGrid",
    "SampledVarma",
    "SolventSet",
    "StateSpace",
    "build_state_space",
    "certify_solvent_set",
    "check_irreducible",
    "companion_matrix",
    "component_gramians",
    "decompose",
    "default_grouping",
    "empirical_acvf",
    "eval_partial_fraction",
    "extract_noise",
    "fit_ma",
    "kernel",
    "latent_roots",
    "noise_acvf",
    "residues",
    "sampled_varma",
    "simulate",
    "solvents_from_latents",
    "stationary_acvf",
    "varma_ar",
]
