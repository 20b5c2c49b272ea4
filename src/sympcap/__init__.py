"""sympcap: symplectic capacities, nonsqueezing experiments, EBK quantization."""

from .capacity import (
    BordeauxBottle,
    Cylinder,
    bordeaux_bottle_fixture,
    capacity_ball,
    capacity_cylinder,
    capacity_ellipsoid,
    capacity_sandwich,
)
from .core import (
    QuadraticHamiltonian,
    SymplecticMatrix,
    WilliamsonDecomposition,
    random_symplectic,
    standard_form,
    symplectic_eigenvalues,
    williamson,
)
from .ebk import (
    Potential,
    SpectrumEntry,
    SpectrumResult,
    blob_check,
    density_of_states,
    make_potential,
    quantize_quadratic,
    spectrum_1d,
    spectrum_separable,
)
from .shadows import (
    FlowSpec,
    PlaneSelector,
    ShadowReport,
    evolve_ball_shadow,
    linear_shadow_area,
    nonsqueeze_ensemble,
)

__version__ = "0.1.0"
