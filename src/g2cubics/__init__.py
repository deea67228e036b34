"""Exact-arithmetic toolkit for the orbit geometry of binary cubics under the
twisted GL2 action, the combinatorics of the six simple equivariant perverse
sheaves living on that space, and the packet and stable-character data they
determine.

Every value in the library is an exact rational; consistency between the
encoded tables and everything re-derivable from them is machine-checked by
`g2cubics.verify.run_checks` (also exposed as `g2cubics verify` on the
command line).
"""

from .cubics import (
    BinaryCubic,
    DualCubic,
    GroupElement,
    Line,
    OrbitClass,
    act,
    act_dual,
    act_matrix,
    classify,
    discriminant,
    divides,
    evaluate,
    hessian_quadratic,
    rational_lines,
)
from .conormal import (
    ConormalPoint,
    StabilizerDescription,
    conormal_kernel,
    dual_orbit_class,
    in_lambda_regular,
    microlocal_stabilizer,
    moment,
    pairing,
    pairing_factored,
    stabilizer_of_cubic,
)
from .linalg import (
    Matrix,
    Poly,
    PoleAtPoint,
    RationalFunctionQ,
    SingularMatrix,
    eval_q,
    invert,
    kernel_basis,
)
from .packets import (
    DERIVED,
    Derived,
    Irreducible,
    VirtualCharacter,
    aubert,
    character_table,
    express_in_standard_modules,
    l_packet,
    llc,
    packet,
    pairing_character,
    stable_virtual_character,
)
from .rootdata import (
    ArthurParamMeta,
    Root,
    TorusExponentPair,
    adjoint_gamma_data,
    arthur_parameters,
    cartan_matrix,
    coroot,
    root_weight,
    weight_space,
)
from .sheaves import (
    Cover,
    SimpleObject,
    fourier,
    geometric_multiplicity_matrix,
    nevs,
    solve_ic_stalk_ranks,
)
from .verify import run_checks

__version__ = "0.1.0"
