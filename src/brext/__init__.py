"""Bruck-Reilly extensions of finite chains of groups, with exact
verification of their arithmetic, order structure and zero-neighborhood
certificates."""

from .bicyclic import BicyclicElem, bmul, bmul_codes, binv
from .bruck_reilly import (
    Box,
    BRElem,
    BRSystem,
    brinv,
    brmul,
    brmul_ids,
    eta,
    hclass,
    idempotents_window,
    nat_order,
    nat_order_oracle,
    simplicity_witness,
    window_elements,
    zero_divisor_scan,
)
from .clifford import (
    CliffordElement,
    CliffordSystem,
    cinv,
    cmul,
    cmul_oracle,
    idempotents,
    theta_pow,
    theta_pow_oracle,
    validate_system,
)
from .config import load_system, system_from_obj
from .groups import GroupHom, GroupTable, cyclic_group, ginv, gmul, hom, validate_group, validate_hom
from .topology import (
    BasicZeroNbhd,
    ContinuityCertificate,
    ZeroNbhdDescriptor,
    box_solve,
    classify_descriptor,
    continuity_cert_zero,
    continuity_certs,
    meets_almost_all_boxes,
    pushforward_basic,
    pushforward_descriptor,
    row_exceptions_finite,
)

__version__ = "0.1.0"

__all__ = [
    "BicyclicElem", "bmul", "bmul_codes", "binv",
    "Box", "BRElem", "BRSystem", "brinv", "brmul", "brmul_ids", "eta",
    "hclass", "idempotents_window", "nat_order", "nat_order_oracle",
    "simplicity_witness", "window_elements", "zero_divisor_scan",
    "CliffordElement", "CliffordSystem", "cinv", "cmul", "cmul_oracle",
    "idempotents", "theta_pow", "theta_pow_oracle", "validate_system",
    "load_system", "system_from_obj",
    "GroupHom", "GroupTable", "cyclic_group", "ginv", "gmul", "hom",
    "validate_group", "validate_hom",
    "BasicZeroNbhd", "ContinuityCertificate", "ZeroNbhdDescriptor",
    "box_solve", "classify_descriptor", "continuity_cert_zero", "continuity_certs",
    "meets_almost_all_boxes", "pushforward_basic", "pushforward_descriptor",
    "row_exceptions_finite",
    "__version__",
]
