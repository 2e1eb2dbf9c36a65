"""Primitive Seifert modules: the kernel of the covering construction.

Over the rationals a module is primitive exactly when it is an iterated
extension of layers on which the endomorphism acts as 0 or as 1.  The
maximal primitive submodule is computed by the ascending socle loop; the
minimal coprimitive arises from the dual module, primitives being stable
under duality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rational import QMatrix, kernel_columns, spin
from .seifert import (SeifertError, SeifertModule, SeifertMorphism,
                      hom_space, quotient_module, submodule_from_basis)


def _stacked_kernel(mats) -> QMatrix:
    """Basis (columns) of the intersection of the kernels."""
    if not mats:
        raise ValueError("no matrices")
    stacked = mats[0]
    for m in mats[1:]:
        stacked = stacked.vstack(m)
    return kernel_columns(stacked)


def trivial_socle(V: SeifertModule):
    """(W0, W1): the largest submodules with s = 0 and s = 1, as
    (module, inclusion) pairs.

    W0 is the joint kernel of the maps s e_i, W1 of the maps (1 - s) e_i;
    both are invariant under s and every projection.
    """
    err = V.validate()
    if err is not None:
        raise SeifertError(err)
    n = V.dim
    ident = QMatrix.identity(n)
    w0_basis = _stacked_kernel([V.s * e for e in V.projections])
    w1_basis = _stacked_kernel([(ident - V.s) * e for e in V.projections])
    return (submodule_from_basis(V, w0_basis),
            submodule_from_basis(V, w1_basis))


@dataclass
class PrimitiveAnalysis:
    max_primitive: SeifertMorphism        # inclusion U <= V
    min_coprimitive: SeifertMorphism      # inclusion W <= V
    filtration: list = field(default_factory=list)

    @property
    def is_primitive(self) -> bool:
        return (self.max_primitive.matrix.cols
                == self.max_primitive.target.dim)


def max_primitive_submodule(V: SeifertModule):
    """Inclusion of the maximal primitive submodule U and the filtration log
    exhibiting U as an iterated extension of trivially primitive layers."""
    err = V.validate()
    if err is not None:
        raise SeifertError(err)
    _, incl = submodule_from_basis(V, QMatrix.zeros(V.dim, 0))
    filtration = []
    while incl.matrix.cols < V.dim:
        quot, proj, section = quotient_module(V, incl)
        (w0, w0_incl), (w1, w1_incl) = trivial_socle(quot)
        if w0.dim == 0 and w1.dim == 0:
            break
        layer = []
        lifted = incl.matrix
        if w0.dim:
            lifted = lifted.hstack(section * w0_incl.matrix)
            layer.append(f"s=0 layer of dim {w0.dim}")
        if w1.dim:
            lifted = lifted.hstack(section * w1_incl.matrix)
            layer.append(f"s=1 layer of dim {w1.dim}")
        # the lifted span is invariant: it is the preimage of an invariant
        # subspace of the quotient
        column_space = spin([], [lifted.col(j) for j in range(lifted.cols)],
                            lifted.rows)
        _, incl = submodule_from_basis(
            V, column_space.basis_matrix().transpose())
        filtration.append(" + ".join(layer))
    return incl, filtration


def min_coprimitive(V: SeifertModule) -> SeifertMorphism:
    """Inclusion of the smallest submodule W with V / W primitive, computed
    as the annihilator of the maximal primitive submodule of the dual."""
    dual = V.dual()
    u_incl, _ = max_primitive_submodule(dual)
    U = u_incl.matrix      # dim x k, columns inside the dual space
    if U.cols == 0:
        sub, incl = submodule_from_basis(V, QMatrix.identity(V.dim))
        return incl
    sub, incl = submodule_from_basis(V, kernel_columns(U.transpose()))
    return incl


def is_primitive(V: SeifertModule) -> bool:
    incl, _ = max_primitive_submodule(V)
    return incl.matrix.cols == V.dim


def analyze_primitives(V: SeifertModule) -> PrimitiveAnalysis:
    u_incl, filtration = max_primitive_submodule(V)
    w_incl = min_coprimitive(V)
    return PrimitiveAnalysis(u_incl, w_incl, filtration)


def hom_in_quotient(V: SeifertModule, W: SeifertModule) -> list:
    """Basis of Hom(V, W) in the quotient of the module category by the
    primitives: maps from the minimal coprimitive of V to W modulo its
    maximal primitive."""
    v_incl = min_coprimitive(V)
    u_incl, _ = max_primitive_submodule(W)
    quot, _, _ = quotient_module(W, u_incl)
    return hom_space(v_incl.source, quot)
