"""Primitive Seifert modules: the kernel of the covering construction.

Over the rationals a module is primitive exactly when it is an iterated
extension of layers on which the endomorphism acts as 0 or as 1.  The
maximal primitive submodule is computed by the ascending socle loop; the
minimal coprimitive arises from the dual module, primitives being stable
under duality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .rational import QMatrix, kernel_columns, spin
from .seifert import (SeifertError, SeifertModule, SeifertMorphism,
                      hom_space, quotient_module, submodule_from_basis)


def _layer_preimages(V: SeifertModule, ann: QMatrix):
    """Bases (columns) of the joint kernels of the maps ann s e_i and of the
    maps ann (1 - s) e_i.  For ann the rows annihilating an invariant
    subspace U, these are the preimages in V of the largest submodules of
    V / U with s = 0 and with s = 1."""
    a_s = ann * V.s
    a_1s = ann - a_s
    return tuple(kernel_columns(reduce(QMatrix.vstack,
                                       [m * e for e in V.projections]))
                 for m in (a_s, a_1s))


def trivial_socle(V: SeifertModule):
    """(W0, W1): the largest submodules with s = 0 and s = 1, as
    (module, inclusion) pairs.

    W0 is the joint kernel of the maps s e_i, W1 of the maps (1 - s) e_i;
    both are invariant under s and every projection.
    """
    err = V.validate()
    if err is not None:
        raise SeifertError(err)
    w0_basis, w1_basis = _layer_preimages(V, QMatrix.identity(V.dim))
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


def _max_primitive_basis(V: SeifertModule):
    """Basis columns of the maximal primitive submodule U and the
    filtration log exhibiting U as an iterated extension of trivially
    primitive layers.

    Each step replaces U by the preimage of the s = 0 and s = 1 socles of
    V / U, read off the rows annihilating U; no quotient is built."""
    err = V.validate()
    if err is not None:
        raise SeifertError(err)
    U = QMatrix.zeros(V.dim, 0)
    filtration = []
    while U.cols < V.dim:
        preimages = _layer_preimages(
            V, kernel_columns(U.transpose()).transpose())
        layer = [f"s={t} layer of dim {P.cols - U.cols}"
                 for t, P in enumerate(preimages) if P.cols > U.cols]
        if not layer:
            break
        column_space = spin([], [P.col(j) for P in preimages
                                 for j in range(P.cols)], V.dim)
        U = column_space.basis_matrix().transpose()
        filtration.append(" + ".join(layer))
    return U, filtration


def max_primitive_submodule(V: SeifertModule):
    """Inclusion of the maximal primitive submodule, and its filtration."""
    U, filtration = _max_primitive_basis(V)
    return submodule_from_basis(V, U)[1], filtration


def min_coprimitive(V: SeifertModule) -> SeifertMorphism:
    """Inclusion of the smallest submodule W with V / W primitive: the
    annihilator of the maximal primitive subspace of the dual, no module
    built on that subspace (`submodule_from_basis` checks W invariant)."""
    U, _ = _max_primitive_basis(V.dual())
    return submodule_from_basis(V, kernel_columns(U.transpose()))[1]


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
