"""Theory references for extended persistence, built on the package's dense helpers.

The pipeline never builds these objects; the tests use them to check the
identities that extended persistence rests on (Cohen-Steiner, Edelsbrunner,
Harer, "Extending persistence using Poincaré and Lefschetz duality", 2009):

* ``inf_complex``: the infimum complex I_p = D_p ∩ d^{-1}(D_{p-1}), the
  largest subcomplex inside a graded subgroup, whose homology equals that
  of the supremum complex;
* ``relative_homology_dims``: dimensions of H_p(big / small) from the
  quotient boundary ranks;
* ``mapping_cone``: the cone of an inclusion of slices, whose homology is
  the relative homology and whose supremum complex is that of
  ``cone_graded``.

Unlike ``oracles.py`` these use the package's numpy elimination helpers
(``dense_kernel``, ``dense_rank``, ``dense_solve_many``, ``IncrementalSpan``),
so they check identities between package objects, not the helpers
themselves.
"""

import numpy as np

from extph.errors import ConsistencyError, GradedValidationError
from extph.field import (
    IncrementalSpan,
    SparseColumn,
    SparseMatrix,
    dense_kernel,
    dense_matrix,
    dense_rank,
    dense_solve_many,
)
from extph.graded import ChainComplexSlice


def inf_complex(graded, p_max: int) -> ChainComplexSlice:
    """Infimum complex I_p = D_p ∩ d^{-1}(D_{p-1}) of a graded subgroup."""
    field = graded.field
    vectors, coeffs = {}, {}
    for p in range(p_max + 2):
        labels = graded.basis.get(p, [])
        if not labels:
            vectors[p], coeffs[p] = [], np.zeros((0, 0), dtype=np.int64)
            continue
        if p == 0:
            # the boundary vanishes on dimension 0, so I_0 = D_0
            ker = np.eye(len(labels), dtype=np.int64)
        else:
            bmat = dense_matrix(
                [graded.column(l) for l in labels], graded.universe_size(p - 1), field.q
            )
            basis_rows_prev = {graded.row_of(p - 1, l) for l in graded.basis.get(p - 1, ())}
            outside = [r for r in range(graded.universe_size(p - 1)) if r not in basis_rows_prev]
            if outside:
                ker = dense_kernel(bmat[outside, :], field.q)
            else:
                ker = np.eye(len(labels), dtype=np.int64)
        unit_rows = [graded.row_of(p, l) for l in labels]
        vecs = []
        for k in range(ker.shape[1]):
            pairs = [(unit_rows[i], int(ker[i, k])) for i in np.flatnonzero(ker[:, k])]
            vecs.append(SparseColumn.from_pairs(pairs, field))
        vectors[p] = vecs
        coeffs[p] = ker

    # boundary of an I_p vector is a combination of basis-generator columns
    boundaries = {}
    for p in range(1, p_max + 2):
        k_prev = len(vectors[p - 1])
        cols = []
        if vectors[p]:
            labels = graded.basis.get(p, [])
            rows_prev = graded.universe_size(p - 1)
            bmat = dense_matrix([graded.column(l) for l in labels], rows_prev, field.q)
            images = (bmat @ coeffs[p]) % field.q
            prev_dense = dense_matrix(vectors[p - 1], rows_prev, field.q)
            x = dense_solve_many(prev_dense, images, field.q)
            if x is None:
                raise GradedValidationError(
                    "boundary of an infimum chain escapes the infimum complex;"
                    " input boundary data is inconsistent"
                )
            cols = [
                SparseColumn((int(i), int(x[i, j])) for i in np.flatnonzero(x[:, j]))
                for j in range(len(vectors[p]))
            ]
        boundaries[p] = SparseMatrix(k_prev, cols, field)
    ambient = {p: graded.universe_size(p) for p in range(p_max + 2)}
    return ChainComplexSlice(field, p_max + 1, ambient, vectors, boundaries)


def relative_homology_dims(big: ChainComplexSlice, small: ChainComplexSlice, p_max: int) -> list[int]:
    """Dimensions of H_p(big / small) for p = 0..p_max, via quotient boundary ranks."""
    if big.field != small.field:
        raise GradedValidationError("slices live over different fields")
    q = big.q
    reps, rep_idx = {}, {}
    for p in range(p_max + 2):
        if big.ambient_rows.get(p, 0) != small.ambient_rows.get(p, 0):
            raise GradedValidationError(f"slices disagree on ambient coordinates at dimension {p}")
        rows = big.ambient_rows.get(p, 0)
        span = IncrementalSpan(rows, q)
        for v in big.vectors.get(p, ()):
            span.add(v.to_dense(rows))
        for v in small.vectors.get(p, ()):
            if not span.contains(v.to_dense(rows)):
                raise GradedValidationError(
                    f"dimension {p}: the small slice is not contained in the big one"
                )
        span = IncrementalSpan(rows, q)
        for v in small.vectors.get(p, ()):
            span.add(v.to_dense(rows))
        reps[p], rep_idx[p] = [], []
        for j, v in enumerate(big.vectors.get(p, ())):
            if span.add(v.to_dense(rows)):
                reps[p].append(v)
                rep_idx[p].append(j)

    quotient = {}
    for p in range(1, p_max + 2):
        n_small = len(small.vectors.get(p - 1, ()))
        k_prev = len(reps[p - 1])
        cols = []
        if rep_idx[p]:
            rows_prev = big.ambient_rows.get(p - 1, 0)
            big_prev = big.vector_matrix(p - 1)
            bnd = big.boundary_matrix(p).to_dense()
            images = (big_prev @ bnd[:, rep_idx[p]]) % q
            denom = dense_matrix(
                list(small.vectors.get(p - 1, ())) + reps[p - 1], rows_prev, q
            )
            x = dense_solve_many(denom, images, q)
            if x is None:
                raise GradedValidationError("quotient boundary image escapes the quotient basis")
            cols = x[n_small:, :]
        quotient[p] = np.asarray(cols, dtype=np.int64).reshape(k_prev, len(rep_idx[p]))

    out = []
    for p in range(p_max + 1):
        r_down = dense_rank(quotient[p], q) if p >= 1 else 0
        r_up = dense_rank(quotient[p + 1], q)
        out.append(len(reps[p]) - r_down - r_up)
    return out


def mapping_cone(small: ChainComplexSlice, big: ChainComplexSlice) -> ChainComplexSlice:
    """Mapping cone of the inclusion small ⊆ big.

    Cone dimension p is small_{p-1} ⊕ big_p with boundary
    (c', c) -> (-d'c', c' + dc).  Cone ambient coordinates are the big
    slice's dimension-p coordinates followed by its dimension-(p-1) ones,
    matching the row layout of ``cone_graded``.
    """
    if small.field != big.field:
        raise GradedValidationError("slices live over different fields")
    field = big.field
    q = field.q
    max_dim = big.max_dim
    for p in range(max_dim + 1):
        if small.ambient_rows.get(p, 0) != big.ambient_rows.get(p, 0):
            raise GradedValidationError(f"slices disagree on ambient coordinates at dimension {p}")
        rows = big.ambient_rows.get(p, 0)
        span = IncrementalSpan(rows, q)
        for v in big.vectors.get(p, ()):
            span.add(v.to_dense(rows))
        for v in small.vectors.get(p, ()):
            if not span.contains(v.to_dense(rows)):
                raise GradedValidationError(f"dimension {p}: small slice not contained in big slice")

    # small chains re-expressed over the big basis, for the c' + dc term
    small_in_big = {}
    for p in range(max_dim + 1):
        if small.dim(p):
            x = dense_solve_many(big.vector_matrix(p), small.vector_matrix(p), q)
            if x is None:
                raise GradedValidationError(f"dimension {p}: small slice not contained in big slice")
            small_in_big[p] = x
        else:
            small_in_big[p] = np.zeros((big.dim(p), 0), dtype=np.int64)

    vectors, boundaries = {}, {}
    ambient = {}
    for p in range(max_dim + 1):
        nb, ns = big.ambient_rows.get(p, 0), big.ambient_rows.get(p - 1, 0)
        ambient[p] = nb + ns
        vecs = [SparseColumn(v.entries) for v in big.vectors.get(p, ())]
        for v in small.vectors.get(p - 1, ()):
            vecs.append(SparseColumn((r + nb, c) for r, c in v.entries))
        vectors[p] = vecs
    for p in range(1, max_dim + 1):
        kb_prev, ks_prev = big.dim(p - 1), small.dim(p - 2)
        cols = []
        big_bnd = big.boundary_matrix(p)
        for j in range(big.dim(p)):
            cols.append(big_bnd.column(j))  # (0, c) -> (0, dc)
        small_bnd = small.boundary_matrix(p - 1)
        expr = small_in_big[p - 1]
        for k in range(small.dim(p - 1)):
            pairs = [(int(i), int(expr[i, k])) for i in range(kb_prev)]  # the c' term
            for r, c in small_bnd.column(k).entries:  # the -d'c' term, cone block
                pairs.append((kb_prev + r, field.neg(c)))
            cols.append(SparseColumn.from_pairs(pairs, field))
        boundaries[p] = SparseMatrix(kb_prev + ks_prev, cols, field)

    cone = ChainComplexSlice(field, max_dim, ambient, vectors, boundaries)
    for p in range(1, max_dim):
        a = cone.boundary_matrix(p).to_dense()
        b = cone.boundary_matrix(p + 1).to_dense()
        if a.size and b.size and ((a @ b) % q).any():
            raise ConsistencyError("cone boundary does not square to zero")
    return cone
