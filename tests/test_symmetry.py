import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (dense_toolkit, hermitian_eigenvalues, orbit_blocks,
                             permutation_operator, permutation_traces, regroup_operator,
                             split_sum, split_sum_dense, state_matrix, swap_references,
                             symmetrizer_traces)
from stateid import checks, cli, minerr, symmetry, unambiguous
from stateid.povm import mean_success
from stateid.symmetry import (
    RELABEL,
    S3,
    S3_PERMUTATIONS,
    bipartite_toolkit,
    build_toolkit,
    check_dim_relation,
    dimension_table,
    permutation_columns,
    permutation_sum,
    relabel,
    s3_adjoint,
    s3_product,
    s3_reduce,
)

SQRT3_2 = 0.8660254037844386

ALL_D = (2, 3, 4, 5, 6)


@pytest.mark.parametrize("d,sym2,sym3,antisym3,mixed3", [
    (2, 3, 4, 0, 4),
    (3, 6, 10, 1, 16),
    (4, 10, 20, 4, 40),
    (5, 15, 35, 10, 80),
    (6, 21, 56, 20, 140),
])
def test_dimension_table_values(d, sym2, sym3, antisym3, mixed3):
    t = dimension_table(d)
    assert (t.sym2, t.sym3, t.antisym3, t.mixed3) == (sym2, sym3, antisym3, mixed3)
    assert t.sym3 + t.antisym3 + t.mixed3 == d**3


@pytest.mark.parametrize("d", ALL_D)
def test_dimension_closed_forms(d):
    t = dimension_table(d)
    assert t.sym3 == d * (d + 1) * (d + 2) // 6
    assert t.antisym3 == d * (d - 1) * (d - 2) // 6
    assert t.mixed3 == 2 * d * (d * d - 1) // 3


def test_dimension_table_rejects_nonpositive():
    with pytest.raises(ValueError):
        dimension_table(0)


class TestDimRelation:
    def test_two_qubits(self):
        assert check_dim_relation(2, 2) == (40, 40)

    def test_qubit_qutrit(self):
        assert check_dim_relation(2, 3) == (140, 140)

    @pytest.mark.parametrize("da", (2, 3, 4, 5))
    @pytest.mark.parametrize("db", (2, 3, 4, 5))
    def test_grid_residual_zero(self, da, db):
        lhs, rhs = check_dim_relation(da, db)
        assert lhs - rhs == 0


@pytest.mark.parametrize("d", ALL_D)
class TestToolkitInvariants:
    def test_pair_projectors(self, d):
        tk = build_toolkit(d)
        eye = np.eye(d**3)
        assert np.abs(tk.sym01 - (eye + tk.swap01) / 2).max() == 0.0
        assert np.abs(tk.antisym02 - (eye - tk.swap02) / 2).max() == 0.0
        for p in (tk.sym01, tk.sym02, tk.antisym01, tk.antisym02):
            assert np.abs(p @ p - p).max() < 1e-12

    def test_young_projectors_resolve_identity(self, d):
        tk = build_toolkit(d)
        eye = np.eye(d**3)
        assert np.abs(tk.sym3 + tk.antisym3 + tk.mixed3 - eye).max() < 1e-12
        for p in (tk.sym3, tk.antisym3, tk.mixed3):
            assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(tk.sym3 @ tk.antisym3).max() < 1e-12
        assert np.abs(tk.sym3 @ tk.mixed3).max() < 1e-12
        assert np.abs(tk.antisym3 @ tk.mixed3).max() < 1e-12

    def test_traces_match_dimensions(self, d):
        tk = build_toolkit(d)
        assert abs(np.trace(tk.sym3) - tk.dims.sym3) < 1e-8
        assert abs(np.trace(tk.antisym3) - tk.dims.antisym3) < 1e-8
        assert abs(np.trace(tk.mixed3) - tk.dims.mixed3) < 1e-8

    def test_swap_combination_algebra(self, d):
        tk = build_toolkit(d)
        eye = np.eye(d**3)
        dd = tk.swap_diff @ tk.swap_diff
        assert np.abs(dd - 0.75 * tk.mixed3).max() < 1e-10
        assert np.abs(tk.swap_diff @ tk.swap_sum + tk.swap_sum @ tk.swap_diff).max() < 1e-10
        assert np.abs(tk.swap_sum @ tk.swap_sum - (eye - dd)).max() < 1e-10

    def test_mixed_projector_is_central(self, d):
        tk = build_toolkit(d)
        for t in (tk.swap01, tk.swap02, tk.swap12):
            assert np.abs(tk.mixed3 @ t - t @ tk.mixed3).max() < 1e-10
        assert abs(np.trace(tk.mixed3 @ tk.swap01)) < 1e-9
        assert abs(np.trace(tk.mixed3 @ tk.swap02)) < 1e-9

    def test_mixed_trace_formulas(self, d):
        tk = build_toolkit(d)
        vm = tk.dims.mixed3
        m = tk.mixed3
        assert abs(np.trace(m @ tk.antisym02 @ tk.sym01) - 3 * vm / 8) < 1e-8
        assert abs(np.trace(m @ tk.sym02 @ tk.antisym01) - 3 * vm / 8) < 1e-8
        assert abs(np.trace(m @ tk.sym02 @ tk.sym01) - vm / 8) < 1e-8
        assert abs(np.trace(m @ tk.antisym02 @ tk.antisym01) - vm / 8) < 1e-8


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_swap_diff_spectrum(d):
    tk = build_toolkit(d)
    w = hermitian_eigenvalues(tk.swap_diff, (d,))
    vm = tk.dims.mixed3
    assert np.sum(np.abs(w - SQRT3_2) < 1e-9) == vm // 2
    assert np.sum(np.abs(w + SQRT3_2) < 1e-9) == vm // 2
    assert np.sum(np.abs(w) < 1e-9) == tk.dims.sym3 + tk.dims.antisym3


@pytest.mark.parametrize("dims", [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (3, 3)],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_orbit_blocks_are_the_orbits_of_the_maps(dims):
    # each index's orbit by closure under the maps, one at a time, grouped by
    # size and ordered by least index
    maps = permutation_columns(*dims).reshape(-1, np.prod(dims) ** 3)
    orbits, seen = {}, set()
    for i in range(maps.shape[1]):
        if i in seen:
            continue
        orbit, todo = {i}, [i]
        while todo:
            j = todo.pop()
            new = {int(m[j]) for m in maps} - orbit
            orbit |= new
            todo += new
        seen |= orbit
        orbits.setdefault(len(orbit), []).append(sorted(orbit))
    blocks = orbit_blocks(*dims)
    assert [b.tolist() for b in blocks] == [orbits[size] for size in sorted(orbits)]
    assert not any(b.flags.writeable for b in blocks)
    assert max(orbits) <= 6 ** len(dims)


def test_no_antisymmetric_qubit_triples():
    tk = build_toolkit(2)
    assert abs(np.trace(tk.antisym3)) < 1e-12
    assert np.abs(tk.antisym3).max() < 1e-12


def test_build_toolkit_rejects_small_d():
    with pytest.raises(ValueError):
        build_toolkit(1)


def test_toolkit_is_cached_and_readonly():
    tk = build_toolkit(2)
    assert build_toolkit(2) is tk
    with pytest.raises(ValueError):
        tk.sym3[0, 0] = 5.0


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 4), seed=st.integers(0, 2**63))
def test_swap_references_matches_dense_conjugation(d, seed):
    rng = np.random.default_rng(seed)
    n = d**3
    op = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t12 = permutation_operator((d,) * 3, (0, 2, 1))
    assert np.array_equal(swap_references(op), t12 @ op @ t12)


class TestBipartite:
    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3)])
    def test_swap_diff_factorization(self, da, db):
        # T01 - T02 = (T01^A - T02^A)(x)(T01^B + T02^B)/2 + (T01^A + T02^A)(x)(T01^B - T02^B)/2
        lhs = build_toolkit(da * db).swap_diff
        rhs = split_sum(da, db, np.outer(S3.swap_diff, S3.swap_sum)
                        + np.outer(S3.swap_sum, S3.swap_diff))
        assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3)])
    def test_swap_sum_factorization(self, da, db):
        lhs = build_toolkit(da * db).swap_sum
        rhs = split_sum(da, db, np.outer(S3.swap_diff, S3.swap_diff)
                        + np.outer(S3.swap_sum, S3.swap_sum))
        assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_index_maps_match_dense_regroup(self, da, db):
        # row i of R^T kron(P_k, P_l) R holds its one 1 at permutation_columns(da, db)[k, l, i],
        # and the joint swaps are the products of the parties' equal swaps
        r = regroup_operator(da, db)
        n = (da * db) ** 3
        columns = permutation_columns(da, db)
        assert columns.shape == (6, 6, n) and not columns.flags.writeable
        for k, pk in enumerate(S3_PERMUTATIONS):
            dense_k = permutation_operator((da,) * 3, pk)
            for l, pl in enumerate(S3_PERMUTATIONS):
                dense = r.T @ np.kron(dense_k, permutation_operator((db,) * 3, pl)) @ r
                assert np.array_equal(np.flatnonzero(dense), np.arange(n) * n + columns[k, l])
            assert np.array_equal(columns[k, k], permutation_columns(da * db)[k])
        # the regrouped state is the split basis: <psi| P_k (x) P_l |psi> in its a, b form
        rng = np.random.default_rng(da * 10 + db)
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = state_matrix(da, db, vec)
        table = np.zeros((6, 6))
        table[4, 3] = 1.0
        a = permutation_operator((da,) * 3, S3_PERMUTATIONS[4])
        b = permutation_operator((db,) * 3, S3_PERMUTATIONS[3])
        assert np.isclose(vec.conj() @ split_sum(da, db, table) @ vec,
                          np.einsum("ij,ik,jl,kl->", psi.conj(), a, b, psi), rtol=1e-12)

    def test_trivial_party_refused(self):
        # no scheme uses a party of dimension 1: the split is refused by the
        # one dimension rule, although the index maps still write it
        for split in ((1, 2), (2, 1), (0, 4), (2, 2.5)):
            with pytest.raises(ValueError, match=r"^dimensions must be \(d,\) or \(d_a, d_b\), "
                               rf"each an integer >= 2, got \({split[0]}, {split[1]}\)$"):
                bipartite_toolkit(*split)
        assert np.array_equal(permutation_columns(1, 2),
                              np.broadcast_to(permutation_columns(2), (6, 6, 8)))

    def test_rejects_both_trivial(self):
        with pytest.raises(ValueError):
            bipartite_toolkit(1, 1)


# --- one dense writer and index-map overlaps, against dense references ------

@pytest.mark.parametrize("d", ALL_D)
def test_party_index_map_unchanged(d):
    # the party map is the transpose of the index array that each P_k makes,
    # as it was before a split's map shared its code
    expected = np.array([np.transpose(np.arange(d**3).reshape(d, d, d), perm).ravel()
                         for perm in S3_PERMUTATIONS])
    columns = permutation_columns(d)
    assert columns.dtype == expected.dtype and np.array_equal(columns, expected)


@settings(max_examples=30, deadline=None)
@given(split=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (1, 2)]),
       stack=st.sampled_from([(), (2,)]), seed=st.integers(0, 2**63))
def test_split_sum_matches_dense_regroup(split, stack, seed):
    # sum W[k, l] kron(P_k, P_l) regrouped into the system-major basis by the dense R
    da, db = split
    tables = np.random.default_rng(seed).standard_normal(stack + (6, 6))
    out = split_sum(da, db, tables)
    dense = np.array([split_sum_dense(da, db, w) for w in tables.reshape(-1, 6, 6)])
    assert out.shape == stack + ((da * db) ** 3,) * 2 and out.dtype == float
    assert np.abs(out.reshape(dense.shape) - dense).max() <= 1e-13 * max(1.0, np.abs(dense).max())


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 6), is_complex=st.booleans(), seed=st.integers(0, 2**63))
def test_permutation_traces_match_dense(d, is_complex, seed):
    rng = np.random.default_rng(seed)
    n = d**3
    op = rng.standard_normal((n, n))
    if is_complex:
        op = op + 1j * rng.standard_normal((n, n))
    tk = build_toolkit(d)
    basis = [permutation_operator((d,) * 3, perm) for perm in S3_PERMUTATIONS]
    traces = permutation_traces(op)
    dense = [np.einsum("ij,ji->", op, p.T).real for p in basis]
    assert np.abs(traces - dense).max() <= 1e-12 * n
    for swap, index in ((tk.swap01, 1), (tk.swap02, 2), (tk.swap12, 3)):
        assert abs(traces[index] - np.einsum("ij,ji->", op, swap).real) <= 1e-12 * n
    s01, s02 = symmetrizer_traces(op)
    assert abs(s01 - np.einsum("ij,ji->", op, tk.sym01).real) <= 1e-12 * n
    assert abs(s02 - np.einsum("ij,ji->", op, tk.sym02).real) <= 1e-12 * n


@settings(max_examples=20, deadline=None)
@given(split=st.sampled_from([(2, 2), (2, 3), (3, 2), (1, 3)]), seed=st.integers(0, 2**63))
def test_table_algebra_matches_dense(split, seed):
    # the product, adjoint and 1<->2 relabel of tables against the dense operators
    w, v = np.random.default_rng(seed).standard_normal((2, 6, 6))
    dense_w = split_sum(*split, w)
    tol = 1e-12 * 36
    assert np.abs(split_sum(*split, s3_product(w, v)) - dense_w @ split_sum(*split, v)).max() <= tol
    assert np.abs(split_sum(*split, s3_adjoint(w)) - dense_w.T).max() <= tol
    assert np.abs(split_sum(*split, relabel(w)) - swap_references(dense_w)).max() <= tol


def test_3x3_checks_never_build_the_joint_toolkit(monkeypatch, capsys):
    # the separable and overlap paths at (3,3) read tables on the irreps and
    # never build the joint toolkit, and no command writes a dense operator:
    # every binding of the dense writer in the package raises
    local, scatter = symmetry.build_toolkit, symmetry._scatter

    def small_only(d):
        if d >= 4:
            raise AssertionError(f"joint toolkit built at d = {d}")
        return local(d)

    def refuse(*args, **kwargs):
        raise AssertionError("dense writer called")

    monkeypatch.setattr(symmetry, "build_toolkit", small_only)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "stateid" and getattr(module, "_scatter", None) is scatter:
            monkeypatch.setattr(module, "_scatter", refuse)
    unambiguous.separable_unamb_povm.cache_clear()
    priors = minerr.Priors.from_eta1(0.3)
    for eta1 in (0.1, 0.3, 0.5):
        assert checks.instance_row(checks.minerr_locc, 3, 3, eta1)["pass"]
    assert checks.instance_row(checks.unamb_separable, 3, 3)["pass"]
    povm = minerr.optimal_global_povm(9, priors)
    assert abs(mean_success(povm, priors) - minerr.max_success_global(9, priors)) < 1e-9
    for argv in (["dims", "--d", "3"], ["dims", "--da", "2", "--db", "3"],
                 ["minerr", "--d", "3", "--eta1", "0.3"],
                 ["minerr", "--da", "3", "--db", "3", "--eta1", "0.7", "--locc"],
                 ["minerr", "--da", "2", "--db", "2", "--locc", "--simulate", "--n", "200"],
                 ["unamb", "--d", "3"], ["unamb", "--da", "2", "--db", "3"],
                 ["unamb", "--d", "3", "--simulate", "--n", "200"],
                 ["unamb", "--da", "2", "--db", "2", "--simulate", "--n", "200"],
                 ["verify-all", "--seed", "7"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    with pytest.raises(AssertionError, match="joint toolkit"):
        symmetry.build_toolkit(9)
    with pytest.raises(AssertionError, match="dense writer"):
        unambiguous.optimal_global_povm(2).e1


# --- the group algebra of the P_k, against dense permutation operators ------

def dense_basis(d):
    return np.array([permutation_operator((d,) * 3, perm) for perm in S3_PERMUTATIONS])


COORDS = st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6).map(np.array)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), a=COORDS, b=COORDS)
def test_algebra_matches_dense_products(d, a, b):
    # at d = 2 the map from coordinates is not injective: sum_k sgn(k) P_k = 0
    basis = dense_basis(d)
    dense_a, dense_b = np.tensordot(a, basis, 1), np.tensordot(b, basis, 1)
    t12 = basis[S3_PERMUTATIONS.index((0, 2, 1))]
    assert np.abs(np.tensordot(s3_product(a, b), basis, 1) - dense_a @ dense_b).max() <= 1e-13
    assert np.abs(np.tensordot(s3_adjoint(a), basis, 1) - dense_a.T).max() <= 1e-14
    assert np.abs(np.tensordot(a[RELABEL], basis, 1) - t12 @ dense_a @ t12).max() <= 1e-14
    assert np.abs(permutation_sum(d, a) - dense_a).max() <= 1e-14
    assert np.abs(permutation_sum(d, np.array([a, b])) - [dense_a, dense_b]).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_d2_reduction_is_the_least_norm_fit(d):
    # s3_reduce picks, at d = 2, the coordinates that a least-squares fit of
    # the dense operator on the dense P_k gives: the least-norm ones
    rng = np.random.default_rng(d)
    basis = dense_basis(d).reshape(6, -1).T
    for c in (rng.standard_normal(6), S3.antisym3, S3.mixed3):
        fitted = np.linalg.pinv(basis) @ (basis @ c)
        assert np.abs(s3_reduce(d, c) - fitted).max() <= 1e-14
    assert np.array_equal(s3_reduce(2, S3.antisym3), np.zeros(6))
    assert np.array_equal(permutation_sum(2, S3.antisym3), np.zeros((8, 8)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_named_coordinates_match_the_toolkit(d):
    # each toolkit field is its S3 coordinates written dense, and matches the
    # sums and products of dense 0/1 swaps that defined it before
    tk, dense = build_toolkit(d), dense_toolkit(d)
    for name in vars(dense):
        assert np.array_equal(getattr(tk, name), permutation_sum(d, getattr(S3, name)))
        assert np.abs(getattr(tk, name) - getattr(dense, name)).max() <= 1e-15
    assert np.array_equal(permutation_sum(d, S3.identity), np.eye(d**3))
    for name in ("swap01", "swap02", "swap12", "sym01", "antisym02", "swap_diff", "swap_sum"):
        assert np.array_equal(getattr(tk, name), getattr(dense, name))
