import concurrent.futures
import csv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdboost.data import (
    BoostConfig,
    DatasetBundle,
    FitResult,
    GroupStructure,
    NumericError,
    ParseError,
    ValidationError,
    _all_finite,
    _by_column_blocks,
    _parse_float,
    _run_in_order,
    adjacent_equal_pairs,
    all_common_partition,
    block_labels,
    block_partitions,
    CoefficientState,
    equal_columns,
    label_classes,
    load_bundles,
    load_dataset_csv,
    partition_refresh,
    read_dataset_csv,
    read_groups_tsv,
    standardize_columns,
    validate,
    write_dataset_csv,
    write_groups_tsv,
)

import oracles
from conftest import LAYOUTS, laid_out, make_lr_bundles, tiny_groups, traced_peak
from oracles import write_dataset_csv_cellwise


def test_bundle_rejects_mismatched_lengths():
    with pytest.raises(ValidationError):
        DatasetBundle(X=np.zeros((5, 3)), y=np.zeros(4), delta=None, id=0)


def test_bundle_rejects_nan():
    X = np.zeros((5, 3))
    X[2, 1] = np.nan
    with pytest.raises(ValidationError):
        DatasetBundle(X=X, y=np.zeros(5), delta=None, id=0)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (1,), (7,), (4, 6)])
def test_all_finite_matches_a_mask(rng, shape):
    a = rng.standard_normal(shape) * 1e307
    assert _all_finite(a) is True
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(a.size):
            b = a.copy()
            b.flat[i] = bad
            assert _all_finite(b) is False


def test_empty_arrays_pass_the_finiteness_checks(tmp_path):
    b = DatasetBundle(X=np.zeros((2, 0)), y=np.zeros(2))
    assert b.p == 0
    path = tmp_path / "empty.csv"
    write_dataset_csv(path, np.zeros((0, 2)), np.zeros(0))
    assert path.read_bytes() == b"y,x1,x2\r\n"


def test_group_structure_basics():
    g = GroupStructure(assignment=np.array([0, 0, 1, 1, 1]))
    assert g.K == 2
    assert g.sizes.tolist() == [2, 3]
    assert g.indices(1).tolist() == [2, 3, 4]


def test_group_structure_rejects_gap():
    with pytest.raises(ValidationError):
        GroupStructure(assignment=np.array([0, 0, 2]))


@pytest.mark.parametrize("assignment", [[-1, 0, 1], [0, -3, 1, 1], [-1, -1]])
def test_group_structure_rejects_negative_ids(assignment):
    with pytest.raises(ValidationError, match="group ids must be >= 0"):
        GroupStructure(assignment=assignment)


@pytest.mark.parametrize("make", [
    lambda: DatasetBundle(X=np.eye(4), y=np.arange(4.0), delta=[0.6, 1, 1.9, 0]),
    lambda: GroupStructure(assignment=[0.9, 1.2, 1.5]),
    lambda: GroupStructure(assignment=[0, float("nan")]),
    lambda: BoostConfig(T=2.7),
    lambda: BoostConfig(T="x"),
    lambda: BoostConfig(T=None),
], ids=["delta", "assignment", "assignment-nan", "T-fraction", "T-text", "T-none"])
def test_integer_inputs_refuse_fractions(make):
    """An integer input that holds a fraction or no number at all is refused,
    not truncated."""
    with pytest.raises(ValidationError, match="expected whole numbers"):
        make()


def test_validate_consistent_problem(lr_problem):
    bundles, groups = lr_problem
    assert validate(bundles, groups, "lr") is None


def test_validate_rejects_p_mismatch(rng):
    bundles = make_lr_bundles(rng, M=2, n=20, p=4)
    short = DatasetBundle(X=bundles[1].X[:, :3], y=bundles[1].y, delta=None, id=1)
    with pytest.raises(ValidationError):
        validate([bundles[0], short], tiny_groups(4, 2), "lr")


def test_validate_rejects_delta_for_lr(rng):
    X = standardize_columns(rng.standard_normal((20, 4)))
    b = DatasetBundle(X=X, y=rng.standard_normal(20), delta=np.ones(20, dtype=int), id=0)
    with pytest.raises(ValidationError):
        validate([b], tiny_groups(4, 2), "lr")


def test_validate_rejects_all_censored_aft(rng):
    X = standardize_columns(rng.standard_normal((20, 4)))
    b = DatasetBundle(X=X, y=rng.standard_normal(20), delta=np.zeros(20, dtype=int), id=0)
    with pytest.raises(ValidationError):
        validate([b], tiny_groups(4, 2), "aft")


def test_standardize_columns_moments(rng):
    X = rng.normal(3.0, 2.5, size=(50, 4))
    Z = standardize_columns(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose((Z * Z).mean(axis=0), 1.0, atol=1e-12)


def test_standardize_refuses_overflowing_column(tmp_path, rng):
    """A deviation that overflows would scale the column to zeros."""
    X = rng.standard_normal((12, 3))
    X[:, 1] *= 1e200
    with pytest.raises(NumericError, match="overflows"):
        standardize_columns(X)
    path = tmp_path / "big.csv"
    write_dataset_csv(path, X, rng.standard_normal(12))
    with pytest.raises(NumericError, match="big.csv"):
        load_dataset_csv(path)


def test_standardize_constant_column_centered_only():
    X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    Z = standardize_columns(X)
    assert np.all(Z[:, 0] == 0.0)
    assert np.isclose((Z[:, 1] ** 2).mean(), 1.0)


# partitions ---------------------------------------------------------------


def test_partition_helpers():
    assert all_common_partition(3) == ((0, 1, 2),)


def test_canonical_partition_sorts():
    assert oracles.canonical_partition([(2, 1), (0,)]) == ((0,), (1, 2))


def test_partition_refresh_zero_beta_all_common():
    groups = tiny_groups(6, 2)
    state = CoefficientState(beta=np.zeros((6, 3)), partitions=[], iteration=0)
    refreshed = partition_refresh(state, groups)
    assert refreshed.partitions == [((0, 1, 2),)] * 2


def test_partition_refresh_detects_blocks():
    groups = tiny_groups(4, 2)
    beta = np.zeros((4, 3))
    beta[0, :] = [1.0, 1.0, 0.5]     # group 0: datasets 0,1 equal
    beta[2, :] = [0.3, 0.2, 0.1]     # group 1: all distinct
    state = CoefficientState(beta=beta, partitions=[], iteration=0)
    refreshed = partition_refresh(state, groups)
    assert refreshed.partitions[0] == ((0, 1), (2,))
    assert refreshed.partitions[1] == ((0,), (1,), (2,))


def test_block_partition_exact_comparison():
    block = np.array([[0.0, -0.0, 1.0, 1.0, np.nan],
                      [2.0, 2.0, 2.0, 2.0 + 1e-15, 2.0]])
    eq = equal_columns(block)
    assert eq.tolist() == [
        [True, True, False, False, False],
        [True, True, False, False, False],
        [False, False, True, False, False],
        [False, False, False, True, False],
        [False, False, False, False, False],
    ]
    # -0.0 equals 0.0; a NaN column equals nothing and stays alone
    assert block_labels(block) == [0, 0, 2, 3, 4]
    assert block_partitions(block, GroupStructure(assignment=[0, 0])) == \
        [((0, 1), (2,), (3,), (4,))]
    assert block_labels(np.empty((0, 3))) == [0, 0, 0]
    assert label_classes([0, 1, 1, 0]) == ((0, 3), (1, 2))


def test_adjacent_equal_pairs():
    groups = tiny_groups(4, 2)
    beta = np.zeros((4, 3))
    beta[0, :] = [1.0, 1.0, 0.5]
    beta[2, :] = [0.3, 0.2, 0.3]
    assert adjacent_equal_pairs(beta, groups) == ((True, False), (False, False))


def test_fit_result_selected_and_verdicts():
    groups = tiny_groups(4, 2)
    beta = np.zeros((4, 3))
    beta[0, :] = 1.0
    res = FitResult(
        beta_hat=beta,
        t_hat=5,
        partitions=[((0, 1, 2),), ((0, 1), (2,))],
        objective_trace=np.linspace(1, 0.5, 10),
    )
    assert res.selected[0] == (0,)
    assert res.group_verdicts(groups) == ["common", "partial"]


def test_boost_config_validation():
    with pytest.raises(ValidationError):
        BoostConfig(nu=0.0)
    with pytest.raises(ValidationError):
        BoostConfig(T=0)
    with pytest.raises(ValidationError):
        BoostConfig(lam=-1.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError):
            BoostConfig(lam=bad)
    with pytest.raises(ValidationError):
        BoostConfig(algorithm="gradient_descent")


# file formats --------------------------------------------------------------


def test_csv_round_trip(tmp_path, rng):
    X = standardize_columns(rng.standard_normal((12, 3)))
    y = rng.standard_normal(12)
    names = ["a", "b", "c"]
    path = tmp_path / "d0.csv"
    write_dataset_csv(path, X, y, None, names)
    X2, y2, d2, cols = read_dataset_csv(path)
    assert cols == names
    assert np.array_equal(X2, X)
    assert np.array_equal(y2, y)
    assert d2 is None


def test_csv_round_trip_with_delta(tmp_path, rng):
    X = rng.standard_normal((8, 2))
    y = rng.standard_normal(8)
    delta = rng.integers(0, 2, size=8)
    delta[0] = 1
    path = tmp_path / "d0.csv"
    write_dataset_csv(path, X, y, delta, ["u", "v"])
    X2, y2, d2, _ = read_dataset_csv(path)
    assert np.array_equal(X2, X) and np.array_equal(d2, delta)


def test_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,a,b\n1.0,2.0,3.0\n1.0,2.0\n")
    with pytest.raises(ParseError):
        read_dataset_csv(path)


def test_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,a\n1.0,oops\n")
    with pytest.raises(ParseError):
        read_dataset_csv(path)


@pytest.mark.parametrize("rows, message", [
    ("1.0,oops,2.0\n", "{path}:2: non-numeric cell 'oops'"),
    ("1.0,2.0,3.0\n1.0,nan,2.0\n", "{path}:3: non-finite cell 'nan'"),
    ("1.0,2.0,inf\n", "{path}:2: non-finite cell 'inf'"),
    ("1.0,-inf,oops\n", "{path}:2: non-finite cell '-inf'"),
    ("1.0,oops,nan\n", "{path}:2: non-numeric cell 'oops'"),
    ("1.0,2.0,Infinity\n1.0,abc,2.0\n", "{path}:2: non-finite cell 'Infinity'"),
    ("1.0,,2.0\n", "{path}:2: non-numeric cell ''"),
])
def test_csv_error_names_first_bad_cell(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("y,a,b\n" + rows)
    with pytest.raises(ParseError) as err:
        read_dataset_csv(path)
    assert str(err.value) == message.format(path=path)


def test_csv_rejects_repeated_covariate(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("y,a,b,b,a\n1.0,2.0,3.0,4.0,5.0\n")
    with pytest.raises(ParseError) as err:
        read_dataset_csv(path)
    assert str(err.value) == f"{path}: covariate 'b' appears twice in the header"


def test_csv_huge_finite_values_are_kept(tmp_path):
    # the row sum overflows although every cell is finite
    path = tmp_path / "big.csv"
    path.write_text("y,a,b\n1e308,1e308,1e308\n-1e308,1e308,1.5\n")
    X, y, _, _ = read_dataset_csv(path)
    assert X.tolist() == [[1e308, 1e308], [1e308, 1.5]]
    assert y.tolist() == [1e308, -1e308]


def test_load_dataset_standardizes(tmp_path, rng):
    X = rng.normal(5.0, 3.0, size=(20, 2))
    y = rng.standard_normal(20)
    path = tmp_path / "d.csv"
    write_dataset_csv(path, X, y, None, ["a", "b"])
    bundle, _ = load_dataset_csv(path, 0)
    assert np.allclose(bundle.X.mean(axis=0), 0.0, atol=1e-12)


def test_groups_tsv_round_trip(tmp_path):
    names = ["x1", "x2", "x3"]
    path = tmp_path / "groups.tsv"
    write_groups_tsv(path, GroupStructure(assignment=np.array([0, 0, 1])), names)
    groups = read_groups_tsv(path, names)
    assert groups.assignment.tolist() == [0, 0, 1]


def test_groups_tsv_rejects_unknown_covariate(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("x1\t0\nx9\t1\n")
    with pytest.raises(ValidationError):
        read_groups_tsv(path, ["x1", "x2"])


# ---------------------------------------------------------------------------
# CSV writing: the row-joining writer against the cell-by-cell csv.writer
# ---------------------------------------------------------------------------

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 1.7976931348623157e308,
                -1.7976931348623157e308, 1.0, -3.0, 1e22, 123456789.0]
_ELEMENTS = {
    "float64": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from(_EDGE_FLOATS)),
    "float32": st.floats(width=32, allow_nan=False, allow_infinity=False),
    "int64": st.integers(-2**63, 2**63 - 1),
}
# names csv.writer must quote, and plain ones; "delta" would read as the
# event column
_NAMES = st.one_of(st.sampled_from(["a,b", 'q"t', " lead", "trail ", "x1", "é", "a\tb",
                                    "l\nf", "c\rr"]),
                   st.text(alphabet='ab ,"\'', min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 20), p=st.integers(1, 20),
       dtype=st.sampled_from(sorted(_ELEMENTS)), with_delta=st.booleans(),
       default_names=st.booleans())
def test_csv_writer_matches_cellwise_csv_writer(tmp_path_factory, data, n, p, dtype,
                                                with_delta, default_names):
    elements = _ELEMENTS[dtype]
    X = np.array(data.draw(st.lists(st.lists(elements, min_size=p, max_size=p),
                                    min_size=n, max_size=n)), dtype=dtype).reshape(n, p)
    y = np.array(data.draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)
    delta = (np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
             if with_delta else None)
    names = None if default_names else data.draw(
        st.lists(_NAMES.filter(lambda name: name != "delta"), min_size=p, max_size=p,
                 unique=True))
    base = tmp_path_factory.getbasetemp()
    want, got = base / "cellwise.csv", base / "joined.csv"
    write_dataset_csv_cellwise(want, X, y, delta, names)
    write_dataset_csv(got, X, y, delta, names)
    assert got.read_bytes() == want.read_bytes()
    X2, y2, delta2, names2 = read_dataset_csv(got)
    assert X2.tobytes() == np.asarray(X, dtype=float).tobytes()
    assert y2.tobytes() == np.asarray(y, dtype=float).tobytes()
    assert names2 == (names or [f"x{j + 1}" for j in range(p)])
    if with_delta:
        assert delta2.tolist() == delta.tolist()
    else:
        assert delta2 is None


@pytest.mark.parametrize("X, y, delta", [
    ([[1.0, np.nan], [2.0, 3.0]], [1.0, 2.0], None),
    ([[1.0, 2.0], [np.inf, 3.0]], [1.0, 2.0], None),
    ([[1.0, 2.0], [2.0, 3.0]], [1.0, -np.inf], None),
    ([[1.0, 2.0], [2.0, 3.0]], [1.0, 2.0], [1, 2]),
    ([[1.0, 2.0], [2.0, 3.0]], [1.0, 2.0], [1.0, 0.5]),
    ([[1.0, 2.0], [2.0, 3.0]], [1.0, 2.0], [1]),  # delta shorter than y
    ([[1.0, 2.0], [2.0, 3.0]], [1.0], None),  # y shorter than X
    ([1.0, 2.0], [1.0, 2.0], None),  # X not a table
])
def test_csv_writer_refuses_bad_arrays(tmp_path, X, y, delta):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValidationError):
        write_dataset_csv(path, np.array(X), np.array(y), delta)
    assert not path.exists()


# ---------------------------------------------------------------------------
# CSV row parsing: the fast path against the cell-by-cell path
# ---------------------------------------------------------------------------

_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["", " 1.5 ", "1_0", "abc", "Infinity", "-NaN", "+inf", "1e400",
                     "-1e400", "1e308", "0x10", "١٢", "1e-400", ".5", "5.", "--1"]),
)


def _cell_by_cell(path):
    """Every data row through ``_parse_float``, the first bad cell raising;
    returns (X, y, delta) with ``X`` a view of the parsed table."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    data = np.asarray([[_parse_float(c, f"{path}:{i}") for c in row]
                       for i, row in enumerate(rows, start=2)])
    if header[1] == "delta":
        return data[:, 2:], data[:, 0], data[:, 1].astype(int)
    return data[:, 1:], data[:, 0], None


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_CELLS, min_size=3, max_size=3), min_size=1, max_size=4))
def test_csv_fast_rows_match_cell_by_cell(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["y", "a", "b"], *rows])
    try:
        want = _cell_by_cell(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            read_dataset_csv(path)
        assert str(err.value) == str(exc)
        return
    X, y, delta, names = read_dataset_csv(path)
    assert (X.tobytes(), y.tobytes()) == (want[0].tobytes(), want[1].tobytes())
    assert delta is None and names == ["a", "b"]


# ---------------------------------------------------------------------------
# the ordered job runner
# ---------------------------------------------------------------------------


def _inline_pool(made):
    """A stand-in for ProcessPoolExecutor that runs each job when it is
    submitted, in this process, and appends itself to ``made``."""

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.submitted = 0
            made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            self.submitted += 1
            future = concurrent.futures.Future()
            future.set_result(fn(job))
            return future

    return InlinePool


def _square(x):
    return x * x


@pytest.mark.parametrize("workers, n_jobs, stop", [
    (64, 11, None), (2, 11, None), (3, 11, 4), (3, 2, None), (4, 4, 1),
])
def test_run_in_order_bounds_pool_and_window(monkeypatch, workers, n_jobs, stop):
    """The pool has min(workers, jobs) processes and at most that many jobs
    are submitted beyond those already taken; closing early submits no more."""
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(made))
    window = min(workers, n_jobs)
    runs = _run_in_order(_square, list(range(n_jobs)), workers)
    taken = []
    for value in runs:
        taken.append(value)
        assert made[0].submitted <= len(taken) - 1 + window
        if len(taken) == stop:
            break
    runs.close()
    assert taken == [j * j for j in range(stop or n_jobs)]
    assert [pool.max_workers for pool in made] == [window]


# ---------------------------------------------------------------------------
# loading: what a bundle holds and what the load path allocates
# ---------------------------------------------------------------------------


def _write_files(directory, rng, model, n, p, M=3):
    paths = []
    for m in range(M):
        X = rng.normal(m, 1.0 + m, size=(n, p))
        X[:, 0] = 2.5  # a constant column, centered only
        delta = rng.integers(0, 2, size=n) if model == "aft" else None
        path = directory / f"{model}_{m}.csv"
        write_dataset_csv(path, X, rng.standard_normal(n), delta)
        paths.append(path)
    return paths


@pytest.mark.parametrize("model", ["lr", "aft"])
@pytest.mark.parametrize("standardize", [True, False])
def test_load_bundles_bit_identical_to_cell_by_cell(tmp_path, rng, model, standardize):
    paths = _write_files(tmp_path, rng, model, n=30, p=7)
    bundles, names = load_bundles(paths, standardize=standardize)
    assert names == [f"x{j + 1}" for j in range(7)]
    for b, path in zip(bundles, paths):
        X, y, delta = _cell_by_cell(path)
        if standardize:
            sd = X.std(axis=0)
            X = (X - X.mean(axis=0)) / np.where(sd > 0, sd, 1.0)
        # the parsed covariate table itself, standardized in place or not
        assert b.X.flags.c_contiguous
        assert (b.X.dtype, b.X.shape, b.X.tobytes()) == (X.dtype, X.shape, X.tobytes())
        assert (b.y.dtype, b.y.tobytes()) == (y.dtype, y.tobytes())
        if model == "aft":
            assert (b.delta.dtype, b.delta.tobytes()) == (delta.dtype, delta.tobytes())
        else:
            assert b.delta is None and delta is None


@pytest.fixture(scope="module")
def wide_csvs(tmp_path_factory):
    return _write_files(tmp_path_factory.mktemp("wide"), np.random.default_rng(3),
                        "lr", n=200, p=1000)


@pytest.mark.parametrize("standardize", [True, False])
def test_load_bundles_holds_only_what_it_returns(wide_csvs, standardize):
    (bundles, _), peak = traced_peak(load_bundles, wide_csvs, standardize=standardize)
    # each file's covariate table, standardized in place, and nothing else
    # of its size
    assert peak <= 1.25 * sum(b.X.nbytes for b in bundles)
    for b in bundles:
        assert not np.shares_memory(b.y, b.X)
        # an array of its own, so y keeps no parsed table alive
        assert b.y.flags.owndata


def test_standardize_holds_one_temporary(rng):
    X = rng.standard_normal((200, 1000))
    _, peak = traced_peak(standardize_columns, X)
    # one n x p array at a time (std's temporary, then the result);
    # (X - mu) / sd would hold two at once
    assert peak < 1.5 * X.nbytes


def test_standardize_in_place_holds_no_n_by_p_array(rng):
    X = rng.standard_normal((200, 1000))
    want = standardize_columns(X)
    out, peak = traced_peak(standardize_columns, X, out=X)
    assert out is X and X.tobytes() == want.tobytes()
    # column blocks only: neither std's deviations nor a result of X's size
    assert peak < 0.25 * X.nbytes


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 300), p=st.integers(1, 700), layout=st.sampled_from(LAYOUTS),
       seed=st.integers(0, 2**32 - 1))
# n = 300 makes blocks 54 columns wide; p = 55 leaves a one-column tail
@example(n=300, p=55, layout="c", seed=1)
@example(n=300, p=109, layout="every_other_column", seed=2)
def test_column_mean_std_match_whole_array(n, p, layout, seed):
    X = laid_out(np.random.default_rng(seed), n, p, layout)
    assert _by_column_blocks(np.mean, X).tobytes() == oracles.column_mean_whole(X).tobytes()
    assert _by_column_blocks(np.std, X).tobytes() == oracles.column_std_whole(X).tobytes()
    assert standardize_columns(X).tobytes() == oracles.standardize_whole(X).tobytes()
