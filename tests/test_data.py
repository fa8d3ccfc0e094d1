"""Data ingestion: LibSVM parsing, partitioning, Dirichlet synthesis."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import GRAM_PAST_MEMORY
from locodl import data
from locodl.errors import InputError, ParseError
from locodl.objectives import Shard

import oracle


class TestParseLibsvm:
    def test_basic_row(self):
        ds = data.parse_libsvm("+1 1:0.5 3:-2")
        assert ds.d == 3
        assert np.array_equal(ds.features.toarray(), [[0.5, 0.0, -2.0]])
        assert np.array_equal(ds.labels, [1.0])

    def test_zero_one_labels_mapped(self):
        ds = data.parse_libsvm("0 1:1\n1 2:1")
        assert np.array_equal(ds.labels, [-1.0, 1.0])

    def test_non_numeric_label_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            data.parse_libsvm("abc 1:1")

    def test_error_line_number_counts_skipped_lines(self):
        with pytest.raises(ParseError, match="line 3"):
            data.parse_libsvm("+1 1:1\n\nabc 1:1")

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(ParseError, match="increasing"):
            data.parse_libsvm("+1 2:1 2:3")
        with pytest.raises(ParseError):
            data.parse_libsvm("+1 3:1 1:2")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ParseError):
            data.parse_libsvm("+1 1:x")
        with pytest.raises(ParseError):
            data.parse_libsvm("+1 nocolon")

    @pytest.mark.parametrize("pair", ["1:nan", "1:inf", "1:-inf"])
    def test_non_finite_value_rejected_with_line(self, pair):
        with pytest.raises(ParseError, match=f"line 2: non-finite feature value '{pair}'"):
            data.parse_libsvm(f"+1 1:1\n-1 {pair} 2:1\n+1 2:1")

    def test_comments_and_blank_lines(self):
        ds = data.parse_libsvm("# header\n\n+1 1:2 # trailing\n-1 2:1\n")
        assert ds.m == 2
        assert ds.d == 2

    def test_rejects_other_label_alphabets(self):
        with pytest.raises(InputError):
            data.parse_libsvm("3 1:1\n4 2:1")

    def test_dense_materialization(self):
        ds = data.parse_libsvm("+1 2:5\n-1 1:1")
        assert ds.features.dtype == np.float64
        assert np.array_equal(ds.features.toarray(), [[0.0, 5.0], [1.0, 0.0]])
        assert np.array_equal(ds.labels, [1.0, -1.0])

    def test_rows_without_features(self):
        ds = data.parse_libsvm("+1\n-1 2:1\n-1")
        assert np.array_equal(ds.features.toarray(), [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("text", ["", "\n# only a comment\n"])
    def test_empty_input_rejected(self, text):
        with pytest.raises(InputError):
            data.parse_libsvm(text)


def file_lines(text):
    """The lines of a text file holding `text`: it splits at newlines, CRLFs and lone CRs only."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def both_paths(text):
    """(parse_libsvm, oracle) results for `text`; either may be the ParseError it raised."""
    results = []
    for parse in (data.parse_libsvm, lambda text: oracle.parse_lines(file_lines(text))):
        try:
            results.append(parse(text))
        except ParseError as exc:
            results.append(exc)
    return tuple(results)


def assert_same_arrays(shard, by_line):
    """`shard` holds the oracle's (labels, features), with labels mapped to -1/+1; its CSR
    features hold the arrays, dtypes included, of the CSR of the oracle's dense features."""
    assert shard.features.shape == by_line[1].shape
    assert np.array_equal(shard.features.toarray(), by_line[1])
    expected = sparse.csr_matrix(by_line[1])
    for name in ("data", "indices", "indptr"):
        got, want = getattr(shard.features, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert np.array_equal(shard.labels, data._normalize_labels(np.array(by_line[0])))


# one LibSVM token of a valid file, spelled the ways int() and float() accept
INDEX_SPELLINGS = ["{}", "+{}", "0{}", "{}"]
VALUE_SPELLINGS = ["1", "1.0", "-0.5", "+2", "1e-3", "1_0", "3.25E2", "-7", "0.1", ".5",
                   "0", "-0"]


@st.composite
def valid_libsvm(draw):
    """LibSVM text that parses: comments, blank and label-only rows, mixed separators."""
    labels = draw(st.sampled_from([("+1", "-1"), ("1", "-1"), ("0", "1"), ("1.0", "-1.0")]))
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if kind == "comment":
            lines.append("# " + draw(st.sampled_from(["header", "1:2 x", "#"])))
            continue
        indices = sorted(draw(st.sets(st.integers(1, 60), max_size=8)))
        pairs = [draw(st.sampled_from(INDEX_SPELLINGS)).format(i) + ":"
                 + draw(st.sampled_from(VALUE_SPELLINGS)) for i in indices]
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        line = sep.join([draw(st.sampled_from(labels))] + pairs)
        if draw(st.booleans()):
            line += draw(st.sampled_from([" ", " # trailing", "#c"]))
        lines.append(line)
    if not any(line.split("#", 1)[0].strip() for line in lines):
        lines.append(labels[0])
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


# text that differs from a valid file in one token
BAD_TOKENS = ["abc", "1:", ":1", "x:1", "1:x", "1:2:3", "0:1", "-1:1", "1:nan", "1:inf",
              "1:-inf", "nocolon", "1::2", "+", "1:1e999", "99999999999999999999:1"]


class TestBulkParse:
    """The parser against the line-by-line oracle: the same arrays, or the same error."""

    @pytest.mark.parametrize("text", [
        "# header\n\n+1 1:2 # trailing\n-1 2:1\n",
        "+1\n-1 2:1\n-1",
        "+1 1:0.5 3:-2\r\n-1 2:1\r\n",
        "0 1:1\n1 2:1",
        "+1 +3:1 1_0:1e-3\n-1 1:1_0 12:2",
        "-1 7:1\n+1 2:1 5:1",
        "+1 \t1:1   2:1\t\n\n# only a comment\n-1",
        "+1 1:0 2:1 3:-0\n-1 2:0.0 4:-0.0\n+1 1:2 6:0e5",
    ], ids=["comments", "label_only_rows", "crlf", "zero_one_labels", "int_float_spellings",
            "d_from_largest_index", "mixed_whitespace", "explicit_zeros"])
    def test_valid_input_is_parsed_in_bulk(self, text):
        assert_same_arrays(data.parse_libsvm(text), oracle.parse_lines(file_lines(text)))

    @pytest.mark.parametrize("text", [
        "1 1:1\x0c2:1\n-1 1:2\n", "1 1:1\x0b2:1\n-1 1:2\n", "1 1:1\x1c2:1\n-1 1:2\n",
        "1 1:1\x852:1\n-1 1:2\n", "1 1:1\u20282:1\n-1 1:2\n", "1 1:1\u20292:1\n-1 1:2\n",
        "1 1:1 2:1\r\n-1 1:2\r\n", "1 1:1 2:1\r-1 1:2\r",
    ], ids=["form_feed", "vertical_tab", "file_separator", "next_line", "line_separator",
            "paragraph_separator", "crlf", "lone_cr"])
    def test_a_string_splits_into_the_lines_of_a_file(self, text, tmp_path):
        # str.splitlines() would also end a line at every separator but the last two
        path = tmp_path / "data.libsvm"
        path.write_bytes(text.encode("utf-8"))
        from_file, from_string = data.load_libsvm(str(path)), data.parse_libsvm(text)
        assert from_string.features.shape == (2, 2)
        assert np.array_equal(from_string.features.toarray(), from_file.features.toarray())
        assert np.array_equal(from_string.labels, from_file.labels)
        assert_same_arrays(from_string, oracle.parse_lines(file_lines(text)))

    def test_crlf_file_is_parsed_in_bulk(self, tmp_path):
        path = tmp_path / "crlf.libsvm"
        path.write_bytes(b"+1 1:0.5 3:-2\r\n# note\r\n-1 2:1\r\n")
        by_line = oracle.parse_lines(file_lines("+1 1:0.5 3:-2\n# note\n-1 2:1\n"))
        assert_same_arrays(data.load_libsvm(str(path)), by_line)

    @settings(max_examples=200, deadline=None)
    @given(valid_libsvm())
    def test_valid_input_gives_the_line_by_line_arrays(self, text):
        assert_same_arrays(*both_paths(text))

    @settings(max_examples=200, deadline=None)
    @given(valid_libsvm(), st.sampled_from(BAD_TOKENS), st.integers(0, 10_000))
    def test_one_bad_token_agrees(self, text, token, where):
        lines = text.split("\n")
        rows = [i for i, line in enumerate(lines) if line.split("#", 1)[0].split()]
        i = rows[where % len(rows)]
        parts = lines[i].split("#", 1)[0].split()
        parts[where % len(parts)] = token
        lines[i] = " ".join(parts)
        shard, by_line = both_paths("\n".join(lines))
        if isinstance(by_line, ParseError):
            assert isinstance(shard, ParseError)
            assert str(shard) == str(by_line)
            assert shard.lineno == by_line.lineno
        else:
            assert_same_arrays(shard, by_line)

    @pytest.mark.parametrize("text, line, message", [
        ("+1 1:1\n\nabc 1:1", 3, "non-numeric label 'abc'"),
        ("+1 1:1\n-1 nocolon", 2, "malformed feature pair 'nocolon'"),
        ("+1 1:1\n-1 1:2:3", 2, "malformed feature pair '1:2:3'"),
        ("+1 5 6:1:2", 1, "malformed feature pair '5'"),
        ("+1 1:x", 1, "malformed feature pair '1:x'"),
        ("+1 1:1\n+1 0:1", 2, "feature indices must be strictly increasing (saw 0 after 0)"),
        ("+1 2:1 2:3", 1, "feature indices must be strictly increasing (saw 2 after 2)"),
        ("-1 1:1\n+1 3:1 1:2", 2, "feature indices must be strictly increasing (saw 1 after 3)"),
        ("+1 1:1\n-1 1:nan 2:1", 2, "non-finite feature value '1:nan'"),
        ("+1 1:inf", 1, "non-finite feature value '1:inf'"),
        ("+1 1:1\n+1 2:1\n-1 1:1e999", 3, "non-finite feature value '1:1e999'"),
        # past int64, so no array has that many columns
        ("+1 1:1 99999999999999999999:1\n-1 1:2", 1, "feature index 99999999999999999999 is "
         "too large: its 99999999999999999999 x 99999999999999999999 Gram entries do not fit "
         "in memory"),
        # an int64, but a Gram of that many float64 columns passes numpy's array size limit
        ("-1 1:2\n+1 1:1 9000000000000000000:1\n+1 3:1", 2, "feature index 9000000000000000000 "
         "is too large: its 9000000000000000000 x 9000000000000000000 Gram entries do not fit "
         "in memory"),
        # the one ordering case whose earlier index is past int64
        ("+1 99999999999999999999:1 5:1", 1,
         "feature indices must be strictly increasing (saw 5 after 99999999999999999999)"),
        # 4 rows of a million columns fit, but their 7.28 TiB Gram does not
        pytest.param("-1 1:1\n+1 1:1 1000000:1\n-1 2:1\n+1 3:1", 2, "feature index 1000000 "
                     "is too large: its 1000000 x 1000000 Gram entries do not fit in memory",
                     marks=GRAM_PAST_MEMORY),
    ], ids=["label", "missing_colon", "two_colons", "balanced_colons", "value", "index_zero",
            "repeated_index", "decreasing_index", "nan", "inf", "overflow", "index_past_int64",
            "index_past_array_size", "decreasing_after_index_past_int64",
            "index_past_gram_size"])
    def test_each_error_names_the_line_of_the_line_by_line_parse(self, text, line, message):
        _, by_line = both_paths(text)
        assert isinstance(by_line, ParseError)
        with pytest.raises(ParseError) as raised:
            data.parse_libsvm(text)
        assert str(raised.value) == str(by_line) == f"line {line}: {message}"
        assert raised.value.lineno == by_line.lineno == line

    def test_a_gram_past_physical_memory_is_refused(self, monkeypatch):
        # numpy allocates a 10 x 10 Gram under any overcommit policy: only the limit refuses it
        text = "+1 1:1\n-1 2:1 10:1\n+1 3:1"
        for module in (data, oracle):
            monkeypatch.setattr(module, "_PHYSICAL_MEMORY", 8 * 10 * 10)
        assert data.parse_libsvm(text).d == 10
        for module in (data, oracle):
            monkeypatch.setattr(module, "_PHYSICAL_MEMORY", 8 * 10 * 10 - 1)
        parsed, by_line = both_paths(text)
        assert isinstance(parsed, ParseError) and parsed.lineno == 2
        assert str(parsed) == str(by_line) == (
            "line 2: feature index 10 is too large: its 10 x 10 Gram entries do not fit in memory")

    @pytest.mark.parametrize("text", ["", "\n# only a comment\n"])
    def test_empty_input_gives_the_line_by_line_error(self, text):
        assert oracle.parse_lines(file_lines(text))[1].shape == (0, 0)
        with pytest.raises(InputError, match="shard must contain at least one row"):
            data.parse_libsvm(text)

    def test_a5a_stand_in_is_parsed_in_bulk(self, a5a_path):
        with open(a5a_path, encoding="utf-8") as fh:
            by_line = oracle.parse_lines([line.rstrip("\n") for line in fh])
        assert_same_arrays(data.load_libsvm(a5a_path), by_line)


class TestRoundTrip:
    def test_fixed_example(self):
        text = "+1 1:0.5 3:-2.0\n-1 2:1.25\n"
        ds = data.parse_libsvm(text)
        again = data.parse_libsvm(oracle.serialize_libsvm(ds))
        assert np.array_equal(again.features.toarray(), ds.features.toarray())
        assert np.array_equal(again.labels, ds.labels)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=21).flatmap(lambda d: st.lists(
        st.tuples(
            st.lists(st.one_of(st.just(0.0),
                               st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
                     min_size=d, max_size=d),
            st.sampled_from([-1.0, 1.0])),
        min_size=1, max_size=10)))
    def test_round_trip_random(self, rows):
        ds = Shard([feats for feats, _ in rows], [label for _, label in rows])
        again = data.parse_libsvm(oracle.serialize_libsvm(ds))
        # d is re-inferred from the largest populated index; the columns past it are zero
        assert again.d <= ds.d
        assert np.array_equal(again.features.toarray(), ds.features[:, :again.d])
        assert not ds.features[:, again.d:].any()
        assert np.array_equal(again.labels, ds.labels)


class TestPartition:
    def _dataset(self, rows):
        return Shard(np.arange(rows, dtype=np.float64)[:, None],
                     [1.0 if i % 2 else -1.0 for i in range(rows)])

    def test_a5a_arithmetic(self):
        rows = data.partition(self._dataset(6414), 87, 0)
        assert rows.shape == (87, 73)
        assert 6414 - 87 * 73 == 63   # discarded remainder

    def test_single_client_gets_all_rows(self):
        assert data.partition(self._dataset(10), 1, 3).shape == (1, 10)

    def test_same_seed_same_shards(self):
        rows = data.partition(self._dataset(50), 7, 5)
        assert np.array_equal(rows, data.partition(self._dataset(50), 7, 5))

    @pytest.mark.parametrize("rows, n, seed", [(23, 4, 1), (50, 7, 5), (6414, 87, 0)])
    def test_client_i_holds_the_ith_slice_of_the_permutation(self, rows, n, seed):
        rng = np.random.default_rng(rows)
        ds = Shard(rng.standard_normal((rows, 3)), np.where(rng.random(rows) < 0.5, -1.0, 1.0))
        clients = data.partition(ds, n, seed)
        perm = np.random.default_rng(seed).permutation(rows)
        m = rows // n
        for i in range(n):
            assert np.array_equal(clients[i], perm[i * m:(i + 1) * m])

    def test_union_is_a_subset_of_rows(self):
        kept = sorted(data.partition(self._dataset(23), 4, 1).ravel().tolist())
        assert len(kept) == 20
        assert set(kept) <= set(range(23))
        assert len(set(kept)) == 20   # no duplicates

    def test_too_many_clients_rejected(self):
        with pytest.raises(InputError):
            data.partition(self._dataset(3), 4, 0)


class TestDirichlet:
    def test_simplex_constraint(self):
        ds = data.dirichlet_synthetic(50, 8, 0.5, 0)
        assert ds.features.shape == (50, 8)
        assert np.all(ds.features >= 0.0)
        assert np.allclose(ds.features.sum(axis=1), 1.0, atol=1e-12)
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}

    def test_concentrated_mean(self):
        ds = data.dirichlet_synthetic(10_000, 10, 10.0, 1)
        assert np.allclose(ds.features.mean(axis=0), 0.1, atol=0.01)

    def test_coordinate_variance(self):
        ds = data.dirichlet_synthetic(20_000, 3, 1.0, 2)
        expected = 2.0 / (9.0 * 4.0)    # (d-1) / (d^2 (d alpha + 1))
        assert np.var(ds.features[:, 0]) == pytest.approx(expected, rel=0.1)

    def test_rejects_bad_alpha(self):
        with pytest.raises(InputError):
            data.dirichlet_synthetic(5, 3, 0.0, 0)
        with pytest.raises(InputError):
            data.dirichlet_synthetic(5, 1, 1.0, 0)

    def test_deterministic(self):
        a = data.dirichlet_synthetic(5, 4, 1.0, 9)
        b = data.dirichlet_synthetic(5, 4, 1.0, 9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestLargeFixture:
    def test_a5a_scale_shape(self, a5a_path):
        ds = data.load_libsvm(a5a_path)
        assert ds.m == 6414
        assert ds.d == 122

    def test_the_parse_holds_no_dense_copy_of_the_features(self, a5a_path):
        # the token arrays and the CSR need less than half the dense features' bytes
        # beside them; a dense (rows, d) array filled during the parse would not fit
        tracemalloc.start()
        try:
            ds = data.load_libsvm(a5a_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.m * ds.d * 8

    def test_the_parse_peaks_under_three_times_its_csr(self, a5a_path):
        # each token array is dropped after its last use: the stand-in peaks at 2.57 times the
        # bytes of its CSR, where holding every token array to the end peaked at 6.46 times
        tracemalloc.start()
        try:
            features = data.load_libsvm(a5a_path).features
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        csr = features.data.nbytes + features.indices.nbytes + features.indptr.nbytes
        assert peak < 3 * csr

    def test_a_tall_file_parses_far_below_its_dense_size(self):
        # 20,000 rows of 1,000 columns: nothing the parse forms is (rows, d), not even
        # unfilled; the d x d Gram probe (8 MB) and the token arrays stay under a tenth
        rows, d = 20_000, 1_000
        text = "".join(f"{1 if i % 2 else -1} {1 + i % (d - 1)}:1 {d}:0.5\n" for i in range(rows))
        tracemalloc.start()
        try:
            ds = data.parse_libsvm(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ds.m, ds.d, ds.features.nnz) == (rows, d, 2 * rows)
        assert peak < rows * d * 8 / 10
