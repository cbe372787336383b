import io
import math
import pickle
import random
import statistics
import sys

import numpy as np
import pytest

from ldcnet import (
    GridResult,
    PermutationConfig,
    correlation_distance_matrix,
    covariates,
    exclude_outliers,
    grid_sweep,
    permutation_test,
    spearman,
)
from ldcnet.centrality import fan_out, ldc_vector
import ldcnet.corpus as corpus_module
import ldcnet.stats as stats_module
from ldcnet.corpus import (
    DistanceFunctionParams,
    FluencyRecord,
    build_graph,
    collapse_draws,
    draw_graphs,
    encode,
    shuffle_records,
)
from ldcnet.errors import (
    InsufficientData,
    LdcnetError,
    UndefinedActualCorrelation,
    ZeroVariance,
)
from ldcnet.metrics import gap_means
from ldcnet.stats import (
    FULL_GRID_MS_VALUES,
    FULL_GRID_WS_VALUES,
    MEASURES,
    MAX_RETRIES,
    PERMUTATION_BATCH,
    SpearmanEntry,
    average_ranks,
    derive_seed,
    evaluate_cell,
    ldc_dt_correlation,
    population_sd,
    spearman_pvalue,
    summary_columns,
    summary_row,
    table_entry,
    variable_pairs,
    write_grid_summary,
    _null_draws,
)

import oracles
from corpora import complete_graph, make_record, ragged_records, random_graph, random_records


@pytest.fixture
def encode_calls(monkeypatch):
    """Counts every corpus encoding, i.e. every pass that interns the records."""
    calls = []
    original = corpus_module._intern

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(corpus_module, "_intern", counting)
    return calls


class TestSpearman:
    def test_perfect_monotone(self):
        xs = list(range(10))
        ys = [2 * x + 1 for x in xs]
        assert spearman(xs, ys) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        xs = [float(x) for x in range(8)]
        ys = [-x for x in xs]
        assert spearman(xs, ys) == pytest.approx(-1.0)

    def test_matches_naive_rank_oracle_with_ties(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(4, 30)
            xs = [rng.choice([0.0, 1.0, 2.5, 2.5, 7.0]) for _ in range(n)]
            ys = [rng.choice([1.0, 1.0, 3.0, 9.0]) for _ in range(n)]
            if min(xs) == max(xs) or min(ys) == max(ys):
                continue
            assert spearman(xs, ys) == pytest.approx(
                oracles.naive_spearman(xs, ys), abs=1e-12
            )

    def test_symmetry(self):
        rng = random.Random(5)
        xs = [rng.random() for _ in range(20)]
        ys = [rng.random() for _ in range(20)]
        assert spearman(xs, ys) == pytest.approx(spearman(ys, xs), abs=1e-15)

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(7)
        xs = [rng.random() for _ in range(25)]
        ys = [rng.random() for _ in range(25)]
        base = spearman(xs, ys)
        assert spearman([math.exp(3 * x) for x in xs], ys) == pytest.approx(base)
        assert spearman(xs, [y ** 3 for y in ys]) == pytest.approx(base)

    def test_null_pairs_dropped(self):
        xs = [1.0, None, 2.0, 3.0, 4.0]
        ys = [1.0, 5.0, None, 3.0, 4.0]
        # effective pairs: (1,1), (3,3), (4,4)
        assert spearman(xs, ys) == pytest.approx(1.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            spearman([1.0, 2.0], [2.0, 1.0])
        with pytest.raises(InsufficientData):
            spearman([1.0, None, 2.0], [1.0, 2.0, None])

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_average_ranks_equal_the_naive_oracle(self):
        rng = random.Random(53)
        series = [[], [4.2], [-0.0, 0.0], [0.0, -0.0, 1.0, -0.0], [3.0, 3.0, 3.0]]
        for _ in range(300):
            pool = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 6))] + [-0.0, 0.0]
            series.append([rng.choice(pool) for _ in range(rng.randint(1, 40))])
            series.append([rng.randint(-3, 3) for _ in range(rng.randint(1, 40))])
        for values in series:
            assert average_ranks(values).tolist() == oracles.naive_average_ranks(values)

    @pytest.mark.parametrize("position", range(3))
    def test_nan_raises_in_every_position(self, position):
        # [1.0, 1.0] with a nan raised ZeroVariance in one position and gave a rho in another
        for rest in ([1.0, 1.0], [1.0, 2.0]):
            xs = list(rest)
            xs.insert(position, math.nan)
            ys = [1.0, 2.0, 3.0]
            for x, y in ((xs, ys), (ys, xs)):
                with pytest.raises(ValueError, match="nan"):
                    spearman(x, y)
                with pytest.raises(ValueError, match="nan"):
                    spearman(np.array([x, ys]), np.array([y, ys]), np.ones((2, 3), dtype=bool))
        with pytest.raises(ValueError, match="nan"):
            average_ranks(xs)

    def test_nan_outside_the_mask_is_ignored(self):
        x = np.array([[1.0, 2.0, 3.0, math.nan]])
        kept = np.array([[True, True, True, False]])
        assert spearman(x, x, kept).tolist() == [1.0]
        assert average_ranks(x, kept)[:, :3].tolist() == [[1.0, 2.0, 3.0]]
        assert spearman([1.0, 2.0, 3.0, math.nan], [1.0, 2.0, 3.0, None]) == 1.0

    def test_stacked_rows_equal_the_one_row_call_bit_for_bit(self):
        rng = random.Random(61)
        rows = [
            ([1.0, 2.0], [2.0, 1.0]),  # fewer than 3 pairs
            ([1.0, None, 2.0, 3.0], [1.0, 2.0, None, 3.0]),  # 2 kept pairs
            ([4.0, 4.0, 4.0, 4.0], [1.0, 2.0, 3.0, 4.0]),  # a constant side
            ([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]),  # all tied
            ([math.inf, -math.inf, 1.0, math.inf], [1.0, 2.0, 2.0, -math.inf]),
            ([math.inf] * 4, [1.0, 3.0, 2.0, 5.0]),
            ([], []),
        ]
        for _ in range(300):
            n = rng.randint(0, 40)
            pool = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 5))]
            pool += [-0.0, 0.0, math.inf, -math.inf]
            missing = rng.choice([0.0, 0.1, 0.5])

            def draw():
                return None if rng.random() < missing else rng.choice(pool)

            rows.append(([draw() for _ in range(n)], [draw() for _ in range(n)]))
        width = max(len(x) for x, _ in rows) + 3
        (xs, x_kept) = stats_module._masked([x for x, _ in rows], width)
        (ys, y_kept) = stats_module._masked([y for _, y in rows], width)
        # the padding holds values that must not count
        xs[:, -3:], ys[:, -3:] = 7.0, -7.0
        stacked = spearman(xs, ys, x_kept & y_kept)
        outcomes = set()
        for (x, y), rho in zip(rows, stacked.tolist()):
            try:
                expected = spearman(x, y).hex()
            except (InsufficientData, ZeroVariance) as exc:
                expected = math.nan.hex()
                outcomes.add(type(exc))
            assert rho.hex() == expected
        assert outcomes == {InsufficientData, ZeroVariance}
        assert len(rows) - np.isnan(stacked).sum() > 200

    def test_stacked_call_with_no_rows(self):
        empty = np.zeros((0, 5))
        assert spearman(empty, empty, empty.astype(bool)).shape == (0,)

    def test_masked_ranks_equal_the_ranks_of_the_kept_values(self):
        rng = random.Random(67)
        pools = [rng.sample([-1.0, 0.0, 2.5, math.inf], rng.randint(1, 4)) for _ in range(50)]
        values = np.array([[rng.choice(pool) for _ in range(30)] for pool in pools])
        kept = np.array([[rng.random() < 0.7 for _ in range(30)] for _ in range(50)])
        ranks = average_ranks(values, kept)
        for row, mask, got in zip(values, kept, ranks):
            assert got[mask].tolist() == oracles.naive_average_ranks(row[mask].tolist())
            assert (got[~mask] > mask.sum()).all()

    def test_pvalue_sanity(self):
        assert spearman_pvalue(1.0, 10) == 0.0
        assert spearman_pvalue(0.0, 10) == pytest.approx(1.0)
        strong = spearman_pvalue(0.9, 30)
        weak = spearman_pvalue(0.2, 30)
        assert strong < 1e-6 < weak


class TestExcludeOutliers:
    def test_constant_series_retains_everything(self):
        values = {f"w{i}": 5.0 for i in range(6)}
        assert exclude_outliers(values) == set(values)

    def test_single_extreme_point_excluded(self):
        values = {f"w{i}": 0.0 for i in range(9)}
        values["spike"] = 100.0
        # mean 10, population SD 30: z = 3 > 2.5
        assert exclude_outliers(values) == {f"w{i}" for i in range(9)}

    def test_matches_brute_force_filter(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(3, 40)
            x = {f"w{i}": rng.gauss(0, 1) for i in range(n)}
            y = {f"w{i}": rng.gauss(5, 3) for i in range(n)}
            got = exclude_outliers(x, y)
            expected = set(x)
            for series in (x, y):
                mean = sum(series.values()) / n
                sd = math.sqrt(sum((v - mean) ** 2 for v in series.values()) / n)
                if sd > 0:
                    expected -= {w for w, v in series.items() if abs(v - mean) > 2.5 * sd}
            assert got == expected

    def test_non_finite_series_excludes_nothing(self):
        for bad in (math.nan, math.inf, -math.inf):
            values = {f"w{i}": 0.0 for i in range(9)}
            values["spike"] = 100.0
            values["bad"] = bad
            assert exclude_outliers(values) == set(values)
            # the other series still bands its words
            y = {w: 1.0 for w in values}
            assert exclude_outliers(y, values) == set(values)
            assert exclude_outliers(dict(values, bad=0.0), values) == set(values) - {"spike"}

    def test_pair_uses_common_words_only(self):
        x = {"a": 1.0, "b": 2.0, "c": 3.0}
        y = {"b": 1.0, "c": 2.0, "d": 9.0}
        assert exclude_outliers(x, y) == {"b", "c"}

    def test_requires_two_words(self):
        with pytest.raises(InsufficientData):
            exclude_outliers({"a": 1.0})


class TestPopulationSd:
    @staticmethod
    def _series():
        rng = random.Random(59)
        yield [1.0, 1.0]
        yield [0.1, 0.2, 0.3]
        yield [1e-300, 3e-300, 2e-300]
        yield [1e300, -1e300, 0.5]
        for _ in range(1500):
            n = rng.randint(2, 40)
            kind = rng.randrange(4)
            if kind == 0:
                yield [rng.gauss(0, 1) for _ in range(n)]
            elif kind == 1:
                yield [rng.randint(0, 12) for _ in range(n)]
            elif kind == 2:
                pool = [rng.uniform(0, 3) for _ in range(3)]
                yield [rng.choice(pool) for _ in range(n)]
            else:
                yield [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]

    def test_correctly_rounded_root_of_the_exact_variance(self):
        for values in self._series():
            variance = oracles.exact_population_variance(values)
            assert oracles.is_nearest_root(population_sd(values), variance), values

    def test_non_finite_gives_nan_and_empty_raises(self):
        for values in ([1.0, math.nan], [math.inf, 1.0], [math.inf, -math.inf], [-math.inf]):
            assert math.isnan(population_sd(values))
        with pytest.raises(statistics.StatisticsError):
            population_sd([])

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="pstdev is correctly rounded from 3.11")
    def test_equals_pstdev_from_python_3_11(self):
        for values in self._series():
            assert population_sd(values) == statistics.pstdev(values), values


class TestGridSweep:
    def test_paper_grid_has_90_cells(self):
        records = [make_record(f"s{i}", ["cat", "dog"], [0.0, 1.0]) for i in range(4)]
        cells = grid_sweep(records, FULL_GRID_WS_VALUES, FULL_GRID_MS_VALUES)
        assert len(cells) == 90
        assert [(c.ws, c.ms) for c in cells] == [
            (ws, ms) for ws in FULL_GRID_WS_VALUES for ms in FULL_GRID_MS_VALUES
        ]

    def test_single_subject_corpus_yields_all_empty(self):
        records = [make_record("s0", ["a", "b", "c", "d"])]
        cells = grid_sweep(records, (1, 2), (3, 5))
        assert all(c.status == "empty" for c in cells)

    def test_cells_match_independent_single_runs(self):
        rng = random.Random(13)
        records = random_records(rng, n_subjects=20, list_len=8, vocab_size=8)
        cells = grid_sweep(records, (2, 3), (3,))
        for cell in cells:
            single = evaluate_cell(records, cell.ws, cell.ms)
            assert summary_row(single) == summary_row(cell)

    def test_jobs_do_not_change_results(self):
        rng = random.Random(17)
        records = random_records(rng, n_subjects=15, list_len=7, vocab_size=7)
        seq = grid_sweep(records, (1, 2), (3, 4))
        par = grid_sweep(records, (1, 2), (3, 4), jobs=2)
        assert [summary_row(c) for c in seq] == [summary_row(c) for c in par]

    def test_records_are_encoded_once_per_sweep(self, encode_calls):
        rng = random.Random(23)
        records = random_records(rng, n_subjects=15, list_len=7, vocab_size=7)
        cells = grid_sweep(records, (2, 1, 2), (3, 4))
        assert len(cells) == 6
        assert encode_calls == [len(records)]

    def test_vertex_count_nonincreasing_in_ms(self):
        rng = random.Random(19)
        records = random_records(rng, n_subjects=25, list_len=9, vocab_size=9)
        cells = grid_sweep(records, (1, 2, 3), (3, 4, 5, 6))
        by_ws: dict = {}
        for cell in cells:
            by_ws.setdefault(cell.ws, []).append((cell.ms, cell.n_vertices))
        for ws, row in by_ws.items():
            counts = [n for _, n in sorted(row)]
            assert counts == sorted(counts, reverse=True)

    def test_spearman_table_is_symmetric_with_unit_diagonal(self):
        rng = random.Random(23)
        records = random_records(rng, n_subjects=25, list_len=10, vocab_size=9)
        cell = evaluate_cell(records, 3, 3)
        assert cell.status == "ok"
        for a, b in variable_pairs():
            assert table_entry(cell, a, b) is table_entry(cell, b, a)


    def test_table_equals_per_pair_outlier_bands(self):
        for seed in range(12):
            rng = random.Random(seed)
            records = random_records(
                rng, n_subjects=rng.randint(8, 30), list_len=rng.randint(4, 10),
                vocab_size=rng.randint(5, 14), zipf=seed % 2 == 0,
            )
            for ws, ms in ((1, 2), (2, 3), (3, 2)):
                cell = evaluate_cell(records, ws, ms)
                if cell.status != "ok":
                    continue
                word_stats = covariates(records)
                variables = {name: dict(cell.measures[name].scores) for name in MEASURES}
                for name in ("log_frequency", "avg_location"):
                    variables[name] = {
                        w: getattr(word_stats[w], name) for w in cell.graph.vertices
                    }
                for a, b in variable_pairs():
                    try:
                        kept = sorted(exclude_outliers(variables[a], variables[b]))
                        rho = spearman([variables[a][w] for w in kept],
                                       [variables[b][w] for w in kept])
                        expected = SpearmanEntry(rho=rho, n=len(kept))
                    except (InsufficientData, ZeroVariance):
                        expected = None
                    assert cell.table[(a, b)] == expected

    def test_grid_summary_writes_one_row_per_cell(self):
        rng = random.Random(29)
        records = random_records(rng, n_subjects=20, list_len=8, vocab_size=8)
        cells = grid_sweep(records, (1, 2), (3,))
        buf = io.StringIO()
        write_grid_summary([summary_row(c) for c in cells], buf)
        header, *rows = buf.getvalue().splitlines()
        assert header.split(",") == summary_columns()
        assert [row.split(",")[:2] for row in rows] == [["1", "3"], ["2", "3"]]


class TestCorrelationDistance:
    def _full_cell(self):
        rng = random.Random(29)
        records = random_records(rng, n_subjects=30, list_len=10, vocab_size=9)
        cell = evaluate_cell(records, 3, 3)
        assert cell.status == "ok"
        return cell

    def test_distance_is_one_minus_abs_rho(self):
        cell = self._full_cell()
        labels, rows = correlation_distance_matrix(cell)
        for i, a in enumerate(labels):
            assert rows[i][i] == 0.0
            for j, b in enumerate(labels):
                assert rows[i][j] == rows[j][i]
                assert 0.0 <= rows[i][j] <= 1.0
                if i != j:
                    entry = table_entry(cell, a, b)
                    assert rows[i][j] == pytest.approx(1.0 - abs(entry.rho))

    def test_incomplete_table_raises(self):
        cell = self._full_cell()
        cell.table[("ldc", "betweenness")] = None
        with pytest.raises(InsufficientData):
            correlation_distance_matrix(cell)

    def test_empty_cell_raises(self):
        with pytest.raises(InsufficientData):
            correlation_distance_matrix(GridResult(ws=1, ms=3, status="empty"))


def monotone_chain_records(gap_seed=5, n_subjects=60, vocab=14):
    """Every subject produces the same word chain with increasing gaps.

    At ws=1 the graph is a pure chain, so routing around a vertex is
    impossible and the detour score varies strongly along the chain; the
    word order carries all of the structure, which shuffling destroys.
    """
    rng = random.Random(gap_seed)
    words = [f"v{i:02d}" for i in range(vocab)]
    gaps = sorted(rng.uniform(0.3, 2.5) for _ in range(vocab))
    records = []
    for s in range(n_subjects):
        t = 0.0
        onsets = []
        for gap in gaps:
            t += gap
            onsets.append(t)
        records.append(make_record(f"s{s:02d}", words, onsets))
    return records


class TestPermutationTest:
    def test_deterministic_under_seed(self):
        rng = random.Random(31)
        records = random_records(rng, n_subjects=20, list_len=8, vocab_size=8)
        config = PermutationConfig(ws=2, ms=3, target="dt_from", repetitions=30, seed=5)
        first = permutation_test(records, config)
        second = permutation_test(records, config)
        assert first == second

    def test_jobs_do_not_change_outcome(self):
        rng = random.Random(37)
        records = random_records(rng, n_subjects=15, list_len=8, vocab_size=7)
        config = PermutationConfig(ws=2, ms=3, target="dt_to", repetitions=20, seed=9)
        assert permutation_test(records, config) == permutation_test(
            records, config, jobs=2
        )

    def test_p_value_matches_recomputed_null(self):
        rng = random.Random(41)
        records = random_records(rng, n_subjects=18, list_len=8, vocab_size=8)
        config = PermutationConfig(ws=2, ms=3, target="dt_from", repetitions=40, seed=3)
        outcome = permutation_test(records, config)
        null = [d for d in oracles.reference_null(records, config) if d is not None]
        assert outcome.n_effective == len(null)
        extreme = sum(1 for d in null if abs(d) >= abs(outcome.actual_rho))
        assert outcome.p_value == (1 + extreme) / (len(null) + 1)

    def test_add_one_boundary_on_structured_corpus(self):
        records = monotone_chain_records()
        config = PermutationConfig(ws=1, ms=3, target="dt_to", repetitions=99, seed=11)
        outcome = permutation_test(records, config)
        assert outcome.n_effective == 99
        draws = oracles.reference_null(records, config)
        # every null draw is strictly less extreme than the actual ordering,
        # so the add-one estimator sits exactly at its boundary
        assert all(abs(d) < abs(outcome.actual_rho) for d in draws)
        assert outcome.p_value == 1 / 100

    def test_actual_correlation_is_strong_on_structured_corpus(self):
        records = monotone_chain_records()
        rho, n = ldc_dt_correlation(records, 1, 3, "dt_to")
        assert n >= 10
        assert abs(rho) > 0.8

    def test_singleton_records_have_no_defined_actual(self):
        records = [make_record(f"s{i}", ["solo"], [1.0]) for i in range(5)]
        with pytest.raises(UndefinedActualCorrelation):
            permutation_test(
                records, PermutationConfig(ws=1, ms=1, repetitions=5, seed=1)
            )

    def test_one_sided_alternatives(self):
        records = monotone_chain_records()
        outcomes = {}
        for alternative in ("greater", "less"):
            config = PermutationConfig(
                ws=1, ms=3, target="dt_to", repetitions=19, seed=2,
                alternative=alternative,
            )
            outcomes[alternative] = permutation_test(records, config)
            assert 0.0 < outcomes[alternative].p_value <= 1.0
        # the actual rho is strongly negative: "less" must be the small tail
        assert outcomes["less"].p_value < outcomes["greater"].p_value

    def test_draw_on_an_encoded_shuffle_equals_the_record_list(self):
        rng = random.Random(43)
        records = random_records(rng, n_subjects=12, list_len=6, vocab_size=6)

        def outcome(corpus, target):
            try:
                return ldc_dt_correlation(corpus, 2, 2, target)
            except LdcnetError as exc:
                return type(exc)

        corpus = encode(records)
        for seed in range(12):
            shuffled = oracles.reference_shuffle(records, seed)
            for target in ("dt_to", "dt_from"):
                assert outcome(shuffle_records(corpus, seed), target) == outcome(shuffled, target)

    def test_one_collapse_per_draw(self, encode_calls, monkeypatch):
        rng = random.Random(47)
        records = random_records(rng, n_subjects=12, list_len=6, vocab_size=6)
        shuffles = []
        original = shuffle_records

        def counting(recs, seed):
            shuffles.append(seed)
            return original(recs, seed)

        built = []
        original_init = FluencyRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr("ldcnet.stats.shuffle_records", counting)
        monkeypatch.setattr(FluencyRecord, "__init__", counting_init)
        config = PermutationConfig(ws=2, ms=2, target="dt_from", repetitions=25, seed=4)
        outcome = permutation_test(records, config)
        assert outcome.n_effective + outcome.n_failed == 25
        assert len(shuffles) >= 25
        # one encoding for the whole test; every draw shuffles the encoded
        # corpus, so no record is built per draw
        assert encode_calls == [len(records)]
        assert built == []

    # short records at ws=1, ms=1: 3 of the 30 repetitions fail every attempt
    # and many more succeed only on a redraw
    NULL_CASES = {
        "failing": (lambda: random_records(random.Random(5), n_subjects=8, list_len=4,
                                           vocab_size=6),
                    PermutationConfig(ws=1, ms=1, target="dt_to", repetitions=30, seed=5)),
        "random": (lambda: random_records(random.Random(53), n_subjects=15, list_len=8,
                                          vocab_size=9),
                   PermutationConfig(ws=2, ms=3, target="dt_from", repetitions=45, seed=8)),
        "chain": (monotone_chain_records,
                  PermutationConfig(ws=1, ms=3, target="dt_to", repetitions=25, seed=4)),
    }

    @pytest.mark.parametrize("case", sorted(NULL_CASES))
    def test_null_draws_equal_the_reference_at_jobs_1_and_2(self, case):
        make, config = self.NULL_CASES[case]
        records = make()
        expected = oracles.reference_null(records, config)
        for jobs in (1, 2):
            assert _null_draws(encode(records), config, jobs) == expected
        outcome = permutation_test(records, config, jobs=2)
        assert (outcome.n_effective, outcome.n_failed) == (
            config.repetitions - expected.count(None), expected.count(None))
        if case == "failing":
            assert expected.count(None) == 3

    def test_failed_draws_are_redrawn_with_the_seeds_of_the_reference(self, monkeypatch):
        make, config = self.NULL_CASES["failing"]
        records = make()
        seeds = []

        def shuffle(corpus, seed):
            seeds.append(seed)
            return shuffle_records(corpus, seed)

        monkeypatch.setattr("ldcnet.stats.shuffle_records", shuffle)
        null = _null_draws(encode(records), config, 1)
        engine = sorted(seeds)
        del seeds[:]
        monkeypatch.setattr(oracles, "shuffle_records", shuffle)
        assert oracles.reference_null(records, config) == null
        # every repetition tries its attempts in turn, so both draw the same corpora
        assert engine == sorted(seeds)
        assert len(seeds) > config.repetitions

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PermutationConfig(ws=1, ms=1, target="dt_sideways")
        with pytest.raises(ValueError):
            PermutationConfig(ws=1, ms=1, repetitions=0)
        with pytest.raises(ValueError):
            PermutationConfig(ws=1, ms=1, alternative="both")


def round_draws(corpus, seeds, params, target):
    """Each draw's graph and the retrieval time of each vertex, from one round over ``seeds``."""
    stack = collapse_draws(corpus, [shuffle_records(corpus, seed) for seed in seeds])
    means, counts = gap_means(stack, target)
    return [(graph, [means[d, i] if counts[d, i] else None for i in ids.tolist()])
            for d, (ids, graph) in enumerate(draw_graphs(stack, params))]


def per_draw(corpus, seed, params, target):
    """The same pair, from the one shuffled corpus alone."""
    shuffled = shuffle_records(corpus, seed)
    graph = build_graph(shuffled, params)
    stats = covariates(shuffled)
    return graph, [getattr(stats[word], target) for word in graph.vertices]


def assert_same_draw(got, expected):
    (graph, times), (other, other_times) = got, expected
    assert graph.vertices == other.vertices
    for name in ("_tails", "_heads", "_weights"):
        a, b = getattr(graph, name), getattr(other, name)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert graph._tails.dtype == np.int32
    assert times == other_times


class TestPermutationRound:
    """A round's draws, collapsed and built together, equal each draw built alone."""

    @staticmethod
    def corpora():
        yield random_records(random.Random(61), n_subjects=14, list_len=7, vocab_size=7)
        for seed in range(8):
            # empty records, repeated words, records shorter than the window
            rng = random.Random(seed)
            records = ragged_records(rng, rng.randint(3, 12), rng.randint(1, 5),
                                     rng.randint(2, 5))
            yield records + [FluencyRecord("empty", ())]

    @pytest.mark.parametrize("ws, ms", [(1, 1), (2, 2), (3, 1), (3, 3)])
    def test_round_equals_the_draws_built_one_by_one(self, ws, ms):
        params = DistanceFunctionParams(ws=ws, ms=ms)
        empty = 0
        for records in self.corpora():
            corpus = encode(records)
            for target in ("dt_to", "dt_from"):
                for seeds in ([17], list(range(9))):
                    got = round_draws(corpus, seeds, params, target)
                    assert len(got) == len(seeds)
                    for seed, draw in zip(seeds, got):
                        assert_same_draw(draw, per_draw(corpus, seed, params, target))
                        empty += draw[0].vertex_count == 0
        assert empty > 0

    def test_no_round_pair_spans_two_draws(self):
        # every draw starts with "y" and ends with "x"; a pair read across the
        # boundary of two draws would add one (x, y) contribution to a draw
        records = [make_record("first", ["y"]), make_record("s1", ["x", "y"]),
                   make_record("s2", ["y", "x"]), make_record("last", ["x"])]
        corpus = encode(records)
        params = DistanceFunctionParams(ws=1, ms=1)
        seeds = list(range(12))
        leaked = 0
        for seed, draw in zip(seeds, round_draws(corpus, seeds, params, "dt_to")):
            assert_same_draw(draw, per_draw(corpus, seed, params, "dt_to"))
            shuffled = list(shuffle_records(records, seed))
            boundary = shuffled + [make_record("boundary", ["x", "y"])]
            leaked += list(build_graph(boundary, params).arcs()) != list(draw[0].arcs())
        # the leak would have shown in some draw
        assert leaked > 0

    def test_round_never_collapses_a_draw(self, monkeypatch):
        shuffled = []

        def shuffle(corpus, seed):
            shuffled.append(shuffle_records(corpus, seed))
            return shuffled[-1]

        monkeypatch.setattr("ldcnet.stats.shuffle_records", shuffle)
        make, config = TestPermutationTest.NULL_CASES["failing"]
        permutation_test(make(), config)
        assert len(shuffled) > config.repetitions
        assert not any("collapse" in vars(draw) for draw in shuffled)

    def test_a_batch_runs_no_round_once_nothing_is_pending(self, monkeypatch):
        records = monotone_chain_records()
        config = PermutationConfig(ws=1, ms=3, target="dt_to",
                                   repetitions=2 * PERMUTATION_BATCH + 1, seed=4)
        attempt = {derive_seed(config.seed, rep, a): (rep, a)
                   for rep in range(config.repetitions) for a in range(MAX_RETRIES + 1)}
        tried, calls = [], []

        def shuffle(corpus, seed):
            tried.append(attempt[seed])
            return shuffle_records(corpus, seed)

        def stacked(x, y, kept=None):
            calls.append(kept is not None)
            return spearman(x, y, kept)

        monkeypatch.setattr("ldcnet.stats.shuffle_records", shuffle)
        monkeypatch.setattr("ldcnet.stats.spearman", stacked)
        permutation_test(records, config)
        rounds = {}
        for rep, a in tried:
            batch = rep // PERMUTATION_BATCH
            rounds[batch] = max(rounds.get(batch, 0), a + 1)
        # one call for the actual order, then one per round with a pending draw
        assert calls == [False] + [True] * sum(rounds.values())
        assert len(rounds) == 3
        assert min(rounds.values()) < MAX_RETRIES + 1


@pytest.fixture
def recording_pool(monkeypatch):
    """The one pool, recording the worker count and the chunksize each asks for.

    Each pool runs its map in this process. Every task is pickled and loaded
    first, as on its way to a worker.
    """

    class RecordingPool:
        sizes, chunksizes = [], []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            self.chunksizes.append(chunksize)
            return [fn(*pickle.loads(pickle.dumps(args))) for args in zip(*iterables)]

    monkeypatch.setattr("ldcnet.centrality.ProcessPoolExecutor", RecordingPool)
    return RecordingPool


@pytest.fixture
def pool_sizes(recording_pool):
    """Worker counts asked of every pool."""
    return recording_pool.sizes


class TestPoolSize:
    """A pool never asks for more workers than it has tasks."""

    def test_sweep_opens_one_worker_per_cell(self, pool_sizes):
        records = random_records(random.Random(17), n_subjects=15, list_len=7, vocab_size=7)
        pooled = grid_sweep(records, (1,), (3, 4), jobs=16)
        assert [summary_row(c) for c in pooled] == [
            summary_row(c) for c in grid_sweep(records, (1,), (3, 4))
        ]
        assert pool_sizes == [2]

    def test_permutation_test_opens_one_worker_per_batch(self, pool_sizes):
        records = random_records(random.Random(37), n_subjects=15, list_len=8, vocab_size=7)
        for repetitions, sizes in ((PERMUTATION_BATCH, []), (2 * PERMUTATION_BATCH + 1, [3])):
            del pool_sizes[:]
            config = PermutationConfig(ws=2, ms=3, target="dt_to", repetitions=repetitions,
                                       seed=9)
            assert permutation_test(records, config, jobs=16) == permutation_test(records, config)
            assert pool_sizes == sizes

    # a task is one detour stack of min(V, 512 // V) centres: one stack of 3 or
    # 10 centres opens no pool, 30 vertices make 2 stacks of up to 17 and
    # 70 vertices 10 stacks of 7
    @pytest.mark.parametrize("n, jobs, sizes", [
        (3, 16, []), (10, 4, []), (30, 4, [2]), (30, 16, [2]), (70, 16, [10]),
    ])
    def test_ldc_vector_opens_one_worker_per_piece(self, pool_sizes, n, jobs, sizes):
        graph = complete_graph(n)
        assert ldc_vector(graph, jobs=jobs) == ldc_vector(graph)
        assert pool_sizes == sizes

    @pytest.mark.parametrize("seed, n, jobs, sizes", [
        (43, 9, 2, []),  # one stack of 9 centres
        (31, 30, 2, [2]),  # 2 stacks of up to 17 centres, one task each
        (31, 30, 3, [2]),  # one stack per worker
        (31, 30, 16, [2]),
    ])
    def test_ldc_vector_pieces_run_the_sources_of_one_pass(self, pool_sizes, kernel_calls,
                                                           seed, n, jobs, sizes):
        def run(jobs):
            del kernel_calls[:]
            scores = ldc_vector(random_graph(random.Random(seed), n, p=0.5), jobs=jobs)
            return sum(len(sources) for _, sources in kernel_calls), scores

        assert run(jobs) == run(1)
        assert pool_sizes == sizes


class TestJobsFanOut:
    """Cells, draws and detour stacks share one fan-out and one pool rule."""

    def test_fan_out_over_jobs_yields_results_in_task_order(self):
        tasks = [-3, 1, -2, 5, -7, 0, 4, -1, 6]
        for jobs in (1, 2, 4):
            assert list(fan_out(abs, tasks, jobs)) == [abs(t) for t in tasks]

    def test_jobs_1_fan_out_runs_each_task_as_it_is_read(self):
        calls = []

        def task(x):
            calls.append(x)
            return -x

        results = fan_out(task, [1, 2, 3], 1)
        assert calls == []
        assert next(results) == -1
        assert calls == [1]
        assert list(results) == [-2, -3]

    @pytest.mark.parametrize("jobs, tasks", [(1, 5), (4, 1), (4, 0)])
    def test_fan_out_at_one_job_or_task_opens_no_pool(self, recording_pool, jobs, tasks):
        assert list(fan_out(abs, range(tasks), jobs)) == list(range(tasks))
        assert recording_pool.sizes == []

    # min(jobs, tasks) workers, each taking runs of max(1, tasks // (workers * 4)) tasks
    @pytest.mark.parametrize("work, jobs, pools", [
        ("cells", 2, ([2], [2])),  # 16 cells
        ("cells", 16, ([16], [1])),
        ("draws", 2, ([2], [2])),  # 16 batches of repetitions
        ("draws", 3, ([3], [1])),
        ("stacks", 4, ([4], [1])),  # 10 stacks of 7 centres
        ("stacks", 2, ([2], [1])),
    ])
    def test_jobs_workers_and_chunksize_follow_one_rule(self, recording_pool, work, jobs,
                                                       pools):
        records = random_records(random.Random(19), n_subjects=15, list_len=7, vocab_size=7)
        if work == "cells":
            def run(jobs):
                return [summary_row(c) for c in grid_sweep(records, (1, 2), range(3, 11),
                                                           jobs=jobs)]
        elif work == "draws":
            config = PermutationConfig(ws=2, ms=3, target="dt_to",
                                       repetitions=16 * PERMUTATION_BATCH, seed=9)

            def run(jobs):
                return permutation_test(records, config, jobs=jobs)
        else:
            graph = complete_graph(70)

            def run(jobs):
                return ldc_vector(graph, jobs=jobs)

        assert run(jobs) == run(1)
        assert (recording_pool.sizes, recording_pool.chunksizes) == pools
