import io
import random

import pytest

from ldcnet import covariates, dt_from, dt_to, encode, normalize_record
from ldcnet.errors import NoEligibleOccurrence, NoRecords
from ldcnet.metrics import write_stats_csv

import oracles
from corpora import make_record, random_records, ragged_records


class TestDtTo:
    def test_single_gap(self):
        records = [make_record("s1", ["cat", "dog"], [1.0, 3.5])]
        assert dt_to(records, "dog") == pytest.approx(2.5)

    def test_absent_word_raises(self):
        records = [make_record("s1", ["cat", "dog"], [1.0, 2.0])]
        with pytest.raises(NoEligibleOccurrence):
            dt_to(records, "owl")
        with pytest.raises(NoEligibleOccurrence):
            dt_from(records, "owl")

    def test_no_records_raises(self):
        with pytest.raises(NoRecords):
            dt_to([], "cat")
        with pytest.raises(NoRecords):
            dt_from([], "cat")

    def test_word_always_first_raises(self):
        records = [
            make_record("s1", ["dog", "cat"], [1.0, 2.0]),
            make_record("s2", ["dog", "owl"], [1.0, 3.0]),
        ]
        with pytest.raises(NoEligibleOccurrence):
            dt_to(records, "dog")

    def test_matches_predecessor_gap_scan(self):
        rng = random.Random(3)
        records = random_records(rng, n_subjects=12, list_len=7, vocab_size=6)
        words = {w for r in records for w in r.words}
        for word in words:
            gaps = []
            for r in records:
                seen = set()
                kept = [(w, t) for w, t in r.entries if not (w in seen or seen.add(w))]
                for i, (w, t) in enumerate(kept):
                    if w == word and i >= 1:
                        gaps.append(t - kept[i - 1][1])
            if not gaps:
                with pytest.raises(NoEligibleOccurrence):
                    dt_to(records, word)
            else:
                assert dt_to(records, word) == pytest.approx(sum(gaps) / len(gaps))


class TestDtFrom:
    def test_single_gap_positive_duration(self):
        records = [make_record("s1", ["cat", "dog"], [1.0, 3.5])]
        assert dt_from(records, "cat") == pytest.approx(2.5)

    def test_word_always_last_raises(self):
        records = [make_record("s1", ["cat", "dog"], [1.0, 2.0])]
        with pytest.raises(NoEligibleOccurrence):
            dt_from(records, "dog")

    def test_matches_successor_gap_scan(self):
        rng = random.Random(5)
        records = random_records(rng, n_subjects=12, list_len=7, vocab_size=6)
        words = {w for r in records for w in r.words}
        for word in words:
            gaps = []
            for r in records:
                seen = set()
                kept = [(w, t) for w, t in r.entries if not (w in seen or seen.add(w))]
                for i, (w, t) in enumerate(kept):
                    if w == word and i < len(kept) - 1:
                        gaps.append(kept[i + 1][1] - t)
            if gaps:
                assert dt_from(records, word) == pytest.approx(sum(gaps) / len(gaps))

    def test_uses_raw_onsets_not_normalized(self):
        records = [make_record("s1", ["cat", "dog", "owl"], [1.0, 3.0, 6.0])]
        raw = dt_from(records, "cat")
        assert raw == 2.0
        # applying the normalization step first would shrink the gap
        assert dt_from([normalize_record(records[0])], "cat") == pytest.approx(2.0 / 3)
        assert raw != dt_from([normalize_record(records[0])], "cat")


class TestCovariates:
    def test_positions_and_frequency(self):
        records = [
            make_record("s1", ["w", "x"], [1.0, 2.0]),
            make_record("s2", ["y", "w"], [1.0, 2.0]),
            make_record("s3", ["y", "x", "w"], [1.0, 2.0, 3.0]),
        ]
        stats = covariates(records)
        assert stats["w"].frequency == 3
        assert stats["w"].avg_location == pytest.approx(2.0)
        assert stats["x"].frequency == 2

    def test_log_frequency_of_singleton_is_zero(self):
        records = [make_record("s1", ["solo", "other"], [1.0, 2.0])]
        assert covariates(records)["solo"].log_frequency == 0.0

    def test_missing_dt_is_none_not_zero(self):
        records = [make_record("s1", ["first", "last"], [1.0, 2.0])]
        stats = covariates(records)
        assert stats["first"].dt_to is None
        assert stats["first"].n_to == 0
        assert stats["last"].dt_from is None

    def test_agrees_with_dt_functions(self):
        rng = random.Random(9)
        records = random_records(rng, n_subjects=10, list_len=6, vocab_size=5)
        stats = covariates(records)
        for word, s in stats.items():
            if s.dt_to is not None:
                assert s.dt_to == pytest.approx(dt_to(records, word))
            if s.dt_from is not None:
                assert s.dt_from == pytest.approx(dt_from(records, word))

    def test_frequency_sums_to_total_collapsed_length(self):
        rng = random.Random(13)
        records = random_records(rng, n_subjects=8, list_len=9, vocab_size=4)
        stats = covariates(records)
        total = sum(len(set(r.words)) for r in records)
        assert sum(s.frequency for s in stats.values()) == total

    def test_first_word_of_single_record_corpus_locates_at_one(self):
        records = [make_record("s1", ["alpha", "beta", "gamma"])]
        assert covariates(records)["alpha"].avg_location == 1.0

    def test_no_records_raises(self):
        with pytest.raises(NoRecords):
            covariates([])

    def test_equals_per_record_reference(self):
        for seed in range(40):
            rng = random.Random(seed)
            records = ragged_records(
                rng, rng.randint(1, 14), rng.randint(1, 9), rng.randint(2, 6)
            )
            expected = oracles.reference_covariates(records)
            assert covariates(records) == expected
            corpus = encode(records)
            assert covariates(corpus) == expected
            assert covariates(corpus) == expected

    def test_memoised_table_comes_back_as_a_fresh_dict(self):
        corpus = encode([make_record("s1", ["cat", "dog"], [1.0, 3.0])])
        first = covariates(corpus)
        first.clear()
        assert list(covariates(corpus)) == ["cat", "dog"]


class TestStatsCsv:
    def test_schema_and_null_markers(self):
        records = [make_record("s1", ["cat", "dog"], [1.0, 3.0])]
        buf = io.StringIO()
        write_stats_csv(covariates(records), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "word,frequency,log_frequency,avg_location,dt_to,dt_from,n_to,n_from"
        assert lines[1] == "cat,1,0,1,,2,0,1"
        assert lines[2] == "dog,1,0,2,2,,1,0"

    def test_optional_ldc_column(self):
        records = [make_record("s1", ["cat", "dog"], [1.0, 3.0])]
        buf = io.StringIO()
        write_stats_csv(covariates(records), buf, ldc_scores={"cat": 0.25})
        lines = buf.getvalue().splitlines()
        assert lines[0].endswith(",ldc")
        assert lines[1].endswith(",0.25")
        assert lines[2].endswith(",")
