import io
import json
import pickle
import random

import numpy as np
import pytest

from ldcnet import (
    DistanceFunctionParams,
    FluencyRecord,
    build_graph,
    covariates,
    encode,
    parse_corpus,
    shuffle_records,
    WeightedDigraph,
)
from ldcnet.centrality import MEASURES, compute_all
from ldcnet.corpus import EncodedCorpus, load_corpus, parse_corpus_osf
from ldcnet.stats import ldc_dt_correlation
from ldcnet.errors import LdcnetError, MalformedLine, NonMonotoneTimestamp, NoRecords

import oracles
from corpora import boundary_records, emit_corpus, make_record, random_records, ragged_records


def oracle_corpora(count=40, max_len=8):
    """Small random corpora with empty records, repeated words and mixed lengths."""
    for seed in range(count):
        rng = random.Random(seed)
        yield ragged_records(
            rng, rng.randint(1, 14), rng.randint(1, max_len), rng.randint(2, 6)
        )


def graph_state(graph):
    return graph.vertices, list(graph.arcs())


def per_record(corpus, flat):
    """A flat collapse array of ``corpus`` split into one tuple per non-empty record."""
    cuts = np.flatnonzero(np.diff(corpus.collapse.record)) + 1
    return [tuple(part.tolist()) for part in np.split(flat, cuts)] if flat.size else []


def encoding_state(corpus):
    """Everything an encoded corpus holds, with each id spelled as its word."""
    def spell(rows):
        return [[corpus.words[i] for i in row] for row in rows]

    return (
        corpus.subjects, spell(corpus.raw_ids), corpus.raw_onsets,
        per_record(corpus, corpus.collapse.record), spell(per_record(corpus, corpus.collapse.ids)),
        per_record(corpus, corpus.collapse.onsets), per_record(corpus, corpus.collapse.normalized),
    )


class TestParseCorpus:
    def test_two_line_file(self):
        text = "subject,word,onset_seconds\ns1,cat,0.5\ns1,dog,2.0\n"
        records = parse_corpus(io.StringIO(text))
        assert len(records) == 1
        assert records[0].subject_id == "s1"
        assert records[0].entries == (("cat", 0.5), ("dog", 2.0))

    def test_non_monotone_onsets_rejected(self):
        text = "subject,word,onset_seconds\ns1,cat,2.0\ns1,dog,0.5\n"
        with pytest.raises(NonMonotoneTimestamp) as err:
            parse_corpus(io.StringIO(text))
        assert err.value.subject_id == "s1"

    def test_equal_onsets_rejected(self):
        text = "subject,word,onset_seconds\ns1,cat,1.0\ns1,dog,1.0\n"
        with pytest.raises(NonMonotoneTimestamp):
            parse_corpus(io.StringIO(text))

    def test_words_lowercased_and_trimmed(self):
        text = "subject,word,onset_seconds\ns1,  CaT ,0.5\n"
        records = parse_corpus(io.StringIO(text))
        assert records[0].words == ("cat",)

    @pytest.mark.parametrize(
        "body",
        [
            "s1,cat\n",
            "s1,,1.0\n",
            ",cat,1.0\n",
            "s1,cat,notanumber\n",
            "s1,cat,-1.0\n",
            "s1,cat,61.0\n",
        ],
    )
    def test_malformed_rows(self, body):
        with pytest.raises(MalformedLine) as err:
            parse_corpus(io.StringIO("subject,word,onset_seconds\n" + body))
        assert err.value.line_no == 2

    def test_bad_header(self):
        with pytest.raises(MalformedLine):
            parse_corpus(io.StringIO("id,word,time\ns1,cat,1.0\n"))

    def test_non_contiguous_subject_rejected(self):
        text = (
            "subject,word,onset_seconds\n"
            "s1,cat,1.0\ns2,owl,1.0\ns1,dog,2.0\n"
        )
        with pytest.raises(MalformedLine):
            parse_corpus(io.StringIO(text))

    def test_round_trip_on_random_corpora(self):
        for seed in range(100):
            rng = random.Random(seed)
            records = random_records(
                rng,
                n_subjects=rng.randint(1, 6),
                list_len=rng.randint(1, 8),
                vocab_size=6,
            )
            buf = io.StringIO()
            emit_corpus(records, buf)
            reparsed = parse_corpus(io.StringIO(buf.getvalue()))
            assert reparsed == records
            buf2 = io.StringIO()
            emit_corpus(reparsed, buf2)
            assert buf2.getvalue() == buf.getvalue()


class TestOsfLoader:
    def test_parallel_lists_layout(self):
        payload = {
            "s1": {"words": ["Cat", "dog"], "timestamps": [0.5, 2.0]},
            "s2": {"words": ["owl"], "timestamps": [1.0]},
        }
        records = parse_corpus_osf(io.StringIO(json.dumps(payload)))
        assert [r.subject_id for r in records] == ["s1", "s2"]
        assert records[0].entries == (("cat", 0.5), ("dog", 2.0))

    def test_length_mismatch_rejected(self):
        payload = {"s1": {"words": ["cat"], "timestamps": [0.5, 2.0]}}
        with pytest.raises(MalformedLine):
            parse_corpus_osf(io.StringIO(json.dumps(payload)))

    def test_onset_range_enforced(self):
        payload = {"s1": {"words": ["cat", "dog"], "timestamps": [0.5, 61.0]}}
        with pytest.raises(MalformedLine):
            parse_corpus_osf(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize("word", [None, 3, ["x"], True])
    def test_non_string_word_rejected(self, word):
        payload = {"s1": {"words": ["cat", word], "timestamps": [0.5, 2.0]}}
        with pytest.raises(MalformedLine, match="'s1': non-string word"):
            parse_corpus_osf(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize("text, key", [
        ('{"s1": {"words": ["a", "b"], "timestamps": [1, 2]},'
         ' "s1": {"words": ["c"], "timestamps": [3]}}', "s1"),
        ('{"s1": {"words": ["a", "b"], "words": ["c"], "timestamps": [1]}}', "words"),
    ], ids=["subject", "field"])
    def test_repeated_key_rejected(self, text, key):
        with pytest.raises(MalformedLine, match=f"repeated JSON key {key!r}"):
            parse_corpus_osf(io.StringIO(text))

    @pytest.mark.parametrize("stamp", [True, False])
    def test_boolean_timestamp_rejected(self, stamp):
        payload = {"s1": {"words": ["cat", "dog"], "timestamps": [0.5, stamp]}}
        with pytest.raises(MalformedLine, match="'s1': non-numeric timestamp"):
            parse_corpus_osf(io.StringIO(json.dumps(payload)))


class TestLoadCorpus:
    """``load_corpus`` encodes the rows of the validator the record loaders use."""

    def test_equals_encoding_the_parsed_records(self, tmp_path):
        for seed in range(20):
            rng = random.Random(seed)
            records = ragged_records(rng, rng.randint(1, 12), rng.randint(1, 9), 5)
            csv_path = tmp_path / f"c{seed}.csv"
            emit_corpus(records, str(csv_path))  # an empty record writes no row
            json_path = tmp_path / f"c{seed}.json"
            json_path.write_text(json.dumps({
                r.subject_id: {"words": list(r.words), "timestamps": list(r.onsets)}
                for r in records
            }))
            for path, input_format, parse in (
                (csv_path, "csv", parse_corpus), (json_path, "osf-json", parse_corpus_osf)
            ):
                corpus = load_corpus(str(path), input_format)
                assert isinstance(corpus, EncodedCorpus)
                parsed = parse(str(path))
                assert type(parsed) is list
                expected = encode(parsed)
                assert corpus.words == expected.words
                assert encoding_state(corpus) == encoding_state(expected)
                assert list(corpus) == list(expected) == parsed
            assert list(load_corpus(str(json_path), "osf-json")) == records

    def test_reads_as_the_record_list(self, tmp_path):
        records = [
            make_record("s1", ["cat", "dog", "cat"], [0.5, 1.0, 2.5]),
            FluencyRecord("s2", ()),
            make_record("s3", ["owl"], [4.0]),
        ]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            r.subject_id: {"words": list(r.words), "timestamps": list(r.onsets)}
            for r in records
        }))
        corpus = load_corpus(str(path), "osf-json")
        assert len(corpus) == 3
        assert corpus[0] == records[0]
        assert corpus[-1] == records[2]
        assert corpus[1:] == records[1:]
        assert corpus[::-1] == records[::-1]
        assert records[1] in corpus
        assert corpus.index(records[2]) == 2
        with pytest.raises(IndexError):
            corpus[3]
        out = io.StringIO()
        emit_corpus(corpus, out)
        assert parse_corpus(io.StringIO(out.getvalue())) == [records[0], records[2]]

    @pytest.mark.parametrize(
        "text",
        [
            "id,word,time\ns1,cat,1.0\n",
            "subject,word,onset_seconds\ns1,cat\n",
            "subject,word,onset_seconds\ns1,cat,1.0\n,dog,2.0\n",
            "subject,word,onset_seconds\ns1,cat,1.0\ns1,  ,2.0\n",
            "subject,word,onset_seconds\ns1,cat,nan\n",
            "subject,word,onset_seconds\ns1,cat,inf\n",
            "subject,word,onset_seconds\ns1,cat,2.0\ns1,dog,2.0\n",
            "subject,word,onset_seconds\ns1,cat,1.0\ns2,owl,1.0\ns1,dog,2.0\n",
            '{"s1": {"words": ["cat", "dog"], "timestamps": [2.0, 1.0]}}',
            '{"s1": {"words": ["cat"], "timestamps": ["x"]}}',
            '{"s1": {"words": [" "], "timestamps": [1.0]}}',
            '{"s1": {"words": ["cat"], "timestamps": [NaN]}}',
            '{"s1": {"words": ["cat"], "timestamps": [true]}}',
            '{"s1": {"words": ["cat", null, 3, ["x"]], "timestamps": [1, 2, 3, 4]}}',
        ],
    )
    def test_same_error_as_the_record_loader(self, text):
        input_format, parse = (
            ("osf-json", parse_corpus_osf) if text.startswith("{") else ("csv", parse_corpus)
        )
        errors = []
        for load in (parse, lambda source: load_corpus(source, input_format)):
            with pytest.raises(LdcnetError) as err:
                load(io.StringIO(text))
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            load_corpus(io.StringIO(""), "xml")


class TestUnicode:
    def test_non_ascii_words_survive_corpus_and_graph_round_trips(self):
        text = "subject,word,onset_seconds\ns1,חתול,0.5\ns1,כלב,2.0\n"
        records = parse_corpus(io.StringIO(text))
        assert records[0].words == ("חתול", "כלב")
        buf = io.StringIO()
        emit_corpus(records, buf)
        assert parse_corpus(io.StringIO(buf.getvalue())) == records
        corpus = [
            FluencyRecord(f"s{i}", records[0].entries) for i in range(4)
        ]
        graph = build_graph(corpus, DistanceFunctionParams(ws=1, ms=3))
        assert graph.weight("חתול", "כלב") is not None

    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path):
        cases = [
            ("corpus.csv", "subject,word,onset_seconds\ns1,cat,0.5\ns1,dog,2.0\n", parse_corpus),
            ("corpus.json", '{"s1": {"words": ["cat", "dog"], "timestamps": [0.5, 2.0]}}',
             parse_corpus_osf),
            ("graph.csv", "source,target,weight\ncat,dog,1.5\n",
             lambda path: list(WeightedDigraph.from_csv(path).arcs())),
        ]
        for name, text, load in cases:
            plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
            plain.write_bytes(text.encode("utf-8"))
            marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
            assert load(str(marked)) == load(str(plain))


class TestNormalizeRecord:
    """The reference graph builder's per-record normalization."""

    def test_divides_by_word_count(self):
        record = make_record("s1", list("abcd"), [0.0, 4.0, 8.0, 12.0])
        assert oracles.normalize_record(record).onsets == (0.0, 1.0, 2.0, 3.0)

    def test_single_word(self):
        record = make_record("s1", ["cat"], [3.0])
        assert oracles.normalize_record(record).onsets == (3.0,)

    def test_normalized_gaps_times_count_recover_raw_gaps(self):
        rng = random.Random(7)
        for record in random_records(rng, n_subjects=10, list_len=7):
            normalized = oracles.normalize_record(record)
            count = len(record)
            for i in range(1, count):
                raw_gap = record.onsets[i] - record.onsets[i - 1]
                norm_gap = normalized.onsets[i] - normalized.onsets[i - 1]
                assert norm_gap * count == pytest.approx(raw_gap, rel=1e-12)


class TestCollapse:
    """The reference builders' per-record collapse."""

    def test_keeps_first_occurrence(self):
        record = make_record("s1", ["a", "b", "a", "c"], [1.0, 2.0, 3.0, 4.0])
        collapsed = oracles.collapse_first_occurrence(record)
        assert collapsed.words == ("a", "b", "c")
        assert collapsed.onsets == (1.0, 2.0, 4.0)


class TestBuildGraph:
    def test_boundary_example_arc_present(self):
        g = build_graph(boundary_records(), DistanceFunctionParams(ws=1, ms=3))
        assert list(g.arcs()) == [("cat", "dog", 0.5)]

    def test_boundary_example_strict_inequality(self):
        g = build_graph(boundary_records(), DistanceFunctionParams(ws=1, ms=4))
        assert g.vertex_count == 0

    def test_no_records_rejected(self):
        with pytest.raises(NoRecords):
            build_graph([], DistanceFunctionParams(ws=1, ms=1))

    def test_deterministic(self):
        rng = random.Random(11)
        records = random_records(rng)
        params = DistanceFunctionParams(ws=3, ms=3)
        g1 = build_graph(records, params)
        g2 = build_graph(list(records), params)
        assert list(g1.arcs()) == list(g2.arcs())

    def test_weights_nonnegative(self):
        rng = random.Random(13)
        records = random_records(rng)
        g = build_graph(records, DistanceFunctionParams(ws=4, ms=2))
        assert all(w >= 0.0 for _, _, w in g.arcs())

    def test_window_gap_semantics(self):
        # ws=1 admits only adjacent pairs; the a->c pair needs ws=2.
        records = [
            make_record(f"s{i}", ["a", "b", "c"], [0.0, 1.0, 2.0]) for i in range(3)
        ]
        narrow = build_graph(records, DistanceFunctionParams(ws=1, ms=2))
        assert narrow.weight("a", "c") is None
        wide = build_graph(records, DistanceFunctionParams(ws=2, ms=2))
        assert wide.weight("a", "c") == pytest.approx(2.0 / 3.0)

    def test_qualifying_pairs_nondecreasing_in_ws(self):
        rng = random.Random(17)
        records = random_records(rng, n_subjects=15, list_len=8, vocab_size=8)
        previous: set = set()
        for ws in range(1, 6):
            g = build_graph(records, DistanceFunctionParams(ws=ws, ms=3))
            pairs = {(u, v) for u, v, _ in g.arcs()}
            assert previous <= pairs
            previous = pairs

    def test_median_even_and_odd(self):
        # 3 subjects: normalized gaps 0.5, 1.0, 1.5 -> median 1.0
        records = [
            make_record("s1", ["a", "b"], [0.0, 1.0]),
            make_record("s2", ["a", "b"], [0.0, 2.0]),
            make_record("s3", ["a", "b"], [0.0, 3.0]),
        ]
        g = build_graph(records, DistanceFunctionParams(ws=1, ms=2))
        assert g.weight("a", "b") == pytest.approx(1.0)
        # 4 subjects: gaps 0.5, 1.0, 1.5, 2.0 -> mean of central pair 1.25
        records.append(make_record("s4", ["a", "b"], [0.0, 4.0]))
        g = build_graph(records, DistanceFunctionParams(ws=1, ms=2))
        assert g.weight("a", "b") == pytest.approx(1.25)

    def test_duplicate_words_collapse_to_first(self):
        records = [
            make_record(f"s{i}", ["a", "b", "a"], [0.0, 1.0, 2.0]) for i in range(3)
        ]
        g = build_graph(records, DistanceFunctionParams(ws=2, ms=2))
        # only the first 'a' survives, so no b->a traversal exists
        assert g.weight("b", "a") is None
        assert g.weight("a", "b") is not None


class TestEncodedCorpus:
    def test_build_graph_equals_per_record_reference(self):
        for records in oracle_corpora():
            longest = max(len(r) for r in records)
            # ws up to one past the longest record covers ws >= record length
            for ws in range(1, longest + 2):
                for ms in (1, 2, 3):
                    params = DistanceFunctionParams(ws=ws, ms=ms)
                    assert graph_state(build_graph(records, params)) == graph_state(
                        oracles.reference_build_graph(records, params)
                    )

    def test_one_encoding_reused_over_windows_2_1_2(self):
        for records in oracle_corpora(count=20):
            corpus = encode(records)
            for ws in (2, 1, 2):
                for ms in (1, 2):
                    params = DistanceFunctionParams(ws=ws, ms=ms)
                    assert graph_state(build_graph(corpus, params)) == graph_state(
                        oracles.reference_build_graph(records, params)
                    )
                assert covariates(corpus) == oracles.reference_covariates(records)

    def test_encode_keeps_an_encoded_corpus_and_counts_every_record(self):
        records = [make_record("s1", ["a", "b", "a"]), FluencyRecord("s2", ())]
        corpus = encode(records)
        assert encode(corpus) is corpus
        assert len(corpus) == 2
        assert corpus.words == ("a", "b")
        assert corpus.collapse.ids.tolist() == [0, 1]
        assert corpus.collapse.record.tolist() == [0, 0]
        assert corpus.collapse.onsets.tolist() == [1.0, 2.0]
        assert corpus.collapse.normalized.tolist() == [1.0 / 3, 2.0 / 3]

    def test_flat_collapse_equals_collapsing_each_normalized_record(self):
        def check(corpus):
            kept = [k for k in range(len(corpus)) if corpus.raw_ids[k]]
            assert per_record(corpus, corpus.collapse.record) == [
                (k,) * len(set(corpus.raw_ids[k])) for k in kept
            ]
            ids = per_record(corpus, corpus.collapse.ids)
            onsets = per_record(corpus, corpus.collapse.onsets)
            normalized = per_record(corpus, corpus.collapse.normalized)
            for i, k in enumerate(kept):
                record = corpus[k]
                expected = oracles.collapse_first_occurrence(oracles.normalize_record(record))
                assert tuple(corpus.words[w] for w in ids[i]) == expected.words
                assert normalized[i] == expected.onsets
                assert onsets[i] == oracles.collapse_first_occurrence(record).onsets

        for records in oracle_corpora(count=60):
            records = [FluencyRecord("empty", ())] + records + [
                FluencyRecord("empty too", ()),
                make_record("one", ["v00"]),
                make_record("repeats", ["v01", "v01", "v02", "v01"]),
            ]
            corpus = encode(records)
            check(corpus)
            for seed in range(5):
                check(shuffle_records(corpus, seed))
        check(encode([]))
        check(encode([FluencyRecord("empty", ())]))

    def test_array_built_graph_equals_the_checked_constructor(self):
        def scores(graph, measure):
            try:
                return compute_all(graph, measures=(measure,))[measure].scores
            except LdcnetError as exc:
                return type(exc)

        for records in oracle_corpora():
            corpus = encode(records)
            for ws in (1, 2, 3):
                for ms in (1, 2):
                    graph = build_graph(corpus, DistanceFunctionParams(ws=ws, ms=ms))
                    checked = WeightedDigraph(list(graph.arcs()))
                    assert graph.vertices == checked.vertices
                    assert list(graph.arcs()) == list(checked.arcs())
                    assert graph.arc_count == checked.arc_count
                    assert graph.max_arc_weight == checked.max_arc_weight
                    assert graph._tails.dtype == checked._tails.dtype == np.int32
                    assert graph._heads.dtype == checked._heads.dtype == np.int32
                    for measure in MEASURES:
                        assert scores(graph, measure) == scores(checked, measure)

    def test_only_empty_records_give_an_empty_graph(self):
        corpus = encode([FluencyRecord("s1", ()), FluencyRecord("s2", ())])
        assert build_graph(corpus, DistanceFunctionParams(ws=1, ms=1)).vertex_count == 0
        with pytest.raises(NoRecords):
            build_graph(encode([]), DistanceFunctionParams(ws=1, ms=1))

    def test_encoded_build_equals_reference_for_ws_1_to_9(self):
        for seed in range(30):
            rng = random.Random(100 + seed)
            records = ragged_records(
                rng, rng.randint(1, 20), rng.randint(1, 12), rng.randint(2, 8)
            )
            corpus = encode(records)
            for ws in range(1, 10):
                for ms in (1, 2, 3):
                    params = DistanceFunctionParams(ws=ws, ms=ms)
                    assert graph_state(build_graph(corpus, params)) == graph_state(
                        oracles.reference_build_graph(records, params)
                    )

    def test_pickling_drops_the_memoised_tables(self):
        rng = random.Random(3)
        records = random_records(rng, n_subjects=20, list_len=8, vocab_size=8)
        fresh = pickle.dumps(encode(records))
        used = encode(records)
        build_graph(used, DistanceFunctionParams(ws=3, ms=1))
        covariates(used)
        assert pickle.dumps(used) == fresh
        clone = pickle.loads(fresh)
        params = DistanceFunctionParams(ws=2, ms=2)
        assert graph_state(build_graph(clone, params)) == graph_state(build_graph(records, params))


class TestShuffleRecords:
    def test_single_word_record_unchanged(self):
        records = [make_record("s1", ["cat"], [1.0])]
        assert shuffle_records(records, seed=5) == records

    def test_two_word_orders_near_uniform(self):
        records = [make_record("s1", ["a", "b"], [1.0, 2.0])]
        flipped = 0
        for seed in range(10_000):
            shuffled = shuffle_records(records, seed)[0]
            if shuffled.words == ("b", "a"):
                flipped += 1
        assert abs(flipped / 10_000 - 0.5) <= 0.02

    def test_word_counts_preserved(self):
        rng = random.Random(23)
        records = random_records(rng, n_subjects=10, list_len=8, vocab_size=5)
        shuffled = shuffle_records(records, seed=9)
        counts = lambda recs: sorted(w for r in recs for w in r.words)
        assert counts(shuffled) == counts(records)
        for before, after in zip(records, shuffled):
            assert before.onsets == after.onsets
            assert sorted(before.words) == sorted(after.words)

    def test_equals_the_reference_shuffle(self):
        for records in oracle_corpora(count=60):
            records = records + [
                FluencyRecord("empty", ()),
                make_record("one", ["v00"]),
                make_record("repeats", ["v01", "v01", "v02", "v01"]),
            ]
            corpus = encode(records)
            for seed in range(25):
                reference = oracles.reference_shuffle(records, seed)
                from_list = shuffle_records(records, seed)
                assert type(from_list) is list
                assert from_list == reference
                assert list(shuffle_records(corpus, seed)) == reference

    def test_deterministic_under_seed(self):
        rng = random.Random(29)
        records = random_records(rng, n_subjects=5, list_len=6)
        assert shuffle_records(records, 77) == shuffle_records(records, 77)
        assert shuffle_records(records, 77) != shuffle_records(records, 78)


    def test_encoded_shuffle_equals_encoding_the_shuffled_records(self):
        rng = random.Random(61)
        records = ragged_records(rng, 14, 7, 4) + [
            FluencyRecord("empty", ()),
            make_record("one", ["v00"]),
            make_record("repeats", ["v01", "v01", "v02", "v01", "v03"]),
        ]
        rng.shuffle(records)
        corpus = encode(records)

        def outcome(shuffled, target):
            try:
                return ldc_dt_correlation(shuffled, 2, 2, target)
            except LdcnetError as exc:
                return type(exc)

        for seed in range(50):
            from_ids = shuffle_records(corpus, seed)
            reference = oracles.reference_shuffle(records, seed)
            from_records = encode(reference)
            assert isinstance(from_ids, EncodedCorpus)
            assert encoding_state(from_ids) == encoding_state(from_records)
            assert list(from_ids) == reference
            for ws in (1, 2, 3):
                for ms in (1, 2):
                    params = DistanceFunctionParams(ws=ws, ms=ms)
                    assert graph_state(build_graph(from_ids, params)) == graph_state(
                        build_graph(from_records, params)
                    )
            assert covariates(from_ids) == covariates(from_records)
            for target in ("dt_to", "dt_from"):
                assert outcome(from_ids, target) == outcome(from_records, target)
        # the source corpus is left as it was
        assert encoding_state(corpus) == encoding_state(encode(records))


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DistanceFunctionParams(ws=0, ms=3)
        with pytest.raises(ValueError):
            DistanceFunctionParams(ws=1, ms=0)
