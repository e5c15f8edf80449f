"""Interpretability metrics against brute-force oracles and scipy."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from prototta.adapt import AdaptationReport, StepRecord, iter_batches, run_stream
from prototta.bench import board_sample_pca_w, method_presets
from prototta.errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    FormatError,
    InsufficientDataError,
    MeasurementError,
    ShapeError,
)
from prototta.harness import CorruptionSpec, corrupt
from prototta.model import check_type
from prototta.metrics import (
    ActivationRecord,
    _median_throughput,
    _top_indices,
    check_index,
    dump_records,
    load_records,
    load_scores,
    pac,
    pca_w,
    pearson,
    prediction_stability,
    rankdata_average,
    relative_speed,
    selection_rate,
    spearman,
)


def record_pac(records):
    """``pac`` of the records' stacked clean and adapted activations."""
    return pac(np.stack([r.clean_activations for r in records]), np.stack([r.adapted_activations for r in records]))


def record_stability(records):
    """``prediction_stability`` of the records' clean and adapted predictions."""
    return prediction_stability([r.clean_prediction for r in records], [r.adapted_prediction for r in records])


def make_records(rng, n=20, num_protos=8, num_classes=4, identical=False):
    records = []
    for i in range(n):
        clean = rng.uniform(0.1, 1.0, num_protos)
        adapted = clean if identical else rng.uniform(0.1, 1.0, num_protos)
        records.append(
            ActivationRecord(
                sample_id=i,
                clean_activations=clean,
                adapted_activations=adapted.copy(),
                clean_prediction=int(rng.integers(num_classes)),
                adapted_prediction=int(rng.integers(num_classes)),
                ground_truth=int(rng.integers(num_classes)),
                mapped_activations=rng.uniform(0, 1, num_protos),
            )
        )
    return records


@pytest.fixture(scope="module")
def stream_records(tiny_model, tiny_dataset):
    """Sample records of every preset on three gaussian_noise:5 batches."""
    x = corrupt(tiny_dataset.test_x[:192], CorruptionSpec("gaussian_noise", 5), seed=1)
    y = tiny_dataset.test_y[:192]
    return {
        name: run_stream(tiny_model.copy(), iter_batches(x, y, 64), cfg).sample_records
        for name, cfg in method_presets().items()
    }


def make_report(selected, sizes, durations, method="prototta"):
    report = AdaptationReport(method=method)
    for i, (sel, size, dur) in enumerate(zip(selected, sizes, durations)):
        report.records.append(
            StepRecord(
                index=i,
                size=size,
                loss=0.1,
                selected=sel,
                skipped=sel == 0,
                accuracy=0.5,
                clean_agreement=1.0,
                duration_s=dur,
            )
        )
    return report


def load_line(path, line):
    """The records of a records file at ``path`` that holds the one ``line``, read through ``load_records``."""
    path.write_text(line + "\n")
    return load_records(path)


def line_error(path, problem):
    """The regex of ``load_records``' message for line 1 of ``path``, whose first failing check says ``problem``."""
    return "^" + re.escape(f"{path}:1: bad activation record: ") + problem


class TestActivationRecords:
    def test_jsonl_round_trip(self, rng, tmp_path):
        records = make_records(rng)
        path = tmp_path / "records.jsonl"
        dump_records(records, path)
        loaded = load_records(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert a.sample_id == b.sample_id
            np.testing.assert_array_equal(a.clean_activations, b.clean_activations)
            np.testing.assert_array_equal(a.adapted_activations, b.adapted_activations)
            np.testing.assert_array_equal(a.mapped_activations, b.mapped_activations)
            assert (a.clean_prediction, a.adapted_prediction, a.ground_truth) == (
                b.clean_prediction,
                b.adapted_prediction,
                b.ground_truth,
            )

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with pytest.raises(FormatError):
            load_line(path, '{"sample_id": 1}')
        with pytest.raises(FormatError):
            load_line(path, "not json")

    @pytest.mark.parametrize(
        "edit, problem",
        [
            ({"sample_id": 1.5}, "sample_id must be int"),
            ({"ground_truth": True}, "ground_truth must be int"),
            ({"clean_prediction": "2"}, "clean_prediction must be int"),
            ({"adapted_prediction": -1}, "adapted_prediction must be non-negative"),
            ({"ground_truth": -2}, "ground_truth must be non-negative or -1 \\(unlabeled\\), got -2"),
            ({"clean_activations": None}, "clean_activations must be list"),
            ({"clean_activations": []}, "clean_activations must be a non-empty list"),
            ({"adapted_activations": [0.5, True]}, "adapted_activations must be a non-empty list of numbers"),
            ({"adapted_activations": ["0.5", 0.5]}, "adapted_activations must be a non-empty list of numbers"),
            ({"mapped_activations": [[0.5]]}, "mapped_activations must be a non-empty list of numbers"),
            ({"clean_activations": [float("nan"), 1.0]}, "clean_activations must be finite"),
            ({"mapped_activations": [0.5]}, "activation lists differ in length"),
            ({"clean_activations": [10**400, 1.0]}, "clean_activations holds a number too large for a float"),
        ],
        ids=[
            "sample-id-float", "ground-truth-bool", "prediction-string", "prediction-negative",
            "ground-truth-below-minus-one", "activations-null", "activations-empty", "activation-bool",
            "activation-string", "activation-nested", "activation-nan", "length-mismatch", "activation-int-overflow",
        ],
    )
    def test_ill_typed_field_rejected(self, tmp_path, edit, problem):
        path = tmp_path / "records.jsonl"
        good = {
            "sample_id": 3,
            "clean_activations": [0.1, 0.2],
            "adapted_activations": [0.3, 0.4],
            "mapped_activations": [0.5, 0.6],
            "clean_prediction": 0,
            "adapted_prediction": 1,
            "ground_truth": 1,
        }
        load_line(path, json.dumps(good))
        with pytest.raises(FormatError, match=line_error(path, problem)):
            load_line(path, json.dumps({**good, **edit}))

    def test_overlong_integer_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        line = '{"sample_id": 1%s, "clean_activations": [0.1]}' % ("0" * 5000)
        with pytest.raises(FormatError, match=line_error(path, "Exceeds the limit")):
            load_line(path, line)

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    def test_stream_records_round_trip(self, tiny_model, tiny_dataset, tmp_path, labeled):
        x, y = tiny_dataset.test_x[:40], tiny_dataset.test_y[:40]
        report = run_stream(
            tiny_model.copy(), iter_batches(x, y if labeled else None, 16), method_presets()["prototta"]
        )
        records = report.sample_records
        assert [r.ground_truth for r in records] == (y.tolist() if labeled else [-1] * len(y))
        path = tmp_path / "records.jsonl"
        dump_records(records, path)
        loaded = load_records(path)
        assert [r.to_json() for r in loaded] == [r.to_json() for r in records]

    def test_load_error_names_file_and_line(self, rng, tmp_path):
        path = tmp_path / "records.jsonl"
        dump_records(make_records(rng, n=2), path)
        path.write_text(path.read_text() + "\n" + '{"sample_id": 1}\n')
        with pytest.raises(FormatError, match=f"^{path}:4: bad activation record: missing field 'clean_prediction'"):
            load_records(path)

    def test_binary_file_is_format_error(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(FormatError, match="not UTF-8"):
            load_records(path)

    def test_mapped_activations_optional(self, rng, tmp_path):
        rec = make_records(rng, n=1)[0]
        rec.mapped_activations = None
        (again,) = load_line(tmp_path / "records.jsonl", rec.to_json())
        assert again.mapped_activations is None



# integral floats, signed zeros, subnormals, and the values around 1e16 and 1e-4 where repr switches to an exponent
RECORD_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 3.0, -7.0, 1e15, 9999999999999998.0, 1e16, -1.5e16,
     1.7976931348623157e308, 1e-4, 9.99e-05, -1e-05, 0.1]
)
RECORD_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | RECORD_EDGE_FLOATS


@st.composite
def record_lists(draw):
    """Records of any finite activations, each with its own length. A record's adapted row is drawn, a bitwise
    copy of its clean row, or that copy with every zero's sign flipped; its mapped row is left out of all,
    none or some of the records."""
    mapped_on = draw(st.sampled_from(["all", "none", "some"]))
    records = []
    for _ in range(draw(st.integers(0, 5))):
        P = draw(st.integers(1, 6))
        row = st.lists(RECORD_FLOATS, min_size=P, max_size=P).map(np.array)
        clean = draw(row)
        kind = draw(st.sampled_from(["drawn", "same bits", "signed zeros"]))
        if kind == "drawn":
            adapted = draw(row)
        else:
            adapted = clean.copy()
            if kind == "signed zeros":
                clean[draw(st.integers(0, P - 1))] = draw(st.sampled_from([0.0, -0.0]))
                adapted = np.where(clean == 0, -clean, clean)
        mapped = draw(row) if mapped_on == "all" or (mapped_on == "some" and draw(st.booleans())) else None
        ints = st.integers(0, 2**70)
        records.append(
            ActivationRecord(draw(ints), clean, adapted, draw(ints), draw(ints), draw(st.integers(-1, 2**70)), mapped)
        )
    return records


def record_dict(record):
    """The record as a dict of ints and lists, which ``json.dumps`` writes."""
    keys = ("sample_id", "clean_prediction", "adapted_prediction", "ground_truth")
    obj = {key: getattr(record, key) for key in keys}
    for key in ("clean_activations", "adapted_activations", "mapped_activations"):
        if getattr(record, key) is not None:
            obj[key] = getattr(record, key).tolist()
    return obj


def reference_activations(key, value):
    """One activation list checked on its own: the per-line reader the records reader must agree with."""
    check_type(list, key, value)
    if not value or not set(map(type, value)) <= {int, float}:
        raise ConfigError(f"{key} must be a non-empty list of numbers")
    try:
        arr = np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise ConfigError(f"{key} holds a number too large for a float") from None
    if not np.isfinite(arr).all():
        raise ConfigError(f"{key} must be finite")
    return arr


def reference_problem(line):
    """The first failing check of one records line, checked on its own, or None for a good line."""
    try:
        obj = json.loads(line)
        check_type(dict, "record", obj)
        for key in ("sample_id", "clean_prediction", "adapted_prediction", "ground_truth"):
            if key not in obj:
                raise ConfigError(f"missing field {key!r}")
        for key in ("clean_activations", "adapted_activations"):
            if key not in obj:
                raise ConfigError(f"missing field {key!r}")
        for key in ("sample_id", "clean_prediction", "adapted_prediction", "ground_truth"):
            check_index(key, obj[key])
        arrays = [
            reference_activations(key, obj[key])
            for key in ("clean_activations", "adapted_activations", "mapped_activations")
            if key in obj
        ]
        if len({len(a) for a in arrays}) != 1:
            raise ConfigError(f"activation lists differ in length: {[len(a) for a in arrays]}")
    except (ValueError, ConfigError) as exc:
        return f"bad activation record: {exc}"
    return None


# edits that break a records line, each on its own or several on one line
LINE_EDITS = {
    "truncated": lambda line: line[: len(line) // 2],
    "list": lambda line: "[1, 2]",
    "number": lambda line: "3",
    "nan-text": lambda line: line.replace('"ground_truth":', '"ground_truth":NaN,"x":', 1),
}
FIELD_EDITS = [
    *[(key, None) for key in ("sample_id", "clean_prediction", "adapted_prediction", "ground_truth")],
    *[(key, None) for key in ("clean_activations", "adapted_activations", "mapped_activations")],
    ("sample_id", 1.5), ("sample_id", True), ("sample_id", -1), ("sample_id", "3"),
    ("clean_prediction", -1), ("adapted_prediction", 2.0), ("ground_truth", -2), ("ground_truth", -1),
    ("ground_truth", 10**30), ("clean_activations", []), ("clean_activations", "x"), ("clean_activations", {}),
    ("clean_activations", [0.5, True]), ("adapted_activations", ["0.5"]), ("adapted_activations", [[0.5]]),
    ("adapted_activations", [float("nan")]), ("mapped_activations", [float("inf"), 1.0]),
    ("mapped_activations", [10**400]), ("clean_activations", [10**400, float("nan")]),
    ("mapped_activations", [None]), ("adapted_activations", [3, 4]),
]


class TestRecordsText:
    @given(records=record_lists())
    @settings(max_examples=300, deadline=None)
    def test_line_is_the_compact_encoding_and_reads_back_bit_for_bit(self, records, tmp_path_factory):
        want = [json.dumps(record_dict(r), sort_keys=True, separators=(",", ":")) for r in records]
        assert [r.to_json() for r in records] == want
        path = tmp_path_factory.mktemp("records") / "records.jsonl"
        dump_records(records, path)
        assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in want)
        loaded = load_records(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert record_dict(a) == record_dict(b)
            for key in ("clean_activations", "adapted_activations", "mapped_activations"):
                if getattr(a, key) is None:
                    assert getattr(b, key) is None
                else:
                    # bytes, so that -0.0 and 0.0 differ
                    assert getattr(b, key).dtype == np.float64
                    assert getattr(b, key).tobytes() == getattr(a, key).tobytes()

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_reader_reports_what_the_per_line_reference_reports(self, data, tmp_path_factory):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        records = make_records(rng, n=data.draw(st.integers(1, 6)), num_protos=data.draw(st.integers(1, 4)))
        lines = []
        for record in records:
            if data.draw(st.booleans()):
                record.mapped_activations = None
            obj = json.loads(record.to_json())
            for key, value in data.draw(st.lists(st.sampled_from(FIELD_EDITS), max_size=3)):
                if value is None:
                    obj.pop(key, None)
                else:
                    obj[key] = value
            line = json.dumps(obj)
            if data.draw(st.integers(0, 9)) == 0:
                line = LINE_EDITS[data.draw(st.sampled_from(sorted(LINE_EDITS)))](line)
            lines.append(line)
            if data.draw(st.integers(0, 5)) == 0:
                lines.append(data.draw(st.sampled_from(["", "  ", "\t"])))
        path = tmp_path_factory.mktemp("records") / "records.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # the reader strips each line and passes over blank ones
        problems = [(n, reference_problem(line.strip())) for n, line in enumerate(lines, start=1) if line.strip()]
        problems = [(n, problem) for n, problem in problems if problem]
        if problems:
            n, problem = problems[0]
            with pytest.raises(FormatError) as info:
                load_records(path)
            assert str(info.value) == f"{path}:{n}: {problem}"
        else:
            assert len(load_records(path)) == len(records)

    @pytest.mark.parametrize("key", ["clean_activations", "adapted_activations", "mapped_activations"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_activation_refused_before_the_file_is_touched(self, rng, tmp_path, key, value):
        records = make_records(rng, n=3)
        getattr(records[1], key)[2] = value
        path = tmp_path / "records.jsonl"
        path.write_text("earlier\n")
        with pytest.raises(DomainError, match=f"^record 1: {key} holds a non-finite value$"):
            dump_records(records, path)
        assert path.read_text() == "earlier\n"

    @pytest.mark.parametrize("value", [1.5, True, np.int64(2), None], ids=["float", "bool", "numpy-int", "none"])
    def test_id_that_is_not_an_int_refused(self, rng, tmp_path, value):
        records = make_records(rng, n=2)
        records[1].ground_truth = value
        with pytest.raises(DomainError, match=f"^record 1: ground_truth must be int, got {re.escape(repr(value))}$"):
            dump_records(records, tmp_path / "records.jsonl")
        assert not (tmp_path / "records.jsonl").exists()


class TestPac:
    def test_matches_brute_force(self, rng):
        records = make_records(rng)
        expected = np.mean(
            [
                float(r.clean_activations @ r.adapted_activations)
                / (np.linalg.norm(r.clean_activations) * np.linalg.norm(r.adapted_activations))
                for r in records
            ]
        )
        assert record_pac(records).mean == pytest.approx(expected, abs=1e-9)

    def test_identity_fixture_scores_one(self, rng):
        assert record_pac(make_records(rng, identical=True)).mean == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self, rng):
        records = make_records(rng)
        scaled = [
            ActivationRecord(
                sample_id=r.sample_id,
                clean_activations=3.7 * r.clean_activations,
                adapted_activations=0.2 * r.adapted_activations,
                clean_prediction=r.clean_prediction,
                adapted_prediction=r.adapted_prediction,
                ground_truth=r.ground_truth,
            )
            for r in records
        ]
        assert record_pac(scaled).mean == pytest.approx(record_pac(records).mean, abs=1e-12)

    def test_matches_per_row_loop_bit_for_bit_on_stream_records(self, stream_records):
        for method, records in stream_records.items():
            loop = [
                float(r.clean_activations @ r.adapted_activations)
                / (np.linalg.norm(r.clean_activations) * np.linalg.norm(r.adapted_activations))
                for r in records
            ]
            assert np.array_equal(record_pac(records).values, loop), method
        assert record_pac(stream_records["unadapted"]).mean == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_names_the_row(self, rng):
        records = make_records(rng, n=4)
        records[1].adapted_activations = np.zeros_like(records[1].adapted_activations)
        records[2].clean_activations = np.zeros_like(records[2].clean_activations)
        with pytest.raises(DegenerateInputError, match=r"row 1$"):
            record_pac(records)

    def test_empty_input_rejected(self):
        with pytest.raises(InsufficientDataError):
            pac(np.empty((0, 8)), np.empty((0, 8)))


def brute_force_pca_w(agg_sims, head, class_of, truths, k):
    values, excluded = [], 0
    for i in range(len(agg_sims)):
        y = truths[i]
        order = sorted(range(agg_sims.shape[1]), key=lambda p: (-agg_sims[i, p], p))[:k]
        contrib = {p: agg_sims[i, p] * abs(head[y, p]) for p in order}
        total = sum(contrib.values())
        if total <= 0:
            excluded += 1
            continue
        values.append(sum(c for p, c in contrib.items() if class_of[p] == y) / total)
    return values, excluded


def loop_pca_w(agg_sims, head, class_of, truths, k):
    """The per-sample loop that ``pca_w`` replaced, kept as its bitwise reference."""
    values, excluded = [], 0
    for i in range(len(agg_sims)):
        y = int(truths[i])
        top = np.argsort(-agg_sims[i], kind="stable")[:k]
        contrib = agg_sims[i, top] * np.abs(head[y, top])
        total = contrib.sum()
        if total <= 0:
            excluded += 1
            continue
        values.append(contrib[class_of[top] == y].sum() / total)
    return values, excluded


class TestPcaW:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.agg = rng.uniform(0, 1, (20, 8))
        self.head = rng.normal(size=(4, 8))
        self.class_of = np.repeat(np.arange(4), 2)
        self.truths = rng.integers(0, 4, 20)

    def test_matches_brute_force(self):
        result = pca_w(self.agg, self.head, self.class_of, self.truths, k=5)
        values, excluded = brute_force_pca_w(self.agg, self.head, self.class_of, self.truths, 5)
        assert result.excluded == excluded
        np.testing.assert_allclose(result.values, values, atol=1e-9)

    @pytest.mark.parametrize("k", [1, 5, 7, 8, 12])
    def test_matches_per_sample_loop(self, k):
        # ties on a 0.1 grid exercise the stable order; zero rows are excluded
        rng = np.random.default_rng(3)
        agg = np.round(rng.uniform(0, 1, (300, 12)), 1)
        agg[::37] = 0.0
        head = rng.normal(size=(4, 12))
        class_of = np.repeat(np.arange(4), 3)
        truths = rng.integers(0, 4, 300)
        result = pca_w(agg, head, class_of, truths, k=k)
        values, excluded = loop_pca_w(agg, head, class_of, truths, k)
        assert result.excluded == excluded > 0
        if k <= 7:
            assert np.array_equal(result.values, values)
        else:  # the owned share sums zeros in place of other classes' entries
            np.testing.assert_allclose(result.values, values, rtol=0, atol=1e-15)

    def test_head_scale_invariance(self):
        a = pca_w(self.agg, self.head, self.class_of, self.truths, k=5)
        b = pca_w(self.agg, 11.0 * self.head, self.class_of, self.truths, k=5)
        assert a.mean == pytest.approx(b.mean, abs=1e-12)

    def test_values_in_unit_interval(self):
        result = pca_w(self.agg, self.head, self.class_of, self.truths, k=5)
        assert (result.values >= 0).all() and (result.values <= 1).all()

    def test_zero_mass_samples_excluded_and_counted(self):
        agg = self.agg.copy()
        agg[3] = 0.0  # no activation anywhere -> zero contribution mass
        result = pca_w(agg, self.head, self.class_of, self.truths, k=5)
        assert result.excluded == 1
        assert len(result.values) == 19

    def test_all_excluded_is_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            pca_w(np.zeros((4, 8)), self.head, self.class_of, self.truths[:4], k=5)

    def test_bad_k_rejected(self):
        with pytest.raises(ShapeError):
            pca_w(self.agg, self.head, self.class_of, self.truths, k=9)

    @pytest.mark.parametrize("truths", [np.zeros(19, int), np.zeros(21, int), np.zeros((20, 1), int), np.int64(0)])
    def test_ground_truths_must_be_one_per_sample(self, truths):
        with pytest.raises(ShapeError):
            pca_w(self.agg, self.head, self.class_of, truths, k=5)

    @pytest.mark.parametrize("bad", [-1, 4, 1.0])
    def test_ground_truths_must_be_classes(self, bad):
        truths = self.truths.astype(type(bad))
        truths[3] = bad
        with pytest.raises(DomainError):
            pca_w(self.agg, self.head, self.class_of, truths, k=5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("metric", ["pca_w", "pac-clean", "pac-adapted"])
def test_non_finite_activation_names_the_first_bad_row(metric, value):
    rng = np.random.default_rng(5)
    agg = rng.uniform(0, 1, (6, 8))
    bad = agg.copy()
    bad[2, agg[2].argmax()] = bad[4, 0] = value  # row 2's top activation: the sort used to pass a NaN there over
    with pytest.raises(DomainError, match=r"non-finite activation in row 2$"):
        if metric == "pca_w":
            pca_w(bad, rng.normal(size=(4, 8)), np.repeat(np.arange(4), 2), rng.integers(0, 4, 6), k=5)
        elif metric == "pac-clean":
            pac(bad, agg)
        else:
            pac(agg, bad)


def top_board(contributions, class_of, ground_truth, k):
    """A board of the k largest contributions in descending order, as ``export_boards`` writes it."""
    top = np.argsort(-contributions, kind="stable")[:k]
    protos = [{"contribution": float(contributions[p]), "owning_class": int(class_of[p])} for p in top]
    return {"ground_truth": ground_truth, "prototypes": protos}


class TestTopIndices:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_argmax_rounds_are_the_stable_descending_sort(self, data):
        n, P = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
        # few distinct values, signed zeros among them, so most rows hold ties
        values = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, 1e300, -1e300])
        scores = np.array(data.draw(st.lists(values, min_size=n * P, max_size=n * P))).reshape(n, P)
        k = data.draw(st.integers(1, P))
        before = scores.copy()
        top = _top_indices(scores, k)
        assert np.array_equal(top, np.argsort(-scores, axis=-1, kind="stable")[:, :k])
        assert np.array_equal(scores, before)

    def test_nan_counts_as_largest(self):
        assert _top_indices(np.array([[1.0, np.nan, 3.0, np.nan]]), 3).tolist() == [[1, 3, 2]]


class TestSamplePcaW:
    """The per-sample ratio of one board, as ``ptta correlate`` takes it."""

    def test_matches_hand_computation(self):
        contributions = np.array([0.5, 0.1, 0.4, 0.0, 0.3])
        class_of = np.array([0, 0, 1, 1, 2])
        # top-3 = {0, 2, 4}; class 0 owns only prototype 0
        expected = 0.5 / (0.5 + 0.4 + 0.3)
        assert board_sample_pca_w(top_board(contributions, class_of, 0, k=3)) == pytest.approx(
            expected, abs=1e-12
        )

    @given(st.integers(0, 2))
    @settings(max_examples=10, deadline=None)
    def test_bounded_for_nonnegative_contributions(self, truth):
        rng = np.random.default_rng(truth)
        contributions = rng.uniform(0.01, 1, 6)
        class_of = rng.integers(0, 3, 6)
        value = board_sample_pca_w(top_board(contributions, class_of, truth, k=4))
        assert 0.0 <= value <= 1.0

    def test_zero_mass_rejected(self):
        with pytest.raises(DegenerateInputError):
            board_sample_pca_w(top_board(np.zeros(5), np.zeros(5, dtype=int), 0, k=3))


class TestStabilityAndRates:
    def test_identity_fixture_is_hundred_percent(self, rng):
        records = make_records(rng)
        for r in records:
            r.adapted_prediction = r.clean_prediction
        assert record_stability(records) == 100.0

    def test_symmetric_in_the_two_prediction_lists(self, rng):
        records = make_records(rng, n=30)
        swapped = [
            ActivationRecord(
                sample_id=r.sample_id,
                clean_activations=r.clean_activations,
                adapted_activations=r.adapted_activations,
                clean_prediction=r.adapted_prediction,
                adapted_prediction=r.clean_prediction,
                ground_truth=r.ground_truth,
            )
            for r in records
        ]
        assert record_stability(records) == record_stability(swapped)

    def test_matches_brute_force(self, rng):
        records = make_records(rng)
        expected = 100.0 * np.mean(
            [r.adapted_prediction == r.clean_prediction for r in records]
        )
        assert record_stability(records) == pytest.approx(expected, abs=1e-9)

    def test_selection_rate(self):
        report = make_report(selected=[10, 0, 30], sizes=[40, 40, 40], durations=[0.1] * 3)
        assert selection_rate(report) == pytest.approx(100.0 * 40 / 120, abs=1e-9)

    def test_selection_rate_zero_for_unadapted_shape(self):
        report = make_report(selected=[0, 0], sizes=[64, 64], durations=[0.1, 0.1])
        assert selection_rate(report) == 0.0


def report_speed(report, base) -> float:
    """Relative speed of two reports, from their median throughputs as the bench takes them."""
    return relative_speed(_median_throughput(report), _median_throughput(base))


class TestRelativeSpeed:
    def test_warm_up_batch_excluded(self):
        # warm-up batch is 10x slower; medians must ignore it
        adapted = make_report([1] * 4, sizes=[100] * 4, durations=[10.0, 2.0, 2.0, 2.0])
        base = make_report([0] * 4, sizes=[100] * 4, durations=[5.0, 1.0, 1.0, 1.0])
        assert report_speed(adapted, base) == pytest.approx(50.0, abs=1e-9)

    def test_single_batch_uses_that_batch(self):
        adapted = make_report([1], sizes=[100], durations=[4.0])
        base = make_report([0], sizes=[100], durations=[1.0])
        assert report_speed(adapted, base) == pytest.approx(25.0, abs=1e-9)

    def test_equal_reports_are_exactly_hundred(self):
        # 100 * a / b rounds to 99.99999999999999 for this throughput
        report = make_report([1], sizes=[128], durations=[0.003])
        assert report_speed(report, report) == 100.0

    def test_non_positive_duration_rejected(self):
        bad = make_report([1, 1], sizes=[10, 10], durations=[1.0, 0.0])
        good = make_report([1, 1], sizes=[10, 10], durations=[1.0, 1.0])
        with pytest.raises(MeasurementError):
            report_speed(bad, good)


class TestCorrelations:
    def test_pearson_matches_scipy(self, rng):
        x = rng.normal(size=20)
        y = 0.5 * x + rng.normal(size=20)
        assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y)[0], abs=1e-9)

    def test_spearman_matches_scipy_with_ties(self, rng):
        x = rng.integers(0, 5, 20).astype(float)  # heavy ties
        y = rng.integers(0, 5, 20).astype(float)
        assert spearman(x, y) == pytest.approx(scipy.stats.spearmanr(x, y)[0], abs=1e-9)

    def test_rankdata_matches_scipy(self, rng):
        x = rng.integers(0, 4, 15).astype(float)
        np.testing.assert_allclose(rankdata_average(x), scipy.stats.rankdata(x), atol=1e-12)

    def test_rankdata_matches_the_tie_scanning_loop(self):
        # the loop ranks -0.0 with 0.0 and keeps every NaN apart
        x = np.array([3.0, np.nan, 0.0, 1.5, -0.0, 3.0, np.nan, 1.5, 3.0, -2.0])
        order = np.argsort(x, kind="mergesort")
        expected = np.empty(len(x))
        i = 0
        while i < len(x):
            j = i
            while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
                j += 1
            expected[order[i : j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        assert np.array_equal(rankdata_average(x), expected)

    def test_perfect_rank_agreement(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman(x, np.exp(x)) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(1, 4))
    @settings(max_examples=8, deadline=None)
    def test_spearman_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 3.0 * y + 7.0) == pytest.approx(base, abs=1e-12)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(InsufficientDataError):
            pearson([1.0, 2.0], [3.0, 4.0])

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])


class TestScoreIngestion:
    def test_reads_csv(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,score\n3,0.5\n7,0.25\n")
        assert load_scores(path) == {3: 0.5, 7: 0.25}

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,value\n3,0.5\n")
        with pytest.raises(FormatError):
            load_scores(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        for row in ("3,abc", "0,0.5,junk", "1,0.25,"):
            path.write_text(f"sample_id,score\n{row}\n")
            with pytest.raises(FormatError, match=":2: bad row"):
                load_scores(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            load_scores(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "scores.csv"
        path.write_text(f"sample_id,score\n3,0.5\n7,{score}\n")
        with pytest.raises(FormatError, match=":3: non-finite score"):
            load_scores(path)

    def test_repeated_sample_id_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,score\n3,0.5\n7,0.25\n3,0.75\n")
        with pytest.raises(FormatError, match=":4: repeated sample_id 3"):
            load_scores(path)
