import re
import subprocess
import sys
import sysconfig
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from conftest import (cv_accuracy_bruteforce, cv_accuracy_cdist_reference,
                      predict_1nn, random_mask, synthetic_dataset)
from hhfs import cores, correlation, evaluation
from hhfs.correlation import _climb
from hhfs.dataset import Dataset, DatasetError, min_max_normalize, stratified_folds
from hhfs.evaluation import CvProtocol, FitnessEvaluator, cv_accuracy, cv_accuracies
from hhfs.mask import FeatureMask


class TestPredict1nn:
    def test_nearest_of_two(self):
        train = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1])  # 0 = A, 1 = B
        assert predict_1nn(train, labels, np.array([0.1, 0.1]),
                           FeatureMask([1, 1])) == 0

    def test_mask_restricts_distance(self):
        # only feature 0 counts: 0.9 is closer to 1 than to 0
        train = np.array([[0.0, 5.0], [1.0, 9.0]])
        labels = np.array([0, 1])
        assert predict_1nn(train, labels, np.array([0.9, 5.0]),
                           FeatureMask([1, 0])) == 1

    def test_tie_breaks_to_lowest_training_index(self):
        train = np.array([[0.0], [2.0], [3.0], [2.0]])
        labels = np.array([1, 9, 9, 0])  # rows 1 and 3 are equidistant
        assert predict_1nn(train, labels, np.array([2.0]),
                           FeatureMask([1])) == 9

    def test_errors(self):
        with pytest.raises(ValueError):
            predict_1nn(np.empty((0, 2)), np.empty(0, dtype=int),
                        np.array([0.0, 0.0]), FeatureMask([1, 1]))
        with pytest.raises(ValueError):
            predict_1nn(np.array([[0.0, 0.0]]), np.array([0]),
                        np.array([0.0, 0.0]), FeatureMask([0, 0]))


class TestCvAccuracy:
    def test_empty_mask_scores_zero(self, small_dataset):
        proto = CvProtocol(folds=5, repeats=1, base_seed=0)
        assert cv_accuracy(small_dataset, FeatureMask([0] * 8), proto) == 0.0

    def test_perfectly_separable_four_points(self):
        d = Dataset.from_arrays("toy", [[0.0], [0.1], [1.0], [0.9]],
                                [0, 0, 1, 1])
        # any stratified 2-fold split pairs each point with its classmate
        for seed in range(20):
            proto = CvProtocol(folds=2, repeats=1, base_seed=seed)
            assert cv_accuracy(d, FeatureMask([1]), proto) == 1.0

    def test_dimension_mismatch(self, small_dataset):
        with pytest.raises(ValueError):
            cv_accuracy(small_dataset, FeatureMask([1, 0]), CvProtocol(folds=2))

    def test_mask_checks_come_before_fold_building(self):
        # 10 folds cannot split 4 instances, but neither check needs folds
        d = Dataset.from_arrays("toy", [[0.0], [0.1], [1.0], [0.9]],
                                [0, 0, 1, 1])
        proto = CvProtocol(folds=10)
        assert cv_accuracy(d, FeatureMask([0]), proto) == 0.0
        with pytest.raises(ValueError, match="does not match"):
            cv_accuracy(d, FeatureMask([1, 0]), proto)

    def test_repeats_equal_mean_of_single_repeats(self, small_dataset):
        mask = FeatureMask([1, 1, 0, 1, 0, 0, 1, 0])
        multi = cv_accuracy(small_dataset, mask,
                            CvProtocol(folds=5, repeats=4, base_seed=11))
        singles = [cv_accuracy(small_dataset, mask,
                               CvProtocol(folds=5, repeats=1, base_seed=11 + r))
                   for r in range(4)]
        assert multi == sum(singles) / 4  # bitwise

    def test_protocols_sharing_folds_are_scored_once(self, small_dataset, monkeypatch):
        protocols = {"6x5": CvProtocol(folds=5, repeats=6, base_seed=11),
                     "2x5": CvProtocol(folds=5, repeats=2, base_seed=11),
                     "3x4": CvProtocol(folds=4, repeats=3, base_seed=11),
                     "2x5, seed 7": CvProtocol(folds=5, repeats=2, base_seed=7)}
        rng = np.random.default_rng(4)
        masks = [random_mask(8, rng) for _ in range(4)] + [FeatureMask([1] * 8),
                                                           FeatureMask([0] * 8)]
        for mask in masks:
            assert cv_accuracies(small_dataset, mask, protocols) == {
                label: cv_accuracy(small_dataset, mask, p)
                for label, p in protocols.items()}  # bitwise
        calls = []
        folds = evaluation.stratified_folds
        monkeypatch.setattr(evaluation, "stratified_folds",
                            lambda *args: calls.append(args) or folds(*args))
        cv_accuracies(small_dataset, masks[0], protocols)
        assert len(calls) == 6 + 3 + 2  # 2x5 reads the first two of 6x5's repeats

    def test_matches_per_query_bruteforce(self, small_dataset):
        rng = np.random.default_rng(5)
        for _ in range(5):
            mask = random_mask(8, rng)
            fast = cv_accuracy(small_dataset, mask,
                               CvProtocol(folds=4, repeats=2, base_seed=3))
            slow = cv_accuracy_bruteforce(small_dataset, mask, folds=4,
                                          repeats=2, base_seed=3)
            assert fast == slow

    def test_prediction_order_invariant_in_generic_position(self):
        # with all-distinct distances the argmin does not depend on
        # training-row order, so tie-breaking never kicks in
        rng = np.random.default_rng(21)
        train = rng.normal(size=(20, 5))
        labels = rng.integers(0, 3, size=20)
        mask = FeatureMask([1, 1, 1, 0, 1])
        for _ in range(20):
            query = rng.normal(size=5)
            base = predict_1nn(train, labels, query, mask)
            perm = rng.permutation(20)
            assert predict_1nn(train[perm], labels[perm], query, mask) == base

    def test_single_class_synthetic_scores_one(self):
        # class_count >= 2 is enforced at load; emulate the degenerate case
        # with two identical-label groups placed far apart
        d = Dataset.from_arrays("t", [[0.0], [0.01], [0.02], [5.0], [5.01], [5.02]],
                                [0, 0, 0, 1, 1, 1])
        proto = CvProtocol(folds=3, repeats=1, base_seed=0)
        assert cv_accuracy(d, FeatureMask([1]), proto) == 1.0

    def test_duplicated_selected_column_keeps_argmin(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(24, 4))
        X = np.hstack([X, X])  # every column duplicated once
        labels = rng.integers(0, 2, size=24)
        labels[:2] = [0, 1]
        d = Dataset.from_arrays("t", X, labels)
        proto = CvProtocol(folds=4, repeats=1, base_seed=1)
        single = cv_accuracy(d, FeatureMask([1, 1, 0, 1, 0, 0, 0, 0]), proto)
        doubled = cv_accuracy(d, FeatureMask([1, 1, 0, 1, 1, 1, 0, 1]), proto)
        assert single == doubled


class TestCvProtocol:
    def test_validation(self):
        with pytest.raises(ValueError):
            CvProtocol(folds=1)
        with pytest.raises(ValueError):
            CvProtocol(repeats=0)
        with pytest.raises(ValueError, match="^base_seed must be non-negative$"):
            CvProtocol(base_seed=-1)

    def test_label(self):
        assert CvProtocol(folds=10, repeats=10).label() == "10x10"


class TestFitnessEvaluator:
    def test_memoization_skips_recomputation(self, small_dataset):
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=2))
        mask = FeatureMask([1, 0, 1, 0, 1, 0, 1, 0])
        first = ev.fitness(mask)
        assert (ev.computations, ev.hits) == (1, 0)
        second = ev.fitness(FeatureMask([1, 0, 1, 0, 1, 0, 1, 0]))
        assert second == first
        assert (ev.computations, ev.hits) == (1, 1)

    def test_distinct_masks_computed_independently(self, small_dataset):
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=2))
        ev.fitness(FeatureMask([1, 0, 1, 0, 1, 0, 1, 0]))
        ev.fitness(FeatureMask([1, 0, 1, 0, 1, 0, 1, 1]))
        assert ev.computations == 2

    def test_cache_transparency(self, small_dataset):
        rng = np.random.default_rng(3)
        masks = [random_mask(8, rng) for _ in range(10)] * 2
        proto = CvProtocol(folds=5, base_seed=4)
        cached = FitnessEvaluator(small_dataset, proto)
        assert ([cached.fitness(m) for m in masks]
                == [cv_accuracy(small_dataset, m, proto) for m in masks])
        distinct = len({m.key() for m in masks})
        assert cached.computations == distinct
        assert cached.hits == len(masks) - distinct


    def test_each_distinct_mask_computes_once_in_first_seen_order(self, small_dataset,
                                                                   monkeypatch):
        rng = np.random.default_rng(12)
        a, b, c = (random_mask(8, rng) for _ in range(3))
        assert len({a.key(), b.key(), c.key()}) == 3
        proto = CvProtocol(folds=5, base_seed=6)
        ev = FitnessEvaluator(small_dataset, proto)
        expected = [cv_accuracy(small_dataset, m, proto) for m in (a, b, a, c, b)]
        computed = []
        accuracies = FitnessEvaluator._accuracies

        def recording(self, idx):
            computed.append(idx.tolist())
            return accuracies(self, idx)

        monkeypatch.setattr(FitnessEvaluator, "_accuracies", recording)
        first_seen = [m.selected_indices().tolist() for m in (a, b, c)]
        values = [ev.fitness(m) for m in (a, b, a, c, b)]
        assert values == expected
        assert (ev.computations, ev.hits) == (3, 2)
        assert computed == first_seen  # first-occurrence order, once each
        # memoized masks are hits and compute nothing
        assert [ev.fitness(c), ev.fitness(a)] == [values[3], values[0]]
        assert (ev.computations, ev.hits) == (3, 4)
        assert computed == first_seen

    def test_failing_fitness_call_leaves_counts_and_memo_unchanged(self, small_dataset):
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=6))
        good = FeatureMask([1, 0, 1, 0, 1, 0, 1, 0])
        ev.fitness(good)
        with pytest.raises(ValueError, match="does not match"):
            ev.fitness(FeatureMask([1, 0, 1]))
        assert (ev.computations, ev.hits) == (1, 0)
        assert list(ev._cache) == [good.key()]
        ev.fitness(good)
        assert (ev.computations, ev.hits) == (1, 1)



class TestFitnesses:
    """The batch path: a generation's distinct new masks computed first, by
    this thread and the helper threads, then stored in order as consecutive
    ``fitness`` calls would store them."""

    @pytest.mark.parametrize("helpers", [0, 1, 3])
    def test_repeats_are_hits_and_values_are_fresh_cv_accuracies(self, small_dataset,
                                                                   helpers):
        rng = np.random.default_rng(12)
        a, b, c = (random_mask(8, rng) for _ in range(3))
        assert len({a.key(), b.key(), c.key()}) == 3
        proto = CvProtocol(folds=5, base_seed=6)
        ev = FitnessEvaluator(small_dataset, proto)
        with cores.Helpers(helpers) as pool:
            values = ev.fitnesses([a, b, a, c, b], pool)
        fresh = [cv_accuracy(small_dataset, m, proto) for m in (a, b, a, c, b)]
        assert np.array(values).tobytes() == np.array(fresh).tobytes()
        assert (ev.computations, ev.hits) == (3, 2)
        assert list(ev._cache) == [a.key(), b.key(), c.key()]  # first-occurrence order

    def test_a_computation_raising_in_a_helper_leaves_memo_and_counters(self, small_dataset,
                                                                        monkeypatch):
        rng = np.random.default_rng(5)
        masks = [random_mask(8, rng) for _ in range(6)]
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=6))
        ev.fitness(masks[0])
        accuracies, helper_started = FitnessEvaluator._accuracies, threading.Event()

        def failing_in_helpers(self, idx):
            if threading.current_thread() is threading.main_thread():
                assert helper_started.wait(timeout=30)  # a helper holds another mask
                return accuracies(self, idx)
            helper_started.set()
            raise RuntimeError("a helper's computation failed")

        monkeypatch.setattr(FitnessEvaluator, "_accuracies", failing_in_helpers)
        threads = threading.enumerate()
        with cores.Helpers(1) as pool:
            with pytest.raises(RuntimeError, match="^a helper's computation failed$"):
                ev.fitnesses(masks, pool)
            assert (ev.computations, ev.hits) == (1, 0)
            assert list(ev._cache) == [masks[0].key()]
            monkeypatch.setattr(FitnessEvaluator, "_accuracies", accuracies)
            assert ev.fitnesses(masks, pool) == [ev.fitness(m) for m in masks]  # still usable
        assert threading.enumerate() == threads

    def test_more_threads_than_cores_under_fast_switching(self):
        # every thread computes into a work matrix of its own: a shared one
        # would mix two masks' distances and change some values
        d = synthetic_dataset(n_instances=200, n_features=30, n_informative=6, seed=9)
        rng = np.random.default_rng(21)
        masks = [random_mask(30, rng) for _ in range(40)] * 2
        proto = CvProtocol(folds=5, repeats=2, base_seed=3)
        alone = FitnessEvaluator(d, proto)
        expected = [alone.fitness(m) for m in masks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ev = FitnessEvaluator(d, proto)
                with cores.Helpers(5) as pool:
                    assert ev.fitnesses(masks, pool) == expected
                assert (ev.computations, ev.hits) == (alone.computations, alone.hits)
                assert ev._cache == alone._cache
        finally:
            sys.setswitchinterval(interval)


def test_accuracy_always_in_unit_interval(small_dataset):
    rng = np.random.default_rng(8)
    proto = CvProtocol(folds=6, repeats=1, base_seed=5)
    for _ in range(20):
        acc = cv_accuracy(small_dataset, random_mask(8, rng), proto)
        assert 0.0 <= acc <= 1.0


@st.composite
def tie_heavy_cases(draw):
    """Integer-level features with repeated rows, so many 1NN distances
    tie exactly; 2 or 6 classes; several masks over one protocol. Levels
    may be spaced by an inexact step on top of a large common offset,
    where a Gram product's cancellation is catastrophic, and a constant
    column may be present, so a mask can select nothing but constants."""
    class_count = draw(st.sampled_from([2, 6]))
    n_features = draw(st.integers(1, 5))
    levels = draw(st.integers(2, 4))
    row = st.lists(st.integers(0, levels - 1), min_size=n_features,
                   max_size=n_features)
    # one row beyond one per class, so no fold holds every row
    rows = draw(st.lists(row, min_size=class_count + 1, max_size=20))
    repeats_of = draw(st.lists(st.integers(0, len(rows) - 1), max_size=16))
    rows += [rows[i] for i in repeats_of]
    n = len(rows)
    labels = list(range(class_count)) + draw(st.lists(
        st.integers(0, class_count - 1), min_size=n - class_count,
        max_size=n - class_count))
    X = np.array(rows, dtype=np.float64)
    if draw(st.booleans()):
        X = np.hstack([X, np.full((n, 1), float(draw(st.integers(0, 3))))])
    X = draw(st.sampled_from([0.0, 1e6])) + X * draw(st.sampled_from([1.0, 0.1, 1e-3]))
    d = Dataset.from_arrays("ties", X, labels)
    proto = CvProtocol(folds=draw(st.integers(2, min(10, n))),
                       repeats=draw(st.sampled_from([1, 2, 3, 10])),
                       base_seed=draw(st.integers(0, 2**16)))
    bits = st.lists(st.integers(0, 1), min_size=d.n_features, max_size=d.n_features)
    masks = [FeatureMask(b) for b in draw(st.lists(bits, min_size=1, max_size=4))]
    return d, masks, proto


@settings(max_examples=200, deadline=None)
@given(tie_heavy_cases())
def test_fitness_equals_cdist_reference_exactly(case):
    d, masks, proto = case
    evaluator = FitnessEvaluator(d, proto)
    for mask in masks * 2:  # the second pass is served from the memo
        expected = cv_accuracy_cdist_reference(d, mask, proto)
        assert cv_accuracy(d, mask, proto) == expected
        assert evaluator.fitness(mask) == expected


def sqdist_data(kind: str, n: int, k: int, seed: int) -> np.ndarray:
    """An n x k matrix of one kind the exact distances must get right."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    if kind == "integer-levels":  # tie-heavy, as ordinal cells are
        X = rng.integers(0, 4, size=(n, k)).astype(float)
    elif kind == "duplicate-rows":
        X[n // 2:] = X[:n - n // 2]
    elif kind == "offset":  # steps of 0.01 around 1e6
        X = 1e6 + 0.01 * X
    elif kind == "scales":
        X *= 10.0 ** rng.uniform(-3, 3, size=k)
    return X


def sqdist(X: np.ndarray) -> np.ndarray:
    """The kernel's squared distances between the rows of X."""
    out = np.full((len(X), len(X)), np.nan)
    assert _climb.sqdist(np.ascontiguousarray(X.T), out) is None
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSqdist:
    """The kernel's exact distances are pdist's and cdist's "sqeuclidean",
    bit for bit, in the build the CPU runs and in the build without
    clones. The n cover every residue of the row block (4) and of the
    vector width (8)."""

    KINDS = ["random", "integer-levels", "duplicate-rows", "offset", "scales"]
    SHAPES = [(1, 1), (2, 1), (9, 1), (476, 1), (7, 3), (11, 4), (13, 5), (208, 60),
              (366, 34), (476, 166)]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_every_row_equals_pdist(self, kind, n, k):
        X = sqdist_data(kind, n, k, seed=n + k)
        assert same_bits(sqdist(X), squareform(pdist(X, "sqeuclidean")))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_any_rows_equal_cdist(self, kind, n, k):
        # the kernel over a subset of X's rows, or all of them in another
        # order or repeated, against cdist, which sums every entry
        X = sqdist_data(kind, n, k, seed=n * k)
        rng = np.random.default_rng(n)
        subsets = [[], [n - 1], np.sort(rng.choice(n, size=min(n, 20), replace=False)),
                   np.sort(rng.choice(n, size=(n + 1) // 2, replace=False)),
                   rng.permutation(n), [0] * n]
        for rows in subsets:
            Y = X[np.asarray(rows, dtype=np.int64)]
            assert same_bits(sqdist(Y), cdist(Y, Y, "sqeuclidean"))

    def test_no_columns_is_zero(self):
        assert same_bits(sqdist(np.empty((5, 0))), np.zeros((5, 5)))

    def test_build_without_clones_gives_the_same_bits(self, tmp_path, monkeypatch):
        """The kernel built from a copy of its source with the target_clones
        attribute removed, as a host without AVX-512 (or off x86-64 Linux
        with glibc) runs it, gives pdist's bits and the dispatched build's,
        so both builds a host can run are checked here. ``_load_climb``
        builds the copy, with the package build's flags, into ``tmp_path``."""
        source = Path(correlation.__file__).with_name("_climb.c").read_text()
        stripped, count = re.subn(r"__attribute__\(\(target_clones\([^)]*\)\)\)", "", source)
        assert count == 1
        (tmp_path / "_climb.c").write_text(stripped)
        monkeypatch.setattr(correlation, "__file__", str(tmp_path / "correlation.py"))
        monkeypatch.setitem(sys.modules, "hhfs._climb", _climb)  # loading the copy replaces it
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        stale = tmp_path / "__pycache__" / f"_climb.0123456789abcdef{suffix}"
        stale.parent.mkdir()
        stale.write_bytes(b"")  # an older build, which the new one removes
        baseline = correlation._load_climb()
        assert Path(baseline.__file__).parent == tmp_path / "__pycache__"
        assert not stale.exists()
        symbols = subprocess.run(["nm", baseline.__file__], capture_output=True, text=True,
                                 check=True).stdout
        assert not re.search(r"\bsqdist_rows\.", symbols)  # no clone and no resolver
        for n, k in [(476, 83), (208, 30), (366, 17), (7, 3), (13, 5), (211, 9), (474, 1)]:
            for kind in self.KINDS:
                X = sqdist_data(kind, n, k, seed=n + k)
                out = np.full((n, n), np.nan)
                assert baseline.sqdist(np.ascontiguousarray(X.T), out) is None
                assert same_bits(out, squareform(pdist(X, "sqeuclidean")))
                assert same_bits(out, sqdist(X))

    @pytest.mark.parametrize("case, message", [
        ("no-cc", "hhfs needs a C compiler: no `cc` on PATH to build {tmp}/_climb.c"),
        ("no-random-lib", "hhfs needs numpy's random C library: "
                          "no {tmp}/numpy/random/lib/libnpyrandom.a"),
        ("not-c", "hhfs: `cc` failed to build {tmp}/_climb.c: "),
        ("pycache-is-a-file", "hhfs: cannot build {tmp}/_climb.c into {tmp}/__pycache__: "
                              "[Errno 17] File exists: '{tmp}/__pycache__'"),
    ], ids=["no-cc", "no-random-lib", "not-c", "pycache-is-a-file"])
    def test_load_climb_refusals_are_one_import_error(self, tmp_path, monkeypatch, case,
                                                      message):
        """Each way the kernel cannot be built is one ImportError naming it, as
        README quotes them; the source is a copy in ``tmp_path``, as above."""
        source = Path(correlation.__file__).with_name("_climb.c").read_text()
        (tmp_path / "_climb.c").write_text("not C\n" if case == "not-c" else source)
        monkeypatch.setattr(correlation, "__file__", str(tmp_path / "correlation.py"))
        monkeypatch.setitem(sys.modules, "hhfs._climb", _climb)
        if case == "no-cc":
            monkeypatch.setattr(correlation.shutil, "which", lambda name: None)
        elif case == "no-random-lib":
            monkeypatch.setattr(np.random, "__file__",
                                str(tmp_path / "numpy" / "random" / "__init__.py"))
        elif case == "pycache-is-a-file":
            (tmp_path / "__pycache__").write_text("")
        with pytest.raises(ImportError) as info:
            correlation._load_climb()
        text, message = str(info.value), message.format(tmp=tmp_path)
        if case == "not-c":  # then the compiler's messages
            assert text.startswith(message) and "error" in text
        else:
            assert text == message


def offset_dataset(offset: float, seed: int = 4) -> Dataset:
    """120 rows over 6 features on 5 levels spaced 0.01 apart, plus a
    constant column: exact ties everywhere, and with a large offset the
    Gram entries cancel catastrophically."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(120, 6)) * 0.01
    X = np.hstack([X, np.full((120, 1), 0.5)]) + offset
    return Dataset.from_arrays("offset", X, rng.integers(0, 3, size=120))


class TestGramScreen:
    """Data that defeats a Gram-product screen of the distances
    (|x_i|^2 - 2 x_i.x_j + |x_j|^2): exact ties, near ties and cancellation
    under a large common offset, besides generic data. The exact distances
    must give the reference's neighbours on each."""

    def test_generic_data_is_exact(self, small_dataset):
        rng = np.random.default_rng(9)
        for proto in (CvProtocol(folds=10, repeats=1, base_seed=2),
                      CvProtocol(folds=10, repeats=10, base_seed=2)):
            ev = FitnessEvaluator(small_dataset, proto)
            for _ in range(10):
                mask = random_mask(8, rng)
                assert ev.fitness(mask) == cv_accuracy_cdist_reference(
                    small_dataset, mask, proto)
                assert cv_accuracy(small_dataset, mask, proto) == ev.fitness(mask)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_tie_heavy_data_is_exact(self, offset):
        d = offset_dataset(offset)
        proto = CvProtocol(folds=10, repeats=10, base_seed=3)
        ev = FitnessEvaluator(d, proto)
        rng = np.random.default_rng(1)
        for mask in [FeatureMask([1, 0, 0, 0, 0, 0, 0])] + [random_mask(7, rng) for _ in range(5)]:
            assert ev.fitness(mask) == cv_accuracy_cdist_reference(d, mask, proto)

    def test_every_row_ambiguous_with_only_constant_columns(self):
        d = offset_dataset(0.0)
        only_constant = FeatureMask([0, 0, 0, 0, 0, 0, 1])
        for repeats in (1, 10):
            proto = CvProtocol(folds=10, repeats=repeats, base_seed=5)
            ev = FitnessEvaluator(d, proto)
            expected = cv_accuracy_cdist_reference(d, only_constant, proto)
            assert ev.fitness(only_constant) == expected
            assert cv_accuracy(d, only_constant, proto) == expected

    def test_large_offset_full_mask_matches_reference(self):
        # every column selected: distances from 0.01 steps on top of 7e12
        d = offset_dataset(1e6, seed=8)
        for repeats in (1, 10):
            proto = CvProtocol(folds=10, repeats=repeats, base_seed=repeats)
            for mask in (FeatureMask.ones(7), FeatureMask([1, 1, 1, 1, 1, 1, 0])):
                assert cv_accuracy(d, mask, proto) == cv_accuracy_cdist_reference(
                    d, mask, proto)

    def test_near_ties_under_a_large_offset(self):
        # rows 0.1 apart around 1e6: a Gram product's rounding error is the
        # size of the gaps between a row's nearest neighbours
        mask = FeatureMask.ones(5)
        proto = CvProtocol(folds=10, repeats=1, base_seed=0)
        for seed in (2, 5, 6):
            rng = np.random.default_rng(seed)
            d = Dataset.from_arrays("near", 1e6 + 0.1 * rng.normal(size=(120, 5)),
                                    rng.integers(0, 3, size=120))
            assert cv_accuracy(d, mask, proto) == cv_accuracy_cdist_reference(
                d, mask, proto)

    def test_distances_that_overflow_refuse_the_dataset(self):
        # every off-diagonal distance would be inf, and each row's argmin
        # row 0, in the row's own fold or the row itself
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.permutation(40), rng.permutation(40)]) * 1e200
        d = Dataset.from_arrays("vast", X, np.arange(40) % 2)
        proto, mask = CvProtocol(folds=5), FeatureMask.ones(2)
        for score in (lambda: FitnessEvaluator(d, proto), lambda: cv_accuracy(d, mask, proto),
                      lambda: cv_accuracies(d, mask, {"1x5": proto})):
            with pytest.raises(DatasetError, match="^vast: the feature ranges are too wide"):
                score()
        normalized = min_max_normalize(d)
        assert cv_accuracy(normalized, mask, proto) == \
            cv_accuracy_cdist_reference(normalized, mask, proto)

    @staticmethod
    def edge_dataset(above: bool) -> Dataset:
        """40 rows over 2 columns, each spanning [0, reach]: the largest
        reach whose two squares sum to at most ``_DISTANCE_MAX``, or the
        next double ``above`` it."""
        reach = np.sqrt(evaluation._DISTANCE_MAX / 2)
        while 2 * reach ** 2 > evaluation._DISTANCE_MAX:
            reach = np.nextafter(reach, 0.0)
        while 2 * np.nextafter(reach, np.inf) ** 2 <= evaluation._DISTANCE_MAX:
            reach = np.nextafter(reach, np.inf)
        if above:
            reach = np.nextafter(reach, np.inf)
        X = np.random.default_rng(3).uniform(size=(40, 2))
        X[:2] = [[0.0, 1.0], [1.0, 0.0]]
        d = Dataset.from_arrays("edge", reach * X, np.arange(40) % 2)
        assert np.array_equal(np.ptp(d.features, axis=0), [reach, reach])
        return d

    def test_distances_just_below_the_overflow_edge_are_exact(self):
        d = self.edge_dataset(above=False)
        assert np.square(np.ptp(d.features, axis=0)).sum() <= evaluation._DISTANCE_MAX
        mask = FeatureMask.ones(2)
        for proto in (CvProtocol(folds=5), CvProtocol(folds=5, repeats=3, base_seed=1)):
            expected = cv_accuracy_cdist_reference(d, mask, proto)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert FitnessEvaluator(d, proto).fitness(mask) == expected
                assert cv_accuracy(d, mask, proto) == expected
                assert cv_accuracy(d, FeatureMask([1, 0]), proto) == \
                    cv_accuracy_cdist_reference(d, FeatureMask([1, 0]), proto)

    def test_distances_just_above_the_overflow_edge_refuse_the_dataset(self):
        d = self.edge_dataset(above=True)
        assert np.square(np.ptp(d.features, axis=0)).sum() > evaluation._DISTANCE_MAX
        proto, mask = CvProtocol(folds=5), FeatureMask.ones(2)
        for score in (lambda: FitnessEvaluator(d, proto), lambda: cv_accuracy(d, mask, proto),
                      lambda: cv_accuracies(d, mask, {"1x5": proto})):
            with pytest.raises(DatasetError, match="^edge: the feature ranges are too wide"):
                score()


class TestDegenerateFolds:
    def test_classes_smaller_than_the_fold_count_leave_folds_empty(self):
        # classes of 3 and 4 over 6 folds: folds 4 and 5 stay empty
        d = Dataset.from_arrays("small", [[0.0], [0.2], [0.4], [1.0], [1.1],
                                          [1.3], [0.3]], [0, 0, 0, 1, 1, 1, 1])
        proto = CvProtocol(folds=6, repeats=3, base_seed=2)
        ev = FitnessEvaluator(d, proto)
        assert all(np.bincount(stratified_folds(d, 6, 2 + r), minlength=6)[4:].sum() == 0
                   for r in range(3))
        expected = cv_accuracy_cdist_reference(d, FeatureMask([1]), proto)
        assert ev.fitness(FeatureMask([1])) == expected
        assert expected == cv_accuracy_bruteforce(d, FeatureMask([1]), 6, 3, 2)

    def test_as_many_folds_as_instances(self):
        d = Dataset.from_arrays("six", [[0.0], [0.3], [0.1], [1.0], [0.9], [0.6]],
                                [0, 0, 0, 1, 1, 1])
        proto = CvProtocol(folds=6, repeats=2, base_seed=1)
        assert cv_accuracy(d, FeatureMask([1]), proto) == \
            cv_accuracy_bruteforce(d, FeatureMask([1]), 6, 2, 1)

    def test_a_fold_holding_every_instance_fails_early(self):
        # one member per class: stratified dealing puts all in fold 0
        d = Dataset.from_arrays("singletons", [[0.0], [1.0], [2.0]], [0, 1, 2])
        with pytest.raises(DatasetError, match=r"singletons: 1x3 CV puts all 3 "
                                               r"instances in one fold"):
            FitnessEvaluator(d, CvProtocol(folds=3))
        with pytest.raises(DatasetError, match="no training rows"):
            cv_accuracy(d, FeatureMask([1]), CvProtocol(folds=2))
