"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.

Criteria 1-5 reproduce the published UCI benchmarks and need the dataset
CSVs under data/ (python3 scripts/fetch_uci.py on a networked machine);
without the files they SKIP with an explicit message. They are long:
10 supervisor runs x 200 generations per dataset. Criteria 6-11 are
deterministic property checks on synthetic data and always run.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (HILL_CLIMBER_IDS, best_flip_oracle, breed,
                      class_correlation_twopass, flip, fold_class_counts,
                      merit_from_data, pearson_twopass, predict_1nn,
                      random_mask, synthetic_dataset)
from hhfs.correlation import build_cache, cfs_merit
from hhfs.dataset import Dataset, load_csv, stratified_folds
from hhfs.evaluation import CvProtocol, cv_accuracy
from hhfs.experiment import (DatasetConfig, ExperimentSpec, run_dataset,
                             run_experiment, verify_report)
from hhfs.llh import CATALOG, LlhContext, apply
from hhfs.mask import FeatureMask
from hhfs.supervisor import SupervisorConfig, roulette_select

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# file truths for the UCI CSVs produced by scripts/fetch_uci.py
UCI_SHAPES = {
    "ionosphere": dict(n_instances=351, n_features=34, class_count=2),
    "sonar": dict(n_instances=208, n_features=60, class_count=2),
    "dermatology": dict(n_instances=366, n_features=34, class_count=6),
    "spectf": dict(n_instances=None, n_features=44, class_count=2),
    "musk": dict(n_instances=476, n_features=166, class_count=2),
}

_uci_reports: dict[str, dict] = {}


def _criterion(num, ok: bool, description: str, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _require_uci(*names: str) -> None:
    missing = [n for n in names if not (DATA_DIR / f"{n}.csv").exists()]
    if missing:
        msg = (f"dataset file(s) not present: {', '.join(missing)} - "
               f"run scripts/fetch_uci.py on a networked machine")
        print(f"ACCEPTANCE: SKIP - {msg}")
        pytest.skip(msg)


def _benchmark_spec() -> ExperimentSpec:
    return ExperimentSpec(
        datasets=(),
        runs=10,
        supervisor=SupervisorConfig(),  # 200 gens, pc 0.7, pm 0.1, L=30
        cv_folds=10,
        search_repeats=1,
        report_repeats=(10,),
        master_seed=0,
        out_dir="unused",
    )


def _uci_report(name: str) -> dict:
    """Run (once per session) the full 10-run benchmark on one dataset."""
    if name in _uci_reports:
        return _uci_reports[name]
    _require_uci(name)
    dataset = load_csv(DATA_DIR / f"{name}.csv", label_column=-1, name=name)
    expected = UCI_SHAPES[name]
    assert dataset.n_features == expected["n_features"]
    assert dataset.class_count == expected["class_count"]
    if expected["n_instances"] is not None:
        assert dataset.n_instances == expected["n_instances"]
    spec = dataclasses.replace(_benchmark_spec(),
                               datasets=(DatasetConfig(name, ""),))
    report, timings = run_dataset(dataset, spec, progress=print)
    verify_report(report)
    report["_timings"] = timings
    _uci_reports[name] = report
    return report


# ------------------------------------------------- quantitative criteria

class TestQuantitativeReproduction:
    def test_criterion_1_ionosphere(self):
        report = _uci_report("ionosphere")
        agg = report["aggregate"]["10x10"]
        baseline = report["baseline"]["10x10"]
        slowest = max(t["wall_time_seconds"] for t in report["_timings"])
        detail = (f"best={agg['best']:.4f} mean={agg['mean']:.4f} "
                  f"best_m={agg['best_m']} baseline={baseline:.4f} "
                  f"slowest run {slowest:.0f}s")
        assert 0.85 <= baseline <= 0.88, f"full-mask 1NN baseline off: {baseline}"
        _criterion(1, agg["best"] >= 0.92 and agg["mean"] >= 0.905
                   and agg["best_m"] <= 20 and slowest <= 900.0,
                   "ionosphere: best >= 0.92, mean >= 0.905, best m <= 20, "
                   "run time <= 15 min", detail)

    def test_criterion_2_sonar(self):
        report = _uci_report("sonar")
        agg = report["aggregate"]["10x10"]
        detail = (f"best={agg['best']:.4f} mean={agg['mean']:.4f} "
                  f"best_m={agg['best_m']}")
        _criterion(2, agg["best"] >= 0.89 and agg["mean"] >= 0.87
                   and agg["best_m"] <= 40,
                   "sonar: best >= 0.89, mean >= 0.87, best m <= 40", detail)

    def test_criterion_3_dermatology(self):
        report = _uci_report("dermatology")
        agg = report["aggregate"]["10x10"]
        detail = f"best={agg['best']:.4f} mean={agg['mean']:.4f}"
        _criterion(3, agg["best"] >= 0.965 and agg["mean"] >= 0.96,
                   "dermatology: best >= 0.965, mean >= 0.96", detail)

    def test_criterion_4_objective_inequalities(self):
        names = list(UCI_SHAPES)
        _require_uci(*names)
        beats_baseline = 0
        eq1_violations = []
        details = []
        for name in names:
            report = _uci_report(name)
            agg = report["aggregate"]["10x10"]
            baseline = report["baseline"]["10x10"]
            if agg["best"] > baseline:
                beats_baseline += 1
            details.append(f"{name}: J(x)={agg['best']:.4f} J(N)={baseline:.4f}")
            for run in report["runs"]:
                if run["improved"] and run["m"] >= report["n_features"]:
                    eq1_violations.append(f"{name} run {run['run']}")
        _criterion(4, beats_baseline >= 4 and not eq1_violations,
                   "J(x) > J(N) on >= 4 of 5 datasets; m < N on improved runs",
                   f"{beats_baseline}/5 beat baseline; "
                   + "; ".join(details)
                   + (f"; Eq1 violations: {eq1_violations}" if eq1_violations else ""))

    def test_criterion_5_musk_and_spectf_complete(self):
        _require_uci("musk", "spectf")
        soft_targets = {"musk": 0.9519 - 0.03, "spectf": 0.8934 - 0.03}
        ok = True
        details = []
        for name, soft in soft_targets.items():
            report = _uci_report(name)
            complete = (len(report["runs"]) == 10
                        and "10x10" in report["aggregate"])
            ok = ok and complete
            best = report["aggregate"]["10x10"]["best"]
            met = "met" if best >= soft else "MISSED"
            details.append(f"{name}: best={best:.4f}, soft goal >= {soft:.4f} {met}")
        _criterion(5, ok, "musk and spectf complete and report (soft goals noted)",
                   "; ".join(details))


# ---------------------------------------------- property-based criteria

class TestPropertyCriteria:
    def test_criterion_6_hill_climb_monotonicity(self):
        d = synthetic_dataset(n_instances=60, n_features=12, n_informative=4,
                              seed=106)
        cache = build_cache(d)
        rng = np.random.default_rng(1006)
        start = time.perf_counter()
        strict_prefixes = ("SDHC", "NAHC", "DBHC")
        violations = 0
        for _ in range(1000):
            mask = random_mask(12, rng)
            merit_in = cfs_merit(mask, cache)
            for llh_id in HILL_CLIMBER_IDS:
                ctx = LlhContext(cache=cache, rng=rng)
                out = apply(llh_id, mask, ctx)
                merit_out = cfs_merit(out, cache)
                if merit_out < merit_in:
                    violations += 1
                if (CATALOG[llh_id].name.startswith(strict_prefixes)
                        and out != mask and merit_out <= merit_in):
                    violations += 1
        elapsed = time.perf_counter() - start
        _criterion(6, violations == 0 and elapsed < 10.0,
                   "12000 hill-climber applications never decrease merit; "
                   "strict variants move only on strict gain",
                   f"{elapsed:.1f}s, violations={violations}")

    def test_criterion_7_sdhc_oracle_equivalence(self):
        sdhc = 1
        assert CATALOG[sdhc].name == "SDHC"
        mismatches = 0
        checked = 0
        for seed in range(5):
            d = synthetic_dataset(n_instances=50, n_features=10 + seed % 3,
                                  n_informative=3, seed=200 + seed)
            cache = build_cache(d)
            ctx = LlhContext(cache=cache, rng=np.random.default_rng(seed))
            rng = np.random.default_rng(300 + seed)
            for _ in range(100):
                mask = random_mask(d.n_features, rng)
                out = apply(sdhc, mask, ctx)
                best_bit, best_merit = best_flip_oracle(mask, cache,
                                                        range(d.n_features))
                expected = (flip(mask, best_bit)
                            if best_merit > cfs_merit(mask, cache) else mask)
                checked += 1
                if out != expected:
                    mismatches += 1
            # drive one mask to a fixed point: no neighbor may beat it
            mask = random_mask(d.n_features, rng)
            for _ in range(4 * d.n_features):
                nxt = apply(sdhc, mask, ctx)
                if nxt == mask:
                    break
                mask = nxt
            _, neighbor_best = best_flip_oracle(mask, cache, range(d.n_features))
            if cfs_merit(mask, cache) < neighbor_best:
                mismatches += 1
        _criterion(7, mismatches == 0,
                   "SDHC equals exhaustive Hamming-1 argmax on 500 starts; "
                   "repeated SDHC reaches a local optimum",
                   f"{checked} starts checked")

    def test_criterion_8_merit_and_pearson_against_oracles(self):
        d = synthetic_dataset(n_instances=40, n_features=9, n_informative=3,
                              seed=108)
        cache = build_cache(d)
        rng = np.random.default_rng(1008)
        worst_merit = 0.0
        for _ in range(100):
            mask = random_mask(9, rng)
            diff = abs(cfs_merit(mask, cache) - merit_from_data(mask.bits, d))
            worst_merit = max(worst_merit, diff)
        worst_entry = 0.0
        for _ in range(100):
            e = Dataset.from_arrays("e", rng.normal(size=(17, 3)), np.arange(17) % 3)
            entries = build_cache(e)
            X = e.features
            for i in range(3):
                worst_entry = max(worst_entry, abs(
                    entries.feature_class[i] - class_correlation_twopass(X[:, i], e.labels)))
                for j in range(3):
                    worst_entry = max(worst_entry, abs(
                        entries.feature_feature[i, j] - abs(pearson_twopass(X[:, i], X[:, j]))))
        _criterion(8, worst_merit <= 1e-12 and worst_entry <= 1e-12,
                   "merit matches cache-free recomputation and cache entries match "
                   "the two-pass Pearson definition within 1e-12",
                   f"max merit diff {worst_merit:.2e}, "
                   f"max cache entry diff {worst_entry:.2e}")

    def test_criterion_9_cv_machinery(self):
        rng = np.random.default_rng(109)
        stratification_ok = True
        for _ in range(100):
            class_count = int(rng.integers(2, 6))
            n = int(rng.integers(20, 80))
            labels = np.concatenate([np.arange(class_count),
                                     rng.integers(0, class_count, size=n)])
            d = Dataset.from_arrays("t", np.arange(len(labels), dtype=float)[:, None],
                                    labels)
            k = int(rng.integers(2, 10))
            counts = fold_class_counts(d, stratified_folds(d, k, int(rng.integers(1e6))), k)
            if (counts.max(axis=0) - counts.min(axis=0)).max() > 1:
                stratification_ok = False

        d = synthetic_dataset(n_instances=40, n_features=6, seed=209)
        mask = FeatureMask([1, 0, 1, 1, 0, 1])
        multi = cv_accuracy(d, mask, CvProtocol(folds=5, repeats=3, base_seed=77))
        singles = [cv_accuracy(d, mask, CvProtocol(folds=5, repeats=1,
                                                   base_seed=77 + r))
                   for r in range(3)]
        repeats_bitwise = multi == sum(singles) / 3

        train = np.array([[0.0], [2.0], [3.0], [2.0]])
        labels = np.array([1, 0, 1, 1])
        tie_ok = predict_1nn(train, labels, np.array([2.0]),
                             FeatureMask([1])) == 0  # rows 1 and 3 tie; row 1 wins
        _criterion(9, stratification_ok and repeats_bitwise and tie_ok,
                   "stratification within 1 per class over 100 label vectors; "
                   "repeats decompose bitwise; 1NN tie-break deterministic")

    def test_criterion_10_supervisor_determinism(self, tmp_path):
        from test_experiment import write_dataset_csv
        csv_path = write_dataset_csv(tmp_path / "det.csv", n_instances=30,
                                     n_features=6, seed=44)
        def spec(out):
            return ExperimentSpec(
                datasets=(DatasetConfig(name="det", path=str(csv_path)),),
                runs=3,
                supervisor=SupervisorConfig(population_size=5, generations=4),
                cv_folds=3,
                search_repeats=1,
                report_repeats=(2,),
                master_seed=17,
                out_dir=str(tmp_path / out),
            )
        run_experiment(spec("o1"))
        run_experiment(spec("o2"))
        a = (tmp_path / "o1" / "det" / "report.json").read_bytes()
        b = (tmp_path / "o2" / "det" / "report.json").read_bytes()
        report = json.loads(a)
        histories_monotone = all(
            all(later >= earlier for earlier, later
                in zip([row[2] for row in run["history"]],
                       [row[2] for row in run["history"]][1:]))
            for run in report["runs"])
        _criterion(10, a == b and histories_monotone,
                   "identical specs give byte-identical report.json; incumbent "
                   "fitness history non-decreasing in every run",
                   f"{len(a)} bytes compared, {len(report['runs'])} runs")

    def test_criterion_11_ga_operators(self):
        rng = np.random.default_rng(111)
        conservation_ok = True
        for _ in range(1000):
            pair = rng.integers(1, 17, size=(2, 16))
            original = sorted(pair.ravel().tolist())
            breed(pair, rng, 0.7, 0.0)
            if sorted(pair.ravel().tolist()) != original:
                conservation_ok = False

        exclusion_ok = True
        for _ in range(625):  # 10000 mutated genes in total
            genes = np.full((1, 16), 9)
            breed(genes, rng, 0.0, 1.0)
            if np.any(genes == 9) or genes.min() < 1 or genes.max() > 16:
                exclusion_ok = False

        draws = roulette_select([3.0, 1.0], rng, 10000)
        freq0 = float(np.mean(draws == 0))
        sigma = np.sqrt(0.75 * 0.25 / 10000)
        roulette_ok = abs(freq0 - 0.75) < 3 * sigma
        _criterion(11, conservation_ok and exclusion_ok and roulette_ok,
                   "crossover conserves genes (1000 pairs); mutation always "
                   "changes the gene (10000 trials); roulette within 3 sigma",
                   f"roulette freq {freq0:.4f} vs 0.75")
