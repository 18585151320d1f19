"""Experiment harness tests: biased init arithmetic, split invariants,
seed discipline, the synthetic generator, and the bound validator."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alselect.classifier import FitConfig, ModelParams, accuracy, design, fit
from alselect.data import standardize_apply, standardize_fit
from alselect.errors import ConfigError, VacuousBoundError
from alselect import cli, harness
from alselect.harness import (ExperimentConfig, SynthPocketSpec, biased_init,
                              generate_pocket_dataset, holdout_ids,
                              run_experiment, run_trial, validate_lemma)
from alselect.sampling import _CHUNK, RngState, select_positions, select_top_k
from alselect.strategies import StrategyConfig, StrategyKind, score_pool


def small_spec(**overrides):
    base = dict(
        n=900, d=4, k=3, beta=0.05,
        train_prevalence=(1 / 3, 1 / 3, 1 / 3),
        pool_prevalence=(0.4, 0.35, 0.25),
        pocket_class=1, separation=6.0, seed=7,
    )
    base.update(overrides)
    return SynthPocketSpec(**base)


def small_config(kind=StrategyKind.RANDOM, **overrides):
    base = dict(
        strategy=StrategyConfig(kind=kind, chi=0.1),
        n0=30, rounds=4, batch=10, trials=2,
        holdout_fraction=0.25, master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestBiasedInit:
    def test_equal_prevalence_example(self):
        labels = np.array([0] * 900 + [1] * 100)
        chosen = biased_init(labels, 100, 2, RngState(0))
        counts = np.bincount(labels[sorted(chosen)], minlength=2)
        assert counts.tolist() == [50, 50]

    def test_remainder_rule(self):
        labels = np.array([0] * 10 + [1] * 10)
        chosen = biased_init(labels, 5, 2, RngState(0))
        counts = np.bincount(labels[sorted(chosen)], minlength=2)
        assert counts.tolist() == [3, 2]

    def test_empty(self):
        assert biased_init(np.array([0, 1]), 0, 2, RngState(0)) == set()

    def test_insufficient_names_class(self):
        labels = np.array([0] * 50 + [1] * 2)
        with pytest.raises(ConfigError) as exc:
            biased_init(labels, 10, 2, RngState(0))
        assert str(exc.value) == ("class 1 has 2 instances, needs 5 "
                                  "for the initial labeled set; lower n0")

    def test_positions_meet_quotas(self):
        labels = np.random.default_rng(1).integers(0, 3, size=50)
        chosen = biased_init(labels, 10, 3, RngState(0))
        assert chosen <= set(range(50))
        assert np.bincount(labels[sorted(chosen)], minlength=3).tolist() == [4, 3, 3]

    def test_deterministic(self):
        labels = np.random.default_rng(0).integers(0, 3, size=300)
        a = biased_init(labels, 30, 3, RngState(5))
        b = biased_init(labels, 30, 3, RngState(5))
        assert a == b


class TestRunTrial:
    def test_zero_rounds_baseline_only(self):
        dataset, _ = generate_pocket_dataset(small_spec())
        cfg = small_config(rounds=0, trials=1)
        records = run_trial(dataset, cfg, 0)
        assert len(records) == 1
        assert records[0].round == 0
        assert records[0].labeled_count == cfg.n0
        assert records[0].selected_ids == ()

    def test_labeled_count_arithmetic(self):
        dataset, _ = generate_pocket_dataset(small_spec())
        cfg = small_config()
        records = run_trial(dataset, cfg, 0)
        for rec in records:
            assert rec.labeled_count == cfg.n0 + rec.round * cfg.batch

    def test_no_repeated_selection(self):
        dataset, _ = generate_pocket_dataset(small_spec())
        records = run_trial(dataset, small_config(kind=StrategyKind.WEIGHTED), 0)
        seen = set()
        for rec in records:
            ids = set(rec.selected_ids)
            assert not ids & seen
            seen |= ids

    def test_round0_shared_across_strategies(self):
        dataset, _ = generate_pocket_dataset(small_spec())
        acc0 = {}
        for kind in (StrategyKind.RANDOM, StrategyKind.GREEDY):
            records = run_trial(dataset, small_config(kind=kind), 0)
            acc0[kind] = records[0].holdout_accuracy
        assert acc0[StrategyKind.RANDOM] == acc0[StrategyKind.GREEDY]

    def test_holdout_depends_only_on_master_seed(self):
        a = holdout_ids(500, small_config(kind=StrategyKind.RANDOM))
        b = holdout_ids(500, small_config(kind=StrategyKind.GREEDY))
        c = holdout_ids(500, small_config(master_seed=12))
        assert a == b
        assert a != c

    def test_eps_greedy_full_trial(self):
        dataset, _ = generate_pocket_dataset(small_spec())
        records = run_trial(dataset, small_config(kind=StrategyKind.EPS_GREEDY), 0)
        assert len(records) == 5

    def test_infeasible_config(self):
        dataset, _ = generate_pocket_dataset(small_spec())
        cfg = small_config(rounds=100, batch=50)
        with pytest.raises(ConfigError, match="n0 \\+ rounds\\*batch"):
            run_trial(dataset, cfg, 0)

    def test_empty_holdout_rejected_before_any_fit(self, monkeypatch):
        dataset, _ = generate_pocket_dataset(small_spec(n=600))
        fits = []
        monkeypatch.setattr(harness, "fit", lambda *args: fits.append(args))
        with pytest.raises(ConfigError, match="holdout_fraction") as exc:
            run_trial(dataset, small_config(holdout_fraction=0.001), 0)
        assert fits == []
        assert not getattr(exc.value, "__notes__", [])

    def test_chi_underflow_rejected_before_any_fit(self, monkeypatch):
        # chi/k == 0.0 leaves score_pool no smoothing floor, so a row with an
        # exactly-zero probability would score nan rounds into the run
        dataset, _ = generate_pocket_dataset(small_spec())
        fits = []
        monkeypatch.setattr(harness, "fit", lambda *args: fits.append(args))
        cfg = small_config(strategy=StrategyConfig(kind=StrategyKind.GREEDY, chi=5e-324))
        with pytest.raises(ConfigError, match="chi = 5e-324 is too small for k = 3 classes") as exc:
            run_trial(dataset, cfg, 0)
        assert fits == []
        assert not getattr(exc.value, "__notes__", [])

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_smallest_chi_floor_runs(self, kind):
        # chi/k = 5e-324, the smallest floor; unregularised fits on this data
        # give probabilities of exactly 0, which at chi = 5e-324 scored nan
        dataset, _ = generate_pocket_dataset(small_spec(
            n=2000, d=10, beta=0.1, pool_prevalence=(1 / 3, 1 / 3, 1 / 3), pocket_class=0))
        cfg = small_config(strategy=StrategyConfig(kind=kind, chi=1.5e-323), fit=FitConfig(l2_reg=0.0),
                           n0=60, rounds=5, batch=20, trials=1, master_seed=1)
        assert len(run_experiment(dataset, cfg).records) == 6

    # at chi=0.1, k=3 the raw weights u**d left the float range past d = 572.29
    # (d=575 overflowed select_top_k's ln(a)/w, d=5000 gave a weight of 0), and
    # d*ln u itself overflows at d = DBL_MAX; pytest turns warnings into
    # errors, so an overflow anywhere fails here
    @pytest.mark.parametrize("d", [600, 5000, 1e6, sys.float_info.max])
    def test_weighted_exponent_past_float_range_runs(self, d):
        dataset, _ = generate_pocket_dataset(small_spec())
        cfg = small_config(strategy=StrategyConfig(StrategyKind.WEIGHTED, chi=0.1, exponent_d=d))
        records = run_trial(dataset, cfg, 0)
        assert [rec.labeled_count for rec in records] == [30, 40, 50, 60, 70]

    def test_weighted_exponent_past_float_range_cli_exits_0(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        assert cli.main(["synth", "--n", "900", "--d", "4", "--k", "3", "--beta", "0.05",
                         "--out", str(csv_path)]) == 0
        out_dir = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset_path={csv_path}\nlabel_column=label\nstrategy=weighted\n"
                       f"chi=0.1\nexponent_d=1e6\nn0=30\nrounds=4\nbatch=10\nout_dir={out_dir}\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["run", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        assert (out_dir / "records.jsonl").read_text(encoding="utf-8").count("\n") == 5 * 5

    def test_failing_round_carries_one_note(self, monkeypatch):
        dataset, _ = generate_pocket_dataset(small_spec())
        real = harness.fit
        calls = []

        def fail_third_fit(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise ArithmeticError("solver")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "fit", fail_third_fit)
        with pytest.raises(ArithmeticError) as exc:
            run_trial(dataset, small_config(), 1)
        assert exc.value.__notes__ == ["in trial 1, round 2"]

    @pytest.mark.parametrize("case", ["short", "repeat", "id_n", "negative"])
    def test_rejects_bad_selection(self, monkeypatch, case):
        # round 1 selects as usual; round 2 returns a corrupted batch of positions
        dataset, _ = generate_pocket_dataset(small_spec())
        cfg = small_config(rounds=2, trials=1)
        real = harness.select_batch
        batches = []

        def corrupted(cfg, scores, b, rng):
            batches.append(real(cfg, scores, b, rng))
            if len(batches) == 1:
                return batches[0]
            pos = sorted(batches[-1])
            return {
                "short": set(pos[1:]),
                "repeat": pos[1:] + [pos[1]],
                "id_n": set(pos[1:]) | {len(scores)},
                "negative": set(pos[1:]) | {-1},
            }[case]

        monkeypatch.setattr(harness, "select_batch", corrupted)
        with pytest.raises(RuntimeError, match="round 2"):
            run_trial(dataset, cfg, 0)
        assert len(batches) == 2

    def test_positions_map_to_rows(self, monkeypatch):
        # biased_init's positions index the non-holdout rows; a strategy that
        # takes pool positions 0..b-1 gets the b smallest rows still in the pool
        dataset, _ = generate_pocket_dataset(small_spec())
        cfg = small_config(rounds=3, trials=1)
        real_init = harness.biased_init
        init = set()

        def recorded_init(*args):
            init.update(real_init(*args))
            return init

        monkeypatch.setattr(harness, "biased_init", recorded_init)
        monkeypatch.setattr(harness, "select_batch", lambda cfg, scores, b, rng: set(range(b)))
        records = run_trial(dataset, cfg, 0)
        hold = holdout_ids(dataset.n, cfg)
        remaining = [row for row in range(dataset.n) if row not in hold]
        pool = [row for pos, row in enumerate(remaining) if pos not in init]
        for rec in records[1:]:
            assert rec.selected_ids == tuple(pool[:cfg.batch])
            pool = pool[cfg.batch:]

    def test_fit_warm_starts_from_previous_round(self, monkeypatch):
        dataset, _ = generate_pocket_dataset(small_spec())
        cfg = small_config(kind=StrategyKind.WEIGHTED)
        real = harness.fit
        calls = []  # (init, returned model) per fit, in call order

        def spy(*args, init=None, **kwargs):
            model = real(*args, init=init, **kwargs)
            calls.append((init, model))
            return model

        monkeypatch.setattr(harness, "fit", spy)
        run_experiment(dataset, cfg)
        assert len(calls) == cfg.trials * (cfg.rounds + 1)
        for i, (init, _) in enumerate(calls):
            if i % (cfg.rounds + 1) == 0:
                assert init is None
            else:
                assert init is calls[i - 1][1]

    def test_trial_alone_matches_trial_in_experiment(self, monkeypatch):
        # no state leaks across trials: trial 1 run alone gives the same
        # records and fits bitwise the same models as inside the experiment
        dataset, _ = generate_pocket_dataset(small_spec())
        cfg = small_config(kind=StrategyKind.WEIGHTED)
        real = harness.fit
        weights = []

        def spy(*args, **kwargs):
            model = real(*args, **kwargs)
            weights.append(model.weights.tobytes())
            return model

        monkeypatch.setattr(harness, "fit", spy)
        strip = lambda r: (r.trial, r.round, r.selected_ids, r.labeled_count,
                           r.holdout_accuracy)
        within = [strip(r) for r in run_experiment(dataset, cfg).records if r.trial == 1]
        within_weights = weights[cfg.rounds + 1:]
        weights.clear()
        alone = [strip(r) for r in run_trial(dataset, cfg, 1)]
        assert alone == within
        assert weights == within_weights


def per_call_hstack_probs(W, Z, idx):
    """The class-major probabilities at the rows idx of a feature matrix Z
    as scored before the trial's design matrix: the gathered rows with a
    ones column stacked on, then a softmax down axis 0."""
    Xa = np.hstack([Z[idx], np.ones((len(idx), 1))])
    s = W @ Xa.T
    P = np.exp(s - s.max(axis=0))
    P /= P.sum(axis=0)
    return P


@st.composite
def design_row_problems(draw):
    """A feature matrix Z of 1 to 3000 rows, weights W, a smoothing floor
    and labels, and a subset of Z's rows (one row, often) in any order."""
    n = draw(st.integers(1, 3000))
    d = draw(st.integers(1, 12))
    k = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = rng.standard_normal((n, d)) * draw(st.sampled_from([0.1, 1.0, 30.0]))
    W = rng.standard_normal((k, d + 1)) * draw(st.sampled_from([0.0, 1.0, 10.0]))
    m = draw(st.one_of(st.just(1), st.integers(1, n)))
    idx = rng.choice(n, size=m, replace=False)
    if draw(st.booleans()):
        idx.sort()
    chi = draw(st.floats(1e-3, 0.999))
    return Z, ModelParams(weights=W, k=k, d=d), idx, chi, rng.integers(0, k, size=m)


class TestDesignRows:
    """run_trial builds one design matrix per trial and scores the rows it
    gathers from it; each call's product has the shape and the operands of
    the old per-call `hstack`, so the scores and accuracies keep its bits."""

    @given(design_row_problems())
    @settings(max_examples=200, deadline=None)
    def test_gathered_rows_score_as_the_per_call_hstack(self, problem):
        Z, model, idx, chi, labels = problem
        Xa = design(Z)
        assert np.array_equal(Xa[:, :-1], Z) and (Xa[:, -1] == 1.0).all()
        P = per_call_hstack_probs(model.weights, Z, idx)
        V = (1.0 - chi) * P + chi / model.k
        scores = score_pool(model, Xa[idx], StrategyConfig(kind=StrategyKind.WEIGHTED, chi=chi))
        assert np.array_equal(scores, -(V * np.log(V)).sum(axis=0))
        assert accuracy(model, Xa[idx], labels) == float((P.argmax(axis=0) == labels).mean())

    def test_rows_without_the_bias_column_are_refused(self):
        # raw feature rows are one column short of a design, so a caller who
        # skips `design` gets an error, not scores from a shifted weight row
        with pytest.raises(ValueError, match="2-D"):
            design(np.zeros(3))
        model = ModelParams(weights=np.zeros((2, 3)), k=2, d=2)
        with pytest.raises(ValueError, match="columns"):
            score_pool(model, np.zeros((4, 2)), StrategyConfig(kind=StrategyKind.GREEDY))


class TestRunExperiment:
    def test_deterministic(self):
        # everything except the wall-clock elapsed_ms must reproduce exactly
        dataset, _ = generate_pocket_dataset(small_spec())
        cfg = small_config()
        a = run_experiment(dataset, cfg)
        b = run_experiment(dataset, cfg)
        strip = lambda r: (r.trial, r.round, r.selected_ids, r.labeled_count,
                           r.holdout_accuracy)
        assert [strip(r) for r in a.records] == [strip(r) for r in b.records]
        assert a.final_accuracies == b.final_accuracies
        assert a.final_accuracy_mean == b.final_accuracy_mean
        assert a.final_accuracy_std == b.final_accuracy_std

    def test_record_order_and_count(self):
        dataset, _ = generate_pocket_dataset(small_spec())
        cfg = small_config()
        result = run_experiment(dataset, cfg)
        assert len(result.records) == cfg.trials * (cfg.rounds + 1)
        keys = [(r.trial, r.round) for r in result.records]
        assert keys == sorted(keys)

    def test_single_trial_std_zero(self):
        dataset, _ = generate_pocket_dataset(small_spec())
        result = run_experiment(dataset, small_config(trials=1))
        assert result.final_accuracy_std == 0.0

    def test_aggregate_matches_records(self):
        dataset, _ = generate_pocket_dataset(small_spec())
        cfg = small_config()
        result = run_experiment(dataset, cfg)
        finals = [r.holdout_accuracy for r in result.records if r.round == cfg.rounds]
        assert result.final_accuracies == tuple(finals)
        assert result.final_accuracy_mean == pytest.approx(np.mean(finals))
        assert result.final_accuracy_std == pytest.approx(np.std(finals, ddof=1))

    def test_trials_differ(self):
        dataset, _ = generate_pocket_dataset(small_spec())
        result = run_experiment(dataset, small_config(kind=StrategyKind.RANDOM))
        by_trial = {}
        for rec in result.records:
            if rec.round == 1:
                by_trial[rec.trial] = rec.selected_ids
        assert by_trial[0] != by_trial[1]


class TestGeneratePocketDataset:
    def test_beta_zero_empty_pocket(self):
        dataset, pocket = generate_pocket_dataset(small_spec(beta=0.0))
        assert pocket == frozenset()
        assert dataset.n == 900

    def test_pocket_size(self):
        spec = small_spec(n=10000, beta=0.05, pool_prevalence=(0.3, 0.45, 0.25))
        dataset, pocket = generate_pocket_dataset(spec)
        assert len(pocket) == 500
        assert all(dataset.labels[i] == spec.pocket_class for i in pocket)

    def test_class_counts_follow_prevalence(self):
        spec = small_spec(n=2000, pool_prevalence=(0.5, 0.3, 0.2))
        dataset, _ = generate_pocket_dataset(spec)
        counts = np.bincount(dataset.labels, minlength=3)
        assert counts.tolist() == [1000, 600, 400]

    def test_deterministic(self):
        a_ds, a_p = generate_pocket_dataset(small_spec())
        b_ds, b_p = generate_pocket_dataset(small_spec())
        assert np.array_equal(a_ds.features, b_ds.features)
        assert np.array_equal(a_ds.labels, b_ds.labels)
        assert a_p == b_p

    def test_infeasible_tiny_pocket(self):
        with pytest.raises(ConfigError, match=r"beta\*n = 0\.360 rounds to an empty pocket"):
            generate_pocket_dataset(small_spec(n=900, beta=0.0004))

    def test_infeasible_pocket_exceeds_class(self):
        with pytest.raises(ConfigError, match="class 2: pool_prevalence allocates 180 rows"):
            generate_pocket_dataset(small_spec(beta=0.5, pool_prevalence=(0.5, 0.3, 0.2),
                                               pocket_class=2))

    def test_pocket_misclassified_without_pocket_labels(self):
        # fit on every non-pocket row; the pocket must look like the decoy
        spec = small_spec(n=3000, beta=0.1, separation=6.0, pocket_offset=3.25)
        dataset, pocket = generate_pocket_dataset(spec)
        pocket_idx = np.asarray(sorted(pocket))
        mask = np.ones(dataset.n, dtype=bool)
        mask[pocket_idx] = False
        std = standardize_fit(dataset.features[mask])
        Z = standardize_apply(std, dataset.features)
        model = fit(Z[mask], dataset.labels[mask], dataset.k)
        pocket_acc = accuracy(model, design(Z[pocket_idx]), dataset.labels[pocket_idx])
        assert 1.0 - pocket_acc >= 0.9

    def test_overlap_region(self):
        spec = small_spec(n=3000, overlap_fraction=0.2,
                          pool_prevalence=(0.4, 0.35, 0.25))
        dataset, _ = generate_pocket_dataset(spec)
        # overlap rows sit far from every class center; find them by radius
        counts = np.bincount(dataset.labels, minlength=3)
        assert counts.sum() == 3000

    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(pool_prevalence=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            small_spec(d=2)  # d < k
        with pytest.raises(ValueError):
            small_spec(pocket_decoy=1)  # same as pocket_class
        with pytest.raises(ValueError):
            small_spec(beta=1.5)


class TestValidateLemma:
    def test_worst_case_meets_target(self):
        spec = small_spec(n=400, d=10, k=10, beta=0.05,
                          train_prevalence=tuple([0.1] * 10),
                          pool_prevalence=tuple([0.1] * 10),
                          pocket_class=0, seed=3)
        report = validate_lemma(spec, chi=0.05, delta=0.1, repeats=400)
        assert report.bound.n_s == 124
        se = math.sqrt(report.target * (1 - report.target) / report.repeats)
        assert report.hit_rate >= report.target - 3 * se

    def test_equal_weights_closed_form(self):
        # n_s draws without replacement from n items miss all m pocket items
        # with probability C(n-m, n_s) / C(n, n_s)
        spec = small_spec(n=400, d=10, k=10, beta=0.05,
                          train_prevalence=tuple([0.1] * 10),
                          pool_prevalence=tuple([0.1] * 10),
                          pocket_class=0, seed=4)
        report = validate_lemma(spec, chi=0.05, delta=0.5, repeats=1500, equal_weights=True)
        n, m, n_s = spec.n, round(spec.beta * spec.n), report.bound.n_s
        predicted = 1.0 - math.comb(n - m, n_s) / math.comb(n, n_s)
        se = math.sqrt(predicted * (1 - predicted) / report.repeats)
        assert abs(report.hit_rate - predicted) <= 3 * se

    def test_beta_one_always_hits(self):
        spec = small_spec(n=200, d=10, k=10, beta=1.0,
                          train_prevalence=tuple([0.1] * 10),
                          pool_prevalence=tuple([0.1] * 10),
                          pocket_class=0, seed=5)
        report = validate_lemma(spec, chi=0.05, delta=0.5, repeats=50)
        assert report.hit_rate == 1.0

    @pytest.mark.parametrize("n", [400, _CHUNK + 904])
    @pytest.mark.parametrize("equal_weights", [False, True])
    def test_hits_match_tuple_stream_reference(self, n, equal_weights):
        # the repeats read one (seed, lemma) stream in turn and each draws the
        # set the (id, weight) stream draws from it, so the Monte Carlo's hits
        # are those of the streaming sampler it validates
        for seed in range(3):
            spec = small_spec(n=n, d=10, k=10, beta=0.05,
                              train_prevalence=tuple([0.1] * 10),
                              pool_prevalence=tuple([0.1] * 10),
                              pocket_class=0, seed=seed)
            report = validate_lemma(spec, chi=0.05, delta=0.9, repeats=60,
                                    equal_weights=equal_weights)
            m = round(spec.beta * n)
            w = [math.log(10) if equal_weights or i >= m else report.bound.zeta
                 for i in range(n)]
            rng = RngState(seed).derive(harness._LEMMA)
            hits = sum(
                any(i < m for i in select_top_k(zip(range(n), w), report.bound.n_s, rng))
                for _ in range(60))
            assert report.bound.n_s == 6
            assert report.hits == hits
            assert 0 < hits < 60

    @pytest.mark.parametrize("n", [400, _CHUNK + 904])
    @pytest.mark.parametrize("equal_weights", [False, True])
    def test_hit_rule_exact_under_ties(self, monkeypatch, n, equal_weights):
        # uniforms rounded onto {1/4, 1/2, 3/4} make the keys tie by the hundred,
        # at the n_s-th key too; 97 repeats end on a short block at n=400
        class CoarseRng(RngState):
            def derive(self, *keys):
                return CoarseRng(self.seed, self.path + keys)

            def uniforms_open(self, size):
                return (np.floor(super().uniforms_open(size) * 3.0) + 1.0) / 4.0

        monkeypatch.setattr(harness, "RngState", CoarseRng)
        spec = small_spec(n=n, d=10, k=10, beta=0.05,
                          train_prevalence=tuple([0.1] * 10),
                          pool_prevalence=tuple([0.1] * 10),
                          pocket_class=0, seed=9)
        report = validate_lemma(spec, chi=0.05, delta=0.9, repeats=97,
                                equal_weights=equal_weights)
        m = round(spec.beta * n)
        weights = np.full(n, math.log(10))
        if not equal_weights:
            weights[:m] = report.bound.zeta
        rng = CoarseRng(9).derive(harness._LEMMA)
        hits = sum(min(select_positions(np.log(weights), report.bound.n_s, rng)) < m
                   for _ in range(97))
        assert report.hits == hits
        if equal_weights:  # these hits are ties at the n_s-th key, which `<` would miss
            assert hits > 0

    @pytest.mark.parametrize("repeats", [50, 500])
    def test_one_stream_per_call(self, monkeypatch, repeats):
        # every RngState built, derive's children included, goes through __init__
        built = []
        init = RngState.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(harness.RngState, "__init__", counting_init)
        spec = small_spec(n=400, d=10, k=10, beta=0.05,
                          train_prevalence=tuple([0.1] * 10),
                          pool_prevalence=tuple([0.1] * 10),
                          pocket_class=0, seed=6)
        validate_lemma(spec, chi=0.05, delta=0.5, repeats=repeats)
        assert len(built) <= 2

    def test_same_spec_same_hits(self):
        spec = small_spec(n=400, d=10, k=10, beta=0.05,
                          train_prevalence=tuple([0.1] * 10),
                          pool_prevalence=tuple([0.1] * 10),
                          pocket_class=0, seed=7)
        first, second = (validate_lemma(spec, chi=0.05, delta=0.5, repeats=300)
                         for _ in range(2))
        assert first.hits == second.hits
        assert 0 < first.hits < 300

    def test_no_guarantee_draws_nothing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("delta=1 needs no draw")
        monkeypatch.setattr(harness.RngState, "uniforms_open", no_draw)
        spec = small_spec(n=400, d=10, k=10, beta=0.05,
                          train_prevalence=tuple([0.1] * 10),
                          pool_prevalence=tuple([0.1] * 10),
                          pocket_class=0, seed=3)
        report = validate_lemma(spec, chi=0.05, delta=1.0, repeats=20)
        assert (report.bound.n_s, report.hits, report.hit_rate) == (0, 0, 0.0)

    def test_vacuous_propagates(self):
        spec = small_spec(n=300, d=4, k=2, beta=0.1,
                          train_prevalence=(0.5, 0.5), pool_prevalence=(0.5, 0.5),
                          pocket_class=0, seed=6)
        with pytest.raises(VacuousBoundError):
            validate_lemma(spec, chi=0.1, delta=0.05, repeats=10)

    def test_pool_too_small_for_draws(self):
        spec = small_spec(n=50, d=10, k=10, beta=0.05,
                          train_prevalence=tuple([0.1] * 10),
                          pool_prevalence=tuple([0.1] * 10),
                          pocket_class=0, seed=8)
        with pytest.raises(ConfigError, match="requires n_s=124 draws but the pool has only 50"):
            validate_lemma(spec, chi=0.05, delta=0.1, repeats=10)
