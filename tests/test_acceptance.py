"""Acceptance suite: nine go/no-go checks at their declared tolerances.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Monte Carlo checks run at full declared sizes; every expected value is
either analytically forced or computed by an independent oracle inlined
here (enumeration, finite differences, closed forms).
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from alselect.classifier import FitConfig, design, loss_and_grad
from alselect.cli import main as cli_main
from alselect.harness import (ExperimentConfig, SynthPocketSpec,
                              generate_pocket_dataset, holdout_ids,
                              run_experiment, validate_lemma)
from alselect.probs import entropy_ratio_bound
from alselect.sampling import RngState, gumbel_keys, select_positions
from alselect.strategies import StrategyConfig, StrategyKind


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget ({elapsed:.1f}s)"


def test_criterion_1_entropy_bound(capsys):
    """Entropy of ratio-bounded distributions never falls below the
    closed-form floor, across 10,000 random vectors per (k, rho) cell."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_margin = math.inf
    for k in (2, 5, 10):
        for rho in (2.0, 10.0, 100.0):
            bound = entropy_ratio_bound(rho, k)
            raw = rng.uniform(1.0, rho, size=(10000, k))
            p = raw / raw.sum(axis=1, keepdims=True)
            h = -(p * np.log(p)).sum(axis=1)
            worst_margin = min(worst_margin, float((h - bound).min()))
    ok = worst_margin >= -1e-12
    with capsys.disabled():
        report(1, ok, f"min entropy-minus-bound margin {worst_margin:.3e} >= -1e-12",
               time.perf_counter() - t0, 5.0)


def block_draws(seed, log_w, draws):
    """`draws` weighted draws over the items of `log_w`, as one block: a
    (draws, n) array of keys, row r holding the keys the r-th of `draws`
    `select_positions(log_w, K, RngState(seed))` calls in a row would rank
    (see `validate_lemma`). A row's K smallest keys, ties to the smaller
    position, are that call's K picks."""
    n = len(log_w)
    return gumbel_keys(RngState(seed).uniforms_open(draws * n).reshape(draws, n), log_w)


def assert_block_equals_loop(seed, log_w, picks):
    """The picks of a block's first rows are those of one `select_positions`
    call per row on the same stream."""
    rng = RngState(seed)
    loop = [select_positions(log_w, len(row), rng) for row in picks]
    assert [set(row) for row in picks] == loop, "block picks differ from select_positions"


def test_criterion_2_single_draw_inclusion(capsys):
    """Single-draw selection frequencies match w_i/sum(w) within 0.005.

    The 200k draws are one block (`block_draws`); each row's pick is its
    smallest key, and the first 20,000 picks are checked against a
    `select_positions` loop."""
    t0 = time.perf_counter()
    weights = [1.0, 2.0, 3.0, 4.0, 10.0]
    expected = np.array(weights) / sum(weights)  # [0.05 0.10 0.15 0.20 0.50]
    draws = 200_000
    log_w = np.log(weights)
    picks = block_draws(2025, log_w, draws).argmin(axis=1)
    counts = np.bincount(picks, minlength=5)
    assert_block_equals_loop(2025, log_w, picks[:20_000, None].tolist())
    dev = np.abs(counts / draws - expected).max()
    with capsys.disabled():
        report(2, dev < 0.005, f"max |freq - w/sum(w)| = {dev:.4f} < 0.005",
               time.perf_counter() - t0, 5.0)


def test_criterion_3_pair_frequencies_vs_enumeration(capsys):
    """Unordered-pair frequencies match brute-force enumeration of
    sequential weighted sampling without replacement, within 0.01.

    The 200k draws are one block (`block_draws`); each row's pair is its
    two smallest keys, and the first 20,000 pairs are checked against a
    `select_positions` loop."""
    t0 = time.perf_counter()
    weights = [1.0, 2.0, 3.0, 4.0]
    total = sum(weights)
    exact = {}
    for i, j in itertools.permutations(range(4), 2):
        p = (weights[i] / total) * (weights[j] / (total - weights[i]))
        key = frozenset((i, j))
        exact[key] = exact.get(key, 0.0) + p
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)

    draws = 200_000
    log_w = np.log(weights)
    pairs = np.argsort(block_draws(2026, log_w, draws), axis=1, kind="stable")[:, :2]
    codes = np.bincount(pairs.min(axis=1) * 4 + pairs.max(axis=1), minlength=16)
    counts = {key: codes[min(key) * 4 + max(key)] for key in exact}
    assert sum(counts.values()) == draws  # every row picked two distinct items
    assert_block_equals_loop(2026, log_w, pairs[:20_000].tolist())
    dev = max(abs(counts[k] / draws - exact[k]) for k in exact)
    with capsys.disabled():
        report(3, dev < 0.01, f"max |pair freq - enumeration| = {dev:.4f} < 0.01",
               time.perf_counter() - t0, 10.0)


def test_criterion_4_lemma_hit_rate_and_bound_cli(capsys):
    """Worst-case-weight hitting rate meets the 1-delta guarantee, and the
    bound command prints n_s=80 for the reference parameters."""
    t0 = time.perf_counter()
    spec = SynthPocketSpec(
        n=400, d=10, k=10, beta=0.05,
        train_prevalence=tuple([0.1] * 10),
        pool_prevalence=tuple([0.1] * 10),
        pocket_class=0, separation=6.0, seed=40,
    )
    rep = validate_lemma(spec, chi=0.05, delta=0.1, repeats=2000)
    threshold = 0.9 - 3 * math.sqrt(0.09 / 2000)  # ~0.8799
    ok_rate = rep.hit_rate >= threshold

    rc = cli_main(["bound", "--beta", "0.1", "--chi", "0.05", "--k", "10",
                   "--delta", "0.05"])
    out = capsys.readouterr().out
    ok_cli = rc == 0 and "n_s=80" in out
    with capsys.disabled():
        report(4, ok_rate and ok_cli,
               f"hit rate {rep.hit_rate:.4f} >= {threshold:.4f} (n_s={rep.bound.n_s}); "
               f"cmd_bound n_s=80 printed: {ok_cli}",
               time.perf_counter() - t0, 30.0)


def test_criterion_5_gradient_check(capsys):
    """Analytic gradients match central finite differences (step 1e-5)
    within relative error 1e-5 on 20 random problems."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    n, d, k = 20, 5, 3
    worst = 0.0
    for _ in range(20):
        X = rng.standard_normal((n, d))
        y = rng.integers(0, k, size=n)
        W = rng.standard_normal((k, d + 1)) * 0.7
        Xa = design(X)
        _, G = loss_and_grad(W, Xa, y, k, 1e-4)
        G_fd = np.zeros_like(W)
        step = 1e-5
        for idx in np.ndindex(W.shape):
            Wp, Wm = W.copy(), W.copy()
            Wp[idx] += step
            Wm[idx] -= step
            lp, _ = loss_and_grad(Wp, Xa, y, k, 1e-4)
            lm, _ = loss_and_grad(Wm, Xa, y, k, 1e-4)
            G_fd[idx] = (lp - lm) / (2 * step)
        rel = np.linalg.norm(G - G_fd) / max(np.linalg.norm(G_fd), 1e-12)
        worst = max(worst, rel)
    with capsys.disabled():
        report(5, worst <= 1e-5, f"max relative gradient error {worst:.2e} <= 1e-5",
               time.perf_counter() - t0, 5.0)


def _write_det_config(tmp_path, csv_path, out_dir):
    cfg = tmp_path / f"{out_dir.name}.cfg"
    cfg.write_text(
        f"dataset_path={csv_path}\nlabel_column=label\nstrategy=weighted\n"
        f"chi=0.1\nn0=60\nrounds=5\nbatch=20\ntrials=2\n"
        f"master_seed=17\nout_dir={out_dir}\n",
        encoding="utf-8",
    )
    return cfg


def test_criterion_6_cli_determinism(tmp_path, capsys):
    """Two cmd_run executions with identical config and dataset produce
    byte-identical record files."""
    t0 = time.perf_counter()
    csv_path = tmp_path / "synth.csv"
    rc = cli_main(["synth", "--n", "1500", "--d", "5", "--k", "3",
                   "--beta", "0.05", "--pool-prevalence", "0.4,0.35,0.25",
                   "--seed", "12", "--out", str(csv_path)])
    assert rc == 0
    outs = []
    for name in ("run_a", "run_b"):
        out_dir = tmp_path / name
        cfg = _write_det_config(tmp_path, csv_path, out_dir)
        rc = cli_main(["run", str(cfg)])
        assert rc == 0, capsys.readouterr().err
        outs.append(out_dir)
    rec_same = (outs[0] / "records.jsonl").read_bytes() == (outs[1] / "records.jsonl").read_bytes()
    sum_same = (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    with capsys.disabled():
        report(6, rec_same and sum_same,
               f"records byte-identical: {rec_same}; summary byte-identical: {sum_same}",
               time.perf_counter() - t0, 60.0)


def test_criterion_7_split_and_selection_invariants(capsys):
    """Full synthetic run (n=5000, d=10, 30 rounds, B=30): disjoint splits,
    labeled-count arithmetic, no repeated selections, untouched holdout."""
    t0 = time.perf_counter()
    spec = SynthPocketSpec(
        n=5000, d=10, k=3, beta=0.05,
        train_prevalence=(1 / 3, 1 / 3, 1 / 3),
        pool_prevalence=(0.4, 0.35, 0.25),
        pocket_class=1, separation=6.0, seed=70,
    )
    dataset, _ = generate_pocket_dataset(spec)
    cfg = ExperimentConfig(
        strategy=StrategyConfig(kind=StrategyKind.WEIGHTED, chi=0.1),
        n0=100, rounds=30, batch=30, trials=1,
        holdout_fraction=0.25, master_seed=71,
    )
    result = run_experiment(dataset, cfg)
    hold = holdout_ids(dataset.n, cfg)

    problems = []
    seen: set[int] = set()
    for rec in result.records:
        if rec.labeled_count != cfg.n0 + rec.round * cfg.batch:
            problems.append(f"round {rec.round}: labeled_count {rec.labeled_count}")
        sel = set(rec.selected_ids)
        if sel & seen:
            problems.append(f"round {rec.round}: repeated selection")
        if sel & hold:
            problems.append(f"round {rec.round}: selected from holdout")
        seen |= sel
    if len(seen) != cfg.rounds * cfg.batch:
        problems.append(f"total selected {len(seen)} != rounds*batch")
    # run_trial keeps the split as one state per row, so disjointness and
    # coverage hold by construction, and it raises if a round's selection is
    # not `batch` distinct pool ids, so reaching here covers those too
    with capsys.disabled():
        report(7, not problems,
               "all per-round invariants held" if not problems else "; ".join(problems),
               time.perf_counter() - t0, 60.0)


# criterion 8's scenario, shared with criterion 9
POCKET_SPEC = SynthPocketSpec(
    n=8000, d=10, k=3, beta=0.1,
    train_prevalence=(1 / 3, 1 / 3, 1 / 3),
    pool_prevalence=(11 / 30, 17 / 30, 2 / 30),
    pocket_class=1, separation=6.0, seed=777,
    pocket_decoy=0, pocket_offset=3.25, overlap_fraction=0.2,
)


@pytest.fixture(scope="module")
def pocket_runs():
    """Criterion 8's pocket ids and a `run(kind, d)` that runs its config once
    per (kind, d) in this module, so the test that asks first pays the time."""
    dataset, pocket_ids = generate_pocket_dataset(POCKET_SPEC)
    results = {}

    def run(kind, d=1.0):
        if (kind, d) not in results:
            cfg = ExperimentConfig(
                strategy=StrategyConfig(kind=kind, chi=0.25, exponent_d=d),
                fit=FitConfig(),
                n0=100, rounds=30, batch=30, trials=5,
                holdout_fraction=0.25, master_seed=99,
            )
            results[kind, d] = run_experiment(dataset, cfg)
        return results[kind, d]

    return run, pocket_ids


def test_criterion_8_qualitative_signature(pocket_runs, capsys):
    """Tuned biased-init pocket scenario reproduces the hard-dataset
    pattern: Greedy lands >= 3 points below Random while the weighted
    sampler stays within 2 points of the best of the two.

    Scenario (documented in the README): 3 classes at separation 6, a
    beta=0.1 pocket shadowing the decoy class at offset 3.25, and a 20%
    equal-mix overlap region that is irreducibly max-entropy. The overlap
    region absorbs the greedy picker's budget while its labeled share of
    the pocket decays; random and weighted keep sampling the pocket at
    roughly its prevalence and recover it.
    """
    t0 = time.perf_counter()
    run, _ = pocket_runs
    finals = {}
    stds = {}
    for kind in (StrategyKind.RANDOM, StrategyKind.GREEDY, StrategyKind.WEIGHTED):
        res = run(kind)
        finals[kind] = 100 * res.final_accuracy_mean
        stds[kind] = 100 * res.final_accuracy_std
    gap = finals[StrategyKind.RANDOM] - finals[StrategyKind.GREEDY]
    wd = finals[StrategyKind.WEIGHTED] - max(finals[StrategyKind.RANDOM],
                                             finals[StrategyKind.GREEDY])
    table = "  ".join(
        f"{k.value}={finals[k]:.2f}±{stds[k]:.2f}"
        for k in (StrategyKind.RANDOM, StrategyKind.GREEDY, StrategyKind.WEIGHTED)
    )
    with capsys.disabled():
        report(8, gap >= 3.0 and wd >= -2.0,
               f"{table}; random-greedy gap {gap:+.2f} >= 3, "
               f"weighted vs best {wd:+.2f} >= -2",
               time.perf_counter() - t0, 300.0)


def test_criterion_9_exponent_moves_weighted_toward_greedy(pocket_runs, capsys):
    """On criterion 8's scenario the exponent d moves weighted sampling from
    random toward greedy: the pocket's share of picks does not rise over
    d = 1, 16, 32, 64, d=1 ends within 2 points of random and d=64 within
    2 points of greedy. The margins come from the d sweep in the README.
    """
    t0 = time.perf_counter()
    run, pocket_ids = pocket_runs

    def final(res):
        return 100 * res.final_accuracy_mean

    def pocket_share(res):
        picks = [i for rec in res.records for i in rec.selected_ids]
        return 100 * sum(i in pocket_ids for i in picks) / len(picks)

    exponents = (1.0, 16.0, 32.0, 64.0)
    weighted = {d: run(StrategyKind.WEIGHTED, d) for d in exponents}
    shares = [pocket_share(weighted[d]) for d in exponents]
    falling = all(a >= b for a, b in zip(shares, shares[1:]))
    to_random = final(weighted[1.0]) - final(run(StrategyKind.RANDOM))
    to_greedy = final(weighted[64.0]) - final(run(StrategyKind.GREEDY))
    table = "  ".join(f"d={d:g}: {final(weighted[d]):.2f}/{s:.2f}%"
                      for d, s in zip(exponents, shares))
    with capsys.disabled():
        report(9, falling and abs(to_random) <= 2.0 and abs(to_greedy) <= 2.0,
               f"final/pocket share of picks {table}; pocket share non-increasing: "
               f"{falling}; d=1 vs random {to_random:+.2f}, d=64 vs greedy "
               f"{to_greedy:+.2f} (|.| <= 2)",
               time.perf_counter() - t0, 300.0)
