//! Experiment **E4** — randomized consensus (§6): Ben-Or terminates with
//! probability 1 under `Prel`-only delivery, with expected rounds growing
//! as agreement must emerge from independent coins.
//!
//! Series: benign Ben-Or at n ∈ {3, 5, 7, 9} and Byzantine Ben-Or at
//! n ∈ {5, 9, 13}, 40 seeds each, adversarial initial splits (half 0s,
//! half 1s — the hardest input for coin convergence).
//!
//! Run: `cargo run -p gencon-bench --bin exp_ben_or`

use gencon_algos::{ben_or_benign, ben_or_byzantine};
use gencon_bench::{run_scenario, Table};
use gencon_core::Decision;
use gencon_metrics::Histogram;
use gencon_sim::{properties, CrashPlan, RandomSubset};

const SEEDS: u64 = 40;
const MAX_ROUNDS: u64 = 3000;

fn series(t: &mut Table, label: &str, n: usize, f: usize, b: usize) {
    let rounds = Histogram::default();
    for seed in 0..SEEDS {
        let spec = if b > 0 {
            ben_or_byzantine::<u64>(n, b, [0, 1], seed).unwrap()
        } else {
            ben_or_benign::<u64>(n, f, [0, 1], seed).unwrap()
        };
        // Hardest split: half zeros, half ones.
        let inits: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
        let keep = spec.params.cfg.correct_minimum();
        let out = run_scenario(
            &spec,
            &inits,
            RandomSubset::new(keep, 1000 + seed),
            CrashPlan::none(),
            Vec::new(),
            MAX_ROUNDS,
        );
        assert!(
            properties::agreement(&out, |d: &Decision<u64>| &d.value),
            "{label} n={n} seed={seed}: agreement"
        );
        assert!(
            out.all_correct_decided,
            "{label} n={n} seed={seed}: no termination within {MAX_ROUNDS} rounds"
        );
        rounds.record(out.last_decision_round().unwrap().number());
    }
    t.row([
        label.to_string(),
        n.to_string(),
        format!("{:.1}", rounds.mean()),
        rounds.p50().to_string(),
        rounds.quantile(0.9).to_string(),
        rounds.max().to_string(),
        format!("{}/{}", rounds.count(), SEEDS),
    ]);
}

fn main() {
    println!("# E4 — Ben-Or randomized consensus under Prel (split inputs)\n");
    let mut t = Table::new([
        "variant",
        "n",
        "mean rounds",
        "p50",
        "p90",
        "max",
        "terminated",
    ]);
    for n in [3usize, 5, 7, 9] {
        series(&mut t, "benign (f = (n-1)/2)", n, (n - 1) / 2, 0);
    }
    for n in [5usize, 9, 13] {
        series(&mut t, "Byzantine (b = (n-1)/4)", n, 0, (n - 1) / 4);
    }
    t.print();

    println!("\nShape check vs §6: termination without any good period (probability-1");
    println!("coin convergence); unanimous inputs would decide in one phase — split");
    println!("inputs need the coin, and expected rounds grow with n.");
}
