//! Experiment **E2** — decision latency in rounds (§3.1 / Table 1's
//! rounds-per-phase column, exercised end to end).
//!
//! Three series:
//!
//! 1. fault-free latency per class over a range of n — class 1 decides in
//!    2 rounds, classes 2–3 in 3 (one good phase);
//! 2. latency under a GST: the first good phase after stabilization
//!    decides, so latency ≈ GST + one phase (modulo phase alignment);
//! 3. latency with crash faults before GST (benign models).
//!
//! Run: `cargo run -p gencon-bench --bin exp_latency`

use gencon_algos::AlgorithmSpec;
use gencon_bench::{run_scenario, run_synchronous, Table};
use gencon_core::{ClassId, Params};
use gencon_metrics::Histogram;
use gencon_sim::{CrashAt, CrashPlan, Gst};
use gencon_types::{Config, ProcessId, Round};

fn spec(class: ClassId, n: usize, b: usize) -> AlgorithmSpec<u64> {
    let cfg = Config::byzantine(n, b).expect("config");
    AlgorithmSpec {
        name: "generic",
        class,
        model: "Byzantine",
        bound: class.n_bound(),
        params: Params::for_class(class, cfg).expect("params"),
    }
}

fn main() {
    println!("# E2 — Decision latency in rounds\n");

    println!("## Fault-free, synchronous from round 1 (b = 1)\n");
    let mut t = Table::new(["class", "n", "rounds to last decision", "phases"]);
    for class in ClassId::ALL {
        for extra in [0usize, 2, 6, 12] {
            let n = class.min_n(0, 1) + extra;
            let s = spec(class, n, 1);
            let inits: Vec<u64> = (0..n as u64).collect();
            let out = run_synchronous(&s, &inits, 30);
            assert!(out.all_correct_decided);
            let rounds = out.last_decision_round().unwrap().number();
            assert_eq!(
                rounds as usize,
                class.rounds_per_phase(),
                "one good phase suffices"
            );
            t.row([
                class.to_string(),
                n.to_string(),
                rounds.to_string(),
                "1".to_string(),
            ]);
        }
    }
    t.print();

    println!("\n## With a global stabilization time (class 3, n = 4, b = 1, loss 0.7)\n");
    println!("Latency beyond GST, percentiles over 24 seeds per GST (rounds):\n");
    let mut t2 = Table::new(["GST round", "p50", "p90", "p99", "max", "mean"]);
    let s3 = spec(ClassId::Three, 4, 1);
    for gst in [1u64, 4, 7, 13] {
        // Per-(GST, seed) latencies aggregate into one histogram per GST.
        let hist = Histogram::default();
        for seed in 1u64..=24 {
            let out = run_scenario(
                &s3,
                &[1, 2, 3, 4],
                Gst::new(gst, 0.7, seed),
                CrashPlan::none(),
                Vec::new(),
                gst + 40,
            );
            assert!(out.all_correct_decided, "gst {gst} seed {seed}");
            let decided = out.last_decision_round().unwrap().number();
            // Rounds past stabilization until the last correct process
            // decided (pre-GST decisions count as 1: the lucky case).
            hist.record(decided.saturating_sub(gst).max(1));
        }
        assert!(
            hist.max() <= 5,
            "gst {gst}: worst decision {} rounds after GST should land in \
             the first whole phase after stabilization",
            hist.max()
        );
        t2.row([
            gst.to_string(),
            hist.p50().to_string(),
            hist.quantile(0.9).to_string(),
            hist.p99().to_string(),
            hist.max().to_string(),
            format!("{:.1}", hist.mean()),
        ]);
    }
    t2.print();

    println!("\n## Benign classes with a crash fault (f = 1, mid-broadcast, round 2)\n");
    let mut t3 = Table::new(["class", "n", "crashed", "decided at round"]);
    for class in ClassId::ALL {
        let n = class.min_n(1, 0);
        let cfg = Config::benign(n, 1).expect("config");
        let s = AlgorithmSpec {
            name: "generic",
            class,
            model: "benign",
            bound: class.n_bound(),
            params: Params::for_class(class, cfg).expect("params"),
        };
        let inits: Vec<u64> = (0..n as u64).collect();
        let crash = CrashPlan::none().with(
            ProcessId::new(n - 1),
            CrashAt::mid_send(Round::new(2), n / 2),
        );
        let out = run_scenario(&s, &inits, gencon_sim::AlwaysGood, crash, Vec::new(), 40);
        assert!(out.all_correct_decided, "{class}: crash must not block");
        t3.row([
            class.to_string(),
            n.to_string(),
            format!("p{} @ r2", n - 1),
            out.last_decision_round().unwrap().number().to_string(),
        ]);
    }
    t3.print();

    println!("\nShape check vs the paper: class 1 = 2 rounds/phase, classes 2–3 = 3;");
    println!("a good phase decides immediately; crashes cost at most extra phases.");
}
