//! Stopwatch wrappers over the experiment harness: every table/figure
//! regenerates under `cargo bench` (fast mode), timing the full experiment
//! pipeline. The primary artifacts are the printed reports from the `e*`
//! binaries; these benches guarantee the experiments stay runnable and give
//! a wall-clock baseline per experiment.

use rqp_bench::stopwatch::Group;

macro_rules! exp_bench {
    ($group:literal, $($name:ident),+ $(,)?) => {{
        let g = Group::new($group);
        $(
            g.bench(stringify!($name), || {
                let report = rqp_bench::$name(true);
                assert!(!report.is_empty());
                report.len()
            });
        )+
    }};
}

fn main() {
    // Experiments write their artifacts to `RQP_EXP_OUTPUT`, defaulting to
    // the committed `exp_output/` baseline, which these fast-mode runs must
    // not overwrite: send them to a fresh temp dir. No other thread exists
    // yet, so setting the variable cannot race a reader.
    let out = std::env::temp_dir().join(format!("rqp_bench_robustness_{}", std::process::id()));
    std::env::set_var("RQP_EXP_OUTPUT", &out);
    exp_bench!("pop_figures", e01_pop_aggregate, e02_pop_ratio, e03_pop_scatter);
    exp_bench!("seminar_benchmarks", e04_tractor_pull, e05_extrinsic, e06_equivalence);
    exp_bench!(
        "optimizer_robustness",
        e07_smoothness,
        e09_robust_opt,
        e10_plan_diagram,
        e20_rio,
        e21_stats_refresh,
    );
    exp_bench!("estimation", e08_card_metrics, e19_leo, e22_blackhat);
    exp_bench!("execution", e11_cracking, e16_agreedy, e17_eddy, e18_gjoin);
    exp_bench!("resources", e12_advisor, e13_fmt, e14_fpt, e15_mixed);
    exp_bench!("ablations", a01_pop_theta, a02_amerge_runsize, a03_eddy_decay);
    let _ = std::fs::remove_dir_all(&out);
}
