//! Regenerates **Fig. 4** — runtime comparison of Baseline vs. Comp. vs.
//! Ours under the two solver presets (4a: Kissat-like, 4c: CaDiCaL-like).
//!
//! ```text
//! CSAT_SCALE=standard cargo run --release -p bench --bin run_fig4 -- --solver kissat
//! cargo run --release -p bench --bin run_fig4 -- --solver both --csv fig4.csv
//! ```

use bench::experiments::{
    exit_on_wrong, fig4, records_to_csv, render_arms, trained_agent, Arm, Scale,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let solver = flag_value(&args, "--solver").unwrap_or_else(|| "both".to_string());
    let csv_path = flag_value(&args, "--csv");
    let scale = Scale::from_env(Scale::standard());

    println!(
        "== Fig. 4: runtime comparison ({} test instances, budget {} conflicts, TO penalty {:.0}s) ==",
        scale.test_count, scale.budget_conflicts, scale.penalty_secs
    );
    println!("training RL agent ({} episodes)...", scale.episodes);
    let agent = trained_agent(&scale);

    let mut all_csv = String::new();
    let mut all_arms: Vec<Arm> = Vec::new();
    let solvers: Vec<&str> = match solver.as_str() {
        "both" => vec!["kissat", "cadical"],
        s => vec![s],
    };
    for s in solvers {
        let fig = if s == "kissat" { "4(a)" } else { "4(c)" };
        println!("\n-- Fig. {fig}: solver preset '{s}' --");
        let arms = fig4(&scale, s, Some(agent.clone()));
        print!("{}", render_arms(&arms, scale.penalty_secs));
        let base = arms[0].total_secs(scale.penalty_secs);
        let ours = arms[2].total_secs(scale.penalty_secs);
        let comp = arms[1].total_secs(scale.penalty_secs);
        println!(
            "reduction vs Baseline: {:.1}%   vs Comp.: {:.1}%   (paper, CaDiCaL: 63.0% / 35.2%)",
            100.0 * (1.0 - ours / base),
            100.0 * (1.0 - ours / comp)
        );
        all_csv.push_str(&records_to_csv(&arms));
        all_arms.extend(arms);
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, all_csv).expect("write csv");
        println!("\nrecords written to {path}");
    }
    exit_on_wrong(all_arms.iter().flat_map(|a| &a.records));
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}
