//! Prints every reproduced table and figure of the ReFOCUS paper.
//!
//! ```text
//! cargo run -p refocus-experiments --bin report              # everything
//! cargo run -p refocus-experiments --bin report -- --experiment fig11
//! cargo run -p refocus-experiments --bin report -- --json    # machine-readable
//! cargo run -p refocus-experiments --bin report -- --list
//! ```

use refocus_experiments::{all_experiments, experiment_by_id, REGISTRY};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut wanted: Option<String> = None;
    let mut list = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--experiment" | "-e" => {
                i += 1;
                match args.get(i) {
                    Some(id) => wanted = Some(id.clone()),
                    None => {
                        eprintln!("--experiment needs an id (e.g. fig11)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: report [--experiment <id>] [--json] [--list]");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if list {
        for e in &REGISTRY {
            println!("{:8}  {}", e.id, e.title);
        }
        return ExitCode::SUCCESS;
    }

    let experiments = match wanted {
        Some(id) => match experiment_by_id(&id) {
            Some(e) => vec![e],
            None => {
                eprintln!("unknown experiment id: {id} (try --list)");
                return ExitCode::FAILURE;
            }
        },
        None => all_experiments(),
    };

    if json {
        match serde_json::to_string_pretty(&experiments) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for e in &experiments {
            println!("{e}");
        }
    }
    ExitCode::SUCCESS
}
