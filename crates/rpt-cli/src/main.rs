//! `rpt` — the plug-and-play binary. All logic lives in the library; this
//! is argv handling and exit codes only.

use rpt_cli::{finish_observability, init_observability, parse, run, usage, CliError};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match real_main(&args) {
        Ok(report) => {
            print!("{report}");
            0
        }
        Err(CliError::Usage(msg)) => {
            // Usage errors always reach the terminal: the user asked for
            // something malformed before any log level could apply.
            eprintln!("error: {msg}\n\n{}", usage());
            2
        }
        Err(e) => {
            rpt_obs::error!(target: "rpt_cli", "{e}");
            1
        }
    };
    finish_observability();
    std::process::exit(code);
}

fn real_main(args: &[String]) -> Result<String, CliError> {
    let (cmd, obs) = parse(args, |var| std::env::var(var).ok())?;
    init_observability(&obs)?;
    run(cmd)
}
