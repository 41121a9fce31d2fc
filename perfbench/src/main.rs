//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--trace-out <file>]`
//!
//! Prints the host, the sample counts, and as its last line the result
//! object. Exits non-zero, without a result, on bad arguments or when a
//! kernel-policy variable is set.

use perfbench::{
    host, reference_pass, reference_report, run, Plan, References, Report, Sizes, Workload,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <protect|hpl-ft|service-storm> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // internal: serve the named workload's reference pass to a parent run
    let reference = args.iter().any(|a| a == "--reference");
    args.retain(|a| a != "--reference");
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(v),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0 && s.is_finite()),
            "--trace" => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            "--trace-out" => trace_out = Some(v.clone()),
            _ => return usage(&format!("unknown argument {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let overrides = host::kernel_env_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: every number must measure the default kernel policy",
            overrides.join(", ")
        );
        return ExitCode::from(3);
    }

    let plan = Plan {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::full(),
    };
    if reference {
        return serve_reference(&plan);
    }
    let host = host::Host::probe();
    println!("{{\"host\": {}}}", host.to_json());
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate its own executable");
        return ExitCode::from(1);
    };
    let mut children = Children {
        exe,
        plan,
        running: Vec::new(),
    };
    let report = run(&plan, &mut children);
    drop(children);
    if let Some(path) = trace_out {
        let body = format!(
            "{{\"host\":{}}}\n{}",
            host.to_json(),
            perfbench::trace::to_jsonl(&report.spans)
        );
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("perfbench: cannot write the trace to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{{\"samples\": {}}}", report.notes_json());
    println!("{}", report.result_json(trace));
    ExitCode::SUCCESS
}

/// The child side of a reference pass: one operation per `unit` line on
/// standard input, answered `done`; on `finish` (or end of input) the
/// report's lines, then exit.
fn serve_reference(plan: &Plan) -> ExitCode {
    let mut pass = reference_pass(plan);
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        match line.as_deref() {
            Ok("unit") => {
                pass.unit();
                if writeln!(out, "done").and_then(|()| out.flush()).is_err() {
                    return ExitCode::from(1);
                }
            }
            Ok("finish") => break,
            _ => return ExitCode::from(1),
        }
    }
    let lines = reference_report(pass.as_ref(), plan.trace).to_lines(plan.trace);
    match out.write_all(lines.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::from(1),
    }
}

/// Reference passes, each in a child process of this executable that
/// runs one operation at a time on request; only one process computes at
/// any moment.
struct Children {
    exe: PathBuf,
    plan: Plan,
    running: Vec<(Workload, Child, ChildStdin, BufReader<ChildStdout>)>,
}

impl Children {
    fn child(&mut self, w: Workload) -> Result<usize, String> {
        if let Some(i) = self.running.iter().position(|c| c.0 == w) {
            return Ok(i);
        }
        let mut child = Command::new(&self.exe)
            .args([
                "--workload",
                w.name(),
                "--seed",
                &self.plan.seed.to_string(),
            ])
            .args(["--seconds", &self.plan.seconds.to_string()])
            .args([
                "--trace",
                if self.plan.trace { "1" } else { "0" },
                "--reference",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        self.running.push((w, child, stdin, stdout));
        Ok(self.running.len() - 1)
    }
}

impl References for Children {
    fn unit(&mut self, w: Workload) -> Result<(), String> {
        let i = self.child(w)?;
        let (_, _, stdin, stdout) = &mut self.running[i];
        writeln!(stdin, "unit").map_err(|e| e.to_string())?;
        stdin.flush().map_err(|e| e.to_string())?;
        let mut reply = String::new();
        stdout.read_line(&mut reply).map_err(|e| e.to_string())?;
        match reply.trim() {
            "done" => Ok(()),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    fn finish(&mut self, w: Workload) -> Result<Report, String> {
        let i = self.child(w)?;
        let (_, mut child, mut stdin, mut stdout) = self.running.remove(i);
        writeln!(stdin, "finish").map_err(|e| e.to_string())?;
        drop(stdin);
        let mut text = String::new();
        stdout
            .read_to_string(&mut text)
            .map_err(|e| e.to_string())?;
        let status = child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("exited with {status}"));
        }
        Report::from_lines(&text, self.plan.trace)
    }
}

impl Drop for Children {
    /// A pass that was never finished (the run stopped early) is stopped
    /// here, and waited for.
    fn drop(&mut self) {
        for (_, mut child, _, _) in self.running.drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
