//! The environment a result was measured in, recorded in every result
//! so two files can be told apart before their numbers are compared.

use crate::json::Json;
use std::process::Command;

/// Where and with what a run was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// `rustc -V`.
    pub rustc: String,
}

impl Environment {
    /// Probe the current machine and checkout.
    pub fn capture() -> Environment {
        Environment {
            nproc: nproc(),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            git_commit: first_line("git", &["rev-parse", "HEAD"]),
            rustc: first_line("rustc", &["-V"]),
        }
    }

    /// Render for a result file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("git_commit", Json::str(&self.git_commit)),
            ("rustc", Json::str(&self.rustc)),
        ])
    }

    /// Read back what [`to_json`](Self::to_json) wrote.
    pub fn from_json(doc: &Json) -> Result<Environment, String> {
        let text = |name: &str| {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("environment: missing `{name}`"))
        };
        Ok(Environment {
            nproc: doc.get("nproc").and_then(Json::as_f64).ok_or("environment: missing `nproc`")?
                as usize,
            cpu_model: text("cpu_model")?,
            git_commit: text("git_commit")?,
            rustc: text("rustc")?,
        })
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// First stdout line of a short-lived helper command, `unknown` when it
/// is missing or fails. `output()` waits for the child to exit.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|l| l.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_round_trips_through_json() {
        let env = Environment::capture();
        assert!(env.nproc >= 1);
        assert!(!env.rustc.is_empty() && !env.git_commit.is_empty());
        assert_eq!(Environment::from_json(&env.to_json()).unwrap(), env);
        assert!(Environment::from_json(&Json::Obj(vec![])).is_err());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
