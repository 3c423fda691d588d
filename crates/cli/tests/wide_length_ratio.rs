//! `fading schedule` on instances at the edge of the geometry: a
//! length ratio of 10⁴ schedules at once with the elimination
//! schedulers instead of walking a quadratic query box, and a link
//! whose squared length overflows is rejected with a message instead
//! of panicking in the scheduler.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// A link's `((sender x, y), (receiver x, y))`.
type Endpoints = ((f64, f64), (f64, f64));

/// Writes `links` as an instance file.
fn instance(name: &str, links: &[Endpoints]) -> PathBuf {
    let links: Vec<String> = links
        .iter()
        .enumerate()
        .map(|(id, ((sx, sy), (rx, ry)))| {
            format!(
                r#"{{"id":{id},"sender":{{"x":{sx:e},"y":{sy:e}}},"receiver":{{"x":{rx:e},"y":{ry:e}}},"rate":1.0}}"#
            )
        })
        .collect();
    let json = format!(
        r#"{{"region":{{"x0":0.0,"y0":0.0,"x1":1e8,"y1":1e8}},"links":[{}]}}"#,
        links.join(",")
    );
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, json).expect("instance written");
    path
}

/// Runs `fading schedule --instance <path> --algo <algo>`, failing the
/// test instead of hanging if it runs past a minute.
fn schedule(path: &Path, algo: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fading"))
        .args(["schedule", "--algo", algo, "--instance"])
        .arg(path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("`fading schedule --algo {algo}` did not return");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("output")
}

#[test]
fn elimination_schedulers_handle_a_length_ratio_of_ten_thousand() {
    let path = instance(
        "fading_wide_length_ratio.json",
        &[((0.0, 0.0), (1.0, 0.0)), ((1e7, 0.0), (1e7 + 1e4, 0.0))],
    );
    for algo in ["rle", "approx-diversity"] {
        let out = schedule(&path, algo);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{algo}: stderr {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("scheduled 2 of 2 links"),
            "{algo}: {stdout}"
        );
    }
}

#[test]
fn a_link_whose_squared_length_overflows_is_rejected() {
    let path = instance(
        "fading_overlong_link.json",
        &[((-8e307, 0.0), (8e307, 0.0))],
    );
    let out = schedule(&path, "rle");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("link l0 is too long: its squared length overflows f64"),
        "stderr: {stderr}"
    );
}
