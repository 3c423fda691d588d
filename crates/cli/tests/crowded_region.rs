//! `fading generate` on a region too small for its links exits non-zero
//! with a message instead of looping forever.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn generate_on_a_subnormal_side_exits_with_a_message() {
    let out = std::env::temp_dir().join("fading_crowded_region.json");
    std::fs::remove_file(&out).ok();
    let mut child = Command::new(env!("CARGO_BIN_EXE_fading"))
        .args(["generate", "--n", "5", "--side", "5e-324", "--out"])
        .arg(&out)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // A regression would hang; fail the test instead.
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("`fading generate --side 5e-324` did not return");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("output");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("error: cannot place 5 links"),
        "stderr: {stderr}"
    );
    assert!(!out.exists(), "no instance file on failure");
}
