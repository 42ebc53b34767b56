//! End-to-end tests for the `genus` CLI binary: tiered exit codes,
//! `--error-format` selection, warnings on successful runs, and the
//! machine-readable JSON mode round-tripping through a JSON parser.

use genus::json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_genus"))
}

/// Writes `src` under the target tmp dir and returns its path.
fn source_file(name: &str, src: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let path = dir.join(name);
    std::fs::write(&path, src).expect("write source");
    path
}

fn run_cli(args: &[&str], file: &PathBuf) -> Output {
    bin()
        .args(args)
        .arg(file)
        .output()
        .expect("spawn genus binary")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn success_exits_zero() {
    let f = source_file("ok.genus", "int main() { return 21 * 2; }");
    let out = run_cli(&["run"], &f);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "=> 42\n");
}

#[test]
fn compile_errors_exit_one() {
    let f = source_file("bad.genus", "int main() { return undefined_var; }");
    let out = run_cli(&["run"], &f);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    // Human format is the CLI default: snippet with carets.
    assert!(err.contains("error[E0502]"), "{err}");
    assert!(err.contains("^^^"), "{err}");
}

#[test]
fn runtime_traps_exit_three() {
    let f = source_file(
        "trap.genus",
        "int main() { int[] a = new int[2]; return a[5]; }",
    );
    let out = run_cli(&["run"], &f);
    assert_eq!(out.status.code(), Some(3));
    assert!(
        stderr_of(&out).contains("error[R0003]"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn usage_and_io_errors_exit_two() {
    let out = bin().output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "no arguments is a usage error");
    let out = bin()
        .args(["run", "/nonexistent/missing.genus"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unreadable file is an I/O error"
    );
    let f = source_file("ok2.genus", "int main() { return 0; }");
    let out = run_cli(&["run", "--bogus-flag"], &f);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown option is a usage error"
    );
}

#[test]
fn warnings_print_on_success_and_deny_warnings_fails() {
    let f = source_file("warn.genus", "int main() { return 1; int x = 2; }");
    let out = run_cli(&["run", "--error-format=short"], &f);
    assert_eq!(
        out.status.code(),
        Some(0),
        "warnings alone must not fail the run"
    );
    let err = stderr_of(&out);
    assert!(err.contains("warning[W0001]"), "{err}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "=> 1\n");

    let out = run_cli(&["run", "--deny-warnings"], &f);
    assert_eq!(
        out.status.code(),
        Some(1),
        "--deny-warnings promotes warnings"
    );
}

/// `--error-format=json` emits one JSON object per line, and each line
/// round-trips through a JSON parser with the documented fields intact.
#[test]
fn json_diagnostics_round_trip() {
    let f = source_file("bad_json.genus", "int main() { return undefined_var; }");
    let out = run_cli(&["run", "--error-format=json"], &f);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    let mut saw_e0502 = false;
    for line in err.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSON `{line}`: {e}"));
        let code = v
            .get("code")
            .and_then(json::Json::as_str)
            .expect("code field");
        assert!(code.starts_with('E'), "{code}");
        assert_eq!(
            v.get("severity").and_then(json::Json::as_str),
            Some("error")
        );
        assert!(v.get("message").and_then(json::Json::as_str).is_some());
        let spans = v
            .get("spans")
            .and_then(json::Json::as_arr)
            .expect("spans field");
        let primary = &spans[0];
        assert!(primary.get("file").and_then(json::Json::as_str).is_some());
        assert!(primary.get("line").and_then(json::Json::as_num).is_some());
        assert!(primary.get("col").and_then(json::Json::as_num).is_some());
        saw_e0502 |= code == "E0502";
    }
    assert!(saw_e0502, "expected E0502 among: {err}");
}

/// A runtime trap under `--error-format=json` is machine-readable too.
#[test]
fn json_trap_round_trip() {
    let f = source_file("trap_json.genus", "int main() { int z = 0; return 1 / z; }");
    let out = run_cli(&["run", "--error-format=json"], &f);
    assert_eq!(out.status.code(), Some(3));
    let err = stderr_of(&out);
    let line = err.lines().next().expect("one diagnostic line");
    let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSON `{line}`: {e}"));
    assert_eq!(v.get("code").and_then(json::Json::as_str), Some("R0004"));
    assert_eq!(
        v.get("severity").and_then(json::Json::as_str),
        Some("error")
    );
}

/// `genus run --fuel=N` traps `R0009` with exit tier 3 on both engines.
#[test]
fn run_fuel_flag_traps_r0009() {
    let f = source_file(
        "spin.genus",
        "int main() { int i = 0; while (true) { i = i + 1; } return i; }",
    );
    for engine in ["--engine=ast", "--engine=vm"] {
        let out = run_cli(&["run", engine, "--fuel=20000", "--error-format=short"], &f);
        assert_eq!(out.status.code(), Some(3), "{engine}");
        let err = stderr_of(&out);
        assert!(err.contains("R0009"), "{engine}: {err}");
    }
}

/// `genus run --memory=N` traps `R0010` with exit tier 3.
#[test]
fn run_memory_flag_traps_r0010() {
    let f = source_file(
        "alloc.genus",
        "int main() { int i = 0; while (true) { int[] a = new int[512]; i = i + 1; } return i; }",
    );
    let out = run_cli(&["run", "--memory=50000", "--error-format=short"], &f);
    assert_eq!(out.status.code(), Some(3));
    assert!(stderr_of(&out).contains("R0010"), "{}", stderr_of(&out));
}

/// `genus serve` end to end: JSON-lines in, ordered JSON-lines out, with
/// the default fuel budget stopping a looping request.
#[test]
fn serve_session_over_stdin() {
    use std::io::Write;
    let mut child = bin()
        .args(["serve", "--workers=2", "--fuel=50000"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn genus serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            concat!(
                r#"{"id": "a", "source": "int main() { println(\"hi\"); return 7; }"}"#,
                "\n",
                r#"{"id": "b", "source": "int main() { while (true) {} return 0; }"}"#,
                "\n",
            )
            .as_bytes(),
        )
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits at EOF");
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    let first = json::parse(lines[0]).expect("response JSON");
    assert_eq!(first.get("id").and_then(json::Json::as_str), Some("a"));
    assert_eq!(
        first.get("outcome").and_then(json::Json::as_str),
        Some("ok")
    );
    assert_eq!(first.get("value").and_then(json::Json::as_str), Some("7"));
    let second = json::parse(lines[1]).expect("response JSON");
    assert_eq!(second.get("id").and_then(json::Json::as_str), Some("b"));
    assert_eq!(
        second.get("code").and_then(json::Json::as_str),
        Some("R0009")
    );
}

/// `genus serve --cache-dir` end to end: the first process compiles and
/// persists bytecode; a restarted process answers the same request from
/// disk; corrupting every artifact on disk degrades to a clean recompile
/// (same answer, no crash) that heals the files. `--metrics-on-start`
/// prints a parseable metrics JSON line at boot.
#[test]
fn serve_cache_dir_persists_restarts_warm_and_survives_corruption() {
    use std::io::Write;
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve_cache_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let cache_flag = format!("--cache-dir={}", dir.display());
    let request = concat!(
        r#"{"id": "p", "source": "int main() { int s = 0; for (int i = 0; i < 20; i = i + 1) { s = s + i; } return s; }"}"#,
        "\n",
    );
    let serve_once = || {
        let mut child = bin()
            .args(["serve", "--workers=2", &cache_flag, "--metrics-on-start"])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn genus serve");
        child
            .stdin
            .take()
            .expect("stdin")
            .write_all(request.as_bytes())
            .expect("write request");
        child.wait_with_output().expect("serve exits at EOF")
    };
    let assert_answer = |out: &Output| {
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(out));
        let stdout = String::from_utf8(out.stdout.clone()).unwrap();
        let resp = json::parse(stdout.lines().next().expect("one response")).unwrap();
        assert_eq!(resp.get("value").and_then(json::Json::as_str), Some("190"));
        // The boot metrics line is valid JSON with the full schema.
        let err = stderr_of(out);
        let boot = err.lines().next().expect("metrics line");
        let m = json::parse(boot).expect("boot metrics parse");
        assert!(
            m.get("cache").is_some() && m.get("latency").is_some(),
            "{boot}"
        );
        err
    };
    // Cold: compiles, writes artifacts.
    let err = assert_answer(&serve_once());
    assert!(err.contains(" 0 disk hit(s)"), "{err}");
    let artifacts: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "gbc"))
        .collect();
    assert!(!artifacts.is_empty(), "compiles were persisted");
    // Warm restart: the request is served from disk.
    let err = assert_answer(&serve_once());
    assert!(!err.contains(" 0 disk hit(s)"), "{err}");
    // Corrupt every artifact: still the right answer, zero disk hits.
    for p in &artifacts {
        let bytes = std::fs::read(p).unwrap();
        std::fs::write(p, &bytes[..bytes.len() / 3]).unwrap();
    }
    let err = assert_answer(&serve_once());
    assert!(err.contains(" 0 disk hit(s)"), "{err}");
    // ... and the recompile healed the files for the next restart.
    let err = assert_answer(&serve_once());
    assert!(!err.contains(" 0 disk hit(s)"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `genus batch <dir>`: one stats line per file, sorted, with the trap
/// tier in the exit code when a file exhausts its budget.
#[test]
fn batch_runs_a_directory() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("batch_cli");
    std::fs::create_dir_all(&dir).expect("create batch dir");
    std::fs::write(dir.join("a_ok.genus"), "int main() { return 1; }").unwrap();
    std::fs::write(
        dir.join("b_spin.genus"),
        "int main() { while (true) {} return 0; }",
    )
    .unwrap();
    let out = bin()
        .args(["batch", "--fuel=50000"])
        .arg(&dir)
        .output()
        .expect("spawn genus batch");
    assert_eq!(out.status.code(), Some(3), "{}", stderr_of(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].contains("a_ok.genus") && lines[0].contains("ok value=1"),
        "{stdout}"
    );
    assert!(
        lines[1].contains("b_spin.genus") && lines[1].contains("trap R0009"),
        "{stdout}"
    );
}

/// The sessionful protocol end to end: update → check → run through one
/// `genus serve` pipe, with reuse counters on the wire.
#[test]
fn serve_incremental_session_pipeline() {
    use std::io::Write;
    let mut child = bin()
        .args(["serve", "--workers=2"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn genus serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            concat!(
                r#"{"id": "u1", "session": "dev", "action": "update", "source": "int main() { return 40 + 2; }"}"#,
                "\n",
                r#"{"id": "c1", "session": "dev", "action": "check"}"#,
                "\n",
                r#"{"id": "r1", "session": "dev", "action": "run", "engine": "vm"}"#,
                "\n",
            )
            .as_bytes(),
        )
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits at EOF");
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    let update = json::parse(lines[0]).expect("update response");
    assert_eq!(update.get("id").and_then(json::Json::as_str), Some("u1"));
    assert_eq!(
        update.get("value").and_then(json::Json::as_str),
        Some("updated")
    );
    let check = json::parse(lines[1]).expect("check response");
    assert_eq!(
        check.get("value").and_then(json::Json::as_str),
        Some("checked")
    );
    assert!(
        check
            .get("rechecked")
            .and_then(json::Json::as_num)
            .is_some(),
        "{stdout}"
    );
    let run = json::parse(lines[2]).expect("run response");
    assert_eq!(run.get("value").and_then(json::Json::as_str), Some("42"));
    // Nothing changed between the check and the run: the run's check
    // reused every unit verdict — the incremental evidence on the wire.
    let reused = run
        .get("reused")
        .and_then(json::Json::as_num)
        .expect("reused counter");
    assert!(reused > 0.0, "{stdout}");
    assert_eq!(run.get("rechecked").and_then(json::Json::as_num), Some(0.0));
}

/// `genus check --watch` runs one iteration and exits cleanly at stdin
/// EOF, printing the per-iteration reuse statistics line.
#[test]
fn check_watch_single_iteration() {
    let f = source_file("watch_ok.genus", "int main() { return 5; }");
    let out = bin()
        .args(["check", "--watch"])
        .arg(&f)
        .stdin(std::process::Stdio::null())
        .output()
        .expect("spawn genus check --watch");
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("watch: ok"), "{err}");
    assert!(err.contains("re-checked"), "{err}");
    // Errors surface in the exit code at EOF, like plain `genus check`.
    let f = source_file("watch_bad.genus", "int main() { return nope; }");
    let out = bin()
        .args(["check", "--watch", "--error-format=short"])
        .arg(&f)
        .stdin(std::process::Stdio::null())
        .output()
        .expect("spawn genus check --watch");
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("watch: errors"), "{err}");
    assert!(err.contains("E0502"), "{err}");
}

/// A live watch loop re-checks when the file changes and reuses the
/// stdlib's verdicts across iterations.
#[test]
fn check_watch_recheck_on_change() {
    let f = source_file("watch_live.genus", "int main() { return 1; }");
    let mut child = bin()
        .args(["check", "--watch"])
        .arg(&f)
        .stdin(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn genus check --watch");
    // Let the first iteration land, then make a body-only edit with a
    // bumped mtime.
    std::thread::sleep(std::time::Duration::from_millis(400));
    std::fs::write(&f, "int main() { return 2; }").expect("rewrite source");
    std::thread::sleep(std::time::Duration::from_millis(600));
    // Closing stdin ends the loop.
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("watch exits at EOF");
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    let watch_lines: Vec<&str> = err.lines().filter(|l| l.starts_with("watch:")).collect();
    assert!(watch_lines.len() >= 2, "{err}");
    // The second iteration reused the prelude and stdlib verdicts.
    assert!(
        watch_lines[1..].iter().any(|l| l.contains("5 reused")),
        "{err}"
    );
}
