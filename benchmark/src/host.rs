//! What every output records about the machine and the build, so numbers
//! from different hosts are never compared by accident.

use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use svr_server::Json;

/// Iterations of the calibration loop: fixed, so its time compares hosts.
const SPIN_ITERATIONS: u64 = 50_000_000;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Milliseconds one core takes for a fixed dependent multiply-add chain.
pub fn spin_calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..SPIN_ITERATIONS {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median milliseconds of eight 4 KiB append + `fdatasync` rounds on a
/// scratch file in `dir`.
fn fsync_probe_ms(dir: &Path) -> std::io::Result<f64> {
    let path = dir.join(format!(".fsync-probe-{}", std::process::id()));
    let mut file = std::fs::File::create(&path)?;
    let mut rounds = Vec::new();
    for _ in 0..8 {
        file.write_all(&[0x5A; 4096])?;
        let start = Instant::now();
        file.sync_data()?;
        rounds.push(start.elapsed().as_secs_f64() * 1e3);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(crate::trace::median(&mut rounds))
}

/// An `fdatasync` this slow is the host's block device stalling, not the
/// program: it costs 0.1-0.2 ms in this sandbox, and stalls of 20x that
/// lasting a minute were observed while nothing here was writing.
const STALLED_FSYNC_MS: f64 = 3.0;
const STALL_PATIENCE: Duration = Duration::from_secs(45);

/// Wait (bounded) until the block device under `dir` answers `fdatasync`
/// at its normal speed, so a window does not start inside a host I/O
/// stall. Judges the raw device with a file of its own: nothing the
/// program under test does can make it wait. Returns the seconds waited.
pub fn wait_for_quiet_disk(dir: &Path) -> f64 {
    let start = Instant::now();
    while start.elapsed() < STALL_PATIENCE {
        match fsync_probe_ms(dir) {
            Ok(ms) if ms > STALLED_FSYNC_MS => std::thread::sleep(Duration::from_millis(500)),
            _ => break,
        }
    }
    start.elapsed().as_secs_f64()
}

pub fn record() -> Json {
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("spin_calibration_ms", Json::from(spin_calibration_ms())),
        ("rustc", Json::from(first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            Json::from(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_record_has_its_fields() {
        let r = record();
        assert!(r.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
        assert!(r.get("spin_calibration_ms").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(r.get("rustc").and_then(Json::as_str).is_some());
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn a_quiet_disk_is_not_waited_for() {
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        assert!(fsync_probe_ms(&dir).unwrap() > 0.0);
        assert!(wait_for_quiet_disk(&dir) < STALL_PATIENCE.as_secs_f64() + 5.0);
    }
}
