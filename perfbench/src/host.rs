//! The host fingerprint printed next to every result, and peak memory.

use std::process::Command;

/// The CPU brand string from `cpuid`, or `unknown`.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        let max = __cpuid(0x8000_0000).eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let brand = String::from_utf8_lossy(&bytes);
            let brand = brand.trim_matches(char::from(0)).trim();
            if !brand.is_empty() {
                return brand.to_string();
            }
        }
    }
    String::from("unknown")
}

/// Whether the kernels' AVX2 builds dispatch on this host (the same runtime
/// check the kernels make).
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| String::from("unknown"))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The host fingerprint as one JSON object: CPU model, `nproc`, AVX2
/// dispatch, worker threads per process, rustc version and git commit.
///
/// Spawns `rustc` and `git` and waits for both.
pub fn fingerprint(threads: usize, processes: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        String::from("unknown (not a git checkout)")
    };
    format!(
        "{{\"cpu\":{},\"nproc\":{nproc},\"avx2\":{},\"threads\":{threads},\"processes\":{processes},\"rustc\":{},\"commit\":{}}}",
        json_str(&cpu_model()),
        avx2(),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&commit),
    )
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
///
/// `getrusage` is not used: its `ru_maxrss` survives `exec`, so it would
/// report the launching process's peak when that was larger.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
