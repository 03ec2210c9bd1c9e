//! Process memory probes (Linux `/proc/self`).

/// Reads a `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`, ...) in MB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size since the last [`reset_peak`] (`VmHWM`), MB.
pub fn peak_mb() -> Option<f64> {
    status_mb("VmHWM")
}

/// Current resident set size (`VmRSS`), MB.
#[cfg(test)]
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS")
}

/// Resets the peak-RSS high-water mark to the current RSS (writing `5`
/// to `/proc/self/clear_refs`). Returns whether the kernel accepted it.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rises_with_touched_memory_and_resets() {
        let base = peak_mb().expect("VmHWM readable");
        assert!(base > 0.0);
        let block = vec![1u8; 96 << 20];
        assert!(std::hint::black_box(&block)
            .iter()
            .step_by(4096)
            .all(|&b| b == 1));
        let raised = peak_mb().unwrap();
        assert!(
            raised >= base + 64.0,
            "peak {raised} MB after touching 96 MB (base {base})"
        );
        drop(block);
        if !reset_peak() {
            eprintln!("clear_refs not writable here; skipping the reset half");
            return;
        }
        let after = peak_mb().unwrap();
        assert!(
            after < raised - 64.0,
            "peak {after} MB after reset (was {raised})"
        );
        assert!(
            after <= rss_mb().unwrap() + 1.0,
            "reset peak tracks current RSS"
        );
    }
}
