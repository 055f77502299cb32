//! The calibration kernel and the bracketed sampler built on it.
//!
//! This VM's speed moves between regimes that last seconds to minutes (the
//! same campaign took 128 ms in one process and 184 ms in the next), and
//! within a regime some samples are disturbed for a few hundred
//! milliseconds. A raw wall time therefore cannot repeat within a tenth.
//! Every timed span is followed by a frozen kernel, a sample is
//! `wall_i / kernel_i`, and a timing metric is
//!
//! ```text
//! CALIB_REF_MS × median(samples)
//! ```
//!
//! — milliseconds at the speed of a machine on which the kernel takes
//! `CALIB_REF_MS`. Pairing each span with the kernel run right after it is
//! what cancels a regime change in the middle of a run; across a 42 %
//! regime shift the calibrated median moved by under 5 %.
//!
//! The kernel calls no repository code, so a change to the engine cannot
//! move it. It is allocation-heavy with a growing live set on purpose: the
//! campaigns it normalises are dominated by small-node allocation, clone
//! and pointer chasing, and a cache-resident arithmetic kernel tracked them
//! badly across regimes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::inputs::Rng;
use crate::stats::quantile;

/// Kernel time on the reference machine, milliseconds. A constant: changing
/// it rescales every `ref_ms` metric and invalidates committed baselines.
pub const CALIB_REF_MS: f64 = 25.0;

/// What [`kernel`] must return; anything else means the kernel was edited
/// (or miscompiled) and calibrated numbers are no longer comparable.
pub const KERNEL_CHECKSUM: u64 = 11_337_651_719_497_100_768;

const KERNEL_KEYS: usize = 400;
const KERNEL_MAPS: usize = 300;

/// The frozen kernel: builds one `BTreeMap<String, Vec<u8>>`, clones it
/// `KERNEL_MAPS` times *keeping every clone alive* (so the live set grows
/// to 13 MiB in a quarter of a million small blocks), re-walks all of
/// them, and frees them.
pub fn kernel() -> u64 {
    let mut rng = Rng::new(0x00C0_FFEE);
    let mut base: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for _ in 0..KERNEL_KEYS {
        let r = rng.next_u64();
        base.insert(
            format!("key-{:08}", r % 100_000_000),
            vec![(r >> 40) as u8; 8 + (r % 25) as usize],
        );
    }
    let mut live: Vec<BTreeMap<String, Vec<u8>>> = Vec::with_capacity(KERNEL_MAPS);
    for i in 0..KERNEL_MAPS {
        let mut map = black_box(&base).clone();
        map.insert(format!("clone-{i:05}"), vec![i as u8; 16]);
        live.push(map);
    }
    let mut sum = 0u64;
    for map in black_box(&live) {
        for (key, value) in map {
            let bytes: u64 = value.iter().map(|&b| u64::from(b)).sum();
            sum = sum.wrapping_mul(31).wrapping_add(key.len() as u64 + bytes);
        }
    }
    sum
}

/// One bracketed measurement.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Raw wall time of the bracketed work, milliseconds.
    pub wall_ms: f64,
    /// The timed kernel run that followed it, milliseconds.
    pub calib_ms: f64,
}

impl Sample {
    /// Work time in units of the kernel run next to it.
    pub fn ratio(&self) -> f64 {
        self.wall_ms / self.calib_ms
    }
}

/// Runs the kernel after pieces of work and keeps every timed run.
///
/// The kernel runs in a child process of its own (this executable again,
/// started with [`KERNEL_SERVER_FLAG`]). In this process it would draw its
/// quarter-million blocks from the free lists the measured work leaves
/// behind — a run after a 50 MB campaign took 24 ms, after a 1 MB one
/// 16 ms, so it measured the engine's leftovers, which a calibration must
/// not. A helper thread was no way out either: a second thread switches
/// glibc's allocator to locked operations and slowed the campaigns
/// themselves by a sixth. While the child computes, this process blocks on
/// the pipe.
pub struct Calibrator {
    kernel_ms: Vec<f64>,
    child: Child,
    request: Option<ChildStdin>,
    reply: BufReader<ChildStdout>,
}

/// The hidden argument that turns this executable into the kernel server.
pub const KERNEL_SERVER_FLAG: &str = "--kernel-server";

/// The server's loop: for every byte of `requests`, one settling run
/// (untimed) and one timed run, whose milliseconds go to `replies` as one
/// line. Ends with the request stream.
pub fn serve_kernel(mut requests: impl Read, mut replies: impl Write) -> io::Result<()> {
    let mut byte = [0u8; 1];
    while requests.read(&mut byte)? == 1 {
        timed_kernel();
        writeln!(replies, "{:?}", timed_kernel())?;
        replies.flush()?;
    }
    Ok(())
}

impl Calibrator {
    /// Starts the kernel server and takes the first reading (after one that
    /// pays the first-touch page faults), so a level exists before anything
    /// is bracketed.
    pub fn new() -> io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(KERNEL_SERVER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let request = child.stdin.take();
        let reply = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut calibrator = Calibrator {
            kernel_ms: Vec::new(),
            child,
            request,
            reply,
        };
        calibrator.settle_and_time();
        calibrator.kernel_ms.clear();
        calibrator.settle_and_time();
        Ok(calibrator)
    }

    fn settle_and_time(&mut self) -> f64 {
        let request = self.request.as_mut().expect("open until drop");
        request
            .write_all(b"k")
            .and_then(|()| request.flush())
            .expect("the kernel server is alive");
        let mut line = String::new();
        self.reply
            .read_line(&mut line)
            .expect("the kernel server replies");
        let ms: f64 = line.trim().parse().expect("the reply is a time");
        self.kernel_ms.push(ms);
        ms
    }

    /// Times `work`, then the kernel.
    pub fn bracket<T>(&mut self, work: impl FnOnce() -> T) -> (T, Sample) {
        let started = Instant::now();
        let value = work();
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let calib_ms = self.settle_and_time();
        (value, Sample { wall_ms, calib_ms })
    }

    /// Every timed kernel run so far, milliseconds.
    pub fn kernel_ms(&self) -> &[f64] {
        &self.kernel_ms
    }
}

/// The time of a span at reference speed, read at quantile `q` of its
/// samples.
pub fn ref_ms_at(samples: &[Sample], q: f64) -> f64 {
    let ratios: Vec<f64> = samples.iter().map(Sample::ratio).collect();
    CALIB_REF_MS * quantile(&ratios, q)
}

/// The calibrated time of a span: [`ref_ms_at`] the median.
pub fn ref_ms(samples: &[Sample]) -> f64 {
    ref_ms_at(samples, 0.5)
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // End of stdin ends the server's loop; then wait for it.
        self.request = None;
        let _ = self.child.wait();
    }
}

fn timed_kernel() -> f64 {
    let started = Instant::now();
    let checksum = black_box(kernel());
    let ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(checksum, KERNEL_CHECKSUM, "calibration kernel checksum");
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_checksum_is_the_frozen_constant() {
        assert_eq!(kernel(), KERNEL_CHECKSUM);
        assert_eq!(kernel(), KERNEL_CHECKSUM, "kernel is not deterministic");
    }

    #[test]
    fn the_server_answers_every_request_byte_with_one_time() {
        let mut replies = Vec::new();
        serve_kernel(&b"kk"[..], &mut replies).expect("in-memory streams");
        let text = String::from_utf8(replies).expect("replies are text");
        let times: Vec<f64> = text
            .lines()
            .map(|line| line.parse().expect("a time in milliseconds"))
            .collect();
        assert_eq!(times.len(), 2);
        assert!(times.iter().all(|&ms| ms > 0.0));
    }

    #[test]
    fn ref_ms_is_the_median_ratio_at_reference_speed() {
        let sample = |wall_ms, calib_ms| Sample { wall_ms, calib_ms };
        // Ratios 5, 1, 3, 2, 4.
        let samples = [
            sample(100.0, 20.0),
            sample(30.0, 30.0),
            sample(60.0, 20.0),
            sample(50.0, 25.0),
            sample(40.0, 10.0),
        ];
        assert_eq!(ref_ms(&samples), CALIB_REF_MS * 3.0);
        assert_eq!(ref_ms_at(&samples, 0.25), CALIB_REF_MS * 2.0);
        assert_eq!(ref_ms(&samples[..1]), CALIB_REF_MS * 5.0);
    }
}
