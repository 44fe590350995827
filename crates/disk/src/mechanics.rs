//! Request service-time model.
//!
//! The paper's simulation serves whole files: a request for file `f` of size
//! `s` occupies the disk for `seek + rotation + s / transfer_rate` seconds
//! (§4: "the mean size of files … is 544 MB, which incurred about 7.56 sec of
//! service time when the disk transmission rate is 72 MBps" — i.e. the
//! transfer component dominates). Partial reads are modelled by scaling the
//! byte count.

use crate::spec::DiskSpec;

/// What kind of request is being serviced. The paper focuses on reads;
/// writes are modelled with the same mechanics (and the same active power),
/// matching its "write to a spinning disk" policy discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read the bytes of a file.
    Read,
    /// Write the bytes of a file.
    Write,
}

/// Breakdown of one request's service time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceBreakdown {
    /// Head positioning time.
    pub seek_s: f64,
    /// Rotational latency.
    pub rotation_s: f64,
    /// Media transfer time.
    pub transfer_s: f64,
}

impl ServiceBreakdown {
    /// Total service time.
    pub fn total(&self) -> f64 {
        self.seek_s + self.rotation_s + self.transfer_s
    }
}

/// Computes service times for a given drive.
///
/// Stateless and cheap to copy; wraps a [`DiskSpec`] reference-free so it can
/// be embedded in simulator actors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceTimer {
    seek_s: f64,
    rotation_s: f64,
    transfer_rate_bps: f64,
}

impl ServiceTimer {
    /// Build from a drive spec.
    pub fn new(spec: &DiskSpec) -> Self {
        ServiceTimer {
            seek_s: spec.avg_seek_s,
            rotation_s: spec.avg_rotation_s,
            transfer_rate_bps: spec.transfer_rate_bps,
        }
    }

    /// Service-time breakdown for transferring `bytes` bytes.
    pub fn breakdown(&self, bytes: u64) -> ServiceBreakdown {
        ServiceBreakdown {
            seek_s: self.seek_s,
            rotation_s: self.rotation_s,
            transfer_s: bytes as f64 / self.transfer_rate_bps,
        }
    }

    /// Total service time for transferring `bytes` bytes.
    ///
    /// This is the paper's `µ_i = f(s_i)`.
    pub fn service_time(&self, bytes: u64) -> f64 {
        self.breakdown(bytes).total()
    }

    /// Service time ignoring positioning overheads — the transfer-only model
    /// the paper uses when it quotes "544 MB ⇒ 7.56 s at 72 MB/s" and when it
    /// defines the load `l_i = r_i · s_i` normalised by transfer rate.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.transfer_rate_bps
    }

    /// Transfer rate in bytes per second.
    pub fn transfer_rate_bps(&self) -> f64 {
        self.transfer_rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MB;

    fn timer() -> ServiceTimer {
        ServiceTimer::new(&DiskSpec::seagate_st3500630as())
    }

    #[test]
    fn paper_example_544mb_is_7_56s_transfer() {
        // §5.1: 544 MB at 72 MB/s ≈ 7.56 s
        let t = timer().transfer_time(544 * MB);
        assert!((t - 7.5555).abs() < 0.01, "transfer time was {t}");
    }

    #[test]
    fn service_time_includes_positioning() {
        let t = timer();
        let total = t.service_time(544 * MB);
        let transfer = t.transfer_time(544 * MB);
        assert!((total - transfer - (8.5e-3 + 4.16e-3)).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let t = timer();
        for bytes in [0u64, 1, 188 * MB, 20_000 * MB] {
            let b = t.breakdown(bytes);
            assert!((b.total() - t.service_time(bytes)).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_byte_request_costs_positioning_only() {
        let t = timer();
        assert!((t.service_time(0) - (t.seek_s + t.rotation_s)).abs() < 1e-15);
    }

    #[test]
    fn service_time_is_monotone_in_size() {
        let t = timer();
        let mut last = 0.0;
        for bytes in [1u64, MB, 10 * MB, 100 * MB, 1000 * MB] {
            let s = t.service_time(bytes);
            assert!(s > last);
            last = s;
        }
    }

    #[test]
    fn faster_disk_serves_faster() {
        let slow = ServiceTimer::new(&DiskSpec::archival_5400());
        let fast = ServiceTimer::new(&DiskSpec::enterprise_15k());
        assert!(fast.service_time(500 * MB) < slow.service_time(500 * MB));
    }
}
