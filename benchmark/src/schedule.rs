//! The open-loop (constant-arrival) schedule of `serve-mixed` phase A.
//!
//! Independent users do not wait for each other, so requests are due
//! at fixed instants whatever the server is doing. Every operation is
//! timed **from its due time**: when a stall makes the generator send
//! late, the wait that stall imposed is part of the latency, and how
//! late the generator ran is reported on its own.

use std::time::Duration;

/// What is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One `POST /test`.
    Test,
    /// `POST /edges` + `POST /events` + `POST /commit`, timed as one
    /// durable commit.
    Commit,
    /// One deadline-bound `POST /top-k`.
    TopK,
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    /// Offset from the start of the phase.
    pub at: Duration,
    /// What to send.
    pub kind: OpKind,
    /// Per-kind sequence number (seeds, edge ids).
    pub seq: u64,
}

/// The phase-A mix: `/test` at `test_rate` per second, one commit per
/// `commit_period`, one top-k per `topk_period` starting half a commit
/// period in, so the two heavy streams never fall due together.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Length of the phase.
    pub duration: Duration,
    /// `/test` arrivals per second.
    pub test_rate: f64,
    /// Period of the commit stream.
    pub commit_period: Duration,
    /// Period of the top-k stream.
    pub topk_period: Duration,
}

/// Every operation due in `[0, duration)`, in due order.
pub fn build(mix: Mix) -> Vec<Due> {
    let mut out = Vec::new();
    let gap = Duration::from_secs_f64(1.0 / mix.test_rate);
    let stream = |out: &mut Vec<Due>, kind, first: Duration, period: Duration| {
        let mut seq = 0u64;
        loop {
            let at = first + period.mul_f64(seq as f64);
            if at >= mix.duration {
                break;
            }
            out.push(Due { at, kind, seq });
            seq += 1;
        }
    };
    stream(&mut out, OpKind::Test, Duration::ZERO, gap);
    // Writes start one period in, so the first commit lands on a
    // server that is already serving reads.
    stream(
        &mut out,
        OpKind::Commit,
        mix.commit_period,
        mix.commit_period,
    );
    stream(
        &mut out,
        OpKind::TopK,
        mix.commit_period / 2,
        mix.topk_period,
    );
    out.sort_by(|a, b| {
        a.at.cmp(&b.at)
            .then(kind_order(a.kind).cmp(&kind_order(b.kind)))
    });
    out
}

fn kind_order(kind: OpKind) -> u8 {
    match kind {
        OpKind::Commit => 0,
        OpKind::TopK => 1,
        OpKind::Test => 2,
    }
}

/// Timing of one completed open-loop operation, all offsets from the
/// start of the phase.
#[derive(Debug, Clone, Copy)]
pub struct Completed {
    /// When it was due.
    pub due: Duration,
    /// When the generator actually started sending it.
    pub sent: Duration,
    /// When the full response had arrived.
    pub done: Duration,
}

impl Completed {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent, in milliseconds (0 when on time).
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            duration: Duration::from_secs(2),
            test_rate: 100.0,
            commit_period: Duration::from_millis(500),
            topk_period: Duration::from_millis(1000),
        }
    }

    #[test]
    fn due_times_are_fixed_by_the_mix_alone() {
        let s = build(mix());
        let tests: Vec<&Due> = s.iter().filter(|d| d.kind == OpKind::Test).collect();
        assert_eq!(tests.len(), 200);
        assert_eq!(tests[0].at, Duration::ZERO);
        assert_eq!(tests[150].at, Duration::from_millis(1500));
        assert!(tests.windows(2).all(|w| w[1].seq == w[0].seq + 1));

        let commits: Vec<Duration> = s
            .iter()
            .filter(|d| d.kind == OpKind::Commit)
            .map(|d| d.at)
            .collect();
        assert_eq!(
            commits,
            [500, 1000, 1500].map(Duration::from_millis).to_vec()
        );
        let topks: Vec<Duration> = s
            .iter()
            .filter(|d| d.kind == OpKind::TopK)
            .map(|d| d.at)
            .collect();
        assert_eq!(topks, [250, 1250].map(Duration::from_millis).to_vec());
        assert_eq!(build(mix()), s, "same mix, same schedule");
    }

    #[test]
    fn schedule_is_in_due_order_and_inside_the_phase() {
        let s = build(mix());
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(s.iter().all(|d| d.at < Duration::from_secs(2)));
        // A commit due at the same instant as a test goes first.
        let i = s
            .iter()
            .position(|d| d.at == Duration::from_millis(500))
            .unwrap();
        assert_eq!(s[i].kind, OpKind::Commit);
        assert_eq!(s[i + 1].kind, OpKind::Test);
    }

    #[test]
    fn latency_counts_from_due_and_lateness_is_separate() {
        let ms = Duration::from_millis;
        // Sent 30 ms late behind a stall, served in 10 ms.
        let c = Completed {
            due: ms(100),
            sent: ms(130),
            done: ms(140),
        };
        assert!((c.latency_ms() - 40.0).abs() < 1e-9);
        assert!((c.late_ms() - 30.0).abs() < 1e-9);
        // On time: lateness is zero, never negative.
        let c = Completed {
            due: ms(100),
            sent: ms(100),
            done: ms(104),
        };
        assert_eq!(c.late_ms(), 0.0);
        assert!((c.latency_ms() - 4.0).abs() < 1e-9);
    }
}
