//! Tandem queueing networks and the roofline flow analysis of
//! Faber et al. \[12\] — the "queueing theory prediction" rows of the
//! paper's Tables 1 and 3.
//!
//! The baseline treats each stage as an M/M/1 queue fed by the pipeline
//! flow (Jackson's theorem makes the tandem decomposition exact for
//! Markovian stages), with every rate normalized to input-referred
//! volumes. Its throughput prediction is the roofline: the smallest
//! normalized average service rate (per-stage M/M/1 metrics are
//! [`crate::Mm1`]'s). The paper observes this is optimistic — the
//! measured BLAST deployment ran ~30% below the roofline — which is
//! exactly the gap the network-calculus bounds close.

use serde::Serialize;

use crate::mm1::QueueError;

/// One stage of the tandem model: a name plus the *normalized* average
/// service rate (input-referred bytes per second).
#[derive(Clone, Debug, Serialize)]
pub struct TandemStage {
    /// Stage name.
    pub name: String,
    /// Normalized average service rate (bytes/s).
    pub rate: f64,
}

/// Roofline flow analysis of a tandem of stages.
#[derive(Clone, Debug, Serialize)]
pub struct TandemAnalysis {
    /// Roofline throughput: `min(source rate, min stage rate)` — the
    /// queueing-theory throughput prediction.
    pub roofline: f64,
    /// Name of the bottleneck stage (or `"source"`).
    pub bottleneck: String,
}

/// Analyze a tandem network fed at `source_rate` (input-referred
/// bytes/s): the roofline and the stage that sets it.
pub fn analyze_tandem(
    source_rate: f64,
    stages: &[TandemStage],
) -> Result<TandemAnalysis, QueueError> {
    if !(source_rate.is_finite() && source_rate > 0.0) {
        return Err(QueueError::BadParameters);
    }
    if stages.is_empty() || stages.iter().any(|s| !(s.rate.is_finite() && s.rate > 0.0)) {
        return Err(QueueError::BadParameters);
    }
    let mut roofline = source_rate;
    let mut bottleneck = "source".to_string();
    for s in stages {
        if s.rate < roofline {
            roofline = s.rate;
            bottleneck = s.name.clone();
        }
    }
    Ok(TandemAnalysis {
        roofline,
        bottleneck,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, rate: f64) -> TandemStage {
        TandemStage {
            name: name.into(),
            rate,
        }
    }

    #[test]
    fn roofline_finds_bottleneck() {
        let a = analyze_tandem(
            1000.0,
            &[
                stage("fast", 5000.0),
                stage("slow", 600.0),
                stage("mid", 2000.0),
            ],
        )
        .unwrap();
        assert_eq!(a.roofline, 600.0);
        assert_eq!(a.bottleneck, "slow");
    }

    #[test]
    fn source_limited_when_stages_fast() {
        let a = analyze_tandem(100.0, &[stage("s", 400.0)]).unwrap();
        assert_eq!(a.roofline, 100.0);
        assert_eq!(a.bottleneck, "source");
    }

    #[test]
    fn validation() {
        assert!(analyze_tandem(0.0, &[stage("a", 1.0)]).is_err());
        assert!(analyze_tandem(1.0, &[]).is_err());
        assert!(analyze_tandem(1.0, &[stage("a", f64::NAN)]).is_err());
    }
}
