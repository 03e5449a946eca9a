//! Figure artefacts: the analytical curves of each paper figure paired
//! with a replicated simulation overlay, ready for JSON emission.
//!
//! Each figure is one row of a settings table: its name, seed namespace,
//! analytic curves and the labelled simulator settings of its overlay.
//! `paper <figure>` folds a row into one [`FigureArtefact`]. The
//! analytical side reproduces the paper's closed-form curves; the
//! simulated side runs the real protocol at simulator-friendly scale
//! through the replication harness ([`rumor_sim::Experiment`]), so the
//! artefact carries `mean/ci95/stddev/n` blocks downstream plotting
//! draws as error bars.

use crate::experiments::FigureSeries;
use crate::json::ToJson;
use crate::simfig::{replicated_series, PushSetting, ReplicatedSeries};
use crate::{experiments, render};
use rumor_metrics::SampleStats;
use rumor_types::derive_seed;
use std::path::{Path, PathBuf};

/// One figure's full payload: the paper's analytical curves plus the
/// replicated simulation overlay.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureArtefact {
    /// Artefact name (also the JSON file stem, e.g. `fig2`).
    pub figure: String,
    /// The closed-form curves from `experiments`.
    pub analytic: Vec<FigureSeries>,
    /// The replicated simulation overlay with dispersion statistics.
    pub simulated: Vec<ReplicatedSeries>,
}

impl FigureArtefact {
    /// Writes the artefact as pretty JSON into `dir` as
    /// `<figure>.json`, creating the directory if needed. Returns the
    /// path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory creation or the
    /// write.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.figure));
        std::fs::write(&path, self.to_json().pretty())?;
        Ok(path)
    }

    /// Renders the analytic summary plus the overlay's error bars.
    pub fn render(&self, title: &str) -> String {
        let replications = self.simulated.first().map_or(0, |s| s.n);
        format!(
            "{}\n{}",
            render::render_summary(title, &self.analytic),
            render::render_replicated(
                &format!("{title} — simulated ({replications} replications)"),
                &self.simulated
            )
        )
    }
}

/// Simulator population of the overlays: the paper's R = 10⁴…10⁸
/// parameter sets, executed at simulator-friendly scale.
const R: usize = 2_000;

/// A [`PushSetting`] by position: population, initially online, `σ`,
/// `f_r` and the `PF(t)` base (`None` for `PF = 1`).
const fn push(
    total: usize,
    online: usize,
    sigma: f64,
    f_r: f64,
    pf_base: Option<f64>,
) -> PushSetting {
    PushSetting {
        total,
        online,
        sigma,
        f_r,
        pf_base,
    }
}

/// Fig. 5's setting at population `total`: 10% online, σ = 1, fanout
/// fixed at R·f_r = 20, PF(t) = 0.9ᵗ.
const fn fig5(total: usize) -> PushSetting {
    push(total, total / 10, 1.0, 20.0 / total as f64, Some(0.9))
}

/// A metric of a replicated curve that a figure draws as error bars.
type Metric = fn(&ReplicatedSeries) -> &SampleStats;

/// One paper figure as data: what it computes, and how it is printed.
pub(crate) struct Figure {
    /// Artefact name: the `paper` experiment name and the JSON file stem.
    pub(crate) name: &'static str,
    /// Seed namespace under the master seed; every overlay curve runs on
    /// `derive_seed(derive_seed(master, namespace), label)`.
    namespace: &'static str,
    /// Heading of the analytic curves' point tables.
    pub(crate) title: &'static str,
    /// Short name that heads the summary and error-bar tables.
    pub(crate) short: &'static str,
    /// The paper's closed-form curves.
    analytic: fn() -> Vec<FigureSeries>,
    /// The simulated overlay: one labelled setting per curve.
    overlay: &'static [(&'static str, PushSetting)],
    /// The metric drawn as error bars, with its heading noun.
    pub(crate) bars: Option<(&'static str, Metric)>,
}

/// Fig. 1's overlay: R_on(0) from 1% to 100% of R (σ = 0.95, PF = 1,
/// f_r = 0.01).
const FIG1: [(&str, PushSetting); 5] = [
    ("sim R_on[0]/R = 20/2000", push(R, 20, 0.95, 0.01, None)),
    ("sim R_on[0]/R = 100/2000", push(R, 100, 0.95, 0.01, None)),
    ("sim R_on[0]/R = 200/2000", push(R, 200, 0.95, 0.01, None)),
    ("sim R_on[0]/R = 600/2000", push(R, 600, 0.95, 0.01, None)),
    ("sim R_on[0]/R = 2000/2000", push(R, R, 0.95, 0.01, None)),
];

/// Every paper figure, in print order. Fig. 1(a) is the dying-rumor
/// curve of Fig. 1(b) alone: it shares the namespace and the label, so
/// its overlay equals Fig. 1(b)'s first curve.
pub(crate) const FIGURES: [Figure; 6] = [
    Figure {
        name: "fig1a",
        namespace: "fig1",
        title: "Fig. 1(a): R_on[0] = 1% — the rumor dies",
        short: "Fig. 1(a)",
        analytic: experiments::fig1a,
        overlay: &[FIG1[0]],
        bars: None,
    },
    Figure {
        name: "fig1b",
        namespace: "fig1",
        title: "Fig. 1(b): varying R_on[0]/R (sigma=0.95, PF=1, f_r=0.01)",
        short: "Fig. 1(b)",
        analytic: experiments::fig1b,
        overlay: &FIG1,
        bars: Some(("awareness", |s| &s.final_awareness)),
    },
    // σ = 0.9, PF = 1, 10% online.
    Figure {
        name: "fig2",
        namespace: "fig2",
        title: "Fig. 2: varying F_r (sigma=0.9, PF=1, R_on[0]=1000)",
        short: "Fig. 2",
        analytic: experiments::fig2,
        overlay: &[
            ("sim F_r = 0.005", push(R, 200, 0.9, 0.005, None)),
            ("sim F_r = 0.01", push(R, 200, 0.9, 0.01, None)),
            ("sim F_r = 0.02", push(R, 200, 0.9, 0.02, None)),
            ("sim F_r = 0.05", push(R, 200, 0.9, 0.05, None)),
        ],
        bars: Some(("msgs/peer", |s| &s.total_per_peer)),
    },
    // PF = 1, 10% online, f_r = 0.01.
    Figure {
        name: "fig3",
        namespace: "fig3",
        title: "Fig. 3: varying sigma (PF=1, R_on[0]=1000, F_r=0.01)",
        short: "Fig. 3",
        analytic: experiments::fig3,
        overlay: &[
            ("sim Sigma = 1", push(R, 200, 1.0, 0.01, None)),
            ("sim Sigma = 0.95", push(R, 200, 0.95, 0.01, None)),
            ("sim Sigma = 0.8", push(R, 200, 0.8, 0.01, None)),
            ("sim Sigma = 0.7", push(R, 200, 0.7, 0.01, None)),
            ("sim Sigma = 0.5", push(R, 200, 0.5, 0.01, None)),
        ],
        bars: Some(("msgs/peer", |s| &s.total_per_peer)),
    },
    // σ = 0.9, 10% online, f_r = 0.01.
    Figure {
        name: "fig4",
        namespace: "fig4",
        title: "Fig. 4: varying PF(t) (sigma=0.9, R_on[0]=1000, F_r=0.01)",
        short: "Fig. 4",
        analytic: experiments::fig4,
        overlay: &[
            ("sim PF = 1", push(R, 200, 0.9, 0.01, None)),
            ("sim PF(t) = 0.9^t", push(R, 200, 0.9, 0.01, Some(0.9))),
            ("sim PF(t) = 0.7^t", push(R, 200, 0.9, 0.01, Some(0.7))),
            ("sim PF(t) = 0.5^t", push(R, 200, 0.9, 0.01, Some(0.5))),
        ],
        bars: Some(("msgs/peer", |s| &s.total_per_peer)),
    },
    Figure {
        name: "fig5",
        namespace: "fig5",
        title: "Fig. 5: scalability (R_on/R=0.1, sigma=1, PF(t)=0.8*0.7^t+0.2, R*f_r=100)",
        short: "Fig. 5",
        analytic: experiments::fig5,
        overlay: &[
            ("sim Total population: 500", fig5(500)),
            ("sim Total population: 1000", fig5(1_000)),
            ("sim Total population: 2000", fig5(2_000)),
            ("sim Total population: 4000", fig5(4_000)),
        ],
        bars: Some(("msgs/peer", |s| &s.total_per_peer)),
    },
];

impl Figure {
    /// Evaluates the analytic curves and runs every overlay curve for
    /// `replications` replications under `master_seed`.
    pub(crate) fn artefact(&self, replications: u32, master_seed: u64) -> FigureArtefact {
        let seed = derive_seed(master_seed, self.namespace);
        FigureArtefact {
            figure: self.name.into(),
            analytic: (self.analytic)(),
            simulated: self
                .overlay
                .iter()
                .map(|&(label, setting)| {
                    replicated_series(label, setting, replications, derive_seed(seed, label))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artefact_json_has_stats_blocks() {
        // A tiny artefact (2 replications, smallest population) keeps the
        // test fast while exercising the whole emission path.
        let artefact = FigureArtefact {
            figure: "figX".into(),
            analytic: experiments::fig1a(),
            simulated: vec![replicated_series(
                "sim",
                PushSetting {
                    total: 200,
                    online: 100,
                    sigma: 1.0,
                    f_r: 0.02,
                    pf_base: None,
                },
                2,
                9,
            )],
        };
        let text = artefact.to_json().pretty();
        for key in [
            "figure",
            "analytic",
            "simulated",
            "mean",
            "ci95",
            "stddev",
            "n",
        ] {
            assert!(
                text.contains(&format!("\"{key}\"")),
                "missing {key} in artefact JSON"
            );
        }
    }

    #[test]
    fn fig1a_overlay_is_fig1b_first_curve() {
        let figure = |name: &str| {
            let row = FIGURES.iter().find(|f| f.name == name).expect("a figure");
            row.artefact(1, 42)
        };
        let (a, b) = (figure("fig1a"), figure("fig1b"));
        assert_eq!(a.simulated.len(), 1);
        assert_eq!(a.simulated[0], b.simulated[0], "label, seed and numbers");
    }

    #[test]
    fn artefact_writes_named_file() {
        let dir = std::env::temp_dir().join("rumor-artefact-test");
        let artefact = FigureArtefact {
            figure: "figtest".into(),
            analytic: Vec::new(),
            simulated: Vec::new(),
        };
        let path = artefact.write_json(&dir).expect("write artefact");
        assert!(path.ends_with("figtest.json"));
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("\"figure\": \"figtest\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
