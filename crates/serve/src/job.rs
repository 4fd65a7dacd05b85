//! Campaign job specifications.
//!
//! A **job** is one campaign the resident service is asked to run: a
//! named, seeded study over some selection of the paper's cell grid.
//! The spec is what `POST /submit` carries, what the WAL's `Submit`
//! record persists, and what [`to_study_config`](JobSpec::to_study_config)
//! lowers onto the refactored `core::study` queue/worker substrate.
//!
//! Retry backoff deliberately has **one** implementation in the whole
//! workspace: the supervisor reuses [`RetryPolicy`] from
//! `services::session` (re-exported here), so the PR 4 property suite
//! covers serve-mode backoff too.

use appvsweb_core::study::{campaign_cells, CellSelection, StudyConfig, StudyConfigError};
use appvsweb_core::CellId;
use appvsweb_netsim::{FaultPlan, SimDuration};
use appvsweb_services::{cell_label, Catalog};
// The single backoff implementation in the workspace (satellite 2):
// serve-mode retries draw from the same type the session layer uses,
// so the PR 4 property suite covers this path too.
pub use appvsweb_services::RetryPolicy;

/// One submitted campaign job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Monitoring-series name; successive revisions with the same name
    /// are diffed for drift.
    pub name: String,
    /// Campaign seed; the revision is a pure function of the spec.
    pub seed: u64,
    /// Session duration per cell, simulated minutes.
    pub minutes: u64,
    /// Fault-plan preset name (`none`/`light`/`moderate`/`heavy`).
    pub faults: String,
    /// Score leaks with the paper's ReCon classifier as well as the
    /// matcher. The server trains that classifier once per session
    /// length (seed 2016, not this job's seed) and reuses it.
    pub use_recon: bool,
    /// Explicit cells to run; empty = the whole (possibly strided) grid.
    pub cells: Vec<CellId>,
    /// Grid stride when `cells` is empty (1 = full grid).
    pub stride: u32,
    /// Simulated-ms budget for the whole job; cells past it are
    /// deadline-skipped. 0 = unlimited.
    pub deadline_ms: u64,
    /// Supervised retries per cell before quarantine (attempts − 1).
    pub max_retries: u32,
    /// Cell labels whose first attempt stalls (stops heartbeating) —
    /// deterministic stuck-worker injection for the supervisor tests.
    pub stall_cells: Vec<String>,
    /// Per-attempt injected-panic probability override (> 0 replaces
    /// the preset's `cell_panic`); 1.0 makes every attempt panic, the
    /// poison-job case the quarantine property test drives.
    pub cell_panic: f64,
}

appvsweb_json::impl_json!(struct JobSpec {
    name,
    seed,
    minutes,
    faults,
    use_recon,
    cells,
    stride,
    deadline_ms,
    max_retries,
    stall_cells,
    cell_panic,
});

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: "campaign".to_string(),
            seed: 7,
            minutes: 4,
            faults: "none".to_string(),
            use_recon: true,
            cells: Vec::new(),
            stride: 1,
            deadline_ms: 0,
            max_retries: 2,
            stall_cells: Vec::new(),
            cell_panic: 0.0,
        }
    }
}

impl JobSpec {
    /// Lower onto a `core::study` configuration, thinning coverage by
    /// `shed_stride` when the admission controller load-shed the job.
    ///
    /// Shedding an explicit cell list keeps every `shed_stride`-th cell;
    /// shedding a grid multiplies the stride. Validation is the same
    /// structured [`StudyConfigError`] path `run_study_checked` uses.
    pub fn to_study_config(
        &self,
        workers: usize,
        shed_stride: u32,
    ) -> Result<StudyConfig, StudyConfigError> {
        let shed = shed_stride.max(1);
        let cells = if !self.cells.is_empty() {
            if shed > 1 {
                CellSelection::Explicit(self.cells.iter().step_by(shed as usize).cloned().collect())
            } else {
                CellSelection::Explicit(self.cells.clone())
            }
        } else {
            let stride = self.stride.max(1).saturating_mul(shed);
            if stride > 1 {
                CellSelection::Strided(stride)
            } else {
                CellSelection::All
            }
        };
        let mut faults = FaultPlan::preset(&self.faults)
            .ok_or_else(|| StudyConfigError::BadFaultPreset(self.faults.clone()))?;
        if self.cell_panic > 0.0 {
            faults.cell_panic = self.cell_panic.min(1.0);
        }
        let cfg = StudyConfig {
            seed: self.seed,
            duration: SimDuration::from_mins(self.minutes),
            workers: workers.max(1),
            use_recon: self.use_recon,
            faults,
            cell_attempts: self.max_retries.saturating_add(1),
            cells,
        };
        let catalog = Catalog::paper();
        cfg.validate(&catalog)?;
        if !self.stall_cells.is_empty() {
            // Against the spec's own selection, not the shed one: a
            // stalled cell that shedding thinned out is not a typo.
            let own = if self.cells.is_empty() {
                CellSelection::Strided(self.stride.max(1))
            } else {
                CellSelection::Explicit(self.cells.clone())
            };
            let labels: Vec<String> = campaign_cells(&catalog, &own)?
                .into_iter()
                .map(|(s, os, medium)| cell_label(s.id, os, medium))
                .collect();
            if let Some(stray) = self.stall_cells.iter().find(|l| !labels.contains(l)) {
                return Err(StudyConfigError::StrayStallCell(stray.clone()));
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appvsweb_json::{FromJson, ToJson};
    use appvsweb_netsim::Os;
    use appvsweb_services::Medium;

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = JobSpec {
            cells: vec![CellId::new("abc", Os::Android, Medium::App)],
            stall_cells: vec!["abc/Android/App".to_string()],
            ..JobSpec::default()
        };
        let back = JobSpec::from_json(&spec.to_json()).expect("roundtrip");
        assert_eq!(back, spec);
    }

    #[test]
    fn shedding_thins_explicit_cell_lists() {
        let catalog = Catalog::paper();
        let ids: Vec<CellId> = catalog
            .testable_on(Os::Android)
            .take(4)
            .map(|s| CellId::new(s.id, Os::Android, Medium::App))
            .collect();
        let spec = JobSpec {
            cells: ids,
            ..JobSpec::default()
        };
        let full = spec.to_study_config(1, 1).expect("full");
        let shed = spec.to_study_config(1, 2).expect("shed");
        let len = |cfg: &StudyConfig| match &cfg.cells {
            CellSelection::Explicit(v) => v.len(),
            other => panic!("expected explicit selection, got {other:?}"),
        };
        assert_eq!(len(&full), 4);
        assert_eq!(len(&shed), 2);
    }

    #[test]
    fn shedding_multiplies_grid_strides() {
        let spec = JobSpec {
            stride: 3,
            ..JobSpec::default()
        };
        let cfg = spec.to_study_config(1, 2).expect("strided");
        assert_eq!(cfg.cells, CellSelection::Strided(6));
    }

    #[test]
    fn bad_fault_preset_and_zero_minutes_are_structured_errors() {
        let spec = JobSpec {
            faults: "nope".to_string(),
            ..JobSpec::default()
        };
        assert!(spec.to_study_config(1, 1).is_err());
        let spec = JobSpec {
            minutes: 0,
            ..JobSpec::default()
        };
        assert!(matches!(
            spec.to_study_config(1, 1),
            Err(StudyConfigError::ZeroDuration)
        ));
    }

    #[test]
    fn stall_labels_must_name_a_cell_of_the_job() {
        let ids: Vec<CellId> = Catalog::paper()
            .testable_on(Os::Android)
            .take(2)
            .map(|s| CellId::new(s.id, Os::Android, Medium::App))
            .collect();
        let spec = |stall: &CellId| JobSpec {
            cells: ids.clone(),
            stall_cells: vec![stall.to_string()],
            ..JobSpec::default()
        };
        // The second cell is shed at stride 2 and still a valid stall.
        assert!(spec(&ids[1]).to_study_config(1, 2).is_ok());
        let typo = CellId::new(&format!("{}x", ids[0].service), Os::Android, Medium::App);
        let web = CellId::new(&ids[0].service, Os::Android, Medium::Web);
        for stray in [typo, web] {
            assert_eq!(
                spec(&stray).to_study_config(1, 1).err(),
                Some(StudyConfigError::StrayStallCell(stray.to_string())),
                "{stray}"
            );
        }
    }

    #[test]
    fn over_long_minutes_are_refused_not_wrapped() {
        // 307445734561825861 minutes wraps to a 44 s session when the
        // conversion to milliseconds overflows.
        for minutes in [24 * 60 + 1, 307_445_734_561_825_861, u64::MAX] {
            let spec = JobSpec {
                minutes,
                ..JobSpec::default()
            };
            assert_eq!(
                spec.to_study_config(1, 1).err(),
                Some(StudyConfigError::DurationTooLong),
                "{minutes} minutes"
            );
        }
    }
}
