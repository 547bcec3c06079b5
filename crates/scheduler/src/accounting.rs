//! `sacct`-style accounting: a permanent record of every terminal job.
//!
//! Provenance capture (§5, §7.4) reads this log to document what ran, as
//! which user, charged to which allocation, for how long.

use crate::job::{JobId, JobState};
use hpcci_cluster::Uid;

/// One terminal job record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountingRecord {
    pub job: JobId,
    pub name: String,
    pub user: Uid,
    pub allocation: String,
    pub partition: String,
    pub nodes: u32,
    pub cores_per_node: u32,
    pub state: JobState,
}

/// Append-only accounting log.
#[derive(Debug, Clone, Default)]
pub struct AccountingLog {
    records: Vec<AccountingRecord>,
}

impl AccountingLog {
    pub fn new() -> Self {
        AccountingLog::default()
    }

    pub fn append(&mut self, record: AccountingRecord) {
        debug_assert!(record.state.is_terminal(), "accounting only stores terminal jobs");
        self.records.push(record);
    }

    pub fn records(&self) -> &[AccountingRecord] {
        &self.records
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcci_sim::SimTime;

    fn completed(job: u64, user: u32, alloc: &str, cores: u32, secs: u64) -> AccountingRecord {
        AccountingRecord {
            job: JobId(job),
            name: format!("j{job}"),
            user: Uid(user),
            allocation: alloc.to_string(),
            partition: "compute".to_string(),
            nodes: 1,
            cores_per_node: cores,
            state: JobState::Completed {
                submitted: SimTime::ZERO,
                started: SimTime::from_secs(5),
                ended: SimTime::from_secs(5 + secs),
                success: true,
            },
        }
    }

    #[test]
    fn appends_in_order() {
        let mut log = AccountingLog::new();
        assert!(log.is_empty());
        log.append(completed(1, 1001, "projA", 4, 100));
        log.append(completed(2, 1001, "projA", 2, 50));
        log.append(completed(3, 1002, "projB", 8, 10));
        assert_eq!(log.len(), 3);
        let jobs: Vec<u64> = log.records().iter().map(|r| r.job.0).collect();
        assert_eq!(jobs, [1, 2, 3]);
    }
}
