//! Survey container, metadata and the streaming sink probers write into.

use crate::record::{Record, RecordKind};

/// Identity of one survey, mirroring ISI's naming (`IT63w` = survey 63
/// from vantage `w`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurveyMeta {
    /// Survey name, e.g. `IT63w`.
    pub name: String,
    /// Vantage-point code letter (`w`, `c`, `j`, `g`).
    pub vantage: char,
    /// Calendar year the survey models.
    pub year: u16,
    /// Label date, `YYYYMMDD` as ISI names them (e.g. 20150117).
    pub date_label: u32,
}

impl SurveyMeta {
    /// Compose the ISI-style display name, e.g. `IT63w (20150117)`.
    pub fn display_name(&self) -> String {
        format!("{} ({})", self.name, self.date_label)
    }
}

/// Anything that accepts a stream of records. Probers write through this
/// so large runs can stream to disk instead of accumulating in memory.
pub trait RecordSink {
    /// Append one record.
    fn push(&mut self, record: Record);
}

impl RecordSink for Vec<Record> {
    fn push(&mut self, record: Record) {
        Vec::push(self, record);
    }
}

/// Counting sink: keeps only aggregate statistics (for huge runs).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SurveyStats {
    /// Matched (survey-detected) responses.
    pub matched: u64,
    /// Timed-out probes.
    pub timeouts: u64,
    /// Unmatched responses.
    pub unmatched: u64,
    /// ICMP errors.
    pub errors: u64,
}

impl SurveyStats {
    /// Total probes that were answered or timed out (excludes unmatched,
    /// which are responses, not probes).
    pub fn probes(&self) -> u64 {
        self.matched + self.timeouts + self.errors
    }

    /// Fraction of probes that were matched — the "response rate" plotted
    /// in the lower panel of the paper's Figure 9.
    pub fn response_rate(&self) -> f64 {
        let probes = self.probes();
        if probes == 0 {
            0.0
        } else {
            self.matched as f64 / probes as f64
        }
    }

    /// Fold in one record.
    pub fn count(&mut self, record: &Record) {
        match record.kind {
            RecordKind::Matched { .. } => self.matched += 1,
            RecordKind::Timeout => self.timeouts += 1,
            RecordKind::Unmatched { .. } => self.unmatched += 1,
            RecordKind::IcmpError { .. } => self.errors += 1,
        }
    }
}

impl RecordSink for SurveyStats {
    fn push(&mut self, record: Record) {
        self.count(&record);
    }
}

/// A survey: metadata plus its records, with derived statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Survey {
    /// Identity.
    pub meta: SurveyMeta,
    /// All records, in prober emission order.
    pub records: Vec<Record>,
}

impl Survey {
    /// An empty survey.
    pub fn new(meta: SurveyMeta) -> Self {
        Survey { meta, records: Vec::new() }
    }

    /// Aggregate statistics over the records.
    pub fn stats(&self) -> SurveyStats {
        let mut s = SurveyStats::default();
        for r in &self.records {
            s.count(r);
        }
        s
    }

    /// Distinct addresses with at least one matched response.
    pub fn responsive_addresses(&self) -> usize {
        let mut addrs: Vec<u32> =
            self.records.iter().filter(|r| r.is_matched()).map(|r| r.addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        addrs.len()
    }
}

impl RecordSink for Survey {
    fn push(&mut self, record: Record) {
        self.records.push(record);
    }
}

/// A sink that duplicates records into two sinks (e.g. a file writer plus
/// running statistics).
#[derive(Debug)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: RecordSink, B: RecordSink> RecordSink for TeeSink<A, B> {
    fn push(&mut self, record: Record) {
        self.0.push(record);
        self.1.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> SurveyMeta {
        SurveyMeta { name: "IT63w".into(), vantage: 'w', year: 2015, date_label: 20150117 }
    }

    #[test]
    fn display_name_matches_isi_style() {
        assert_eq!(meta().display_name(), "IT63w (20150117)");
    }

    #[test]
    fn stats_count_kinds_and_rate() {
        let mut s = Survey::new(meta());
        s.push(Record::matched(1, 0, 100));
        s.push(Record::matched(1, 660, 120));
        s.push(Record::timeout(2, 0));
        s.push(Record::unmatched(2, 7));
        s.push(Record::icmp_error(3, 1, 1));
        let st = s.stats();
        assert_eq!(st.matched, 2);
        assert_eq!(st.timeouts, 1);
        assert_eq!(st.unmatched, 1);
        assert_eq!(st.errors, 1);
        assert_eq!(st.probes(), 4);
        assert!((st.response_rate() - 0.5).abs() < 1e-12);
        assert_eq!(s.responsive_addresses(), 1);
    }

    #[test]
    fn empty_stats_are_zero() {
        let st = SurveyStats::default();
        assert_eq!(st.probes(), 0);
        assert_eq!(st.response_rate(), 0.0);
    }

    #[test]
    fn tee_sink_duplicates() {
        let mut tee = TeeSink(Vec::new(), SurveyStats::default());
        tee.push(Record::matched(9, 1, 5));
        tee.push(Record::timeout(9, 2));
        assert_eq!(tee.0.len(), 2);
        assert_eq!(tee.1.matched, 1);
        assert_eq!(tee.1.timeouts, 1);
    }
}
